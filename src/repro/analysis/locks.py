"""Shared lock model for the concurrency rules.

Three checkers (LOCK-ORDER, LOCK-LEAK, GUARD-CONSISTENCY) need the same
two ingredients, so they live here once:

- **Lock discovery** — which attributes of a class (or bindings of a
  module) are ``threading.Lock`` / ``RLock`` / ``Condition`` /
  ``Semaphore`` objects. Recognised forms: ``self._x = threading.Lock()``
  in any method, dataclass ``field(default_factory=threading.Lock)``
  class-level declarations, and module-level ``_LOCK = threading.Lock()``
  assignments.
- **Held-context walking** — a statement-ordered walk of one function
  that tracks which locks are held at every node: ``with self._lock:``
  nesting, bare ``acquire()``/``release()`` pairs tracked linearly
  within a block, local aliases (``lifecycle = self._lifecycle`` or
  ``getattr(self, "_lifecycle", None)``), and the repo's documented
  ``*_locked`` naming convention (a method whose name ends in
  ``_locked`` is specified as *called with the lock already held*, so
  it walks with an ambient guard).

Nested ``def`` bodies are pruned exactly as
:func:`repro.analysis.base.walk_function_scope` does — they run in
their own scope/time and are visited separately by ``iter_functions``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.base import dotted_name, terminal_name
from repro.analysis.project import SourceModule

__all__ = [
    "AMBIENT_GUARD",
    "LOCKED_SUFFIX",
    "LOCK_FACTORIES",
    "REENTRANT_KINDS",
    "ClassLockInfo",
    "HeldEvent",
    "LockDef",
    "collect_class_locks",
    "collect_module_locks",
    "iter_with_held",
    "lock_call_kind",
]

#: ``threading`` constructors whose result is a lock worth tracking.
LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

#: Kinds that may be re-acquired by the owning thread without deadlock
#: (``Condition()`` wraps an RLock by default).
REENTRANT_KINDS = {"RLock", "Condition", "Semaphore", "BoundedSemaphore"}

#: Repo convention: a method named ``*_locked`` is called with the
#: class lock already held — it walks under this synthetic guard.
LOCKED_SUFFIX = "_locked"
AMBIENT_GUARD = "<caller-held>"

#: Methods whose unguarded accesses are initialization/teardown, not
#: shared-state races: the object is not yet (or no longer) published.
INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__", "__del__"})


def lock_call_kind(node: ast.expr) -> str | None:
    """``threading.Lock()`` / bare ``RLock()`` → its kind, else None."""
    if not isinstance(node, ast.Call):
        return None
    term = terminal_name(node.func)
    if term not in LOCK_FACTORIES:
        return None
    dotted = dotted_name(node.func)
    if dotted in (term, f"threading.{term}"):
        return term
    return None


def _field_default_factory_kind(node: ast.expr) -> str | None:
    """``field(default_factory=threading.Lock)`` → ``"Lock"``."""
    if not isinstance(node, ast.Call) or terminal_name(node.func) != "field":
        return None
    for kw in node.keywords:
        if kw.arg != "default_factory":
            continue
        term = terminal_name(kw.value)
        if term in LOCK_FACTORIES:
            dotted = dotted_name(kw.value)
            if dotted in (term, f"threading.{term}"):
                return term
    return None


@dataclass(frozen=True)
class LockDef:
    """One lock object's definition site."""

    owner: str  # class name, or "" for a module-level lock
    attr: str  # attribute name (or module binding name)
    kind: str  # "Lock" | "RLock" | "Condition" | ...
    path: str  # repo-relative file
    line: int  # definition line

    @property
    def site(self) -> str:
        """``path:line`` — the join key with the runtime watchdog,
        whose wrappers record the same creation site."""
        return f"{self.path}:{self.line}"

    @property
    def display(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


@dataclass
class ClassLockInfo:
    """Locks, methods and constructor-resolved attribute types of one class."""

    name: str
    node: ast.ClassDef
    locks: dict[str, LockDef] = field(default_factory=dict)
    #: method name → def node (top-level methods only).
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    #: ``self.attr = SomeClass(...)`` → attr → "SomeClass" (resolved to a
    #: real class, when unambiguous, by the LOCK-ORDER delegation pass).
    attr_types: dict[str, str] = field(default_factory=dict)


def collect_class_locks(module: SourceModule) -> dict[str, ClassLockInfo]:
    """Top-level classes of ``module`` that own at least one lock-shaped
    attribute (classes without locks are omitted — nothing to check)."""
    assert module.tree is not None
    out: dict[str, ClassLockInfo] = {}
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        info = ClassLockInfo(name=stmt.name, node=stmt)
        for item in stmt.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods.setdefault(item.name, item)
            # Dataclass-style: `_lock: threading.RLock = field(default_factory=...)`
            elif isinstance(item, ast.AnnAssign) and item.value is not None:
                if isinstance(item.target, ast.Name):
                    kind = _field_default_factory_kind(item.value) or lock_call_kind(
                        item.value
                    )
                    if kind is not None:
                        info.locks[item.target.id] = LockDef(
                            owner=stmt.name,
                            attr=item.target.id,
                            kind=kind,
                            path=module.relpath,
                            line=item.lineno,
                        )
        for method in info.methods.values():
            for node in ast.walk(method):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None:
                    continue
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    kind = lock_call_kind(value)
                    if kind is not None:
                        info.locks.setdefault(
                            target.attr,
                            LockDef(
                                owner=stmt.name,
                                attr=target.attr,
                                kind=kind,
                                path=module.relpath,
                                line=node.lineno,
                            ),
                        )
                    elif isinstance(value, ast.Call):
                        ctor = terminal_name(value.func)
                        if ctor and ctor[:1].isupper():
                            info.attr_types.setdefault(target.attr, ctor)
        if info.locks:
            out[stmt.name] = info
    return out


def collect_module_locks(module: SourceModule) -> dict[str, LockDef]:
    """Module-level ``NAME = threading.Lock()`` bindings."""
    assert module.tree is not None
    out: dict[str, LockDef] = {}
    for stmt in module.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        kind = lock_call_kind(value)
        if kind is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = LockDef(
                    owner="",
                    attr=target.id,
                    kind=kind,
                    path=module.relpath,
                    line=stmt.lineno,
                )
    return out


@dataclass(frozen=True)
class HeldEvent:
    """One walked node plus the locks held when control reaches it.

    ``kind`` is ``"node"`` for ordinary nodes and ``"acquire"`` at the
    exact point a lock is taken (``with`` item or bare ``acquire()``)
    — ``lock`` then names the key being acquired and ``held`` is the
    set held *before* it."""

    kind: str
    node: ast.AST
    held: tuple[str, ...]
    lock: str | None = None


#: Module-level lock keys are prefixed so they cannot collide with
#: attribute names.
_MODULE_KEY = "::"


def iter_with_held(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    lock_attrs: frozenset[str] | set[str] = frozenset(),
    module_locks: frozenset[str] | set[str] = frozenset(),
) -> Iterator[HeldEvent]:
    """Walk ``func`` in statement order, tracking held locks.

    ``lock_attrs`` are the owning class's lock attribute names (matched
    as ``self.X``); ``module_locks`` are module-level lock bindings. A
    ``*_locked`` function starts under the ambient guard.
    """
    aliases: dict[str, str] = {}

    def lock_key(expr: ast.expr) -> str | None:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in lock_attrs
        ):
            return expr.attr
        if isinstance(expr, ast.Name):
            if expr.id in aliases:
                return aliases[expr.id]
            if expr.id in module_locks:
                return _MODULE_KEY + expr.id
        return None

    def note_alias(stmt: ast.stmt) -> None:
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            return
        name = stmt.targets[0].id
        key = lock_key(stmt.value)
        if key is None and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if (
                terminal_name(call.func) == "getattr"
                and len(call.args) >= 2
                and isinstance(call.args[0], ast.Name)
                and call.args[0].id == "self"
                and isinstance(call.args[1], ast.Constant)
                and call.args[1].value in lock_attrs
            ):
                key = call.args[1].value
        if key is not None:
            aliases[name] = key
        else:
            aliases.pop(name, None)

    def acquire_release_key(stmt: ast.stmt, method: str) -> str | None:
        """Key of ``X.acquire()`` / ``X.release()`` expression (or
        assignment-from-acquire) statements, for linear tracking."""
        value: ast.expr | None = None
        if isinstance(stmt, ast.Expr):
            value = stmt.value
        elif isinstance(stmt, ast.Assign):
            value = stmt.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == method
        ):
            return lock_key(value.func.value)
        return None

    def yield_expr(node: ast.AST, held: tuple[str, ...]) -> Iterator[HeldEvent]:
        for sub in ast.walk(node):
            yield HeldEvent("node", sub, held)

    def walk_body(body: list[ast.stmt], held: tuple[str, ...]) -> Iterator[HeldEvent]:
        running = list(held)
        for stmt in body:
            note_alias(stmt)
            acquired = acquire_release_key(stmt, "acquire")
            if acquired is not None:
                yield HeldEvent("acquire", stmt, tuple(running), lock=acquired)
            yield from walk_stmt(stmt, tuple(running))
            if acquired is not None and acquired not in running:
                running.append(acquired)
            released = acquire_release_key(stmt, "release")
            if released is not None and released in running:
                running.remove(released)

    def walk_stmt(stmt: ast.stmt, held: tuple[str, ...]) -> Iterator[HeldEvent]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested scope: only decorators/defaults evaluate here (and
            # under these locks); the body is visited by iter_functions.
            for dec in stmt.decorator_list:
                yield from yield_expr(dec, held)
            for default in stmt.args.defaults:
                yield from yield_expr(default, held)
            for default in stmt.args.kw_defaults:
                if default is not None:
                    yield from yield_expr(default, held)
            return
        if isinstance(stmt, ast.ClassDef):
            for dec in stmt.decorator_list:
                yield from yield_expr(dec, held)
            yield from walk_body(stmt.body, held)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            entered = list(held)
            for item in stmt.items:
                yield from yield_expr(item.context_expr, tuple(entered))
                if item.optional_vars is not None:
                    yield from yield_expr(item.optional_vars, tuple(entered))
                key = lock_key(item.context_expr)
                if key is not None:
                    yield HeldEvent("acquire", item.context_expr, tuple(entered), lock=key)
                    if key not in entered:
                        entered.append(key)
            yield from walk_body(stmt.body, tuple(entered))
            return
        if isinstance(stmt, (ast.If, ast.While)):
            yield from yield_expr(stmt.test, held)
            yield from walk_body(stmt.body, held)
            yield from walk_body(stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            yield from yield_expr(stmt.target, held)
            yield from yield_expr(stmt.iter, held)
            yield from walk_body(stmt.body, held)
            yield from walk_body(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            yield from walk_body(stmt.body, held)
            for handler in stmt.handlers:
                if handler.type is not None:
                    yield from yield_expr(handler.type, held)
                yield from walk_body(handler.body, held)
            yield from walk_body(stmt.orelse, held)
            yield from walk_body(stmt.finalbody, held)
            return
        if isinstance(stmt, ast.Match):
            yield from yield_expr(stmt.subject, held)
            for case in stmt.cases:
                if case.guard is not None:
                    yield from yield_expr(case.guard, held)
                yield from walk_body(case.body, held)
            return
        # Simple statement: no nested statements, yield the whole subtree.
        yield from yield_expr(stmt, held)

    ambient = func.name.endswith(LOCKED_SUFFIX)
    start: tuple[str, ...] = (AMBIENT_GUARD,) if ambient else ()
    yield from walk_body(func.body, start)
