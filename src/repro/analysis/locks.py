"""Shared lock model for the concurrency rules.

Three checkers (LOCK-ORDER, LOCK-LEAK, GUARD-CONSISTENCY) need the same
three ingredients, so they live here once:

- **Lock discovery** — which attributes of a class (or bindings of a
  module) are ``threading.Lock`` / ``RLock`` / ``Condition`` /
  ``Semaphore`` objects. Recognised forms: ``self._x = threading.Lock()``
  in any method, class-level declarations (dataclass
  ``field(default_factory=threading.Lock)`` included), and module-level
  ``_LOCK = threading.Lock()`` assignments.
- **Lock keys** — :func:`lock_key` is the one map from an expression to
  the lock it names: ``self.X``, ``getattr(self, "X", …)``, a module
  lock, a local alias of any of these (``lifecycle = self._lifecycle``),
  and a fresh local ``threading.Lock()``.
- **Held-context walking** — :func:`iter_with_held`, a statement-ordered
  walk of one function that tracks which locks are held at every node:
  ``with self._lock:`` nesting, bare ``acquire()``/``release()`` pairs
  tracked linearly within a block, and the repo's documented
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
from typing import Container, Iterator, Mapping, NamedTuple

from repro.analysis.base import assignment, dotted_name, self_attr, terminal_name
from repro.analysis.base import walk_function_scope
from repro.analysis.project import SourceModule

__all__ = [
    "AMBIENT_GUARD",
    "LOCKED_SUFFIX",
    "LOCK_FACTORIES",
    "ClassLockInfo",
    "HeldEvent",
    "LockDef",
    "collect_class_locks",
    "collect_local_locks",
    "collect_module_locks",
    "iter_with_held",
    "lock_call_kind",
    "lock_def",
    "lock_display",
    "lock_key",
]

#: ``threading`` constructors whose result is a lock worth tracking.
LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

#: Repo convention: a method named ``*_locked`` is called with the
#: class lock already held — it walks under this synthetic guard.
LOCKED_SUFFIX = "_locked"
AMBIENT_GUARD = "<caller-held>"

#: Methods whose unguarded accesses are initialization/teardown, not
#: shared-state races: the object is not yet (or no longer) published.
INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__", "__del__"})

#: Key prefixes that keep module locks and fresh function-local locks
#: apart from class attribute names (and from each other).
MODULE_KEY = "::"
LOCAL_KEY = "<local>"


def _factory_kind(node: ast.expr) -> str | None:
    """``threading.Lock`` / bare ``RLock`` → its kind, else None."""
    term = terminal_name(node)
    if term in LOCK_FACTORIES and dotted_name(node) in (term, f"threading.{term}"):
        return term
    return None


def lock_call_kind(node: ast.expr | None) -> str | None:
    """``threading.Lock()`` / bare ``RLock()`` → its kind, else None."""
    return _factory_kind(node.func) if isinstance(node, ast.Call) else None


def _field_default_factory_kind(node: ast.expr | None) -> str | None:
    """``field(default_factory=threading.Lock)`` → ``"Lock"``."""
    if not isinstance(node, ast.Call) or terminal_name(node.func) != "field":
        return None
    for kw in node.keywords:
        if kw.arg == "default_factory":
            return _factory_kind(kw.value)
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

        def define(attr: str, kind: str, line: int) -> None:
            info.locks.setdefault(attr, LockDef(stmt.name, attr, kind, module.relpath, line))

        for item in stmt.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods.setdefault(item.name, item)
                continue
            # Class level, dataclass-style included:
            # `_lock: threading.RLock = field(default_factory=...)`.
            targets, value = assignment(item)
            kind = _field_default_factory_kind(value) or lock_call_kind(value)
            for target in targets:
                if kind and isinstance(target, ast.Name):
                    define(target.id, kind, item.lineno)
        for method in info.methods.values():
            for node in ast.walk(method):
                targets, value = assignment(node)
                for attr in filter(None, map(self_attr, targets)):
                    kind = lock_call_kind(value)
                    if kind is not None:
                        define(attr, kind, node.lineno)
                    elif isinstance(value, ast.Call):
                        ctor = terminal_name(value.func)
                        if ctor and ctor[:1].isupper():
                            info.attr_types.setdefault(attr, ctor)
        if info.locks:
            out[stmt.name] = info
    return out


def collect_module_locks(module: SourceModule) -> dict[str, LockDef]:
    """Module-level ``NAME = threading.Lock()`` bindings."""
    assert module.tree is not None
    out: dict[str, LockDef] = {}
    for stmt in module.tree.body:
        targets, value = assignment(stmt)
        kind = lock_call_kind(value)
        if kind is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = LockDef("", target.id, kind, module.relpath, stmt.lineno)
    return out


def collect_local_locks(
    func: ast.FunctionDef | ast.AsyncFunctionDef, path: str
) -> dict[str, LockDef]:
    """Fresh ``name = threading.Lock()`` bindings in ``func``'s own
    scope, by name: what :func:`lock_key`'s ``"<local>name"`` keys stand for."""
    out: dict[str, LockDef] = {}
    for node in walk_function_scope(func):
        targets, value = assignment(node)
        kind = lock_call_kind(value)
        if kind and len(targets) == 1 and isinstance(targets[0], ast.Name):
            out[targets[0].id] = LockDef(func.name, targets[0].id, kind, path, node.lineno)
    return out


def lock_key(
    expr: ast.expr,
    class_locks: Container[str],
    module_locks: Container[str],
    aliases: Mapping[str, str],
    binds: str | None = None,
) -> str | None:
    """The key of the lock ``expr`` names, or ``None``.

    ``self.X`` and ``getattr(self, "X", …)`` with ``X`` in
    ``class_locks`` → ``"X"``; a module lock ``M`` → ``"::M"``; a local
    alias → the key it was bound to. ``binds`` is the local name an
    assignment binds ``expr`` to: a fresh ``threading.Lock()`` there is
    keyed by that name, ``"<local>name"``.
    """
    if isinstance(expr, ast.Name):
        if expr.id in aliases:
            return aliases[expr.id]
        return MODULE_KEY + expr.id if expr.id in module_locks else None
    attr = self_attr(expr)
    if (
        isinstance(expr, ast.Call)
        and terminal_name(expr.func) == "getattr"
        and len(expr.args) >= 2
        and dotted_name(expr.args[0]) == "self"
        and isinstance(expr.args[1], ast.Constant)
    ):
        attr = expr.args[1].value
    if attr is not None and attr in class_locks:
        return attr
    if binds is not None and lock_call_kind(expr) is not None:
        return LOCAL_KEY + binds
    return None


def lock_def(
    key: str,
    class_locks: Mapping[str, LockDef],
    module_locks: Mapping[str, LockDef],
    local_locks: Mapping[str, LockDef] | None = None,
) -> LockDef | None:
    """The definition behind a :func:`lock_key` key (``None`` for the
    ambient guard, or a fresh local lock when ``local_locks`` — from
    :func:`collect_local_locks` — is not given)."""
    if key.startswith(MODULE_KEY):
        return module_locks.get(key[len(MODULE_KEY):])
    if key.startswith(LOCAL_KEY):
        return (local_locks or {}).get(key[len(LOCAL_KEY):])
    return class_locks.get(key)


def lock_display(key: str) -> str:
    """A key as the source spells it: ``self.X``, ``M`` or ``name``."""
    for prefix in (MODULE_KEY, LOCAL_KEY):
        if key.startswith(prefix):
            return key[len(prefix):]
    return f"self.{key}"


@dataclass(frozen=True)
class HeldEvent:
    """One walked node plus the locks held when control reaches it.

    ``kind`` is ``"node"`` for ordinary nodes and ``"acquire"`` at the
    exact point a lock is taken (``with`` item or bare ``acquire()``)
    — ``lock`` then names the key being acquired and ``held`` is the
    set held *before* it. On a ``"node"`` event for a method call on a
    lock (``lk.acquire(…)``, ``cv.wait()``), ``lock`` is the receiver's
    key. ``in_while`` marks nodes inside a ``while`` body, at any
    depth."""

    kind: str
    node: ast.AST
    held: tuple[str, ...]
    lock: str | None = None
    in_while: bool = False


class _At(NamedTuple):
    """Where the walk is: the locks held and the enclosing blocks."""

    held: tuple[str, ...]
    in_while: bool = False

    def event(self, kind: str, node: ast.AST, lock: str | None = None) -> HeldEvent:
        return HeldEvent(kind, node, self.held, lock, self.in_while)


def iter_with_held(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    class_locks: Container[str] = frozenset(),
    module_locks: Container[str] = frozenset(),
) -> Iterator[HeldEvent]:
    """Walk ``func`` in statement order, tracking held locks.

    ``class_locks`` are the owning class's lock attribute names (matched
    as ``self.X``); ``module_locks`` are module-level lock bindings. A
    ``*_locked`` function starts under the ambient guard. A fresh local
    lock is resolved but never held: no other thread can reach it, so
    it guards nothing.
    """
    aliases: dict[str, str] = {}
    scope = (class_locks, module_locks, aliases)

    def note_alias(stmt: ast.stmt) -> None:
        targets, value = assignment(stmt)
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return
        name = targets[0].id
        key = lock_key(value, *scope, binds=name)
        if key is not None:
            aliases[name] = key
        else:
            aliases.pop(name, None)

    def take(held: list[str], key: str | None) -> None:
        if key is not None and key not in held and not key.startswith(LOCAL_KEY):
            held.append(key)

    def yield_expr(node: ast.AST, at: _At) -> Iterator[HeldEvent]:
        for sub in ast.walk(node):
            lock = None
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                lock = lock_key(sub.func.value, *scope)
            yield at.event("node", sub, lock)

    def walk_body(body: list[ast.stmt], at: _At) -> Iterator[HeldEvent]:
        running = list(at.held)
        for stmt in body:
            note_alias(stmt)
            here = at._replace(held=tuple(running))
            # `X.acquire()` / `X.release()` statements (or assignments
            # from one) are tracked linearly through the block.
            call = stmt.value if isinstance(stmt, (ast.Expr, ast.Assign)) else None
            func = call.func if isinstance(call, ast.Call) else None
            method = func.attr if isinstance(func, ast.Attribute) else None
            key = lock_key(func.value, *scope) if method in ("acquire", "release") else None
            if method == "acquire" and key is not None:
                yield here.event("acquire", stmt, key)
            yield from walk_stmt(stmt, here)
            if method == "acquire":
                take(running, key)
            elif key in running:
                running.remove(key)

    def walk_stmt(stmt: ast.stmt, at: _At) -> Iterator[HeldEvent]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested scope: only decorators/defaults evaluate here (and
            # under these locks); the body is visited by iter_functions.
            for expr in stmt.decorator_list + stmt.args.defaults:
                yield from yield_expr(expr, at)
            for default in stmt.args.kw_defaults:
                if default is not None:
                    yield from yield_expr(default, at)
            return
        if isinstance(stmt, ast.ClassDef):
            for dec in stmt.decorator_list:
                yield from yield_expr(dec, at)
            yield from walk_body(stmt.body, at)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            entered = list(at.held)
            for item in stmt.items:
                here = at._replace(held=tuple(entered))
                yield from yield_expr(item.context_expr, here)
                if item.optional_vars is not None:
                    yield from yield_expr(item.optional_vars, here)
                key = lock_key(item.context_expr, *scope)
                if key is not None:
                    yield here.event("acquire", item.context_expr, key)
                    take(entered, key)
            yield from walk_body(stmt.body, at._replace(held=tuple(entered)))
            return
        if isinstance(stmt, ast.While):
            yield from yield_expr(stmt.test, at)
            yield from walk_body(stmt.body, at._replace(in_while=True))
            yield from walk_body(stmt.orelse, at)
            return
        if isinstance(stmt, ast.If):
            # `if X.acquire(...):` holds X in its body only: the call
            # returned True there and False in the `else`.
            yield from yield_expr(stmt.test, at)
            test = stmt.test
            key = (
                lock_key(test.func.value, *scope)
                if isinstance(test, ast.Call)
                and isinstance(test.func, ast.Attribute)
                and test.func.attr == "acquire"
                else None
            )
            guarded = list(at.held)
            if key is not None:
                yield at.event("acquire", test, key)
                take(guarded, key)
            yield from walk_body(stmt.body, at._replace(held=tuple(guarded)))
            yield from walk_body(stmt.orelse, at)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            yield from yield_expr(stmt.target, at)
            yield from yield_expr(stmt.iter, at)
            yield from walk_body(stmt.body, at)
            yield from walk_body(stmt.orelse, at)
            return
        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            yield from walk_body(stmt.body, at)
            for handler in stmt.handlers:
                if handler.type is not None:
                    yield from yield_expr(handler.type, at)
                yield from walk_body(handler.body, at)
            yield from walk_body(stmt.orelse, at)
            yield from walk_body(stmt.finalbody, at)
            return
        if isinstance(stmt, ast.Match):
            yield from yield_expr(stmt.subject, at)
            for case in stmt.cases:
                if case.guard is not None:
                    yield from yield_expr(case.guard, at)
                yield from walk_body(case.body, at)
            return
        # Simple statement: no nested statements, yield the whole subtree.
        yield from yield_expr(stmt, at)

    ambient = func.name.endswith(LOCKED_SUFFIX)
    yield from walk_body(func.body, _At((AMBIENT_GUARD,) if ambient else ()))
