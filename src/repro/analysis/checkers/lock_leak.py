"""LOCK-LEAK: acquisitions that can escape and waits that can't trust
their wake-up.

Two shapes, both of which the repo's own history makes load-bearing:

- A bare ``lock.acquire()`` that no ``try: … finally: lock.release()``
  guards leaks the lock on any exception between acquire and release —
  every other thread then blocks forever. (``with lock:`` is the fix; a
  try/finally release is accepted for the split-acquire patterns a
  context manager can't express.) A ``try`` guards the acquires in its
  body and the one right before it: in the statement before it, or in
  the test of the ``if`` whose body it opens. Any other acquire of the
  same lock in the function is still bare.
- ``Condition.wait()`` outside a ``while predicate`` loop acts on
  spurious wake-ups and missed-signal races: ``wait()`` may return
  without a ``notify`` and the predicate may already be false again by
  the time the waiter runs. The JobManager worker loop and the engine
  drain both re-check in a loop; this rule keeps it that way.
  (``wait_for`` loops internally and is exempt.)

Receivers resolve through the shared lock model
(:func:`repro.analysis.locks.lock_key`) — ``self.<attr>`` where the
attribute was seen constructed as a ``threading`` lock in this class, a
module-level lock binding, a local alias of either, or a fresh local
lock, whose constructor gives its kind
(:func:`repro.analysis.locks.collect_local_locks`). ``barrier.wait()``
on an unknown receiver is not assumed to be a Condition.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.base import ModuleChecker, iter_functions, walk_function_scope
from repro.analysis.findings import Finding
from repro.analysis.locks import (
    collect_class_locks,
    collect_local_locks,
    collect_module_locks,
    iter_with_held,
    lock_def,
    lock_display,
)
from repro.analysis.project import SourceModule


class LockLeakChecker(ModuleChecker):
    rule_id = "LOCK-LEAK"
    description = (
        "bare acquire() without with/finally release, or Condition.wait() "
        "outside a predicate re-check loop"
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        assert module.tree is not None
        class_infos = collect_class_locks(module)
        module_locks = collect_module_locks(module)
        for func, cls in iter_functions(module.tree):
            info = class_infos.get(cls.name) if cls is not None else None
            class_locks = info.locks if info else {}
            where = f"{cls.name}.{func.name}" if cls is not None else func.name
            local_locks = collect_local_locks(func, module.relpath)
            acquires: list[tuple[ast.AST, str]] = []
            lock_calls: dict[int, str] = {}  # id of an acquire/release call → its lock
            for event in iter_with_held(func, class_locks, module_locks):
                if event.kind != "node" or event.lock is None:
                    continue
                method = event.node.func.attr
                if method == "acquire":
                    acquires.append((event.node, event.lock))
                    lock_calls[id(event.node)] = event.lock
                elif method == "release":
                    lock_calls[id(event.node)] = event.lock
                elif method == "wait" and not event.in_while:
                    lock = lock_def(event.lock, class_locks, module_locks, local_locks)
                    if lock is not None and lock.kind == "Condition":
                        name = lock_display(event.lock)
                        yield self.finding(
                            module,
                            event.node,
                            f"{name}.wait() in {where}() outside a 'while "
                            "predicate' loop — spurious wake-ups and missed "
                            "signals break the invariant; re-check the "
                            "predicate in a loop or use wait_for()",
                        )
            guarded = _guarded_acquires(func, lock_calls)
            for node, key in acquires:
                if id(node) not in guarded:
                    name = lock_display(key)
                    yield self.finding(
                        module,
                        node,
                        f"bare {name}.acquire() in {where}() with no matching "
                        "release() in a finally — an exception leaks the lock; "
                        f"use 'with {name}:' or release in try/finally",
                    )


def _guarded_acquires(
    func: ast.FunctionDef | ast.AsyncFunctionDef, lock_calls: dict[int, str]
) -> set[int]:
    """Ids of the ``acquire()`` calls a ``try`` whose ``finally`` releases
    the same lock guards: those in its body, and those in what runs
    right before it (the statement before it, or the test of the ``if``
    whose body it opens)."""

    def calls(nodes: list[ast.AST], method: str) -> list[tuple[int, str]]:
        return [
            (id(sub), lock_calls[id(sub)])
            for node in nodes
            for sub in ast.walk(node)
            if id(sub) in lock_calls and sub.func.attr == method
        ]

    guarded: set[int] = set()
    for node in walk_function_scope(func):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            opens_if = isinstance(node, ast.If) and field == "body"
            before: ast.AST | None = node.test if opens_if else None
            for stmt in block:
                if isinstance(stmt, ast.Try) or (
                    hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
                ):
                    released = {key for _, key in calls(stmt.finalbody, "release")}
                    covered = stmt.body + ([before] if before is not None else [])
                    guarded.update(i for i, key in calls(covered, "acquire") if key in released)
                before = stmt
    return guarded
