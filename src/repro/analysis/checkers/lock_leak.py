"""LOCK-LEAK: acquisitions that can escape and waits that can't trust
their wake-up.

Two shapes, both of which the repo's own history makes load-bearing:

- A bare ``lock.acquire()`` statement with no ``with`` block and no
  ``finally: lock.release()`` in the same function leaks the lock on
  any exception between acquire and release — every other thread then
  blocks forever. (``with lock:`` is the fix; a try/finally release is
  accepted for the split-acquire patterns a context manager can't
  express.)
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
lock. ``barrier.wait()`` on an unknown receiver is not assumed to be a
Condition, and neither is a fresh local one.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.base import ModuleChecker, iter_functions
from repro.analysis.findings import Finding
from repro.analysis.locks import (
    collect_class_locks,
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
        if not class_infos and not module_locks:
            return

        for func, cls in iter_functions(module.tree):
            info = class_infos.get(cls.name) if cls is not None else None
            class_locks = info.locks if info else {}
            where = f"{cls.name}.{func.name}" if cls is not None else func.name
            acquires: list[tuple[ast.AST, str]] = []
            released_in_finally: set[str] = set()
            for event in iter_with_held(func, class_locks, module_locks):
                if event.kind != "node" or event.lock is None:
                    continue
                method = event.node.func.attr
                if method == "acquire":
                    acquires.append((event.node, event.lock))
                elif method == "release" and event.in_finally:
                    released_in_finally.add(event.lock)
                elif method == "wait" and not event.in_while:
                    lock = lock_def(event.lock, class_locks, module_locks)
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
            for node, key in acquires:
                if key not in released_in_finally:
                    name = lock_display(key)
                    yield self.finding(
                        module,
                        node,
                        f"bare {name}.acquire() in {where}() with no matching "
                        "release() in a finally — an exception leaks the lock; "
                        f"use 'with {name}:' or release in try/finally",
                    )
