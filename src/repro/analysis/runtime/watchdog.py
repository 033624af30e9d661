"""Opt-in lock instrumentation: record real acquisition orders, catch
cycles and held-lock anomalies as they happen.

The static LOCK-ORDER rule over-approximates (a delegated edge may be
dead code); this watchdog under-approximates (it only sees orders the
run exercised). Together they pin the truth from both sides: the lint
merge prunes static delegated edges the runtime refutes, and runtime
cycles gate CI even when the walker cannot see them.

Design constraints that shaped the implementation:

- **Patching must be reversible and scoped.** ``install()`` swaps the
  factories on the ``threading`` module *and* on every already-imported
  module that bound them directly (``from threading import Lock``
  — ``repro.obs.live.slo`` does exactly this); ``uninstall()`` restores
  every binding it touched. A module-global ``Lock``/``RLock`` that
  already exists at install (``import repro`` ran first) is wrapped in
  place, keyed by its definition line, and listed in the report once
  it is first acquired (the lint reads a listed lock as exercised);
  any other lock made before install is not tracked — no guessing
  about foreign lock internals.
- **Only repo code is tracked.** The creation site (the first stack
  frame outside this file) keys every lock; sites outside the current
  working tree get an ordinary untracked lock, so stdlib machinery
  (queues, loggers, executors) adds neither noise nor overhead.
  The ``path:line`` site string matches the static rule's
  :attr:`~repro.analysis.locks.LockDef.site`, which is what makes the
  merge a plain set join.
- **The watchdog must never deadlock the watched program.** Internal
  state is guarded by one raw (untracked) mutex, taken only in short
  bookkeeping sections after the real acquire already succeeded, never
  while blocking on a user lock.
- **Anomalies inform, cycles gate.** ``held_too_long`` and
  ``held_across_fork`` depend on timing and platform (the pool engine
  forks workers legitimately), so they are recorded in the report but
  do not fail the merge; an observed lock-order cycle is a real
  deadlock witness and does.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.analysis.locks import collect_module_locks
from repro.analysis.project import SourceModule

__all__ = [
    "LockWatchdog",
    "active_watchdog",
    "load_runtime_report",
    "watch_locks",
]

#: The real factories, captured at import before any patching.
_ORIG_LOCK = threading.Lock
_ORIG_RLOCK = threading.RLock
_ORIG_CONDITION = threading.Condition

_ORIGINALS = {
    "Lock": _ORIG_LOCK,
    "RLock": _ORIG_RLOCK,
    "Condition": _ORIG_CONDITION,
}

#: The raw lock types a module global may hold, by kind.
_RAW_KINDS = {type(_ORIG_LOCK()): "Lock", type(_ORIG_RLOCK()): "RLock"}

#: The currently-installed watchdog (at most one; install() enforces it).
_ACTIVE: LockWatchdog | None = None
_ACTIVE_GUARD = _ORIG_LOCK()

_THIS_FILE = os.path.abspath(__file__)


def active_watchdog() -> LockWatchdog | None:
    """The installed watchdog, if any (fixtures reuse it)."""
    return _ACTIVE


def _creation_site(root: str) -> str | None:
    """``path:line`` of the first caller frame outside this module,
    repo-relative when under ``root``; None for foreign code."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename.startswith("<"):  # exec/eval/stdin frames: foreign
            return None
        if os.path.abspath(filename) != _THIS_FILE:
            path = os.path.abspath(filename)
            if not path.startswith(root + os.sep):
                return None
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            return f"{rel}:{frame.f_lineno}"
        frame = frame.f_back
    return None


class _HeldRecord:
    __slots__ = ("site", "since", "count")

    def __init__(self, site: str, since: float):
        self.site = site
        self.since = since
        self.count = 1


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[_HeldRecord] = []


class LockWatchdog:
    """Shared order graph + anomaly log for every tracked lock.

    All mutation happens in :meth:`_note_acquired` / :meth:`_note_released`,
    under a raw internal mutex. The cycle check runs online on each new
    edge so a deadlock-in-waiting surfaces in the report even if the
    fatal interleaving never fires in the run.
    """

    def __init__(self, held_warn_s: float = 10.0, root: str | None = None):
        self.held_warn_s = held_warn_s
        self.root = os.path.abspath(root or os.getcwd())
        self._meta = _ORIG_LOCK()  # raw: never tracked, never ordered
        self._threads = _ThreadState()
        self._locks: dict[str, dict[str, Any]] = {}  # site → {kind, count}
        self._unseen: dict[str, str] = {}  # wrapped module lock site → kind
        self._edges: dict[tuple[str, str], int] = {}
        self._cycles: list[list[str]] = []
        self._cycle_keys: set[frozenset[str]] = set()
        self._anomalies: list[dict[str, Any]] = []
        self._patched: list[tuple[Any, str, Any]] = []  # (module, name, original)
        self._installed = False

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Patch the factories; idempotent, refuses a second watchdog."""
        global _ACTIVE
        with _ACTIVE_GUARD:
            if self._installed:
                return
            if _ACTIVE is not None:
                raise RuntimeError("another LockWatchdog is already installed")
            wrappers = {
                "Lock": self._make_lock,
                "RLock": self._make_rlock,
                "Condition": self._make_condition,
            }
            for name, wrapper in wrappers.items():
                self._patched.append((threading, name, getattr(threading, name)))
                setattr(threading, name, wrapper)
            # Modules that did `from threading import Lock` hold their own
            # reference to the original factory; rebind those too.
            for module in list(sys.modules.values()):
                if module is None or module is threading:
                    continue
                for name, original in _ORIGINALS.items():
                    if getattr(module, name, None) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrappers[name])
            self._wrap_module_locks()
            _ACTIVE = self
            self._installed = True
            _ensure_fork_hook()

    def _wrap_module_locks(self) -> None:
        """Wrap every raw ``Lock``/``RLock`` a loaded module under
        ``root`` defines at module level, keyed by its definition line
        (the static rule's site), and rebind every module global that
        holds it (``from m import _LOCK`` included)."""
        bindings: list[tuple[Any, str, Any]] = []
        wrapped: dict[int, _TrackedLock] = {}
        for module in list(sys.modules.values()):
            path = os.path.abspath(getattr(module, "__file__", None) or "")
            if not path.startswith(self.root + os.sep) or not path.endswith(".py"):
                continue
            raw = [(n, v) for n, v in list(vars(module).items()) if type(v) in _RAW_KINDS]
            if not raw:
                continue
            defs = collect_module_locks(SourceModule.from_path(Path(path), Path(self.root)))
            for name, lock in raw:
                bindings.append((module, name, lock))
                if name in defs and id(lock) not in wrapped:
                    site, kind = defs[name].site, _RAW_KINDS[type(lock)]
                    self._unseen[site] = kind
                    wrapped[id(lock)] = _TrackedLock(self, site, lock, reentrant=kind == "RLock")
        for module, name, lock in bindings:
            if id(lock) in wrapped:
                self._patched.append((module, name, lock))
                setattr(module, name, wrapped[id(lock)])

    def uninstall(self) -> None:
        """Restore every binding touched by :meth:`install`."""
        global _ACTIVE
        with _ACTIVE_GUARD:
            if not self._installed:
                return
            for module, name, original in reversed(self._patched):
                setattr(module, name, original)
            self._patched.clear()
            _ACTIVE = None
            self._installed = False

    # -- factories --------------------------------------------------------

    def _register(self, site: str, kind: str) -> None:
        with self._meta:
            entry = self._locks.setdefault(site, {"kind": kind, "count": 0})
            entry["count"] += 1

    def _make_lock(self):
        site = _creation_site(self.root)
        if site is None:
            return _ORIG_LOCK()
        self._register(site, "Lock")
        return _TrackedLock(self, site, _ORIG_LOCK(), reentrant=False)

    def _make_rlock(self):
        site = _creation_site(self.root)
        if site is None:
            return _ORIG_RLOCK()
        self._register(site, "RLock")
        return _TrackedLock(self, site, _ORIG_RLOCK(), reentrant=True)

    def _make_condition(self, lock=None):
        site = _creation_site(self.root)
        if site is None:
            return _ORIG_CONDITION(lock)
        self._register(site, "Condition")
        if lock is None:
            # A raw inner RLock: the condition wrapper does the
            # tracking, so the inner lock must not double-record.
            lock = _ORIG_RLOCK()
        inner = lock._inner if isinstance(lock, _TrackedLock) else lock
        return _TrackedCondition(self, site, _ORIG_CONDITION(inner))

    # -- bookkeeping ------------------------------------------------------

    def _note_acquired(self, site: str) -> None:
        kind = self._unseen.pop(site, None)  # a wrapped module lock's first acquire
        if kind is not None:
            self._register(site, kind)
        stack = self._threads.stack
        now = time.monotonic()
        for rec in stack:
            if rec.site == site:
                rec.count += 1
                return
        new_edges = [(rec.site, site) for rec in stack if rec.site != site]
        stack.append(_HeldRecord(site, now))
        if not new_edges:
            return
        with self._meta:
            for edge in new_edges:
                seen = edge in self._edges
                self._edges[edge] = self._edges.get(edge, 0) + 1
                if not seen:
                    self._check_cycle_locked(edge)

    def _note_released(self, site: str) -> None:
        stack = self._threads.stack
        for idx in range(len(stack) - 1, -1, -1):
            rec = stack[idx]
            if rec.site != site:
                continue
            rec.count -= 1
            if rec.count == 0:
                held_s = time.monotonic() - rec.since
                del stack[idx]
                if held_s > self.held_warn_s:
                    with self._meta:
                        self._anomalies.append(
                            {
                                "type": "held_too_long",
                                "site": site,
                                "held_s": round(held_s, 3),
                                "thread": threading.current_thread().name,
                            }
                        )
            return

    def _suspend_held(self, site: str) -> int:
        """Pop ``site`` from the held stack for a Condition wait; returns
        the reentrancy count to restore afterwards."""
        stack = self._threads.stack
        for idx in range(len(stack) - 1, -1, -1):
            if stack[idx].site == site:
                count = stack[idx].count
                del stack[idx]
                return count
        return 0

    def _resume_held(self, site: str, count: int) -> None:
        if count <= 0:
            return
        self._note_acquired(site)
        stack = self._threads.stack
        for rec in stack:
            if rec.site == site:
                rec.count = count
                break

    def _note_fork(self) -> None:
        stack = self._threads.stack
        if not stack:
            return
        with self._meta:
            self._anomalies.append(
                {
                    "type": "held_across_fork",
                    "sites": [rec.site for rec in stack],
                    "thread": threading.current_thread().name,
                }
            )

    def _check_cycle_locked(self, edge: tuple[str, str]) -> None:
        """DFS from the new edge's head back to its tail (meta held)."""
        start, target = edge[1], edge[0]
        path = [target, start]
        seen = {start}
        pending: list[tuple[str, list[str]]] = [(start, path)]
        adj: dict[str, list[str]] = {}
        for src, dst in self._edges:
            adj.setdefault(src, []).append(dst)
        while pending:
            node, trail = pending.pop()
            for succ in adj.get(node, ()):  # noqa: B007
                if succ == target:
                    cycle = trail + [target]
                    key = frozenset(cycle)
                    if key not in self._cycle_keys:
                        self._cycle_keys.add(key)
                        self._cycles.append(cycle)
                    return
                if succ not in seen:
                    seen.add(succ)
                    pending.append((succ, trail + [succ]))

    # -- reporting --------------------------------------------------------

    def report(self) -> dict[str, Any]:
        with self._meta:
            return {
                "version": 1,
                "locks": {
                    site: dict(entry) for site, entry in sorted(self._locks.items())
                },
                "edges": [
                    {"from": src, "to": dst, "count": count}
                    for (src, dst), count in sorted(self._edges.items())
                ],
                "cycles": [list(c) for c in self._cycles],
                "anomalies": list(self._anomalies),
            }

    def dump(self, path: str | os.PathLike[str], merge: bool = True) -> dict[str, Any]:
        """Write the report to ``path``; with ``merge=True`` an existing
        report at that path is unioned in (multiple instrumented pytest
        invocations accumulate into one file)."""
        report = self.report()
        if merge and os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as fh:
                    previous = json.load(fh)
            except (OSError, ValueError):
                previous = None
            if isinstance(previous, dict):
                report = _merge_reports(previous, report)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return report


class _TrackedLock:
    """Wrapper speaking the full lock protocol, recording order edges."""

    __slots__ = ("_watchdog", "_site", "_inner", "_reentrant")

    def __init__(self, watchdog: LockWatchdog, site: str, inner, reentrant: bool):
        self._watchdog = watchdog
        self._site = site
        self._inner = inner
        self._reentrant = reentrant

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._watchdog._note_acquired(self._site)
        return got

    def release(self) -> None:
        self._inner.release()
        self._watchdog._note_released(self._site)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "RLock" if self._reentrant else "Lock"
        return f"<tracked {kind} {self._site} wrapping {self._inner!r}>"

    # RLock internals Condition would use if handed a tracked lock.
    def _acquire_restore(self, state) -> None:
        self._inner._acquire_restore(state)
        self._watchdog._note_acquired(self._site)

    def _release_save(self):
        state = self._inner._release_save()
        self._watchdog._note_released(self._site)
        return state

    def _is_owned(self) -> bool:
        return self._inner._is_owned()


class _TrackedCondition:
    """Condition wrapper: tracks the underlying lock's order edges and
    pauses held-time accounting across ``wait``."""

    __slots__ = ("_watchdog", "_site", "_inner")

    def __init__(self, watchdog: LockWatchdog, site: str, inner):
        self._watchdog = watchdog
        self._site = site
        self._inner = inner

    def acquire(self, *args) -> bool:
        got = self._inner.acquire(*args)
        if got:
            self._watchdog._note_acquired(self._site)
        return got

    def release(self) -> None:
        self._inner.release()
        self._watchdog._note_released(self._site)

    def __enter__(self):
        self._inner.__enter__()
        self._watchdog._note_acquired(self._site)
        return self

    def __exit__(self, *exc):
        result = self._inner.__exit__(*exc)
        self._watchdog._note_released(self._site)
        return result

    def wait(self, timeout: float | None = None) -> bool:
        # The lock is dropped for the duration of the wait: anything
        # acquired by the woken thread is *not* ordered under this
        # condition, and the wait must not count as held time.
        count = self._watchdog._suspend_held(self._site)
        try:
            return self._inner.wait(timeout)
        finally:
            self._watchdog._resume_held(self._site, count)

    def wait_for(self, predicate, timeout: float | None = None):
        count = self._watchdog._suspend_held(self._site)
        try:
            return self._inner.wait_for(predicate, timeout)
        finally:
            self._watchdog._resume_held(self._site, count)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<tracked Condition {self._site} wrapping {self._inner!r}>"


_FORK_HOOK_DONE = False


def _ensure_fork_hook() -> None:
    """One-time ``before fork`` hook: a fork while locks are held clones
    a locked mutex into the child, where no thread will ever release it.
    Registered lazily (only once instrumentation is first used) and
    dispatched through the active watchdog so uninstall works."""
    global _FORK_HOOK_DONE
    if _FORK_HOOK_DONE or not hasattr(os, "register_at_fork"):
        return
    _FORK_HOOK_DONE = True

    def before_fork() -> None:
        watchdog = _ACTIVE
        if watchdog is not None:
            watchdog._note_fork()

    os.register_at_fork(before=before_fork)


@contextmanager
def watch_locks(
    held_warn_s: float = 10.0, root: str | None = None
) -> Iterator[LockWatchdog]:
    """Instrument lock creation for the duration of the block.

    >>> with watch_locks() as watchdog:
    ...     run_concurrent_things()
    >>> watchdog.dump("lock_order.json")
    """
    watchdog = LockWatchdog(held_warn_s=held_warn_s, root=root)
    watchdog.install()
    try:
        yield watchdog
    finally:
        watchdog.uninstall()


def load_runtime_report(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Parse and validate a ``lock_order.json`` for the lint merge."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "edges" not in data or "locks" not in data:
        raise ValueError(
            f"{path}: not a lock-order report (expected an object with "
            "'locks' and 'edges')"
        )
    for entry in data["edges"]:
        if not isinstance(entry, dict) or "from" not in entry or "to" not in entry:
            raise ValueError(f"{path}: malformed edge entry {entry!r}")
    return data


def _merge_reports(old: dict[str, Any], new: dict[str, Any]) -> dict[str, Any]:
    locks: dict[str, dict[str, Any]] = {}
    for source in (old.get("locks", {}), new.get("locks", {})):
        for site, entry in source.items():
            if site in locks:
                locks[site]["count"] += entry.get("count", 0)
            else:
                locks[site] = dict(entry)
    edges: dict[tuple[str, str], int] = {}
    for source in (old.get("edges", []), new.get("edges", [])):
        for entry in source:
            key = (entry["from"], entry["to"])
            edges[key] = edges.get(key, 0) + entry.get("count", 1)
    cycle_keys: set[frozenset[str]] = set()
    cycles: list[list[str]] = []
    for source in (old.get("cycles", []), new.get("cycles", [])):
        for cycle in source:
            key = frozenset(cycle)
            if key not in cycle_keys:
                cycle_keys.add(key)
                cycles.append(list(cycle))
    return {
        "version": 1,
        "locks": {site: locks[site] for site in sorted(locks)},
        "edges": [
            {"from": src, "to": dst, "count": count}
            for (src, dst), count in sorted(edges.items())
        ],
        "cycles": cycles,
        "anomalies": list(old.get("anomalies", [])) + list(new.get("anomalies", [])),
    }
