"""Golden characterisation of what the nine lint rules report.

Recorded while LOCK-LEAK kept a lock resolver and a ``while`` walk of
its own and RACE-GLOBAL and GUARD-CONSISTENCY each classified writes
their own way; moving all three onto one lock model and one write
classifier had to pass it unmodified. The corpus below reaches every
resolver and write path:

- each lock form: a ``self`` attribute, a dataclass
  ``field(default_factory=threading.RLock)``, a ``getattr(self, …)``
  alias, a local alias, a module lock and its alias, and a fresh local
  ``threading.Lock()``;
- each acquire and wait shape: ``if lock.acquire(...)``, a release in a
  nested ``finally``, and ``wait()`` under ``if``, under ``for``, in a
  ``while``'s ``else`` and in a nested ``def``;
- ``*_locked`` methods, one-hop promotion, every write form on module
  globals and on guarded instance state, and ``global`` rebinds;
- ``# repro: noqa[...]`` on the flagged line and on the line above,
  plus one with the wrong rule id.

Pinned: every finding as ``(path, line, col, rule, message)`` and the
suppressed count, compared as JSON text. Run this module as a script
to re-record the golden.

Entries moved on purpose since it was recorded: an ``if X.acquire(...)``
body now holds ``X``, so ``Store.if_acquire_released`` and
``Store.if_acquire_leaks`` lost their GUARD-CONSISTENCY findings on
``self._n`` (the leak in the second is still LOCK-LEAK's); and a
``finally`` release now excuses only the acquire its own ``try``
guards, so ``guarded_then_bare``'s second acquire is a LOCK-LEAK.
"""

from __future__ import annotations

import json
import pathlib
import textwrap

from repro.analysis.engine import analyze_project
from repro.analysis.project import Project, SourceModule

GOLDEN = pathlib.Path(__file__).parent / "golden" / "lint_characterisation.json"

CORPUS = {
    # Thread/worker-shared (RACE-GLOBAL scope): module globals, module
    # locks and fresh local locks.
    "src/repro/cluster/fixture_shared.py": """
        import threading

        import numpy as np

        _LOCK = threading.Lock()
        _COND = threading.Condition()
        _CACHE: dict = {}
        _ITEMS = []
        _BUF = np.zeros(4)
        _KEY = None
        _LIMIT = 8


        def writes(k, v, a, b):
            _CACHE[k] = v
            del _CACHE[k]
            _CACHE[k] += 1
            _ITEMS.append(v)
            _ITEMS += [v]
            _CACHE.attr = v
            del _CACHE.attr
            np.add(a, b, out=_BUF)
            local = {}
            local[k] = v
            _LIMIT = 4
            return _CACHE.get(k), local, _LIMIT


        def rebind(k):
            global _KEY, _LIMIT
            if _KEY != k:
                _KEY = k


        def shadowed(_ITEMS, *_CACHE, **_BUF):
            _ITEMS.append(1)


        def nested(v):
            def inner(_ITEMS):
                _ITEMS.append(v)

            def outer_write():
                _ITEMS.append(v)

            return inner, outer_write


        def suppressed(v):
            _ITEMS.append(v)  # repro: noqa[RACE-GLOBAL]
            # repro: noqa[RACE-GLOBAL]
            _ITEMS.extend([v])
            _ITEMS.insert(0, v)  # repro: noqa[LOCK-LEAK]


        def module_lock_bare():
            _LOCK.acquire()
            work()
            _LOCK.release()


        def module_lock_finally():
            _LOCK.acquire()
            try:
                work()
            finally:
                _LOCK.release()


        def module_alias_bare():
            m = _LOCK
            m.acquire()
            return m


        def module_condition_waits(ready):
            c = _COND
            with c:
                if not ready():
                    c.wait()
                while not ready():
                    _COND.wait()
                _COND.wait_for(ready)


        def fresh_local_locks():
            lk = threading.Lock()
            lk.acquire()
            fresh_ok = threading.RLock()
            fresh_ok.acquire()
            try:
                work()
            finally:
                fresh_ok.release()


        def fresh_local_condition():
            cv = threading.Condition()
            with cv:
                cv.wait()


        def work():
            return None


        def guarded_then_bare():
            _LOCK.acquire()
            try:
                work()
            finally:
                _LOCK.release()
            _LOCK.acquire()
            work()
        """,
    # Instance state behind self locks: LOCK-LEAK, GUARD-CONSISTENCY and
    # LOCK-ORDER on one class each, plus a dataclass lock.
    "src/repro/service/fixture_store.py": """
        import threading
        from dataclasses import dataclass, field

        _REGISTRY = threading.RLock()


        class Peer:
            def __init__(self):
                self._lock = threading.Lock()

            def poke(self):
                with self._lock:
                    pass


        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._cv = threading.Condition()
                self._other = threading.RLock()
                self._n = 0
                self._d = {}
                self._items = []
                self._ready = False
                self._helped = 0
                self._mixed = 0
                self._peer = Peer()

            def bare(self):
                self._lock.acquire()
                self._n += 1
                self._lock.release()

            def if_acquire_released(self):
                if self._lock.acquire(timeout=1.0):
                    try:
                        self._n += 1
                    finally:
                        self._lock.release()

            def if_acquire_leaks(self):
                if self._other.acquire(blocking=False):
                    self._n += 1

            def nested_finally(self):
                lk = self._other
                lk.acquire()
                try:
                    try:
                        self._n += 1
                    finally:
                        self._items.append(1)
                finally:
                    try:
                        work = self._n
                    finally:
                        lk.release()
                return work

            def getattr_alias(self):
                lk = getattr(self, "_lock", None)
                if lk is None:
                    return
                lk.acquire()
                self._n = 2

            def getattr_alias_released(self):
                lk = getattr(self, "_other", None)
                lk.acquire()
                try:
                    self._d["k"] = 1
                finally:
                    lk.release()

            def local_alias_with(self):
                lk = self._lock
                with lk:
                    self._d["a"] = 1
                    del self._d["b"]
                    self._items.append(2)
                    self._items.extend([3])

            def module_alias_with(self):
                reg = _REGISTRY
                with reg:
                    self._n = 3
                with _REGISTRY:
                    self._mixed = 1

            def wait_under_if(self):
                with self._cv:
                    if not self._ready:
                        self._cv.wait()

            def wait_under_for(self):
                with self._cv:
                    for _ in range(3):
                        self._cv.wait(0.1)

            def wait_in_while_else(self):
                with self._cv:
                    while not self._ready:
                        self._cv.wait()
                    else:
                        self._cv.wait()

            def wait_in_nested_def(self):
                def inner():
                    self._cv.wait()

                with self._cv:
                    while not self._ready:
                        inner()

            def wait_in_while(self):
                cv = self._cv
                with cv:
                    while not self._ready:
                        cv.wait()
                    self._cv.wait_for(lambda: self._ready)

            def wait_in_match(self, mode):
                with self._cv:
                    match mode:
                        case "once":
                            self._cv.wait()
                        case _:
                            pass

            def set_ready(self):
                with self._cv:
                    self._ready = True
                    self._cv.notify_all()

            def put(self, k, v):
                with self._lock:
                    self._d[k] = v
                    self._touch_locked(k)
                    self._helper()
                    self._half_helper()
                    self._peer.poke()

            def _touch_locked(self, k):
                self._items.append(k)
                self._n -= 1

            def _helper(self):
                self._helped += 1

            def _half_helper(self):
                self._mixed += 1

            def unguarded_call(self):
                self._half_helper()

            def peek(self, k):
                return self._d.get(k), self._helped

            def drop(self, k):
                del self._d[k]

            def clear(self):
                self._items.clear()

            def count(self):
                # repro: noqa[GUARD-CONSISTENCY]
                return self._n

            def ready(self):
                return self._ready  # repro: noqa[GUARD-CONSISTENCY]

            async def aread(self):
                return self._mixed


        class Engine:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()
                self._store = Store()

            def forward(self):
                with self._a:
                    with self._b:
                        pass

            def backward(self):
                with self._b:
                    self._take_a()

            def _take_a(self):
                with self._a:
                    pass

            def reenter(self):
                with self._a:
                    self._a.acquire()  # repro: noqa[LOCK-LEAK]

            def delegate(self):
                store = Store()
                with self._b:
                    store.put(1, 2)
                    self._store.bare()


        @dataclass
        class Ledger:
            _mu: threading.RLock = field(default_factory=threading.RLock)
            total: int = 0

            def add(self, n):
                with self._mu:
                    self.total += n

            def read(self):
                return self.total

            def leak(self):
                self._mu.acquire()
        """,
    # The remaining rules, one true positive each.
    "src/repro/perf/fixture_kernels.py": """
        import time


        def kernel(x):
            return x, time.time()
        """,
    "tests/perf/test_fixture_other.py": """
        from repro.perf import other_kernels
        """,
    "src/repro/service/manager.py": """
        import random

        import repro.obs as obs


        class Sized:
            def __len__(self):
                return 0


        class JobManager:
            def submit(self, spec):
                return spec

            def run_record(self, record):
                with obs.span("service.run"):
                    return record

            def drain(self, timeout_s=None):
                with obs.span("service.drain"):
                    return True


        def truthy(bag: Sized):
            if bag:
                return random.random()
            try:
                return bag.size()
            except Exception:
                pass
        """,
}


def characterise() -> dict:
    modules = [
        SourceModule.from_source(textwrap.dedent(text), relpath)
        for relpath, text in CORPUS.items()
    ]
    report = analyze_project(Project(modules=modules))
    return {
        "findings": [
            [f.path, f.line, f.col, f.rule, f.message] for f in report.findings
        ],
        "suppressed": report.suppressed,
    }


def _text(payload: dict) -> str:
    return json.dumps(payload, indent=1) + "\n"


def test_lint_findings_match_golden():
    assert _text(characterise()) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_text(characterise()))
    print(f"wrote {GOLDEN}")
