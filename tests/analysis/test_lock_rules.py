"""TP + clean fixtures for the concurrency rules (LOCK-ORDER,
LOCK-LEAK, GUARD-CONSISTENCY), the runtime-report merge, and the lock
model and write classifier they share."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.base import writes
from repro.analysis.checkers import (
    GuardConsistencyChecker,
    LockLeakChecker,
    LockOrderChecker,
)
from repro.analysis.locks import collect_class_locks, lock_key
from repro.analysis.project import Project, SourceModule


def run(checker, *sources: str) -> list:
    modules = [
        SourceModule.from_source(textwrap.dedent(src), f"src/repro/m{i}.py")
        for i, src in enumerate(sources)
    ]
    return sorted(checker.check_project(Project(modules=modules)))


# ---------------------------------------------------------------------------
# LOCK-ORDER

#: Two modules whose lock-order cycle is only visible through the
#: one-hop delegation pass: Store.put holds Store._lock while calling
#: Manager.on_put (local constructor type), and Manager.flush holds
#: Manager._lock while calling Store.evict (constructor-typed attr).
DELEGATED_CYCLE = (
    """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.RLock()

        def put(self):
            mgr = Manager(self)
            with self._lock:
                mgr.on_put()

        def evict(self):
            with self._lock:
                pass
    """,
    """
    import threading

    class Manager:
        def __init__(self):
            self._lock = threading.Lock()
            self._store = Store()

        def on_put(self):
            with self._lock:
                pass

        def flush(self):
            with self._lock:
                self._store.evict()
    """,
)


class TestLockOrder:
    def test_direct_nesting_cycle(self):
        findings = run(
            LockOrderChecker(),
            """
            import threading

            class Engine:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
            """,
        )
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "LOCK-ORDER"
        assert "potential deadlock" in finding.message
        assert "Engine._a" in finding.message and "Engine._b" in finding.message

    def test_consistent_order_is_clean(self):
        findings = run(
            LockOrderChecker(),
            """
            import threading

            class Engine:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._a:
                        with self._b:
                            pass
            """,
        )
        assert findings == []

    def test_delegated_cross_class_cycle(self):
        # Manager holds its lock while calling into Store; Store holds
        # its lock while calling back into Manager — a cycle only
        # visible through the one-hop delegation pass.
        findings = run(LockOrderChecker(), *DELEGATED_CYCLE)
        assert len(findings) == 1
        assert "Manager._lock" in findings[0].message
        assert "Store._lock" in findings[0].message
        assert "delegated" in findings[0].message

    def test_non_reentrant_self_acquire(self):
        source = """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.{kind}()

                def get(self):
                    with self._lock:
                        return self._probe()

                def _probe(self):
                    with self._lock:
                        return 1
            """
        # Plain Lock: delegated re-acquire is a self-deadlock...
        findings = run(LockOrderChecker(), source.format(kind="Lock"))
        assert findings == []  # delegated self-edge is not a cycle of 2+
        # ...and the *direct* form is flagged at the node:
        findings = run(
            LockOrderChecker(),
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()

                def get(self):
                    with self._lock:
                        with self._lock:
                            return 1
            """,
        )
        assert len(findings) == 1
        assert "re-acquired" in findings[0].message
        # RLock re-acquisition is legal and must stay clean:
        findings = run(
            LockOrderChecker(),
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.RLock()

                def get(self):
                    with self._lock:
                        with self._lock:
                            return 1
            """,
        )
        assert findings == []

    def test_alias_through_getattr_is_tracked(self):
        # engines.shutdown binds `lifecycle = getattr(self, "_lifecycle",
        # None)` before `with lifecycle:` — the walker must see through it.
        findings = run(
            LockOrderChecker(),
            """
            import threading

            class Engine:
                def __init__(self):
                    self._lifecycle = threading.Condition()
                    self._aux = threading.Lock()

                def shutdown(self):
                    lifecycle = getattr(self, "_lifecycle", None)
                    with lifecycle:
                        with self._aux:
                            pass

                def other(self):
                    with self._aux:
                        with self._lifecycle:
                            pass
            """,
        )
        assert len(findings) == 1
        assert "Engine._lifecycle" in findings[0].message


class TestLockOrderRuntimeMerge:
    def _sites(self) -> dict[str, str]:
        """Lock display name → definition site for the shared fixture."""
        sites: dict[str, str] = {}
        for i, src in enumerate(DELEGATED_CYCLE):
            module = SourceModule.from_source(
                textwrap.dedent(src), f"src/repro/m{i}.py"
            )
            for info in collect_class_locks(module).values():
                for lock in info.locks.values():
                    sites[lock.display] = lock.site
        return sites

    def test_runtime_evidence_prunes_delegated_edge(self):
        sites = self._sites()
        report = {
            "version": 1,
            # Both locks exercised at runtime, but the Store→Manager
            # delegation never happened: that delegated edge is refuted
            # and the static cycle dissolves.
            "locks": {
                sites["Store._lock"]: {"kind": "RLock", "count": 5},
                sites["Manager._lock"]: {"kind": "Lock", "count": 9},
            },
            "edges": [
                {
                    "from": sites["Manager._lock"],
                    "to": sites["Store._lock"],
                    "count": 3,
                }
            ],
            "cycles": [],
        }
        findings = run(
            LockOrderChecker(runtime_report=report), *DELEGATED_CYCLE
        )
        assert findings == []

    def test_without_runtime_report_cycle_stands(self):
        findings = run(LockOrderChecker(), *DELEGATED_CYCLE)
        assert len(findings) == 1

    def test_runtime_only_cycle_is_reported(self):
        report = {
            "version": 1,
            "locks": {"src/repro/other.py:10": {"kind": "Lock", "count": 1},
                      "src/repro/other.py:11": {"kind": "Lock", "count": 1}},
            "edges": [
                {"from": "src/repro/other.py:10", "to": "src/repro/other.py:11", "count": 1},
                {"from": "src/repro/other.py:11", "to": "src/repro/other.py:10", "count": 1},
            ],
            "cycles": [],
        }
        findings = run(
            LockOrderChecker(runtime_report=report),
            "import threading\n_L = threading.Lock()\n",
        )
        assert len(findings) == 1
        assert findings[0].path == "src/repro/other.py"
        assert "runtime" in findings[0].message


# ---------------------------------------------------------------------------
# LOCK-LEAK


class TestLockLeak:
    def test_bare_acquire_flagged(self):
        findings = run(
            LockLeakChecker(),
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def step(self):
                    self._lock.acquire()
                    do_work()
                    self._lock.release()
            """,
        )
        assert len(findings) == 1
        assert findings[0].rule == "LOCK-LEAK"
        assert "self._lock.acquire()" in findings[0].message

    def test_try_finally_release_is_clean(self):
        findings = run(
            LockLeakChecker(),
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def step(self):
                    self._lock.acquire()
                    try:
                        do_work()
                    finally:
                        self._lock.release()
            """,
        )
        assert findings == []

    def test_finally_excuses_only_the_acquire_its_try_guards(self):
        findings = run(
            LockLeakChecker(),
            """
            import threading

            _LOCK = threading.Lock()

            def step():
                _LOCK.acquire()
                try:
                    do_work()
                finally:
                    _LOCK.release()
                _LOCK.acquire()
                do_work()

            def gap():
                _LOCK.acquire()
                do_work()
                try:
                    do_work()
                finally:
                    _LOCK.release()

            def inside():
                try:
                    _LOCK.acquire()
                    do_work()
                finally:
                    _LOCK.release()

            def if_guard():
                if _LOCK.acquire(timeout=1.0):
                    try:
                        do_work()
                    finally:
                        _LOCK.release()
            """,
        )
        # step's second acquire, and gap's, where do_work() can raise
        # before the try is entered.
        assert [(f.line, f.rule) for f in findings] == [(12, "LOCK-LEAK"), (16, "LOCK-LEAK")]

    def test_with_statement_is_clean(self):
        findings = run(
            LockLeakChecker(),
            """
            import threading

            _LOCK = threading.Lock()

            def step():
                with _LOCK:
                    do_work()
            """,
        )
        assert findings == []

    def test_module_level_bare_acquire_flagged(self):
        findings = run(
            LockLeakChecker(),
            """
            import threading

            _LOCK = threading.Lock()

            def step():
                _LOCK.acquire()
                do_work()
                _LOCK.release()
            """,
        )
        assert len(findings) == 1

    def test_condition_wait_outside_loop_flagged(self):
        findings = run(
            LockLeakChecker(),
            """
            import threading

            class Queue:
                def __init__(self):
                    self._cond = threading.Condition()

                def take(self):
                    with self._cond:
                        if not self.items:
                            self._cond.wait(timeout=1.0)
                        return self.items.pop()
            """,
        )
        assert len(findings) == 1
        assert "wait()" in findings[0].message

    def test_condition_wait_in_while_is_clean(self):
        findings = run(
            LockLeakChecker(),
            """
            import threading

            class Queue:
                def __init__(self):
                    self._cond = threading.Condition()

                def take(self):
                    with self._cond:
                        while not self.items:
                            self._cond.wait(timeout=1.0)
                        return self.items.pop()
            """,
        )
        assert findings == []

    def test_wait_for_is_exempt(self):
        findings = run(
            LockLeakChecker(),
            """
            import threading

            class Queue:
                def __init__(self):
                    self._cond = threading.Condition()

                def take(self):
                    with self._cond:
                        self._cond.wait_for(lambda: self.items)
                        return self.items.pop()
            """,
        )
        assert findings == []

    def test_fresh_local_condition_wait_outside_loop_flagged(self):
        # The module holds no class or module lock: the local binding's
        # constructor alone says the receiver is a Condition. A fresh
        # local Event's wait() is not a Condition's.
        findings = run(
            LockLeakChecker(),
            """
            import threading

            def handshake():
                cv = threading.Condition()
                with cv:
                    cv.wait()

            def looped():
                cv = threading.Condition()
                with cv:
                    while True:
                        cv.wait()

            def event():
                done = threading.Event()
                done.wait()
            """,
        )
        assert [(f.line, f.message.split(" in ")[0]) for f in findings] == [(7, "cv.wait()")]

    def test_unknown_receiver_wait_not_assumed_condition(self):
        # `threading.Barrier.wait()` and friends: `barrier.wait()` on a
        # receiver that is not a known Condition must not fire.
        findings = run(
            LockLeakChecker(),
            """
            import threading

            _LOCK = threading.Lock()

            def rendezvous(barrier):
                if True:
                    barrier.wait(timeout=5.0)
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# GUARD-CONSISTENCY


class TestGuardConsistency:
    def test_bare_read_of_guarded_attr_flagged(self):
        findings = run(
            GuardConsistencyChecker(),
            """
            import threading

            class Bus:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._seq = 0

                def publish(self):
                    with self._lock:
                        self._seq += 1

                @property
                def last_seq(self):
                    return self._seq
            """,
        )
        assert len(findings) == 1
        assert findings[0].rule == "GUARD-CONSISTENCY"
        assert "Bus._seq" in findings[0].message
        assert "last_seq" in findings[0].message

    def test_if_acquire_body_holds_the_lock_and_else_does_not(self):
        findings = run(
            GuardConsistencyChecker(),
            """
            import threading

            class Bus:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._seq = 0

                def publish(self):
                    with self._lock:
                        self._seq += 1

                def try_publish(self):
                    if self._lock.acquire(timeout=1.0):
                        try:
                            self._seq += 1
                        finally:
                            self._lock.release()
                    else:
                        self._seq -= 1
            """,
        )
        assert [(f.line, f.rule) for f in findings] == [(20, "GUARD-CONSISTENCY")]
        assert "try_publish" in findings[0].message

    def test_fully_guarded_class_is_clean(self):
        findings = run(
            GuardConsistencyChecker(),
            """
            import threading

            class Bus:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._seq = 0

                def publish(self):
                    with self._lock:
                        self._seq += 1

                @property
                def last_seq(self):
                    with self._lock:
                        return self._seq
            """,
        )
        assert findings == []

    def test_init_accesses_are_exempt(self):
        findings = run(
            GuardConsistencyChecker(),
            """
            import threading

            class Bus:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._seq = 0
                    self._seq = self._seq + 1  # bare, but unpublished

                def publish(self):
                    with self._lock:
                        self._seq += 1
            """,
        )
        assert findings == []

    def test_locked_suffix_is_ambient_guard(self):
        findings = run(
            GuardConsistencyChecker(),
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.RLock()
                    self._items = {}

                def put(self, k, v):
                    with self._lock:
                        self._put_locked(k, v)

                def _put_locked(self, k, v):
                    self._items[k] = v
            """,
        )
        assert findings == []

    def test_helper_promoted_when_all_call_sites_guarded(self):
        # `_touch` has no `_locked` suffix but is only ever called with
        # the lock held — the one-hop promotion keeps it clean.
        findings = run(
            GuardConsistencyChecker(),
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.RLock()
                    self._items = {}

                def put(self, k, v):
                    with self._lock:
                        self._items[k] = v
                        self._touch(k)

                def _touch(self, k):
                    item = self._items.pop(k, None)
                    if item is not None:
                        self._items[k] = item
            """,
        )
        assert findings == []

    def test_mixed_call_sites_defeat_promotion(self):
        findings = run(
            GuardConsistencyChecker(),
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.RLock()
                    self._items = {}

                def put(self, k, v):
                    with self._lock:
                        self._items[k] = v
                        self._touch(k)

                def sneaky(self, k):
                    self._touch(k)

                def _touch(self, k):
                    item = self._items.pop(k, None)
                    if item is not None:
                        self._items[k] = item
            """,
        )
        assert findings
        assert all("Store._items" in f.message for f in findings)

    def test_container_mutation_counts_as_write(self):
        findings = run(
            GuardConsistencyChecker(),
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

                def put(self, k, v):
                    with self._lock:
                        self._data[k] = v

                def drop(self, k):
                    del self._data[k]
            """,
        )
        assert len(findings) == 1
        assert "Cache._data" in findings[0].message
        assert "drop" in findings[0].message

    def test_dataclass_field_lock_is_recognised(self):
        findings = run(
            GuardConsistencyChecker(),
            """
            import threading
            from dataclasses import dataclass, field

            @dataclass
            class KV:
                _lock: threading.RLock = field(default_factory=threading.RLock)
                data: dict = field(default_factory=dict)

                def put(self, k, v):
                    with self._lock:
                        self.data[k] = v

                def peek(self, k):
                    return self.data.get(k)
            """,
        )
        # peek reads `data` bare only via .get (a read, not a write) —
        # but `data` is tracked via the guarded container store in put.
        assert len(findings) == 1
        assert "KV.data" in findings[0].message

    def test_unlocked_class_is_ignored(self):
        findings = run(
            GuardConsistencyChecker(),
            """
            class Plain:
                def __init__(self):
                    self._x = 0

                def bump(self):
                    self._x += 1
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# The shared lock model and write classifier


class TestLockKey:
    """``lock_key`` is the one map from an expression to a lock: every
    lock rule resolves receivers through it."""

    @staticmethod
    def key(src: str, aliases=None, binds=None):
        expr = ast.parse(src, mode="eval").body
        return lock_key(expr, {"_lock"}, {"_M"}, aliases or {}, binds)

    def test_each_form(self):
        assert self.key("self._lock") == "_lock"
        assert self.key('getattr(self, "_lock", None)') == "_lock"
        assert self.key("_M") == "::_M"
        assert self.key("lk", aliases={"lk": "_lock"}) == "_lock"
        assert self.key("threading.Lock()", binds="lk") == "<local>lk"

    def test_other_expressions_name_no_lock(self):
        assert self.key("self._other") is None
        assert self.key('getattr(other, "_lock")') is None
        assert self.key("_N") is None
        assert self.key("threading.Lock()") is None  # unbound: nothing to key it by
        assert self.key("make_lock()", binds="lk") is None

    def test_every_rule_sees_a_getattr_receiver(self):
        source = """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    with getattr(self, "_lock"):
                        self._n += 1

                def peek(self):
                    with getattr(self, "_lock", None):
                        return self._n

                def grab(self):
                    getattr(self, "_lock").acquire()
            """
        assert run(GuardConsistencyChecker(), source) == []
        (leak,) = run(LockLeakChecker(), source)
        assert "bare self._lock.acquire() in Box.grab()" in leak.message

    def test_fresh_local_lock_leaks_but_guards_nothing(self):
        source = """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    with self._lock:
                        self._n += 1

                def peek(self):
                    mine = threading.Lock()
                    mine.acquire()
                    with mine:
                        return self._n
            """
        (leak,) = run(LockLeakChecker(), source)
        assert "bare mine.acquire() in Box.peek()" in leak.message
        (guard,) = run(GuardConsistencyChecker(), source)
        assert "'Box._n'" in guard.message and "read with no lock" in guard.message


class TestWrites:
    """``writes`` is the one write classifier RACE-GLOBAL and
    GUARD-CONSISTENCY share."""

    @staticmethod
    def classify(src: str):
        return [
            (ast.unparse(base), how)
            for node in ast.walk(ast.parse(src))
            for base, how in writes(node)
        ]

    def test_each_form(self):
        assert self.classify("d[k] = v") == [("d", "mutated via subscript store")]
        assert self.classify("del d[k]") == [("d", "mutated via subscript store")]
        assert self.classify("o.a = v") == [("o", "mutated via attribute store")]
        assert self.classify("n += 1") == [("n", "mutated via augmented assignment")]
        assert self.classify("d[k]: int = v") == [("d", "mutated via subscript store")]
        assert self.classify("a, *d[k] = v") == [("d", "mutated via subscript store")]
        assert self.classify("xs.append(v)") == [("xs", "mutated via .append()")]
        assert self.classify("np.multiply(a, b, out=buf)") == [("buf", "written via out=")]

    def test_reads_and_rebinds_write_nothing(self):
        assert self.classify("n = d[k]") == []
        assert self.classify("del n") == []
        assert self.classify("xs.count(v)") == []

    def test_guard_consistency_counts_every_form_as_a_write(self):
        (finding,) = run(
            GuardConsistencyChecker(),
            """
            import threading

            import numpy as np

            class Buf:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._out = np.zeros(4)

                def fill(self, a):
                    with self._lock:
                        np.add(a, a, out=self._out)

                def clobber(self, a):
                    np.add(a, a, out=self._out)
            """,
        )
        assert "'Buf._out' is written under a lock elsewhere but written" in finding.message
