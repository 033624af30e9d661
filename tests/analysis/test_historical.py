"""The acceptance tests from ISSUE 5: each flagship rule must re-detect
the shipped defect that motivated it, run against a reverted snippet —
and must stay quiet on the fixed code actually in the tree.

- PR 2: the MinHash batch kernel cached scratch blocks in module-global
  slots written via ``out=``; threads sketching concurrently shared
  them and corrupted hashes (a flake, not a failure).
- PR 3: ``Tracer.__len__`` made an empty tracer falsy, so ``if tracer:``
  guards in worker paths silently stopped collecting spans.

The ISSUE 10 concurrency rules get the same treatment, against the
defect shapes they were written to catch (and in GUARD-CONSISTENCY's
case, the exact pre-fix metrics code this PR repaired):

- GUARD-CONSISTENCY: ``Counter.value`` read the count with no lock
  while ``inc`` wrote it under one — a torn read on free-threaded
  builds and a stale one everywhere.
- LOCK-LEAK: a worker loop that ``wait()``-ed under ``if`` instead of
  ``while`` missed spurious wake-ups and woke without its predicate.
- LOCK-ORDER: the PR 7 shutdown dance taken in opposite orders
  (lifecycle-then-store in one method, store-then-lifecycle in
  another) — the deadlock the current detach-then-teardown avoids.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.checkers import (
    GuardConsistencyChecker,
    LockLeakChecker,
    LockOrderChecker,
    RaceGlobalChecker,
    TruthySizedChecker,
)
from repro.analysis.engine import analyze_project
from repro.analysis.project import Project, SourceModule

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The PR 2 scratch cache as it was before the threading.local() fix:
#: one module-global slot, rebound and written from every sketching
#: thread.
PR2_SCRATCH_REVERTED = textwrap.dedent(
    """
    import numpy as np

    _SCRATCH_KEY = None
    _SCRATCH_BLOCKS = {}

    def _scratch(k, m):
        global _SCRATCH_KEY
        if _SCRATCH_KEY != (k, m):
            _SCRATCH_KEY = (k, m)
            _SCRATCH_BLOCKS["t"] = np.empty((k, m), dtype=np.uint64)
            _SCRATCH_BLOCKS["w"] = np.empty((k, m), dtype=np.uint64)
        return _SCRATCH_BLOCKS["t"], _SCRATCH_BLOCKS["w"]

    def sketch_batch(flat, a, b):
        t, w = _scratch(a.size, flat.size)
        np.multiply(a[:, None], flat[None, :], out=t)
        return t
    """
)

#: The PR 3 tracer as it was before span_count(): __len__ without
#: __bool__, truth-tested in the worker path.
PR3_TRACER_REVERTED = textwrap.dedent(
    """
    class Tracer:
        def __init__(self):
            self.spans = []

        def __len__(self):
            return len(self.spans)

        def span(self, name, **attrs):
            self.spans.append({"name": name, **attrs})

    def pool_task(records, trace):
        tracer = Tracer() if trace else None
        if tracer:
            tracer.span("worker.run", items=len(records))
        return records
    """
)


class TestPR2ScratchRace:
    def test_reverted_snippet_is_re_detected(self):
        module = SourceModule.from_source(
            PR2_SCRATCH_REVERTED, "src/repro/perf/minhash_kernels.py"
        )
        findings = list(
            RaceGlobalChecker().check_project(Project(modules=[module]))
        )
        assert findings, "RACE-GLOBAL failed to re-detect the PR 2 scratch race"
        assert all(f.rule == "RACE-GLOBAL" for f in findings)
        names = {f.message.split("'")[1] for f in findings}
        assert "_SCRATCH_BLOCKS" in names
        assert "_SCRATCH_KEY" in names

    def test_fixed_module_in_tree_is_clean(self):
        path = REPO_ROOT / "src/repro/perf/minhash_kernels.py"
        module = SourceModule.from_path(path, REPO_ROOT)
        findings = list(
            RaceGlobalChecker().check_project(Project(modules=[module]))
        )
        assert findings == [], "the module as it stands must not be flagged"


class TestPR3TracerTruthiness:
    def test_reverted_snippet_is_re_detected(self):
        module = SourceModule.from_source(
            PR3_TRACER_REVERTED, "src/repro/obs/trace.py"
        )
        findings = list(
            TruthySizedChecker().check_project(Project(modules=[module]))
        )
        assert findings, "TRUTHY-SIZED failed to re-detect the PR 3 Tracer bug"
        (finding,) = findings
        assert finding.rule == "TRUTHY-SIZED"
        assert "'tracer'" in finding.message
        assert "Tracer" in finding.message

    def test_fixed_module_in_tree_is_clean(self):
        path = REPO_ROOT / "src/repro/obs/trace.py"
        module = SourceModule.from_path(path, REPO_ROOT)
        findings = list(
            TruthySizedChecker().check_project(Project(modules=[module]))
        )
        assert findings == [], "span_count() replaced __len__; nothing to flag"


#: The metrics Counter as it was before ISSUE 10: inc() guarded,
#: value read bare.
ISSUE10_COUNTER_REVERTED = textwrap.dedent(
    """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self._value = 0

        def inc(self, amount=1):
            with self._lock:
                self._value += amount

        @property
        def value(self):
            return self._value
    """
)

#: A worker loop waiting on its condition under ``if`` — one spurious
#: wake-up away from dequeuing None.
ISSUE10_WAIT_IF_REVERTED = textwrap.dedent(
    """
    import threading

    class JobManager:
        def __init__(self):
            self._cond = threading.Condition()
            self._queue = []

        def _worker_loop(self):
            with self._cond:
                record = self._next_queued()
                if record is None:
                    self._cond.wait(timeout=0.1)
                    record = self._next_queued()
                return record

        def _next_queued(self):
            return self._queue.pop() if self._queue else None
    """
)

#: The PR 7 shutdown dance with the discipline reverted: one method
#: nests store-under-lifecycle, the other lifecycle-under-store.
ISSUE10_SHUTDOWN_ORDER_REVERTED = textwrap.dedent(
    """
    import threading

    class ProcessPoolEngine:
        def __init__(self):
            self._lifecycle = threading.Condition()
            self._store_lock = threading.RLock()

        def shutdown(self):
            with self._lifecycle:
                with self._store_lock:
                    self._close_segments()

        def dataplane_stats(self):
            with self._store_lock:
                with self._lifecycle:
                    return self._snapshot()
    """
)


class TestIssue10CounterGuard:
    def test_reverted_snippet_is_re_detected(self):
        module = SourceModule.from_source(
            ISSUE10_COUNTER_REVERTED, "src/repro/obs/metrics.py"
        )
        findings = list(
            GuardConsistencyChecker().check_project(Project(modules=[module]))
        )
        assert findings, "GUARD-CONSISTENCY failed to re-detect the bare read"
        (finding,) = findings
        assert finding.rule == "GUARD-CONSISTENCY"
        assert "Counter._value" in finding.message
        assert "value" in finding.message

    def test_fixed_module_in_tree_is_clean(self):
        # analyze_project (not the raw checker) so the deliberate,
        # noqa-annotated lock-free fast path in _get counts as
        # suppressed rather than as a finding.
        path = REPO_ROOT / "src/repro/obs/metrics.py"
        module = SourceModule.from_path(path, REPO_ROOT)
        report = analyze_project(
            Project(modules=[module]), checkers=[GuardConsistencyChecker()]
        )
        assert report.findings == [], "every metric read now takes the lock"


class TestIssue10WaitWithoutLoop:
    def test_reverted_snippet_is_re_detected(self):
        module = SourceModule.from_source(
            ISSUE10_WAIT_IF_REVERTED, "src/repro/service/manager.py"
        )
        findings = list(
            LockLeakChecker().check_project(Project(modules=[module]))
        )
        assert findings, "LOCK-LEAK failed to re-detect wait() under if"
        (finding,) = findings
        assert finding.rule == "LOCK-LEAK"
        assert "wait()" in finding.message
        assert "_worker_loop" in finding.message

    def test_fixed_module_in_tree_is_clean(self):
        path = REPO_ROOT / "src/repro/service/manager.py"
        module = SourceModule.from_path(path, REPO_ROOT)
        findings = list(
            LockLeakChecker().check_project(Project(modules=[module]))
        )
        assert findings == [], "the worker loop waits in a while-predicate loop"


class TestIssue10ShutdownLockOrder:
    def test_reverted_snippet_is_re_detected(self):
        module = SourceModule.from_source(
            ISSUE10_SHUTDOWN_ORDER_REVERTED, "src/repro/cluster/engines.py"
        )
        findings = list(
            LockOrderChecker().check_project(Project(modules=[module]))
        )
        assert findings, "LOCK-ORDER failed to re-detect the shutdown cycle"
        (finding,) = findings
        assert finding.rule == "LOCK-ORDER"
        assert "potential deadlock" in finding.message
        assert "ProcessPoolEngine._lifecycle" in finding.message
        assert "ProcessPoolEngine._store_lock" in finding.message

    def test_fixed_modules_in_tree_are_clean(self):
        modules = [
            SourceModule.from_path(REPO_ROOT / rel, REPO_ROOT)
            for rel in (
                "src/repro/cluster/engines.py",
                "src/repro/cluster/dataplane.py",
            )
        ]
        findings = list(
            LockOrderChecker().check_project(Project(modules=modules))
        )
        assert findings == [], "detach-then-teardown keeps the order acyclic"
