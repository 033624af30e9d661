"""Per-rule fixture tests: one true positive and one clean snippet each.

Every shipped rule is regression-tested against a known-bad snippet
(must produce at least the expected finding) and a known-good snippet
(must produce zero findings), so checker changes cannot silently lose
detections or start crying wolf.
"""

from __future__ import annotations

import textwrap

from repro.analysis.checkers import (
    KernelOracleChecker,
    NondetChecker,
    RaceGlobalChecker,
    SilentExceptChecker,
    SpanCoverageChecker,
    TruthySizedChecker,
)
from repro.analysis.project import Project, SourceModule


def run_checker(checker, *modules: SourceModule):
    project = Project(modules=list(modules))
    return list(checker.check_project(project))


def mod(text: str, relpath: str) -> SourceModule:
    return SourceModule.from_source(textwrap.dedent(text), relpath)


# -- RACE-GLOBAL -----------------------------------------------------------


class TestRaceGlobal:
    def test_true_positive_mutations(self):
        bad = mod(
            """
            import numpy as np

            _CACHE = {}
            _SCRATCH = np.empty(8)

            def kernel(x):
                _CACHE[x.shape] = x
                np.add(x, 1, out=_SCRATCH)
                _SCRATCH.fill(0)
                return _SCRATCH

            def rebind():
                global _SCRATCH
                _SCRATCH = np.empty(16)
            """,
            "src/repro/perf/fixture_kernels.py",
        )
        findings = run_checker(RaceGlobalChecker(), bad)
        assert all(f.rule == "RACE-GLOBAL" for f in findings)
        hows = "\n".join(f.message for f in findings)
        assert "subscript store" in hows
        assert "out=" in hows
        assert ".fill()" in hows
        assert "'global'" in hows
        assert len(findings) == 4

    def test_clean_thread_local_and_locals(self):
        good = mod(
            """
            import threading

            import numpy as np

            _TLS = threading.local()
            _LIMIT = 8

            def kernel(x):
                buf = np.empty_like(x)
                np.add(x, 1, out=buf)
                _TLS.blocks = buf
                local = []
                local.append(x)
                return buf
            """,
            "src/repro/perf/fixture_kernels.py",
        )
        assert run_checker(RaceGlobalChecker(), good) == []

    def test_out_of_scope_module_not_flagged(self):
        # Same mutation, but in a module no thread/worker entry point
        # shares: the rule's scope predicate must keep it quiet.
        elsewhere = mod(
            """
            _REGISTRY = {}

            def register(name, fn):
                _REGISTRY[name] = fn
            """,
            "src/repro/bench/fixture_registry.py",
        )
        assert run_checker(RaceGlobalChecker(), elsewhere) == []

    def test_parameter_shadowing_not_flagged(self):
        shadowed = mod(
            """
            _CACHE = {}

            def kernel(_CACHE):
                _CACHE["k"] = 1
            """,
            "src/repro/perf/fixture_kernels.py",
        )
        assert run_checker(RaceGlobalChecker(), shadowed) == []

    def test_nested_function_mutation_reported_once(self):
        nested = mod(
            """
            _CACHE = {}

            def outer():
                def inner():
                    _CACHE["k"] = 1
                return inner
            """,
            "src/repro/perf/fixture_kernels.py",
        )
        findings = run_checker(RaceGlobalChecker(), nested)
        assert len(findings) == 1
        assert "inner()" in findings[0].message

    def test_nested_function_parameter_shadowing_not_flagged(self):
        shadowed = mod(
            """
            _CACHE = {}

            def outer():
                def inner(_CACHE):
                    _CACHE["k"] = 1
                return inner
            """,
            "src/repro/perf/fixture_kernels.py",
        )
        assert run_checker(RaceGlobalChecker(), shadowed) == []


# -- TRUTHY-SIZED ----------------------------------------------------------


class TestTruthySized:
    def test_true_positive_truth_tests(self):
        bad = mod(
            """
            class Tracer:
                def __len__(self):
                    return 0

            def worker(enabled):
                tracer = Tracer() if enabled else None
                if tracer:
                    return True
                return bool(tracer)
            """,
            "src/repro/obs/fixture_trace.py",
        )
        findings = run_checker(TruthySizedChecker(), bad)
        assert len(findings) == 2
        assert all(f.rule == "TRUTHY-SIZED" for f in findings)
        assert all("Tracer" in f.message for f in findings)

    def test_clean_bool_defined_and_identity_check(self):
        good = mod(
            """
            class Tracer:
                def __len__(self):
                    return 0

                def __bool__(self):
                    return True

            class Plain:
                pass

            def worker(enabled):
                tracer = Tracer() if enabled else None
                if tracer is not None:
                    return True
                p = Plain()
                if p:
                    return False
                return len([]) == 0
            """,
            "src/repro/obs/fixture_trace.py",
        )
        assert run_checker(TruthySizedChecker(), good) == []

    def test_annotation_tracking(self):
        bad = mod(
            """
            class Cluster:
                def __len__(self):
                    return 0

            def use(cluster: Cluster | None):
                while cluster:
                    break
            """,
            "src/repro/cluster/fixture_cluster.py",
        )
        findings = run_checker(TruthySizedChecker(), bad)
        assert len(findings) == 1
        assert "while" in findings[0].message or "if/while" in findings[0].message

    def test_nested_function_truth_test_reported_once(self):
        bad = mod(
            """
            class Tracer:
                def __len__(self):
                    return 0

            def outer():
                def inner():
                    tracer = Tracer()
                    if tracer:
                        return True
                return inner
            """,
            "src/repro/obs/fixture_trace.py",
        )
        findings = run_checker(TruthySizedChecker(), bad)
        assert len(findings) == 1

    def test_non_repro_class_ignored(self):
        outside = mod(
            """
            class Sized:
                def __len__(self):
                    return 0

            def use():
                s = Sized()
                if s:
                    return True
            """,
            "thirdparty/fixture.py",
        )
        assert run_checker(TruthySizedChecker(), outside) == []


# -- SILENT-EXCEPT ---------------------------------------------------------


class TestSilentExcept:
    def test_true_positive_swallowed(self):
        bad = mod(
            """
            def f():
                try:
                    work()
                except Exception:
                    pass

            def g():
                try:
                    work()
                except:
                    x = 1
                return x
            """,
            "src/repro/kvstore/fixture_store.py",
        )
        findings = run_checker(SilentExceptChecker(), bad)
        assert len(findings) == 2
        assert all(f.rule == "SILENT-EXCEPT" for f in findings)

    def test_pass_only_except_nested_in_with_inside_loop(self):
        # ISSUE 10 satellite: the request-draining shape from
        # service/http.py — a swallow buried in a with-body that is
        # itself inside a loop must still be flagged (ast.walk descends
        # through both bodies; nothing about nesting is exempt).
        bad = mod(
            """
            def serve_forever(listener):
                for conn in listener:
                    with conn:
                        try:
                            handle(conn)
                        except Exception:
                            pass
            """,
            "src/repro/service/fixture_http.py",
        )
        findings = run_checker(SilentExceptChecker(), bad)
        assert len(findings) == 1
        assert findings[0].rule == "SILENT-EXCEPT"

    def test_clean_logged_narrow_or_reraised(self):
        good = mod(
            """
            import logging

            from repro.obs.log import log_event

            _log = logging.getLogger(__name__)

            def f():
                try:
                    work()
                except Exception as exc:
                    log_event(_log, logging.DEBUG, "f.failed", error=str(exc))

            def g():
                try:
                    work()
                except ValueError:
                    pass
                try:
                    work()
                except Exception:
                    raise
            """,
            "src/repro/kvstore/fixture_store.py",
        )
        assert run_checker(SilentExceptChecker(), good) == []


# -- KERNEL-ORACLE ---------------------------------------------------------


class TestKernelOracle:
    KERNEL = """
        def kernel(x):
            return x
        """

    def test_true_positive_untested_kernel(self):
        kernel = mod(self.KERNEL, "src/repro/perf/mystery_kernels.py")
        test = mod(
            "from repro.perf.fpm_kernels import support_counts\n",
            "tests/perf/test_other.py",
        )
        findings = run_checker(KernelOracleChecker(), kernel, test)
        assert len(findings) == 1
        assert findings[0].rule == "KERNEL-ORACLE"
        assert "mystery_kernels" in findings[0].message

    def test_clean_when_imported_by_parity_test(self):
        kernel = mod(self.KERNEL, "src/repro/perf/mystery_kernels.py")
        test = mod(
            "from repro.perf import mystery_kernels\n",
            "tests/perf/test_mystery.py",
        )
        assert run_checker(KernelOracleChecker(), kernel, test) == []

    def test_quiet_without_test_tree(self):
        # Linting src/ alone is not evidence of a missing oracle.
        kernel = mod(self.KERNEL, "src/repro/perf/mystery_kernels.py")
        assert run_checker(KernelOracleChecker(), kernel) == []


# -- NONDET ----------------------------------------------------------------


class TestNondet:
    def test_true_positive_legacy_rng(self):
        bad = mod(
            """
            import random

            import numpy as np

            def f():
                random.seed(0)
                return random.random() + np.random.rand(3).sum()
            """,
            "src/repro/stratify/fixture_sampling.py",
        )
        findings = run_checker(NondetChecker(), bad)
        assert len(findings) == 3
        assert all(f.rule == "NONDET" for f in findings)

    def test_true_positive_clock_in_kernel_scope(self):
        bad = mod(
            """
            import time

            def kernel(x):
                return x, time.time()
            """,
            "src/repro/perf/fixture_kernels.py",
        )
        findings = run_checker(NondetChecker(), bad)
        assert len(findings) == 1
        assert "wall-clock" in findings[0].message

    def test_clean_seeded_generators_and_clock_outside_scope(self):
        good = mod(
            """
            import random
            import time

            import numpy as np

            def f(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                return rng.random() + gen.random()

            def bench():
                return time.perf_counter()
            """,
            "src/repro/bench/fixture_harness.py",
        )
        assert run_checker(NondetChecker(), good) == []

    def test_from_import_tracked(self):
        bad = mod(
            """
            from random import choice

            def f(items):
                return choice(items)
            """,
            "src/repro/data/fixture_pick.py",
        )
        findings = run_checker(NondetChecker(), bad)
        assert len(findings) == 1
        assert "choice" in findings[0].message


# -- SPAN-COVERAGE ---------------------------------------------------------


class TestSpanCoverage:
    REQUIRED = {"repro.core.framework": frozenset({"execute", "measure_frontier"})}

    def test_true_positive_uninstrumented_entry_point(self):
        bad = mod(
            """
            import repro.obs as obs

            class Partitioner:
                def execute(self, items):
                    return items
            """,
            "src/repro/core/framework.py",
        )
        findings = run_checker(SpanCoverageChecker(self.REQUIRED), bad)
        assert len(findings) == 1
        assert findings[0].rule == "SPAN-COVERAGE"
        assert "Partitioner.execute" in findings[0].message

    def test_clean_direct_span_and_delegation(self):
        good = mod(
            """
            import repro.obs as obs

            class Partitioner:
                def execute(self, items):
                    with obs.span("pipeline.execute"):
                        return items

                def measure_frontier(self, alphas):
                    return [self.execute([]) for _ in alphas]
            """,
            "src/repro/core/framework.py",
        )
        assert run_checker(SpanCoverageChecker(self.REQUIRED), good) == []

    def test_abstract_declaration_skipped(self):
        abstract = mod(
            """
            import abc

            import repro.obs as obs

            class Engine(abc.ABC):
                @abc.abstractmethod
                def execute(self, items):
                    ...
            """,
            "src/repro/core/framework.py",
        )
        assert run_checker(SpanCoverageChecker(self.REQUIRED), abstract) == []

    def test_default_contract_covers_service_manager(self):
        required = SpanCoverageChecker().required["repro.service.manager"]
        assert required == frozenset({"submit", "run_record", "drain"})

    def test_true_positive_uninstrumented_service_submit(self):
        bad = mod(
            """
            import repro.obs as obs

            class JobManager:
                def submit(self, spec):
                    return spec

                def run_record(self, record):
                    with obs.span("service.run"):
                        return record

                def drain(self, timeout_s=None):
                    with obs.span("service.drain"):
                        return True
            """,
            "src/repro/service/manager.py",
        )
        findings = run_checker(SpanCoverageChecker(), bad)
        assert len(findings) == 1
        assert findings[0].rule == "SPAN-COVERAGE"
        assert "JobManager.submit" in findings[0].message

    def test_clean_instrumented_service_manager(self):
        good = mod(
            """
            import repro.obs as obs

            class JobManager:
                def submit(self, spec):
                    with obs.span("service.submit"):
                        return spec

                def run_record(self, record):
                    with obs.span("service.run"):
                        return record

                def drain(self, timeout_s=None):
                    with obs.span("service.drain"):
                        return True
            """,
            "src/repro/service/manager.py",
        )
        assert run_checker(SpanCoverageChecker(), good) == []

    def test_default_contract_covers_live_plane(self):
        required = SpanCoverageChecker().required["repro.obs.live.plane"]
        assert required == frozenset({"publish_span"})

    def test_true_positive_live_plane_publication_dropped(self):
        # publish_span charges the ledger but never reaches the bus:
        # /live and `repro obs top` would go dark silently.
        bad = mod(
            """
            class LivePlane:
                def publish_span(self, record):
                    self.ledger.charge(record)
            """,
            "src/repro/obs/live/plane.py",
        )
        findings = run_checker(SpanCoverageChecker(), bad)
        assert len(findings) == 1
        assert findings[0].rule == "SPAN-COVERAGE"
        assert "LivePlane.publish_span" in findings[0].message

    def test_clean_live_plane_publishes_to_bus(self):
        good = mod(
            """
            class LivePlane:
                def publish_span(self, record):
                    self.bus.publish("span", name=record["name"])
            """,
            "src/repro/obs/live/plane.py",
        )
        assert run_checker(SpanCoverageChecker(), good) == []
