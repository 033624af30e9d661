"""Engine semantics: suppression, syntax errors, project loading — the
machinery every rule relies on."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis.base import iter_functions
from repro.analysis.checkers import NondetChecker, SilentExceptChecker
from repro.analysis.engine import SYNTAX_RULE, analyze_paths, analyze_project
from repro.analysis.project import (
    Project,
    SourceModule,
    iter_python_files,
    module_name_for,
    parse_noqa,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

SWALLOW = textwrap.dedent(
    """
    def f():
        try:
            work()
        except Exception:
            pass
    """
)


def analyze_sources(*pairs: tuple[str, str], **kwargs):
    modules = [SourceModule.from_source(text, rel) for text, rel in pairs]
    return analyze_project(Project(modules=modules), **kwargs)


class TestSelfClean:
    def test_repo_src_and_tests_are_lint_clean(self):
        """The merged tree must satisfy its own invariants: the four
        roots ``make lint`` and CI scan, so this fails wherever they
        would."""
        report = analyze_paths(
            [REPO_ROOT / d for d in ("src", "tests", "benchmarks", "examples")],
            root=REPO_ROOT,
        )
        assert [f.render() for f in report.findings] == []
        assert report.files_scanned > 100
        # The justified noqa sites (engines teardown, distributed error
        # collection) are suppressions, not silence: they must still be
        # visible in the summary.
        assert report.suppressed >= 3

    def test_rng_discipline_in_stratify_benchmarks_examples(self):
        """Satellite invariant: every RNG in the stratification path and
        the benchmark/example drivers is an explicit seeded Generator —
        repeated runs stay bit-reproducible (NONDET finds no legacy
        global-state call sites)."""
        report = analyze_paths(
            [
                REPO_ROOT / "src" / "repro" / "stratify",
                REPO_ROOT / "benchmarks",
                REPO_ROOT / "examples",
            ],
            checkers=[NondetChecker()],
            root=REPO_ROOT,
        )
        assert [f.render() for f in report.findings] == []


class TestNoqa:
    def test_same_line_rule_specific(self):
        text = SWALLOW.replace(
            "except Exception:", "except Exception:  # repro: noqa[SILENT-EXCEPT]"
        )
        report = analyze_sources((text, "src/repro/x.py"))
        assert report.findings == []
        assert report.suppressed == 1

    def test_line_above(self):
        text = textwrap.dedent(
            """
            def f():
                try:
                    work()
                # repro: noqa[SILENT-EXCEPT]
                except Exception:
                    pass
            """
        )
        report = analyze_sources((text, "src/repro/x.py"))
        assert report.findings == []
        assert report.suppressed == 1

    def test_blanket_noqa(self):
        text = SWALLOW.replace(
            "except Exception:", "except Exception:  # repro: noqa"
        )
        report = analyze_sources((text, "src/repro/x.py"))
        assert report.findings == []

    def test_wrong_rule_id_does_not_suppress(self):
        text = SWALLOW.replace(
            "except Exception:", "except Exception:  # repro: noqa[NONDET]"
        )
        report = analyze_sources((text, "src/repro/x.py"))
        assert len(report.findings) == 1
        assert report.suppressed == 0

    def test_parse_noqa_multi_rule(self):
        noqa = parse_noqa(["x = 1  # repro: noqa[RULE-A, RULE-B]"])
        assert noqa == {1: frozenset({"RULE-A", "RULE-B"})}

    def test_empty_rule_list_is_not_blanket(self):
        # A malformed targeted suppression must not widen to suppress-all.
        for malformed in ("[]", "[ ]", "[,]"):
            text = SWALLOW.replace(
                "except Exception:",
                f"except Exception:  # repro: noqa{malformed}",
            )
            report = analyze_sources((text, "src/repro/x.py"))
            assert len(report.findings) == 1, malformed
            assert report.suppressed == 0, malformed

    def test_parse_noqa_empty_brackets(self):
        assert parse_noqa(["x = 1  # repro: noqa[]"]) == {}
        assert parse_noqa(["x = 1  # repro: noqa[ ]"]) == {}


class TestFunctionTraversal:
    def test_match_async_and_trystar_blocks_visible(self):
        """Functions defined inside match/async-with/async-for/except*
        blocks must be visible to every function-scoped rule."""
        text = textwrap.dedent(
            """
            match cmd:
                case "a":
                    def in_match():
                        pass

            async def driver(ctx, items):
                async with ctx() as c:
                    def in_async_with():
                        pass
                async for item in items:
                    def in_async_for():
                        pass

            def wrapper():
                try:
                    work()
                except* ValueError:
                    def in_try_star():
                        pass
            """
        )
        names = {f.name for f, _ in iter_functions(ast.parse(text))}
        assert {
            "in_match",
            "driver",
            "in_async_with",
            "in_async_for",
            "wrapper",
            "in_try_star",
        } <= names


class TestSyntaxAndLoading:
    def test_unparseable_file_is_a_finding(self):
        report = analyze_sources(("def broken(:\n", "src/repro/bad.py"))
        assert len(report.findings) == 1
        assert report.findings[0].rule == SYNTAX_RULE

    def test_module_name_for_layouts(self):
        assert module_name_for("src/repro/perf/minhash_kernels.py") == (
            "repro.perf.minhash_kernels"
        )
        assert module_name_for("tests/perf/test_fpm_kernels.py") == (
            "tests.perf.test_fpm_kernels"
        )
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"

    def test_iter_python_files_skips_caches(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "b.txt").write_text("not python\n")
        found = sorted(p.name for p in iter_python_files([tmp_path]))
        assert found == ["a.py"]

    def test_iter_python_files_skips_artifact_and_temp_dirs(self, tmp_path):
        # ISSUE 10 satellite: the benchmark harness drops scratch trees
        # (`artifacts/`, `obs-smoke-artifacts/`, `*.tmp/`) and setuptools
        # leaves `*.egg-info/` next to the sources; stray generated .py
        # files there must never enter the scan.
        (tmp_path / "keep.py").write_text("x = 1\n")
        for skipped in (
            "artifacts",
            "obs-smoke-artifacts",
            "results",
            "repro.egg-info",
            "bench-run.tmp",
            ".venv",
        ):
            (tmp_path / skipped / "nested").mkdir(parents=True)
            (tmp_path / skipped / "gen.py").write_text("x = 1\n")
            (tmp_path / skipped / "nested" / "deep.py").write_text("x = 1\n")
        # A *file* whose name merely ends in .tmp.py is not a skipped dir.
        (tmp_path / "scratch.tmp.py").write_text("x = 1\n")
        found = sorted(p.name for p in iter_python_files([tmp_path]))
        assert found == ["keep.py", "scratch.tmp.py"]

    def test_explicit_checkers_override(self):
        report = analyze_sources(
            (SWALLOW, "src/repro/x.py"), checkers=[NondetChecker()]
        )
        assert report.findings == []
        report = analyze_sources(
            (SWALLOW, "src/repro/x.py"), checkers=[SilentExceptChecker()]
        )
        assert len(report.findings) == 1
