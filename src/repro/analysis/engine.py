"""The analysis driver: load → check → suppress → report.

Checkers never see the noqa map; the engine applies it after
collection so suppression semantics are uniform across rules (and
testable in one place). Unparseable files surface as
``SYNTAX-ERROR`` findings rather than crashing the run — a file the
linter cannot read is a finding, not an excuse.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.base import Checker
from repro.analysis.checkers import (
    GuardConsistencyChecker,
    KernelOracleChecker,
    LockLeakChecker,
    LockOrderChecker,
    NondetChecker,
    RaceGlobalChecker,
    SilentExceptChecker,
    SpanCoverageChecker,
    TruthySizedChecker,
)
from repro.analysis.findings import Finding
from repro.analysis.project import Project, load_project
from repro.analysis.reporters import AnalysisReport

SYNTAX_RULE = "SYNTAX-ERROR"


def all_checkers(runtime_report: dict | None = None) -> list[Checker]:
    """The shipped rule set, in catalogue order.

    ``runtime_report`` is a parsed ``lock_order.json`` from
    ``repro.analysis.runtime``; LOCK-ORDER merges its observed
    acquisition edges into the static graph.
    """
    return [
        RaceGlobalChecker(),
        TruthySizedChecker(),
        SilentExceptChecker(),
        KernelOracleChecker(),
        NondetChecker(),
        SpanCoverageChecker(),
        LockOrderChecker(runtime_report=runtime_report),
        LockLeakChecker(),
        GuardConsistencyChecker(),
    ]


def analyze_project(
    project: Project,
    checkers: Sequence[Checker] | None = None,
) -> AnalysisReport:
    checkers = list(all_checkers()) if checkers is None else list(checkers)
    findings: list[Finding] = []
    for module in project:
        if module.syntax_error is not None:
            err = module.syntax_error
            findings.append(
                Finding(
                    path=module.relpath,
                    line=err.lineno or 1,
                    col=(err.offset or 1) - 1,
                    rule=SYNTAX_RULE,
                    message=f"file does not parse: {err.msg}",
                )
            )
    for checker in checkers:
        findings.extend(checker.check_project(project))

    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
        module = project.module(finding.path)
        if module is not None and module.is_suppressed(finding.rule, finding.line):
            suppressed += 1
        else:
            kept.append(finding)

    return AnalysisReport(
        findings=sorted(kept),
        suppressed=suppressed,
        files_scanned=project.num_modules,
        rules=[c.rule_id for c in checkers],
    )


def analyze_paths(
    paths: Iterable[str | Path],
    checkers: Sequence[Checker] | None = None,
    root: Path | None = None,
) -> AnalysisReport:
    project = load_project([Path(p) for p in paths], root=root)
    return analyze_project(project, checkers=checkers)
