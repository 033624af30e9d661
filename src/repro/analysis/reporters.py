"""Text and JSON rendering of an analysis run."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.findings import Finding

#: Schema version of the ``--format json`` payload; bump on breaking
#: changes so CI consumers can pin.
REPORT_SCHEMA_VERSION = 2


@dataclass
class AnalysisReport:
    """Everything one run produced, pre-filtered by the engine."""

    findings: list[Finding]
    suppressed: int = 0
    files_scanned: int = 0
    rules: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def render_text(report: AnalysisReport) -> str:
    lines = [f.render() for f in sorted(report.findings)]
    noun = "finding" if len(report.findings) == 1 else "findings"
    lines.append(
        f"{len(report.findings)} {noun} "
        f"({report.files_scanned} files, {report.suppressed} suppressed)"
    )
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    payload = {
        "version": REPORT_SCHEMA_VERSION,
        "rules": list(report.rules),
        "findings": [f.to_dict() for f in sorted(report.findings)],
        "summary": {
            "files_scanned": report.files_scanned,
            "findings": len(report.findings),
            "suppressed": report.suppressed,
        },
    }
    return json.dumps(payload, indent=2)


def render_rules(rules: Sequence[tuple[str, str]]) -> str:
    width = max((len(rule) for rule, _ in rules), default=0)
    return "\n".join(f"{rule.ljust(width)}  {desc}" for rule, desc in rules)
