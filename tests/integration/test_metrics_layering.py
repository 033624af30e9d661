"""Every ``repro_*`` series is a fold of the span stream: outside
``repro.obs`` nothing under ``src/repro`` reaches for the registry
(``get_metrics``) or an instrument (``.counter`` / ``.gauge`` /
``.histogram``), and nothing names a series — instrumented code emits
spans, and :mod:`repro.obs.fold` alone turns them into series."""

import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
REGISTRY_ACCESS = re.compile(r"get_metrics\(|\.counter\(|\.gauge\(|\.histogram\(")
SERIES_NAME = re.compile(r"""["']repro_[a-z_]+["']""")


def test_only_obs_names_or_updates_a_series():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        if rel.parts[0] == "obs":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for pattern in (REGISTRY_ACCESS, SERIES_NAME):
                if pattern.search(line):
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, offenders
