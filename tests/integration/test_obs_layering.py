"""``repro.obs`` is a leaf: nothing under ``src/repro/obs`` imports the
layers it observes (``repro.core``, ``repro.cluster``, ``repro.service``),
not even for type hints. Those layers emit spans; obs reads the spans'
attributes and never their types."""

import pathlib
import re

OBS = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "obs"
UPPER_IMPORT = re.compile(
    r"^\s*(?:from|import)\s+repro\.(?:core|cluster|service)\b[^\n]*"
    r"|^\s*from\s+repro\s+import\s+[^\n]*\b(?:core|cluster|service)\b",
    re.MULTILINE,
)


def test_obs_imports_no_layer_it_observes():
    offenders = [
        f"{path.relative_to(OBS.parent)}: {match.group(0).strip()}"
        for path in sorted(OBS.rglob("*.py"))
        for match in UPPER_IMPORT.finditer(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, offenders
