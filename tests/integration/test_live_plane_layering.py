"""The live plane is fed by the span stream and by nothing else: the
layers below the service never import ``repro.obs.live``, and nobody
outside the plane reaches for it (``active_plane``) or pushes an SLO
sample by hand (``slo.record``) — ``service/http.py`` alone reads the
plane, to answer ``GET /live``."""

import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
LOWER_LAYERS = (
    "cluster", "core", "kvstore", "workloads", "stratify", "perf", "energy", "data"
)
LIVE_IMPORT = re.compile(r"repro\.obs\.live|from repro\.obs import[^\n]*\blive\b")
PLANE_ACCESS = re.compile(r"active_plane|slo\.record")


def test_only_spans_reach_the_live_plane():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        text = path.read_text(encoding="utf-8")
        if rel.parts[0] in LOWER_LAYERS and LIVE_IMPORT.search(text):
            offenders.append(f"{rel} imports repro.obs.live")
        if (
            rel.parts[:2] != ("obs", "live")
            and rel.as_posix() != "service/http.py"
            and PLANE_ACCESS.search(text)
        ):
            offenders.append(f"{rel} reaches into the live plane")
    assert not offenders, offenders
