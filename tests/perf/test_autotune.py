"""The two ruler-only stubs under :mod:`repro.perf`: the kernel-name
table and the numba import probe (both go with ROADMAP item 5(c))."""

import sys

from repro.perf import autotune
from repro.perf.native import runtime


def test_numba_probe_reports_what_import_does(monkeypatch):
    # The probe feeds only the end-to-end ruler's host fingerprint; no
    # kernel depends on it. A ``None`` entry makes the import raise.
    monkeypatch.setitem(sys.modules, "numba", None)
    assert runtime.numba_available() is False
    monkeypatch.setitem(sys.modules, "numba", sys)
    assert runtime.numba_available() is True


def test_stub_reports_numpy_for_every_kind():
    # What the frozen ruler's host fingerprint reads: five kinds, one
    # kernel each, whatever ``kernel`` and ``work`` it passes.
    assert sorted(autotune.KIND_TIERS) == ["fpm", "kmodes", "lz77", "minhash", "webgraph"]
    for kind, tiers in autotune.KIND_TIERS.items():
        assert tiers == ("numpy",)
        for work in (0, 1, 10**9):
            assert autotune.resolve_tier("auto", kind=kind, work=work) == "numpy"
