"""Graceful degradation of the native tier when numba is unimportable.

Simulates the missing dependency by poisoning ``sys.modules["numba"]``
(``None`` entries make ``importlib.import_module`` raise) and asserts
the contract the autotuner promises: ``kernel="auto"`` silently resolves
to the numpy tier with identical results plus one observable
``kernel.native_unavailable`` log event — never an exception.

The njit modules are imported at module top, *before* any poisoning, so
this file's alphabetical position ahead of ``test_native_kernels.py``
cannot corrupt the parity suite's imports in the numba CI leg.
"""

import logging
import sys

import numpy as np
import pytest

from repro import obs
from repro.perf import autotune
from repro.perf.native import fpm_njit, kmodes_njit, lz77_njit, minhash_njit, runtime
from repro.stratify.minhash import MinHasher
from repro.workloads.fpm.apriori import AprioriMiner


@pytest.fixture
def no_numba(monkeypatch):
    """numba unimportable + all availability caches cleared, restored after."""
    monkeypatch.setitem(sys.modules, "numba", None)
    runtime.numba_available.cache_clear()
    autotune._log_native_unavailable.cache_clear()
    yield
    runtime.numba_available.cache_clear()
    autotune._log_native_unavailable.cache_clear()


class TestGracefulFallback:
    def test_numba_reports_unavailable(self, no_numba):
        assert runtime.numba_available() is False

    def test_njit_decorator_is_identity_without_numba(self, no_numba):
        def f(x):
            return x + 1

        assert runtime.njit(cache=True)(f) is f
        assert runtime.njit(f) is f

    def test_njit_kernels_run_interpreted(self, no_numba):
        # The kernel modules stay importable and callable without numba
        # — the shim leaves plain Python functions behind.
        from repro.perf.fpm_kernels import pack_transactions
        from repro.perf.lz77_kernels import build_match_links

        bitmap = pack_transactions([{1, 2}, {2}])
        rows = np.array([[0], [1]], dtype=np.int64)
        assert fpm_njit.candidate_supports_native(bitmap, rows).tolist() == [
            int(bitmap.supports[0]),
            int(bitmap.supports[1]),
        ]
        sketches = np.zeros((2, 3), dtype=np.uint64)
        centers = np.zeros((1, 3, 2), dtype=np.uint64)
        assert kmodes_njit.match_counts_native(sketches, centers).tolist() == [[3], [3]]
        data = b"abcdabcd"
        m_pos, _dist, m_len, _probes = lz77_njit.scan_matches_native(
            data, build_match_links(data), window=64, max_chain=4, max_match=8
        )
        assert list(m_pos) == [4]
        assert list(m_len) == [4]
        flat = np.array([1, 2], dtype=np.uint64)
        offsets = np.array([0, 2], dtype=np.int64)
        a = np.array([1], dtype=np.uint64)
        b = np.array([0], dtype=np.uint64)
        out = minhash_njit.sketch_all_native(
            flat, offsets, a, b, prime=(1 << 32) + 15, empty_slot=np.uint64(2**64 - 1)
        )
        assert out.tolist() == [[1]]  # min of h(x)=x over {1, 2}

    def test_auto_resolves_to_numpy_with_log_event(self, no_numba, caplog):
        # Seeds rank native above numpy by default, so a large auto call
        # wants the native tier; without numba it must downgrade.
        with caplog.at_level(logging.INFO, logger="repro.perf.autotune"):
            tier = autotune.resolve_tier("auto", kind="minhash", work=10**9)
        assert tier == "numpy"
        assert any("kernel.native_unavailable" in r.message for r in caplog.records)

    def test_auto_results_identical_to_numpy(self, no_numba):
        rng = np.random.default_rng(3)
        sets = [
            rng.integers(0, 2**32, size=int(rng.integers(10, 80))).astype(np.uint64)
            for _ in range(64)
        ]
        auto = MinHasher(num_hashes=16, seed=1, kernel="auto").sketch_all(sets)
        explicit = MinHasher(num_hashes=16, seed=1, kernel="numpy").sketch_all(sets)
        assert np.array_equal(auto, explicit)

        tx = [set(map(int, rng.integers(0, 10, size=6))) for _ in range(60)]
        out_auto = AprioriMiner(min_support=0.2, kernel="auto").mine(tx)
        out_np = AprioriMiner(min_support=0.2, kernel="numpy").mine(tx)
        assert out_auto.counts == out_np.counts
        assert out_auto.work_units == out_np.work_units

    def test_env_pin_to_native_also_degrades(self, no_numba, monkeypatch, caplog):
        monkeypatch.setenv(autotune.ENV_TIER, "native")
        with caplog.at_level(logging.INFO, logger="repro.perf.autotune"):
            tier = autotune.resolve_tier("auto", kind="fpm", work=10**6)
        assert tier == "numpy"
        assert any("kernel.native_unavailable" in r.message for r in caplog.records)

    def test_dispatch_counter_records_numpy_tier(self, no_numba):
        obs.enable()
        obs.reset()
        try:
            autotune.resolve_tier("auto", kind="lz77", work=10**6)
            snap = obs.metrics_snapshot()
        finally:
            obs.disable()
            obs.reset()
        key = 'repro_kernel_dispatch_total{kernel="lz77",tier="numpy"}'
        assert key in snap
        assert snap[key]["value"] == 1
