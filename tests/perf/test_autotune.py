"""Behavioral tests for the kernel autotuner."""

import builtins
import io
import json
import os
import sys

import numpy as np
import pytest

from repro import obs
from repro.perf import autotune
from repro.perf.native import runtime
from repro.stratify.kmodes import CompositeKModes
from repro.stratify.minhash import MinHasher
from repro.workloads.compression.lz77 import LZ77Codec
from repro.workloads.compression.webgraph import WebGraphCodec
from repro.workloads.fpm.apriori import AprioriMiner, count_patterns
from repro.workloads.fpm.eclat import EclatMiner


def test_numba_probe_reports_what_import_does(monkeypatch):
    # The probe feeds only the end-to-end ruler's host fingerprint; no
    # tier depends on it. A ``None`` entry makes the import raise.
    monkeypatch.setitem(sys.modules, "numba", None)
    assert runtime.numba_available() is False
    monkeypatch.setitem(sys.modules, "numba", sys)
    assert runtime.numba_available() is True


class TestAliasesAndValidation:
    def test_canonical_names_pass_through(self):
        for name in autotune.TIERS + (autotune.AUTO,):
            assert autotune.validate_kernel(name, "minhash") == name

    @pytest.mark.parametrize("kind", sorted(autotune.KIND_TIERS))
    def test_unknown_kernel_rejected(self, kind):
        # The pre-autotuner spellings and the deleted numba tier are
        # ordinary unknown names now.
        for name in ("gpu", "batched", "bitmap", "fast", "native"):
            with pytest.raises(ValueError, match="kernel must be one of"):
                autotune.validate_kernel(name, kind)

    def test_constructors_validate_eagerly(self):
        for name in ("magic", "native"):
            with pytest.raises(ValueError):
                MinHasher(kernel=name)
            with pytest.raises(ValueError):
                CompositeKModes(kernel=name)
            with pytest.raises(ValueError):
                AprioriMiner(min_support=0.5, kernel=name)
            with pytest.raises(ValueError):
                EclatMiner(min_support=0.5, kernel=name)
            with pytest.raises(ValueError):
                LZ77Codec(kernel=name)
            with pytest.raises(ValueError):
                WebGraphCodec(kernel=name)
            with pytest.raises(ValueError):
                count_patterns([{1}], [(1,)], kernel=name)


class TestShapeDispatch:
    def test_explicit_tier_always_wins(self):
        assert autotune.resolve_tier("reference", kind="minhash", work=10**9) == "reference"
        assert autotune.resolve_tier("numpy", kind="minhash", work=0) == "numpy"

    def test_auto_is_blind_to_work_and_to_the_filesystem(self, tmp_path, monkeypatch):
        # No input is small enough for ``auto`` to pick the oracle, and
        # no file can sway it: a BENCH_kernels.json in the working
        # directory ranking the numpy tier last is never opened.
        sections = (
            "sketch_all", "kmodes_fit", "apriori_mine", "lz77_compress", "webgraph_compress"
        )
        hostile = {
            name: {"tiers": {"reference": 1e-9, "numpy": 1e9}}
            for name in sections
        }
        (tmp_path / "BENCH_kernels.json").write_text(json.dumps(hostile), encoding="utf-8")
        monkeypatch.chdir(tmp_path)

        def no_files(path, *_args, **_kwargs):
            raise AssertionError(f"resolve_tier opened {path!r}")

        for module in (builtins, io, os):
            monkeypatch.setattr(module, "open", no_files)
        for kind, tiers in autotune.KIND_TIERS.items():
            assert tiers == autotune.TIERS
            for work in (0, 1, 15, 10**9):
                assert autotune.resolve_tier("auto", kind=kind, work=work) == "numpy"


class TestEnvPin:
    def test_env_pins_auto(self, monkeypatch):
        monkeypatch.setenv(autotune.ENV_TIER, "reference")
        assert autotune.resolve_tier("auto", kind="minhash", work=10**9) == "reference"

    def test_env_does_not_override_explicit_kernel(self, monkeypatch):
        monkeypatch.setenv(autotune.ENV_TIER, "reference")
        assert autotune.resolve_tier("numpy", kind="minhash", work=10**9) == "numpy"

    def test_invalid_env_value_raises(self, monkeypatch):
        for value in ("turbo", "batched", "native"):
            monkeypatch.setenv(autotune.ENV_TIER, value)
            with pytest.raises(ValueError, match=autotune.ENV_TIER):
                autotune.resolve_tier("auto", kind="minhash", work=10**9)


class TestDispatchCounters:
    def test_counter_incremented_per_resolution(self):
        obs.enable()
        obs.reset()
        try:
            autotune.resolve_tier("reference", kind="kmodes", work=1)
            autotune.resolve_tier("reference", kind="kmodes", work=1)
            autotune.resolve_tier("numpy", kind="kmodes", work=1)
            snap = obs.metrics_snapshot()
        finally:
            obs.disable()
            obs.reset()
        ref_key = 'repro_kernel_dispatch_total{kernel="kmodes",tier="reference"}'
        np_key = 'repro_kernel_dispatch_total{kernel="kmodes",tier="numpy"}'
        assert snap[ref_key]["value"] == 2
        assert snap[np_key]["value"] == 1

    def test_dispatch_counter_records_numpy_tier(self):
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

    def test_no_counters_when_obs_disabled(self):
        obs.reset()
        autotune.resolve_tier("reference", kind="kmodes", work=1)
        assert obs.metrics_snapshot() == {}


class TestAutoEndToEnd:
    def test_auto_default_used_by_workloads(self):
        # Tiny inputs take the batched tier like any other; results
        # must match the explicit tiers bit-for-bit.
        rng = np.random.default_rng(0)
        sets = [
            rng.integers(0, 2**32, size=4).astype(np.uint64) for _ in range(3)
        ]
        hasher_auto = MinHasher(num_hashes=8, seed=9)
        assert hasher_auto.kernel == "auto"
        assert np.array_equal(
            hasher_auto.sketch_all(sets),
            MinHasher(num_hashes=8, seed=9, kernel="numpy").sketch_all(sets),
        )
        codec = LZ77Codec()
        assert codec.kernel == "auto"
        data = b"tiny"
        assert codec.compress(data) == LZ77Codec(kernel="reference").compress(data)
        assert WebGraphCodec().kernel == "auto"
        assert AprioriMiner(min_support=0.5).kernel == "auto"
        assert EclatMiner(min_support=0.5).kernel == "auto"
        assert CompositeKModes().kernel == "auto"

    def test_auto_results_identical_to_numpy(self):
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
