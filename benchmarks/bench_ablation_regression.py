"""Ablation: linear vs polynomial time models (paper Section III-D).

The paper argues higher-order fits are theoretically attractive but
practically infeasible: progressive sampling affords only a handful of
samples, and polynomials overfit them badly when extrapolated to full
partition sizes. This bench fits both model families on the same
progressive samples and measures extrapolation error at the full
dataset size against the engine's actual runtime.
"""

import numpy as np
from conftest import run_once, save_result

from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import SimulatedEngine
from repro.core.heterogeneity import (
    LinearTimeModel,
    PolynomialTimeModel,
    ProgressiveSampler,
)
from repro.data.datasets import load_dataset
from repro.kvstore.codec import encode_dataset
from repro.stratify.stratifier import Stratifier
from repro.workloads.fpm.apriori import AprioriWorkload


def _run():
    dataset = load_dataset("rcv1")
    engine = SimulatedEngine(paper_cluster(4, seed=0))
    workload = AprioriWorkload(min_support=0.1, max_len=3)
    encoded = encode_dataset("text", dataset.items)
    stratification = Stratifier(kind="text", num_strata=8, seed=0).stratify(encoded)
    report = ProgressiveSampler(engine=engine, seed=0).profile(
        workload, encoded, stratification
    )
    truth = engine.profile_all_nodes(workload, dataset.items)

    rows = []
    sizes = np.array(report.sample_sizes, dtype=float)
    for node in range(4):
        times = np.array(report.times[node])
        linear = LinearTimeModel.fit(sizes, times)
        errors = {"node": node, "measured_s": round(truth[node], 2)}
        errors["linear_err_pct"] = round(
            100 * abs(linear.predict(len(dataset)) - truth[node]) / truth[node], 1
        )
        for degree in (2, 3, 4):
            poly = PolynomialTimeModel.fit(sizes, times, degree=degree)
            errors[f"poly{degree}_err_pct"] = round(
                100 * abs(poly.predict(len(dataset)) - truth[node]) / truth[node], 1
            )
        rows.append(errors)
    return rows


def test_ablation_regression(benchmark):
    rows = run_once(benchmark, _run)
    lines = ["ABLATION — time-model family, extrapolation error at full size"]
    lines += [str(r) for r in rows]
    save_result("ablation_regression", "\n".join(lines))
    for r in rows:
        # The linear model extrapolates within 35%; degree-4 blows up.
        assert r["linear_err_pct"] < 35.0
        assert r["poly4_err_pct"] > r["linear_err_pct"]
