#!/usr/bin/env python
"""Why learned time models beat CPU specs (paper Section III-A).

Progressive sampling runs the *actual* algorithm on representative
samples of increasing size and fits a per-node linear time model. This
script demonstrates the three properties the paper claims for it:

1. the learned slopes recover the nodes' true relative speeds;
2. the model is *task-specific* — the same cluster gets different
   models for mining vs compression, which nominal CPU specs cannot
   express;
3. the model is *payload-aware* — raising the mining support threshold
   changes the learned cost curve on the very same data.

It also reproduces the Section III-D ablation: a high-degree polynomial
fitted on the few progressive samples extrapolates far worse than the
linear model.

Run:  python examples/profiling_heterogeneity.py
"""

import numpy as np

from repro import SimulatedEngine, load_dataset, paper_cluster
from repro.core.heterogeneity import (
    LinearTimeModel,
    PolynomialTimeModel,
    ProgressiveSampler,
)
from repro.kvstore.codec import encode_dataset
from repro.stratify.stratifier import Stratifier
from repro.workloads.compression import CompressionWorkload
from repro.workloads.fpm import AprioriWorkload


def main() -> None:
    dataset = load_dataset("rcv1")
    cluster = paper_cluster(4, seed=0)
    engine = SimulatedEngine(cluster)
    # The sampler draws its probes from the dataset's codec encoding.
    encoded = encode_dataset("text", dataset.items)
    stratification = Stratifier(kind="text", num_strata=8, seed=0).stratify(encoded)
    sampler = ProgressiveSampler(engine=engine, seed=0)

    print("1) slopes recover emulated node speeds (4x, 3x, 2x, 1x):")
    mining = sampler.profile(
        AprioriWorkload(min_support=0.1, max_len=3), encoded, stratification
    )
    slopes = np.array([m.slope for m in mining.models])
    print(f"   slopes      : {np.round(slopes, 5).tolist()}")
    print(f"   slope ratios: {np.round(slopes / slopes[0], 2).tolist()}  (expect 1,1.33,2,4)")
    print(f"   fit quality : r² = {np.round(mining.r_squared, 3).tolist()}")

    print("\n2) models are task-specific (same cluster, different workloads):")
    compression = sampler.profile(
        CompressionWorkload("lz77", max_chain=8), encoded, stratification
    )
    print(f"   mining node-0 model     : {mining.models[0]}")
    print(f"   compression node-0 model: {compression.models[0]}")

    print("\n3) models are payload-aware (same data, different support):")
    for support in (0.1, 0.2):
        report = sampler.profile(
            AprioriWorkload(min_support=support, max_len=3),
            encoded,
            stratification,
        )
        print(
            f"   support {support:.2f}: node-0 slope {report.models[0].slope:.5f}"
            f" s/item, intercept {report.models[0].intercept:.3f} s"
        )

    print("\n4) Section III-D ablation — linear vs degree-4 polynomial:")
    sizes = np.array(mining.sample_sizes, dtype=float)
    times = np.array(mining.times[3])  # the slowest node
    linear = LinearTimeModel.fit(sizes, times)
    poly = PolynomialTimeModel.fit(sizes, times, degree=4)
    full = float(len(dataset))
    # The engine's true cost at full size, measured directly:
    truth = engine.profile_all_nodes(
        AprioriWorkload(min_support=0.1, max_len=3), dataset.items
    )[3]
    print(f"   extrapolating node-3 runtime at {int(full)} items:")
    print(f"   measured  : {truth:8.2f} s")
    print(f"   linear    : {linear.predict(full):8.2f} s")
    print(f"   degree-4  : {poly.predict(full):8.2f} s   <- overfits the few samples")


if __name__ == "__main__":
    main()
