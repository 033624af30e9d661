"""Ablation: stratifier sensitivity to sketch length and compositeKModes L.

The stratifier's two knobs trade cost for stratification quality:
longer MinHash sketches estimate Jaccard better, and a larger top-L
list per centre attribute mitigates the zero-match problem of plain
KModes. This bench measures stratification quality (ARI against the
generator's planted strata) across both knobs. (What a stratify call
costs is the e2e benchmark's ``stratify.*`` layer lines, not a column
here: a wall-clock column keeps this file from regenerating
byte-identically.)
"""

from conftest import run_once, save_result

from repro.data.datasets import load_dataset
from repro.stratify.metrics import adjusted_rand_index
from repro.stratify.stratifier import Stratifier


def _run():
    dataset = load_dataset("rcv1", size_scale=0.5)
    rows = []
    for num_hashes in (8, 24, 48, 96):
        for top_l in (1, 3):
            strat = Stratifier(
                kind="text",
                num_strata=12,
                num_hashes=num_hashes,
                top_l=top_l,
                seed=0,
            ).stratify(dataset.items)
            rows.append(
                {
                    "num_hashes": num_hashes,
                    "top_l": top_l,
                    "ari": round(
                        adjusted_rand_index(strat.labels, dataset.ground_truth), 3
                    ),
                    "strata": strat.num_strata,
                }
            )
    return rows


def test_ablation_stratifier(benchmark):
    rows = run_once(benchmark, _run)
    lines = ["ABLATION — stratifier quality vs sketch length and top-L"]
    lines += [str(r) for r in rows]
    save_result("ablation_stratifier", "\n".join(lines))

    by_key = {(r["num_hashes"], r["top_l"]): r["ari"] for r in rows}
    # Longer sketches never hurt much: 96 hashes ≥ 8 hashes (L=3).
    assert by_key[(96, 3)] >= by_key[(8, 3)] - 0.05
    # compositeKModes (L=3) beats plain KModes (L=1) at the paper's
    # sketch length — the zero-match mitigation the paper describes.
    assert by_key[(48, 3)] >= by_key[(48, 1)] - 0.02
    # The configured default recovers the planted strata reasonably.
    assert by_key[(48, 3)] > 0.3
