"""Golden characterisation of the stratifier's front half.

Written against the code *before* pivot hashing and compositeKModes
moved into array / code space: every digest in ``GOLDEN`` was printed
by the parent commit (``python tests/stratify/test_stratify_golden.py``
with the parent's ``src`` on ``PYTHONPATH``), where each pivot was
hashed by one ``stable_pivot_id`` call in the interpreter, matching
compared raw ``uint64`` values and the centre update ranked runs with
a three-key ``lexsort``.

The rewrite is a change of representation, not of result: for the four
``batch-cold`` datasets of the e2e benchmark, at two dataset seeds, the
sketch matrix and everything ``CompositeKModes.fit`` returns are
byte-for-byte the recorded ones — and therefore so are strata, samples,
profile inputs and plans.
"""

import hashlib

import numpy as np
import pytest

from repro.data.datasets import load_dataset
from repro.stratify.kmodes import CompositeKModes
from repro.kvstore.codec import encode_dataset
from repro.stratify.minhash import MinHasher
from repro.stratify.pivots import PivotExtractor
from repro.stratify.stratifier import Stratification, Stratifier

#: (dataset, size_scale) of the benchmark's four cold kinds:
#: webgraph, lz77, treemining, fpgrowth.
DATASETS = (("uk", 0.8), ("uk", 0.4), ("swissprot", 0.4), ("rcv1", 2.0))
SEEDS = (1, 2)


def _md5(arr: np.ndarray) -> str:
    return hashlib.md5(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _characterise(name: str, scale: float, seed: int) -> dict:
    dataset = load_dataset(name, size_scale=scale, seed=seed)
    stratifier = Stratifier(kind=dataset.kind, seed=seed)  # the framework's defaults
    sketches = stratifier.sketch(dataset.items)
    # Sketched from the records, stratified from their encoding (what
    # prepare runs): both must land on the goldens.
    encoded = encode_dataset(dataset.kind, dataset.items)
    return _digests(sketches, stratifier.stratify(encoded))


def _digests(sketches: np.ndarray, strat: Stratification) -> dict:
    km = strat.kmodes
    return {
        "sketches": _md5(sketches),
        "labels": _md5(km.labels),
        "centers": _md5(km.centers),
        "strata": _md5(strat.labels),
        "cost": km.cost,
        "iterations": km.iterations,
        "converged": km.converged,
    }


GOLDEN = {('uk', 0.8, 1): {'sketches': 'eafa4c6f2eadd6a2fbd4611f151732bc',
                  'labels': '25cda4a4209698b83a5486cfa2e1c4bb',
                  'centers': '1301ac85cc51cf88d3bf89f35cd73422',
                  'strata': '25cda4a4209698b83a5486cfa2e1c4bb',
                  'cost': 75437.0,
                  'iterations': 11,
                  'converged': True},
 ('uk', 0.8, 2): {'sketches': '5b62f174f0c668543f0e0bfbfa4f08e2',
                  'labels': 'a3cb2ef03e4f56bb50473553f154b4f7',
                  'centers': 'eeab312908fca2f4e6cd26cadc8594a1',
                  'strata': 'a3cb2ef03e4f56bb50473553f154b4f7',
                  'cost': 74223.0,
                  'iterations': 12,
                  'converged': True},
 ('uk', 0.4, 1): {'sketches': 'd654a8486a5f78bfe8d912bbda710035',
                  'labels': 'b0eef97c8a76eeca8a7eff56271a0768',
                  'centers': '196160beccc4de7b6852c004024334f6',
                  'strata': 'b0eef97c8a76eeca8a7eff56271a0768',
                  'cost': 31202.0,
                  'iterations': 16,
                  'converged': True},
 ('uk', 0.4, 2): {'sketches': '8196072604bfaa9a2879c84a3d8e00ff',
                  'labels': 'd03c2632db7295aadf6ba3b057ade2b3',
                  'centers': '6bc6a5c896c4b2b593edf2ad2cb40901',
                  'strata': 'd03c2632db7295aadf6ba3b057ade2b3',
                  'cost': 31625.0,
                  'iterations': 19,
                  'converged': True},
 ('swissprot', 0.4, 1): {'sketches': '38b050119762a012e61fb2f78e2181a9',
                         'labels': '01d6ac4057cf2076f4942323c2bafbbe',
                         'centers': 'b31d607f644c0db2e58b025430a17e4a',
                         'strata': '01d6ac4057cf2076f4942323c2bafbbe',
                         'cost': 2030.0,
                         'iterations': 6,
                         'converged': True},
 ('swissprot', 0.4, 2): {'sketches': 'c435dbec25f826971af325e00301a59a',
                         'labels': '9b7b9424d1a3d324d715494ec2abe775',
                         'centers': 'b2a00c4aea67a0c1020ae38e77c71757',
                         'strata': '9b7b9424d1a3d324d715494ec2abe775',
                         'cost': 1984.0,
                         'iterations': 3,
                         'converged': True},
 ('rcv1', 2.0, 1): {'sketches': 'd5be5cc951c96b8e0218b4444c71f3f8',
                    'labels': 'c10509b938480cfca8111ba6cbe6ff54',
                    'centers': '9378d69cc82d2a1e7338f90db066cf7a',
                    'strata': 'c10509b938480cfca8111ba6cbe6ff54',
                    'cost': 41887.0,
                    'iterations': 15,
                    'converged': True},
 ('rcv1', 2.0, 2): {'sketches': '966ff67959a08962b5f188d3e579ffc3',
                    'labels': '037d7205c4595600e5fdf077742abc6a',
                    'centers': '0a31c058bff5b4796c51d73d428585d9',
                    'strata': '037d7205c4595600e5fdf077742abc6a',
                    'cost': 40401.0,
                    'iterations': 11,
                    'converged': True}}


@pytest.mark.parametrize("name,scale,seed", sorted(GOLDEN))
def test_strata_bit_identical_to_parent(name, scale, seed):
    assert _characterise(name, scale, seed) == GOLDEN[(name, scale, seed)]


@pytest.mark.parametrize("name,scale", [("swissprot", 0.4), ("uk", 0.4)])
def test_reference_tier_reaches_the_same_strata(name, scale):
    # The untouched Python-loop oracles, composed by name the way
    # ``Stratifier.stratify`` composes the kernels.
    dataset = load_dataset(name, size_scale=scale, seed=1)
    cfg = Stratifier(kind=dataset.kind, seed=1)
    sketches = MinHasher(num_hashes=cfg.num_hashes, seed=cfg.seed).sketch_all_reference(
        PivotExtractor(dataset.kind).extract_all(dataset.items)
    )
    kmodes = CompositeKModes(
        num_clusters=cfg.num_strata, top_l=cfg.top_l, max_iter=cfg.max_iter, seed=cfg.seed + 1
    )
    strat = Stratification.from_kmodes(kmodes.fit_reference(sketches))
    assert _digests(sketches, strat) == GOLDEN[(name, scale, 1)]


if __name__ == "__main__":
    import pprint

    pprint.pprint(
        {(n, s, seed): _characterise(n, s, seed) for n, s in DATASETS for seed in SEEDS},
        sort_dicts=False,
    )
