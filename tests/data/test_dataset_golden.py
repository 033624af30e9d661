"""Fingerprints of the five registry datasets.

Each generator must keep producing exactly these records: the md5 of
``pickle.dumps(items, protocol=4)`` pins every record, at two seeds and
two scales (recorded before the generators started sharing their int
objects, so the sharing is proven invisible to pickle and to every
consumer). Graph and text records hold one ``int`` object per distinct
id, so a dataset's memory grows with its records, not with their
element count.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.data.datasets import DATASET_KINDS, DATASET_NAMES, load_dataset

GOLDEN = {
    ("swissprot", 0, 0.2): "7de6e3601152a2d931024a8b81b009e8",
    ("swissprot", 0, 1.0): "13ab9805370543955bb5cb568386a864",
    ("swissprot", 7, 0.2): "e6ffac93466e453bd8edb508708711d9",
    ("swissprot", 7, 1.0): "cce52a9d662d1e8105336cddfe7ea60c",
    ("treebank", 0, 0.2): "a892cccf85b8a1923ff086c4cacff30a",
    ("treebank", 0, 1.0): "536298dadb41e66910f873dd197dd831",
    ("treebank", 7, 0.2): "372f2d02c5ff4eaf8604eff2860ba781",
    ("treebank", 7, 1.0): "330289de151b89f85c02ad6b8a2a8549",
    ("uk", 0, 0.2): "1043d9ae16591002f605eae7b11d792e",
    ("uk", 0, 1.0): "3bc4c30092ad93aaa8f344bd8cb08bdc",
    ("uk", 7, 0.2): "c27151178f01bf99bfeec7959893305f",
    ("uk", 7, 1.0): "8af7dfd608c3b14385b4a6bd844f1650",
    ("arabic", 0, 0.2): "465a89c712d4a273b81ce3a5e689e342",
    ("arabic", 0, 1.0): "f2f14b9e51ed2f17b312d26b39b33725",
    ("arabic", 7, 0.2): "fbe79d6c1cc6c0c0fc5ac9748c418dac",
    ("arabic", 7, 1.0): "11bc72e05dd36b68e87a72264240c05f",
    ("rcv1", 0, 0.2): "ac7b4be144dccc8330b5d675f3af53e6",
    ("rcv1", 0, 1.0): "2cd3858d8770ef00bb5e2f34f8a142f7",
    ("rcv1", 7, 0.2): "fb602915693cfd70d132c510a6668040",
    ("rcv1", 7, 1.0): "94c8780d38639547e2e919a435cedcbe",
}


def _ids(name: str, items) -> list:
    """Every id a record holds: a tree's parents and labels, a graph's
    neighbours, a document's tokens."""
    if DATASET_KINDS[name] == "tree":
        return [x for parent, labels in items for x in (*parent, *labels)]
    return [x for record in items for x in record]


def test_golden_covers_every_registry_dataset():
    assert {name for name, _, _ in GOLDEN} == set(DATASET_NAMES)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_items_fingerprint(key):
    name, seed, scale = key
    items = load_dataset(name, size_scale=scale, seed=seed).items
    assert hashlib.md5(pickle.dumps(items, protocol=4)).hexdigest() == GOLDEN[key]


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_ids_are_plain_ints(name):
    items = load_dataset(name, size_scale=0.2, seed=3).items
    assert all(type(x) is int for x in _ids(name, items))


@pytest.mark.parametrize("name", [n for n in DATASET_NAMES if DATASET_KINDS[n] != "tree"])
def test_one_int_object_per_distinct_id(name):
    items = load_dataset(name, size_scale=0.5, seed=3).items
    ids = _ids(name, items)
    assert len({id(x) for x in ids}) == len(set(ids))
