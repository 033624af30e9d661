"""Parity suite: the batch tree-pivot kernel against the per-tree path.

:func:`repro.perf.tree_kernels.tree_triples` (behind
``PivotExtractor("tree").extract_flat`` and
``TreeMiningWorkload.count_records``) claims byte-identical output to
the per-tree reference, ``_append_tree_triples`` over every tree, and
the reference's exact error for the first bad tree of a batch.
Hypothesis drives forests of 1-, 2- and 3-node trees, chains whose root
is a Prüfer leaf, stars and random trees, all with shuffled node ids and
labels from small repeats to the ends of ``int64``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.datasets import load_dataset
from repro.kvstore.codec import encode_dataset
from repro.kvstore.serializers import flatten_items, tree_columns
from repro.perf.tree_kernels import InvalidTree, tree_triples
from repro.stratify.minhash import EMPTY_SLOT
from repro.stratify.pivots import (
    PivotExtractor,
    _append_tree_triples,
    pivot_ids,
    tree_pivots,
    tree_triples_reference,
)
from repro.stratify.prufer import tree_from_prufer
from repro.stratify.stratifier import Stratifier
from repro.workloads.fpm.treemining import TreeMiningWorkload, trees_to_pivot_sets

labels_strategy = st.one_of(
    st.integers(min_value=-3, max_value=3),  # repeats: pivots collide inside a tree
    st.integers(min_value=2**31 - 2, max_value=2**31 + 2),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)


@st.composite
def trees(draw, max_nodes=14):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    shape = draw(st.sampled_from(["random", "chain", "star"]))
    if shape == "chain":
        parent = [-1] + list(range(n - 1))  # the root has one child: a leaf
    elif shape == "star":
        parent = [-1] + [0] * (n - 1)
    else:
        seq = draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
        parent = tree_from_prufer(seq, n)
    perm = draw(st.permutations(range(n)))
    shuffled = [0] * n
    for node, up in enumerate(parent):
        shuffled[perm[node]] = -1 if up == -1 else perm[up]
    labels = draw(st.lists(labels_strategy, min_size=n, max_size=n))
    return shuffled, labels


def _kernel(items):
    """``tree_triples`` on the records' codec columns, as
    ``extract_flat`` calls it."""
    return tree_triples(*tree_columns(*flatten_items("tree", items)))


def _reference_flat(items):
    """``extract_flat``'s tree branch as it was: one tree at a time."""
    *columns, offsets = tree_triples_reference(items)
    return pivot_ids(*columns), offsets


def _assert_same_flat(items):
    flat, offsets = PivotExtractor("tree").extract_flat(items)
    ref_flat, ref_offsets = _reference_flat(items)
    assert flat.dtype == ref_flat.dtype and offsets.dtype == ref_offsets.dtype
    assert flat.tobytes() == ref_flat.tobytes()
    assert offsets.tobytes() == ref_offsets.tobytes()


@given(st.lists(trees(), max_size=12))
@example([([-1], [5]), ([1, -1], [2**40, -1]), ([1, -1, 1], [7, 7, 7])])
@example([([-1, 0, 1, 2, 3], [1, 2, 3, 4, 5]), ([3, 3, 3, -1, 3], [9, 8, 7, 6, 5])])
@settings(max_examples=150, deadline=None)
def test_batch_equals_the_per_tree_reference(forest):
    _assert_same_flat(forest)
    expected = trees_to_pivot_sets(forest)[0]
    got = TreeMiningWorkload(min_support=0.5).count_records(forest)
    assert got == expected
    assert all(type(pivot) is int for tree in got for pivot in tree)


@pytest.mark.parametrize("scale", [0.4, 0.8])
def test_registry_trees(scale):
    items = load_dataset("swissprot", size_scale=scale, seed=1).items
    _assert_same_flat(items)
    assert TreeMiningWorkload(min_support=0.3).count_records(items) == trees_to_pivot_sets(items)[0]


def test_one_node_tree_maps_to_the_empty_set_on_both_paths():
    assert tree_pivots([-1], [7]) == set()
    items = [([-1], [7]), ([-1, 0], [1, 2]), ([-1], [3])]
    _assert_same_flat(items)
    flat, offsets = PivotExtractor("tree").extract_flat(items)
    assert offsets.tolist() == [0, 0, 1, 1]
    assert TreeMiningWorkload(min_support=0.5).count_records(items) == [[], [int(flat[0])], []]
    sketch = Stratifier(kind="tree", num_hashes=4).sketch(items)
    assert (sketch[0] == EMPTY_SLOT).all() and (sketch[2] == EMPTY_SLOT).all()


def test_inputs_other_than_lists_of_lists():
    forest = [(np.array([-1, 0, 0, 1]), np.array([4, 5, 6, 7])), ((1, -1, 1), (0, 1, 0))]
    _assert_same_flat(forest)
    flat, offsets = PivotExtractor("tree").extract_flat(iter(forest))
    assert flat.tobytes() == _reference_flat(forest)[0].tobytes()
    assert PivotExtractor("tree").extract_flat([])[1].tolist() == [0]
    # Labels that do not flatten into int64 take the reference path whole,
    # with its own conversion (here: a wrap, not an error).
    wide = [([-1, 0, 0, 1], np.array([2**63, 1, 2, 3], dtype=np.uint64))]
    with pytest.raises(OverflowError):
        flatten_items("tree", wide)
    _assert_same_flat(wide)
    # A record that is not a pair fails as the reference fails.
    with pytest.raises(ValueError, match="unpack"):
        PivotExtractor("tree").extract_flat([([-1], [1], [2])])


#: One tree per rejection class, each with the reference's message.
INVALID = {
    "empty": ([], []),
    "no_root": ([1, 0], [0, 0]),
    "two_roots": ([-1, -1, 0], [0, 0, 0]),
    "parent_too_large": ([-1, 5], [0, 0]),
    "parent_below_minus_one": ([-1, -2, 0], [0, 0, 0]),
    "own_parent": ([-1, 1], [0, 0]),
    "label_length": ([-1, 0], [1]),
    "cycle": ([-1, 2, 3, 1], [0, 0, 0, 0]),
}


def _reference_error(tree):
    with pytest.raises(ValueError) as info:
        _append_tree_triples(*tree, ([], [], []))
    return str(info.value)


@pytest.mark.parametrize("bad", sorted(INVALID))
@pytest.mark.parametrize("later", sorted(INVALID))
def test_first_bad_tree_raises_the_reference_message(bad, later):
    good = [([-1, 0, 0, 1, 1], [1, 2, 3, 4, 5]), ([-1], [9])]
    batch = good + [INVALID[bad]] + good + [INVALID[later]]
    message = _reference_error(INVALID[bad])
    calls = [
        lambda: PivotExtractor("tree").extract_flat(batch),
        lambda: TreeMiningWorkload(min_support=0.5).count_records(batch),
        lambda: Stratifier(kind="tree").sketch(batch),
    ]
    # The codec frames only equal-length pairs with parents ≥ −1; the
    # batches it does frame reach the kernel, from records and encoded.
    if "label_length" not in (bad, later):
        with pytest.raises(InvalidTree) as info:
            _kernel(batch)
        assert info.value.index == len(good)
        if "parent_below_minus_one" not in (bad, later):
            encoded = encode_dataset("tree", batch)
            calls.append(lambda: PivotExtractor("tree").extract_flat(encoded))
            calls.append(lambda: TreeMiningWorkload(min_support=0.5).count_records(encoded))
    for call in calls:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message
