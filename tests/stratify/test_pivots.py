"""Unit tests for domain-specific pivot extraction."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kvstore.codec import encode_dataset
from repro.stratify.minhash import MinHasher
from repro.stratify.pivots import (
    UNIVERSE_SIZE,
    PivotExtractor,
    graph_pivots,
    pivot_ids,
    stable_pivot_id,
    text_pivots,
    tree_pivots,
)
from repro.stratify.prufer import depths_from_parents, lca, prufer_sequence, tree_from_prufer
from repro.stratify.stratifier import Stratifier

int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestStableHash:
    def test_deterministic(self):
        assert stable_pivot_id(1, 2, 3) == stable_pivot_id(1, 2, 3)

    def test_order_sensitive(self):
        assert stable_pivot_id(1, 2, 3) != stable_pivot_id(3, 2, 1)

    def test_in_universe(self):
        for args in [(0,), (1, 2), (10**9, 10**9, 10**9)]:
            assert 0 <= stable_pivot_id(*args) < UNIVERSE_SIZE

    def test_spreads_values(self):
        ids = {stable_pivot_id(i) for i in range(1000)}
        assert len(ids) == 1000  # no collisions over a small range


class TestTreePivots:
    def test_nonempty_for_small_tree(self):
        pivots = tree_pivots([-1, 0], [1, 2])
        assert pivots

    def test_identical_trees_share_all_pivots(self):
        parent = [-1, 0, 0, 1, 1]
        labels = [1, 2, 3, 4, 5]
        assert tree_pivots(parent, labels) == tree_pivots(parent, labels)

    def test_label_based_so_node_ids_irrelevant(self):
        # The same labelled structure with permuted node ids.
        a = tree_pivots([-1, 0, 0], [9, 5, 5])
        b = tree_pivots([1, -1, 1], [5, 9, 5])
        assert a & b  # shared structure => shared pivots

    def test_similar_trees_overlap_more_than_dissimilar(self):
        parent = [-1, 0, 0, 1, 1, 2, 2]
        base = tree_pivots(parent, [1, 2, 3, 4, 5, 6, 7])
        similar = tree_pivots(parent, [1, 2, 3, 4, 5, 6, 9])  # one label changed
        different = tree_pivots(parent, [11, 12, 13, 14, 15, 16, 17])
        assert len(base & similar) > len(base & different)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            tree_pivots([-1, 0], [1])


class TestGraphTextPivots:
    def test_graph_pivots_size(self):
        assert len(graph_pivots([1, 2, 3])) == 3

    def test_graph_pivots_set_semantics(self):
        assert graph_pivots([1, 1, 2]) == graph_pivots([2, 1])

    def test_text_pivots_deterministic(self):
        assert text_pivots([10, 20]) == text_pivots([20, 10])

    def test_domains_do_not_collide(self):
        # The same raw id hashes differently per domain tag.
        assert graph_pivots([42]) != text_pivots([42])


class TestPivotExtractor:
    def test_tree_kind(self):
        ex = PivotExtractor("tree")
        assert ex(([-1, 0], [1, 2])) == tree_pivots([-1, 0], [1, 2])

    def test_graph_kind(self):
        assert PivotExtractor("graph")([1, 2]) == graph_pivots([1, 2])

    def test_text_kind(self):
        assert PivotExtractor("text")([5]) == text_pivots([5])

    def test_set_kind_passthrough(self):
        assert PivotExtractor("set")([3, 1]) == {1, 3}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PivotExtractor("audio")

    def test_extract_all_preserves_order(self):
        ex = PivotExtractor("text")
        docs = [[1], [2], [3]]
        out = ex.extract_all(docs)
        assert out == [text_pivots(d) for d in docs]


class TestPivotIdsIsStablePivotId:
    """The array mixer is the scalar mixer, element for element."""

    @given(st.lists(st.tuples(int64s, int64s, int64s), max_size=20), int64s)
    @example([(-(2**63), -1, 2**63 - 1), (0, 0, 0)], -1)
    @settings(max_examples=100, deadline=None)
    def test_columns_and_broadcast_scalars(self, rows, tag):
        a, b, c = ([r[i] for r in rows] for i in range(3))
        assert pivot_ids(a, b, c).tolist() == [stable_pivot_id(*r) for r in rows]
        # A scalar column tags every row; arity follows the call.
        assert pivot_ids(a, tag, b).tolist() == [stable_pivot_id(x, tag, y) for x, y in zip(a, b)]
        assert pivot_ids(a).tolist() == [stable_pivot_id(x) for x in a]

    def test_unsigned_arrays_reach_the_top_of_uint64(self):
        big = np.array([2**64 - 1, 2**63], dtype=np.uint64)
        assert pivot_ids(big, 1).tolist() == [stable_pivot_id(int(v), 1) for v in big]

    def test_narrow_and_strided_columns(self):
        col = np.arange(-6, 6, dtype=np.int16)[::2]
        assert pivot_ids(col, 7).tolist() == [stable_pivot_id(int(v), 7) for v in col]

    def test_non_integer_column_rejected(self):
        with pytest.raises(TypeError):
            pivot_ids(np.array([1.5]))


def _tree_pivots_by_definition(parent, labels):
    """The paper's tree pivots from the public pieces, one at a time."""
    seq = prufer_sequence(parent)
    pivots = set()
    if len(seq) >= 2:
        depth = depths_from_parents(parent)
        for p, q in zip(seq, seq[1:]):
            a = lca(parent, depth, p, q)
            pivots.add(stable_pivot_id(labels[a], labels[p], labels[q]))
    for child, par in enumerate(parent):
        if par >= 0:
            pivots.add(stable_pivot_id(labels[par], labels[child], 0))
    return pivots


#: One-node, two-node, three-node (empty LCA part), a star, a path and
#: a bushy tree with repeated and negative labels.
TREES = [
    ([-1], [4]),
    ([-1, 0], [1, 2]),
    ([1, -1, 1], [5, 9, 5]),
    ([-1, 0, 0, 0, 0], [3, 3, 3, 3, 3]),
    ([1, 2, 3, 4, -1], [1, 2, 3, 4, 5]),
    ([-1, 0, 0, 1, 1, 2, 2, 3], [7, -2, 7, 4, 4, 6, 2**40, 0]),
]

#: Per kind: empty items, duplicates inside an item, repeated items.
ITEMS = {
    "tree": TREES,
    "graph": [[1, 1, 2], [], [5], [2, 1], [-3, 2**62]],
    "text": [[9], [3, 4, 3, 3], [], []],
    "set": [{1, 2}, set(), [7, 7, 2**32 - 1], (0,)],
}


class TestTreePivotsByDefinition:
    @pytest.mark.parametrize("parent,labels", TREES)
    def test_handpicked(self, parent, labels):
        assert tree_pivots(parent, labels) == _tree_pivots_by_definition(parent, labels)

    @given(st.lists(st.integers(min_value=0, max_value=11), min_size=0, max_size=10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_trees(self, seq, data):
        n = len(seq) + 2
        parent = tree_from_prufer([s % n for s in seq], n)
        labels = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
        assert tree_pivots(parent, labels) == _tree_pivots_by_definition(parent, labels)

    def test_malformed_tree_rejected_once_for_all_paths(self):
        for bad in ([-1, 2, 3, 1], [-1, -1, 0], [1, 0], []):
            with pytest.raises(ValueError):
                tree_pivots(bad, [0] * len(bad))
            with pytest.raises(ValueError):
                PivotExtractor("tree").extract_flat([(bad, [0] * len(bad))])


class TestExtractFlat:
    @pytest.mark.parametrize("kind", sorted(ITEMS))
    def test_slices_equal_per_item_sets(self, kind):
        extractor = PivotExtractor(kind)
        flat, offsets = extractor.extract_flat(ITEMS[kind])
        assert offsets.dtype == np.int64 and offsets[0] == 0 and offsets[-1] == flat.size
        got = [set(flat[lo:hi].tolist()) for lo, hi in zip(offsets[:-1], offsets[1:])]
        assert got == extractor.extract_all(ITEMS[kind])

    @pytest.mark.parametrize("kind", sorted(ITEMS))
    def test_no_items(self, kind):
        flat, offsets = PivotExtractor(kind).extract_flat([])
        assert flat.size == 0 and offsets.tolist() == [0]

    @pytest.mark.parametrize("kind", sorted(ITEMS))
    def test_stratifier_sketch_equals_the_per_item_reference(self, kind):
        items = ITEMS[kind] * 3
        hasher = MinHasher(num_hashes=12, seed=5)
        sets = PivotExtractor(kind).extract_all(items)
        got = Stratifier(kind=kind, num_hashes=12, seed=5).sketch(items)
        assert np.array_equal(got, hasher.sketch_all(sets))
        assert np.array_equal(got, hasher.sketch_all_reference(sets))

    def test_unsized_items_are_materialised(self):
        flat, offsets = PivotExtractor("graph").extract_flat([iter([1, 2]), iter([])])
        assert offsets.tolist() == [0, 2, 2]
        assert set(flat.tolist()) == graph_pivots([1, 2])

    @pytest.mark.parametrize("kind", ["graph", "text"])
    def test_id_beyond_int64_is_a_value_error(self, kind):
        with pytest.raises(ValueError, match="int64"):
            PivotExtractor(kind).extract_flat([[1], [2**63]])

    def test_negative_ids_wrap_like_the_scalar_mixer(self):
        flat, _ = PivotExtractor("graph").extract_flat([[-1, -(2**63)]])
        assert flat.tolist() == [stable_pivot_id(-1, 1, 1), stable_pivot_id(-(2**63), 1, 1)]


U32 = 2**32 - 1
words = st.integers(0, U32)


@st.composite
def encodable_dataset(draw):
    """``(kind, items)`` the codec frames: flat records of uint32 ids,
    or ``(parent, labels)`` pairs of equal length with parents from −1
    up — well-formed or not (cycles, no or two roots, ids out of range,
    a node its own parent, empty trees)."""
    kind = draw(st.sampled_from(["graph", "text", "set", "tree"]))
    if kind != "tree":
        return kind, draw(st.lists(st.lists(words, max_size=8), max_size=12))
    trees = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            n = draw(st.integers(1, 7))
            parent = tree_from_prufer(
                draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0))),
                n,
            )
        else:
            n = draw(st.integers(0, 5))
            parent = draw(st.lists(st.integers(-1, 6), min_size=n, max_size=n))
        trees.append((list(parent), draw(st.lists(words, min_size=n, max_size=n))))
    return kind, trees


def _outcome(extract):
    try:
        flat, offsets = extract()
    except ValueError as exc:
        return "raises", str(exc)
    return flat.dtype, flat.tobytes(), offsets.tolist()


class TestExtractFlatOnTheEncoding:
    @given(encodable_dataset())
    @settings(max_examples=300, deadline=None)
    def test_encoding_and_records_agree_with_the_oracle(self, case):
        """``extract_flat`` of an encoding is ``extract_flat`` of its
        records, byte for byte or error for error, and its slices are
        the ``extract_all`` sets — or it raises the oracle's error."""
        kind, items = case
        extractor = PivotExtractor(kind)
        encoded = encode_dataset(kind, items)
        got = _outcome(lambda: extractor.extract_flat(encoded))
        assert got == _outcome(lambda: extractor.extract_flat(items))
        if got[0] == "raises":
            with pytest.raises(ValueError) as oracle:
                extractor.extract_all(items)
            assert str(oracle.value) == got[1]
            return
        flat, offsets = extractor.extract_flat(encoded)
        sets = [set(flat[lo:hi].tolist()) for lo, hi in zip(offsets[:-1], offsets[1:])]
        assert sets == extractor.extract_all(items)

    def test_an_encoding_of_another_kind_is_refused(self):
        with pytest.raises(ValueError, match="encoded as 'graph'"):
            PivotExtractor("text").extract_flat(encode_dataset("graph", [[1]]))
