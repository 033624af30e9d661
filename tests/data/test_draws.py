"""The PCG64 draw replay against numpy's own Generator, call for call.

Two Generators start from one seed: numpy answers every call on one,
the replay (after taking over the other) must answer the same. The
generators' records depend on this holding exactly, for every draw
shape they make, at any point of the stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.draws import BLOCK, PCG64Draws

#: Ranges where Lemire's method behaves differently: no draw (1), about
#: half the draws rejected (2**31 + 1), the largest 32-bit range, and a
#: few ordinary ones.
SPECIAL_RANGES = (1, 2, 3, 7, 1000, 2**31 + 1, 2**32 - 1)

#: ``choice(n, size, replace=False)`` shapes covering both of numpy's
#: branches: Floyd's (n <= 10000, or size <= n // 50) and the tail
#: shuffle (the rest).
CHOICE_SHAPES = ((50, 3), (10000, 9000), (10001, 100), (10001, 201), (20000, 500), (20000, 20000))


def pair(seed: int, pending: int = 0) -> tuple[np.random.Generator, PCG64Draws]:
    """numpy's Generator and a replay of a twin, both after ``pending``
    32-bit draws (an odd count leaves a buffered half-word)."""
    ref, own = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(pending):
        assert ref.integers(0, 5) == own.integers(0, 5)
    return ref, PCG64Draws(own)


def call(ref: np.random.Generator, draws: PCG64Draws, op: tuple) -> tuple:
    """One call on both sides, as comparable Python values."""
    kind, *args = op
    if kind == "random":
        return ref.random(), draws.random()
    if kind == "integers":
        low, n = args
        return int(ref.integers(low, low + n)), draws.integers(low, low + n)
    if kind == "sample":
        n, size = args
        return ref.choice(n, size=size, replace=False).tolist(), draws.choice(n, size, replace=False)
    if kind == "choice_seq":
        seq, m = args
        return ref.choice(np.array(seq), size=m).tolist(), draws.choice(seq, m)
    n, m = args  # choice_int: positions, with replacement
    return ref.choice(n, size=m).tolist(), draws.choice(n, m)


OPS = st.one_of(
    st.just(("random",)),
    st.tuples(
        st.just("integers"),
        st.integers(-(2**40), 2**40),
        st.one_of(st.sampled_from(SPECIAL_RANGES), st.integers(1, 2**32 - 1)),
    ),
    st.integers(1, 300).flatmap(
        lambda n: st.tuples(st.just("sample"), st.just(n), st.integers(0, n))
    ),
    st.tuples(
        st.just("choice_seq"),
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=20),
        st.integers(0, 30),
    ),
    st.tuples(st.just("choice_int"), st.integers(1, 10**6), st.integers(0, 30)),
)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**63), pending=st.integers(0, 3), ops=st.lists(OPS, max_size=60))
def test_interleaved_calls_match_numpy(seed, pending, ops):
    ref, draws = pair(seed, pending)
    for op in ops:
        expected, got = call(ref, draws, op)
        assert got == expected, op


@pytest.mark.parametrize("pending", [0, 1])
@pytest.mark.parametrize("n", SPECIAL_RANGES)
def test_integers_over_many_draws(n, pending):
    # 3 * BLOCK draws cross block boundaries; the random() after each
    # shows the half-word buffer and the word stream stayed in step.
    ref, draws = pair(n, pending)
    for i in range(3 * BLOCK):
        low = i - 100
        assert draws.integers(low, low + n) == int(ref.integers(low, low + n))
        if i % 7 == 0:
            assert draws.random() == ref.random()


def test_single_value_range_draws_nothing():
    ref, draws = pair(5, pending=1)
    assert draws.integers(9, 10) == 9
    # Nothing was consumed: the pending half-word is still the next draw.
    assert draws.integers(0, 2**32 - 1) == int(ref.integers(0, 2**32 - 1))


def test_random_matches():
    ref, draws = pair(11, pending=1)
    assert [draws.random() for _ in range(2 * BLOCK + 5)] == ref.random(2 * BLOCK + 5).tolist()


@pytest.mark.parametrize("pending", [0, 1])
@pytest.mark.parametrize("shape", CHOICE_SHAPES, ids=lambda s: f"{s[0]}-{s[1]}")
def test_choice_without_replacement_both_branches(shape, pending):
    n, size = shape
    for seed in (0, 1, 2):
        ref, draws = pair(seed, pending)
        for _ in range(2):
            got = draws.choice(n, size, replace=False)
            assert got == ref.choice(n, size=size, replace=False).tolist()
        # The stream is still in step after the call.
        assert draws.integers(0, 1000) == int(ref.integers(0, 1000))


def test_choice_without_replacement_of_a_sequence_returns_elements():
    seq = [10 * i for i in range(40)]
    ref, draws = pair(3)
    assert draws.choice(seq, 12, replace=False) == ref.choice(seq, size=12, replace=False).tolist()


def test_choice_with_replacement():
    alphabet = [4, 8, 15, 16, 23, 42]
    ref, draws = pair(4, pending=1)
    for m in (1, 5, 50):
        assert draws.choice(alphabet, m) == ref.choice(np.array(alphabet), size=m).tolist()
        assert draws.choice(1000, m) == ref.choice(1000, size=m).tolist()


@pytest.mark.parametrize("pending", [1, 3])
def test_replay_started_on_a_pending_half_word(pending):
    ref, draws = pair(8, pending)
    own_first = draws.integers(0, 2**31 + 1)
    assert own_first == int(ref.integers(0, 2**31 + 1))
    assert draws.random() == ref.random()


@pytest.mark.parametrize("bitgen", [np.random.PCG64DXSM, np.random.MT19937, np.random.Philox])
def test_refuses_a_generator_that_is_not_pcg64(bitgen):
    with pytest.raises(TypeError, match="PCG64"):
        PCG64Draws(np.random.Generator(bitgen(0)))


@pytest.mark.parametrize("low, high", [(0, 0), (5, 4), (0, 2**32)])
def test_rejects_ranges_outside_32_bits(low, high):
    with pytest.raises(ValueError):
        PCG64Draws(np.random.default_rng(0)).integers(low, high)


def test_rejects_a_sample_larger_than_its_population():
    with pytest.raises(ValueError):
        PCG64Draws(np.random.default_rng(0)).choice(5, 6, replace=False)
