"""numpy's scalar ``Generator`` draws on PCG64, replayed in plain Python.

The generators' per-item loops make a few dozen scalar draws per
record (``random()``, ``integers(lo, hi)``, small ``choice`` calls),
and each numpy call costs about a microsecond of argument handling
around a few nanoseconds of arithmetic. :class:`PCG64Draws` takes over
a ``Generator`` mid-stream, pulls its raw 64-bit words in blocks
(``bit_generator.random_raw``) and turns them into exactly the values
the Generator's own calls would have returned, in the same order. The
rules mirror numpy ≥ 2.0's Generator internals
(``random_bounded_uint64`` with Lemire's method, ``pcg64_next32``'s
buffered half-word, ``choice``'s Floyd and tail-shuffle branches);
``tests/data/test_draws.py`` checks them call for call against numpy,
which is what would catch a numpy release that changes them.

A replay reads ahead, so it owns its Generator from then on: nothing
may draw from that Generator again once a replay has taken it over.
"""

from __future__ import annotations

from itertools import chain
from numbers import Integral
from typing import Any, Sequence

import numpy as np

#: Raw words fetched per ``random_raw`` call.
BLOCK = 1024

_U32 = 0xFFFFFFFF
_TWO32 = 0x1_0000_0000
_TWO_M53 = 1.0 / 9007199254740992.0  # 2**-53

#: ``choice(n, size, replace=False)`` uses Floyd's algorithm up to this
#: population, or when ``size <= n // FLOYD_CUTOFF``; a tail shuffle of
#: ``range(n)`` otherwise (numpy's own heuristic).
FLOYD_MAX_POP = 10000
FLOYD_CUTOFF = 50


class PCG64Draws:
    """The rest of a PCG64 ``Generator``'s stream, as scalar draws.

    ``random``, ``integers`` and ``choice`` return what the same calls
    on ``rng`` would have returned (as Python ``int``/``float`` and
    lists), given the same call sequence. ``rng`` must not be drawn from
    after construction: the replay has already read ahead of it.
    """

    __slots__ = ("_next", "_half")

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise TypeError(
                f"PCG64Draws replays a PCG64 Generator, not {type(bitgen).__name__}"
            )
        state = bitgen.state
        # The high half of the last word a 32-bit draw split, if unused.
        self._half: int | None = state["uinteger"] if state["has_uint32"] else None
        blocks = iter(lambda: bitgen.random_raw(BLOCK).tolist(), None)
        self._next = chain.from_iterable(blocks).__next__

    def random(self) -> float:
        """``rng.random()``: the top 53 bits of the next word."""
        return (self._next() >> 11) * _TWO_M53

    def integers(self, low: int, high: int) -> int:
        """``rng.integers(low, high)`` for ``1 <= high - low < 2**32``.

        Lemire's method on 32-bit draws: a draw is the buffered high
        half of a word if one is pending, else the low half of a new
        word (buffering its high half). A single-value range draws
        nothing.
        """
        n = high - low
        if not 0 < n < _TWO32:
            raise ValueError(f"range {low}..{high} is not within 1..2**32 - 1 values")
        if n == 1:
            return low
        threshold = (_TWO32 - n) % n
        while True:
            u = self._half
            if u is None:
                word = self._next()
                u = word & _U32
                self._half = word >> 32
            else:
                self._half = None
            m = u * n
            if m & _U32 >= threshold:
                return low + (m >> 32)

    def choice(self, a: int | Sequence[Any], size: int, replace: bool = True) -> list[Any]:
        """``rng.choice(a, size, replace)`` with ``p=None``, as a list.

        ``a`` is a population size (picks are ``range(a)`` positions) or
        a sequence (picks are its elements).
        """
        n = int(a) if isinstance(a, Integral) else len(a)
        if replace:
            picks = [self.integers(0, n) for _ in range(size)]
        else:
            picks = self._sample(n, size)
        return picks if isinstance(a, Integral) else [a[i] for i in picks]

    def _sample(self, n: int, size: int) -> list[int]:
        if not 0 <= size <= n:
            raise ValueError(f"cannot take {size} of {n} without replacement")
        integers = self.integers
        if n <= FLOYD_MAX_POP or size <= n // FLOYD_CUTOFF:
            # Floyd's algorithm, then a shuffle of the picks.
            taken: set[int] = set()
            picks: list[int] = []
            for j in range(n - size, n):
                v = integers(0, j + 1)
                if v in taken:
                    v = j
                taken.add(v)
                picks.append(v)
            for i in range(size - 1, 0, -1):
                k = integers(0, i + 1)
                picks[i], picks[k] = picks[k], picks[i]
            return picks
        # Tail shuffle: the last ``size`` slots of a partial Fisher-Yates.
        picks = list(range(n))
        for i in range(n - 1, max(n - size, 1) - 1, -1):
            k = integers(0, i + 1)
            picks[i], picks[k] = picks[k], picks[i]
        return picks[n - size:]
