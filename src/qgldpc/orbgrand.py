"""ORBGRAND schedule: one cached table of candidate noise patterns.

Positions are ranked by ascending reliability |L_A| (ties by index).
Patterns are sets of flipped ranks, listed in increasing logistic
weight (sum of flipped ranks), then in ascending lexicographic order of
their sorted rank tuples: exactly likelihood order when reliabilities
grow linearly with rank, an approximate one otherwise.  The order comes
from a best-first walk over a heap keyed by (sum, tuple).  The schedule
depends only on the length, so ``rank_flip_table`` builds it once and a
block decode shares it among all its rows, mapping it to each row's
positions through that row of ``RankedInput.perm``.  Patterns are
deviations from the bitwise hard decision, so the empty pattern, the
a-priori most likely, comes first.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def distinct_part_subsets(n: int):
    """Yield all subsets of {1..n} as ascending tuples.

    Order: total sum ascending, then lexicographic on the tuples.  A best-first
    walk over a heap keyed by (sum, tuple): a subset s leads to s + (s[-1]+1,)
    and to s with its last element raised by one.  Every nonempty subset but
    (1,) has exactly one such parent, of smaller sum, so each is yielded once.
    """
    yield ()
    heap = [(1, (1,))] if n else []
    while heap:
        total, s = heapq.heappop(heap)
        yield s
        if s[-1] < n:
            heapq.heappush(heap, (total + s[-1] + 1, s + (s[-1] + 1,)))
            heapq.heappush(heap, (total + 1, s[:-1] + (s[-1] + 1,)))


@lru_cache(maxsize=32)
def rank_flip_table(n: int, count: int) -> np.ndarray:
    """First ``count`` patterns (all 2^n if fewer) as a 0/1 array over ranks 1..n.

    The schedule depends only on n, so blocks are cached, read-only, and shared
    by all component decodes of the same length.
    """
    subsets = list(itertools.islice(distinct_part_subsets(n), count))
    table = np.zeros((len(subsets), n), dtype=np.uint8)
    for row, ranks in enumerate(subsets):
        for r in ranks:
            table[row, r - 1] = 1
    table.setflags(write=False)  # shared by every caller through the cache
    return table


@dataclass(frozen=True)
class RankedInput:
    """Reliability ranking of a soft-input vector, or of each row of a block."""

    perm: np.ndarray      # perm[..., r] = original position of rank r (0-based)
    q: np.ndarray         # deviation flip probability per rank, ascending reliability

    @classmethod
    def from_llr(cls, L_A) -> "RankedInput":
        abs_llr = np.abs(np.asarray(L_A, dtype=float))
        # a stable sort breaks ties in |L| by position
        perm = np.argsort(abs_llr, axis=-1, kind="stable")
        # q = 1 / (1 + exp(|L|)), computed stably
        q = np.exp(-np.logaddexp(0.0, np.sort(abs_llr, axis=-1)))
        return cls(perm=perm, q=q)
