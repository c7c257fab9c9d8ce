"""ORBGRAND schedule: one cached table of candidate noise patterns.

Positions are ranked by ascending reliability |L_A| (ties by index).
Patterns are sets of flipped ranks, listed in increasing logistic
weight (sum of flipped ranks), then in ascending lexicographic order of
their sorted rank tuples: exactly likelihood order when reliabilities
grow linearly with rank, an approximate one otherwise.  The schedule
depends only on the length, so ``rank_flip_table`` builds it once and a
block decode shares it among all its rows, mapping it to each row's
positions through that row of ``RankedInput.perm``.  Patterns are
deviations from the bitwise hard decision, so the empty pattern, the
a-priori most likely, comes first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def distinct_part_subsets(n: int):
    """Yield all subsets of {1..n} as ascending tuples.

    Order: total sum ascending, then lexicographic on the tuples.
    Implemented as enumeration of integer partitions into distinct parts,
    by successively larger targets.
    """
    max_weight = n * (n + 1) // 2

    def parts(total: int, lo: int):
        for a in range(lo, n + 1):
            if a > total:
                break
            rem = total - a
            if rem == 0:
                yield (a,)
                continue
            # parts above a can contribute at most sum(a+1..n)
            if rem > (n * (n + 1) - a * (a + 1)) // 2:
                continue
            for rest in parts(rem, a + 1):
                yield (a, *rest)

    yield ()
    for weight in range(1, max_weight + 1):
        yield from parts(weight, 1)


@lru_cache(maxsize=32)
def rank_flip_table(n: int, count: int) -> np.ndarray:
    """First ``count`` patterns as a (count, n) 0/1 array over ranks 1..n.

    The schedule depends only on n, so blocks are cached and shared by all
    component decodes of the same length.
    """
    count = min(count, 1 << n)
    table = np.zeros((count, n), dtype=np.uint8)
    for row, ranks in zip(range(count), distinct_part_subsets(n)):
        for r in ranks:
            table[row, r - 1] = 1
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
