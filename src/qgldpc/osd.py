"""Ordered-statistics post-processing for failed iterative decodes.

Columns are visited in decreasing reliability |L_APP| so the pivot set is
the most reliably known independent column set; the remaining (non-pivot)
bits keep their hard decisions, the pivot bits are re-solved from the
syndrome, and low-weight flips of the least reliable non-pivot bits are
swept.  One elimination of ``[H | s]``, s visited last, gives the pivots and
the reduced syndrome.  All candidates are built as one (C, n) matrix.  The
pivot bits are linear in the free bits: the reduced columns that the free
hard decisions select, then those each flip set selects, are XORed in.  Every
candidate satisfies the syndrome; under one flip probability q per bit the
lightest is the most likely (the heaviest if q > 1/2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .channel import as_bits, check_count


class InconsistentSyndromeError(RuntimeError):
    """Syndrome outside the column space of H: an upstream bug, not a decode failure."""


@dataclass(frozen=True)
class OsdConfig:
    order_w: int = 9
    strategy: str = "combination_sweep"  # or "exhaustive_w"

    def __post_init__(self):
        check_count("order_w", self.order_w, 0)
        if self.strategy not in ("combination_sweep", "exhaustive_w"):
            raise ValueError(f"unknown OSD strategy {self.strategy!r}")


@lru_cache(maxsize=32)
def _flip_sets(n_free: int, cfg: OsdConfig) -> np.ndarray:
    """(C, width) read-only flip sets, one per row, as positions among the
    free bits padded with the sentinel n_free (flips nothing); row 0 flips
    nothing.  Position i is the i-th free bit from least to most reliable.
    """
    w = min(cfg.order_w, n_free)
    if cfg.strategy == "exhaustive_w":
        subsets = [c for size in range(1, w + 1)
                   for c in itertools.combinations(range(w), size)]
    else:  # combination_sweep: all single flips, plus pairs among the w least reliable
        subsets = [(i,) for i in range(n_free)] + list(itertools.combinations(range(w), 2))
    flips = np.full((1 + len(subsets), max(map(len, subsets), default=0)), n_free)
    for row, subset in enumerate(subsets, start=1):
        flips[row, :len(subset)] = subset
    flips.setflags(write=False)
    return flips


def osd_postprocess(H, s, soft_llr, cfg: OsdConfig = OsdConfig(),
                    channel_q: float = 0.1) -> np.ndarray:
    """Most likely syndrome-consistent pattern found by the reliability sweep.

    ``soft_llr`` is the final APP vector of the failed decode; ``channel_q``
    the prior flip probability of every bit, used to score candidates.
    """
    H, s = np.asarray(H), as_bits("syndrome", s)
    soft_llr = np.asarray(soft_llr, dtype=float)
    m, n = H.shape
    if soft_llr.shape != (n,) or s.shape != (m,):
        raise ValueError("dimension mismatch between H, s and soft_llr")
    if np.ndim(channel_q) or not 0.0 < channel_q < 1.0:  # NaN fails too
        raise ValueError(f"channel_q must be one probability in (0, 1), got {channel_q!r}")

    reliability = np.abs(soft_llr)
    hard = (soft_llr < 0).astype(np.uint8)
    # visit most reliable columns first, ties by original index; the syndrome last
    order = np.lexsort((np.arange(n), -reliability))
    elim = gf2.row_reduce(np.column_stack([H, s]), column_order=np.append(order, n))
    if n in elim.pivots:  # s is a pivot iff it adds to the rank of H
        raise InconsistentSyndromeError("syndrome outside the column space of H")
    pivots, rank = elim.pivots, elim.rank

    # per pivot row: pivot bit = reduced syndrome ^ R_free @ free bits
    is_pivot = np.zeros(n, dtype=bool)
    is_pivot[pivots] = True
    free = order[~is_pivot[order]]
    # free positions from least to most reliable
    free = free[np.argsort(reliability[free], kind="stable")]
    R_free = elim.reduced[:rank, free]

    flips = _flip_sets(free.size, cfg)
    E = np.zeros((len(flips), n + 1), dtype=np.uint8)  # column n takes the pads
    E[:, free] = hard[free]
    E[np.arange(len(flips))[:, None], np.append(free, n)[flips]] ^= 1
    # the unflipped solution, plus the XOR of the R_free columns each flip set selects
    R_cols = np.vstack([R_free.T, np.zeros(rank, dtype=np.uint8)])  # the pad selects 0
    unflipped = np.bitwise_xor.reduce(R_cols[:-1][hard[free] == 1], axis=0)
    E[:, pivots] = (elim.reduced[:rank, n] ^ unflipped
                    ^ np.bitwise_xor.reduce(R_cols[flips], axis=1))
    E = E[:, :n]

    # A candidate of weight k scores k log(q / (1 - q)): the lightest wins, or
    # the heaviest when q > 1/2; ties go to the smallest row as bytes
    weight = E.sum(axis=1)
    heavier_wins = np.log(channel_q) > np.log1p(-channel_q)
    tied = np.flatnonzero(weight == (weight.max() if heavier_wins else weight.min()))
    return E[min(tied, key=lambda c: E[c].tobytes())]
