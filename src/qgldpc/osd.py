"""Ordered-statistics post-processing for failed iterative decodes.

Columns are visited in decreasing reliability |L_APP| so the pivot set is
the most reliably known independent column set; the remaining (non-pivot)
bits keep their hard decisions, the pivot bits are re-solved from the
syndrome, and low-weight flips of the least reliable non-pivot bits are
swept.  All candidates are built as one (C, n) matrix.  The pivot bits are
linear in the free bits, so one GF(2) product gives them for the unflipped
hard decisions, and each candidate adds the XOR of the few reduced columns
its flip set selects, read by a gather.  Every candidate satisfies the
syndrome by construction; the most likely one under the channel prior wins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2


class InconsistentSyndromeError(RuntimeError):
    """Syndrome outside the column space of H: an upstream bug, not a decode failure."""


@dataclass(frozen=True)
class OsdConfig:
    order_w: int = 9
    strategy: str = "combination_sweep"  # or "exhaustive_w"

    def __post_init__(self):
        if self.order_w < 0:
            raise ValueError("order_w must be >= 0")
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
                    channel_q: float | np.ndarray = 0.1) -> np.ndarray:
    """Most likely syndrome-consistent pattern found by the reliability sweep.

    ``soft_llr`` is the final APP vector of the failed decode; ``channel_q``
    the per-bit prior flip probability used to score candidates.
    """
    H = np.asarray(H, dtype=np.uint8) % 2
    s = np.asarray(s, dtype=np.uint8) % 2
    soft_llr = np.asarray(soft_llr, dtype=float)
    m, n = H.shape
    if soft_llr.shape[0] != n or s.shape[0] != m:
        raise ValueError("dimension mismatch between H, s and soft_llr")
    q = np.broadcast_to(np.asarray(channel_q, dtype=float), (n,))
    if np.any((q <= 0.0) | (q >= 1.0)):
        raise ValueError("channel_q must lie in (0, 1)")

    reliability = np.abs(soft_llr)
    hard = (soft_llr < 0).astype(np.uint8)
    # visit most reliable columns first; ties by original index
    order = np.lexsort((np.arange(n), -reliability))
    elim = gf2.row_reduce(H, column_order=order)
    rank = elim.rank

    # Reduced system: pivot values = T s  ^  R_free @ free values  (per pivot row)
    T_s = gf2.Syndrome(elim.transform)(s)
    if np.any(T_s[rank:]):
        raise InconsistentSyndromeError("syndrome outside the column space of H")
    pivots = np.array(elim.pivots, dtype=np.intp)
    free = order[~np.isin(order, pivots)]
    # free positions from least to most reliable
    free = free[np.argsort(reliability[free], kind="stable")]
    R_free = elim.reduced[:rank, free]

    flips = _flip_sets(free.size, cfg)
    E = np.zeros((len(flips), n + 1), dtype=np.uint8)  # column n takes the pads
    E[:, free] = hard[free]
    E[np.arange(len(flips))[:, None], np.append(free, n)[flips]] ^= 1
    # the unflipped solution, plus the XOR of the R_free columns each flip set selects
    R_cols = np.vstack([R_free.T, np.zeros(rank, dtype=np.uint8)])  # the pad selects 0
    E[:, pivots] = (T_s[:rank] ^ gf2.Syndrome(R_free)(hard[free])
                    ^ np.bitwise_xor.reduce(R_cols[flips], axis=1))
    E = E[:, :n]

    # Score each row as a sum over its ones: a sum over whole rows of E,
    # zeros included, groups the terms differently, so it can round
    # differently and change which equal-weight candidate wins.  When every
    # bit scores the same, that sum depends only on the row's weight.
    log_flip = np.log(q) - np.log1p(-q)  # per-bit score delta for a 1
    weight = E.sum(axis=1)
    if n and (log_flip == log_flip[0]).all():
        table = np.zeros(n + 1)
        for k in np.flatnonzero(np.bincount(weight)):
            table[k] = np.full(k, log_flip[0]).sum()
        score = table[weight]
    else:
        score = np.array([log_flip[e == 1].sum() for e in E])
    # most likely, then lightest, then the smallest row as bytes
    tied = np.flatnonzero(score == score.max())
    tied = tied[weight[tied] == weight[tied].min()]
    return E[min(tied, key=lambda c: E[c].tobytes())]
