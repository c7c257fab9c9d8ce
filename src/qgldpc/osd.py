"""Ordered-statistics post-processing for failed iterative decodes.

Columns are visited in decreasing reliability |L_APP| so the pivot set is
the most reliably known independent column set; the remaining (non-pivot)
bits keep their hard decisions, the pivot bits are re-solved from the
syndrome, and low-weight flips of the least reliable non-pivot bits are
swept.  All candidates are built as one (C, n) matrix: the flip sets as a
0/1 matrix over the free bits, the pivot bits from one GF(2) product.
Every candidate satisfies the syndrome by construction; the most likely
one under the channel prior wins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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


def _flip_sets(n_free: int, cfg: OsdConfig) -> np.ndarray:
    """(C, n_free) 0/1 flip sets, one per row; row 0 flips nothing.

    Column i is the i-th free (non-pivot) bit from least to most reliable.
    """
    w = min(cfg.order_w, n_free)
    if cfg.strategy == "exhaustive_w":
        subsets = [c for size in range(1, w + 1)
                   for c in itertools.combinations(range(w), size)]
    else:  # combination_sweep: all single flips, plus pairs among the w least reliable
        subsets = [(i,) for i in range(n_free)] + list(itertools.combinations(range(w), 2))
    flips = np.zeros((1 + len(subsets), n_free), dtype=np.uint8)
    for row, subset in enumerate(subsets, start=1):
        flips[row, list(subset)] = 1
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

    fills = hard[free] ^ _flip_sets(free.size, cfg)
    E = np.zeros((fills.shape[0], n), dtype=np.uint8)
    E[:, free] = fills
    E[:, pivots] = (T_s[:rank, None] ^ gf2.Syndrome(elim.reduced[:rank, free])(fills.T)).T

    # Score each row as a sum over its ones: a sum over whole rows of E,
    # zeros included, groups the terms differently, so it can round
    # differently and change which equal-weight candidate wins.
    log_flip = np.log(q) - np.log1p(-q)  # per-bit score delta for a 1
    keys = [(-float(log_flip[e == 1].sum()), int(e.sum()), e.tobytes()) for e in E]
    return E[min(range(len(keys)), key=keys.__getitem__)]
