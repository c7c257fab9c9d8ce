"""Ordered-statistics post-processing for failed iterative decodes.

Columns are visited in decreasing reliability |L_APP| so the pivot set is
the most reliably known independent column set; the remaining (non-pivot)
bits keep their hard decisions, the pivot bits are re-solved from the
syndrome, and low-weight flips of the least reliable non-pivot bits are
swept.  Every candidate satisfies the syndrome by construction; the most
likely one under the channel prior wins.
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


def _flip_sets(n_free: int, free_order: np.ndarray, cfg: OsdConfig):
    """Candidate flip sets over non-pivot positions, deterministic order.

    ``free_order`` lists non-pivot positions from least to most reliable.
    """
    yield ()
    if cfg.strategy == "exhaustive_w":
        w = min(cfg.order_w, n_free)
        sweep = free_order[:w]
        for size in range(1, w + 1):
            for combo in itertools.combinations(range(w), size):
                yield tuple(sweep[list(combo)])
    else:  # combination_sweep: all single flips, plus pairs among the w least reliable
        for pos in free_order:
            yield (int(pos),)
        w = min(cfg.order_w, n_free)
        for a, b in itertools.combinations(range(w), 2):
            yield (int(free_order[a]), int(free_order[b]))


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

    pivots = np.array(elim.pivots, dtype=np.intp)
    free = np.array([c for c in order if c not in set(elim.pivots)], dtype=np.intp)
    # free positions from least to most reliable
    free_lsr = free[np.argsort(reliability[free], kind="stable")]

    # Reduced system: pivot values = T s  ^  R_free @ fill  (per pivot row)
    R = elim.reduced_matrix()
    s_word = gf2.pack_vector(s)
    T_s = np.array([bin(elim.transform[r] & s_word).count("1") & 1
                    for r in range(elim.n_rows)], dtype=np.uint8)
    if np.any(T_s[elim.rank:]):
        raise InconsistentSyndromeError("syndrome outside the column space of H")
    R_free = gf2.Syndrome(R[:elim.rank][:, free])
    check = gf2.Syndrome(H)

    base_fill = hard[free]
    log_flip = np.log(q) - np.log1p(-q)  # per-bit score delta for a 1

    def build(fill):
        e = np.zeros(n, dtype=np.uint8)
        e[free] = fill
        e[pivots] = T_s[:elim.rank] ^ R_free(fill)
        return e

    free_index = {int(pos): i for i, pos in enumerate(free)}
    best = None
    for flips in _flip_sets(free.size, free_lsr, cfg):
        fill = base_fill.copy()
        for pos in flips:
            fill[free_index[pos]] ^= 1
        e = build(fill)
        assert np.array_equal(check(e), s)
        score = float(log_flip[e == 1].sum())
        key = (-score, int(e.sum()), tuple(e.tolist()))
        if best is None or key < best[0]:
            best = (key, e)

    base_e = build(base_fill)
    base_score = float(log_flip[base_e == 1].sum())
    assert -best[0][0] >= base_score - 1e-12
    return best[1]
