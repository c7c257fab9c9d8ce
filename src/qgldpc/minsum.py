"""Scaled min-sum belief propagation on a flattened parity-check matrix.

Min-sum is a check rule, as SOGRAND is: ``minsum_side`` builds a
``gldpc.Side`` on the edges of H, and the GLDPC flooding driver,
``gldpc.flood``, runs it for all active trials of a chunk at once.  The
rule, cached per operator and alpha, takes k copies of H side by side (a
correlated decode's two graphs, when both are one operator).
Syndrome-based: check t multiplies its outgoing message by (-1)^{s_t}, so
decoding targets the error pattern rather than a codeword.  Same clamping
and hard-decision conventions as the GLDPC decoder, for comparability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .channel import LLR_CLAMP, check_count
from .gldpc import Side, SideResult, flood


@dataclass(frozen=True)
class BpConfig:
    alpha: float = 0.625
    n_iter: int = 100

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        check_count("n_iter", self.n_iter, 1)


@lru_cache(maxsize=8)
def _minsum_rule(check: gf2.Syndrome, alpha: float):
    """(edge_var, rule), cached per operator and alpha: the edges of H in
    check-major order, and min-sum on them, scaled as ``minsum_side`` says.

    Row t of the padded block holds check t's edges by ascending column; pads
    read +inf (sign +1, never the minimum), so the edge of a degree-1 check
    gets the clamp of +inf, LLR_CLAMP, as the min over the empty set."""
    rows, edge_var = np.nonzero(check.H)
    m, n_edges = check.H.shape[0], rows.size
    degree = np.bincount(rows, minlength=m)
    block = np.full((m, max(2, degree.max(initial=0))), n_edges)
    first = np.cumsum(degree) - degree
    block[rows, np.arange(n_edges) - first[rows]] = np.arange(n_edges)
    edge_slots = np.flatnonzero(block < n_edges)  # in the flattened (m, d) block
    scales = np.array([alpha, -alpha])

    def rule(v2c, s_active):  # (A, k*E), (A, k*m): k copies of H side by side -> (A, k*E)
        copies = s_active.size // max(m, 1)  # A*k; an H without checks has no edges either
        padded = np.empty((copies, n_edges + 1))
        padded[:, :n_edges] = v2c.reshape(copies, n_edges)
        padded[:, n_edges] = np.inf
        msg = padded.take(block, axis=1).reshape(-1, block.shape[1])
        sgn = np.where(msg < 0, -1.0, 1.0)
        row_sign = sgn.prod(axis=1, keepdims=True)
        # two smallest magnitudes per check, to exclude each edge's own; an
        # edge tied with the minimum gets min2, which then equals min1
        mag = np.abs(msg)
        smallest = np.partition(mag, 1, axis=1)
        min1, min2 = smallest[:, :1], smallest[:, 1:2]
        min_excl = np.minimum(np.where(mag == min1, min2, min1), LLR_CLAMP)
        out = scales[s_active].reshape(-1, 1) * row_sign * sgn * min_excl
        return out.reshape(copies, block.size).take(edge_slots, axis=1).reshape(v2c.shape)

    return edge_var, rule


def minsum_side(check: gf2.Syndrome, s, alpha: float) -> Side:
    """Min-sum on the edges of ``check.H`` for (T, m) syndromes ``s``: check t
    scaled by -alpha if s_t = 1, else alpha."""
    edge_var, rule = _minsum_rule(check, alpha)
    return Side(edge_var, check, s, rule)


def minsum_decode(H, L_ch, s, cfg: BpConfig = BpConfig()) -> SideResult:
    """One trial of min-sum on a bit matrix H; only tests and bench/ use it."""
    return flood(minsum_side(gf2.Syndrome(H), np.asarray(s)[None], cfg.alpha),
                 L_ch, cfg.n_iter).row(0)
