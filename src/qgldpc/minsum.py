"""Scaled min-sum belief propagation on a flattened parity-check matrix.

The min-sum check rule runs in the GLDPC flooding driver, ``gldpc.flood``,
on the edges of H, for all active trials of a chunk at once.
Syndrome-based: check t multiplies its outgoing message by (-1)^{s_t}, so
decoding targets the error pattern rather than a codeword.  Same clamping
and hard-decision conventions as the GLDPC decoder, for comparability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .channel import LLR_CLAMP
from .gldpc import Side, SideResult, flood


@dataclass(frozen=True)
class BpConfig:
    alpha: float = 0.625
    n_iter: int = 100

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")


@lru_cache(maxsize=8)
def _minsum_rule(check: gf2.Syndrome):
    """(edge_var, rule), cached per operator: the edges of H in check-major
    order, and min-sum on them, scaled per check by the given (A*m, 1) scales.

    Row t of the padded block holds check t's edges by ascending column; pads
    read +inf (sign +1, never the minimum), but the first pad of a degree-1
    check reads LLR_CLAMP, so that its edge gets the min over the empty set."""
    rows, edge_var = np.nonzero(check.H)
    m, n_edges = check.H.shape[0], rows.size
    degree = np.bincount(rows, minlength=m)
    block = np.full((m, max(2, degree.max(initial=0))), n_edges)
    first = np.cumsum(degree) - degree
    block[rows, np.arange(n_edges) - first[rows]] = np.arange(n_edges)
    block[degree == 1, 1] = n_edges + 1
    edge_slots = np.flatnonzero(block < n_edges)  # in the flattened (m, d) block
    slots = np.arange(block.shape[1])
    pads = np.array([np.inf, LLR_CLAMP])

    def rule(v2c, scale):  # (A, E) messages -> (A, E); one check per row of msg
        padded = np.empty((len(v2c), n_edges + 2))
        padded[:, :n_edges] = v2c
        padded[:, n_edges:] = pads
        msg = padded.take(block, axis=1).reshape(-1, block.shape[1])
        sgn = np.where(msg < 0, -1.0, 1.0)
        row_sign = sgn.prod(axis=1, keepdims=True)
        # two smallest magnitudes per check, to exclude each edge's own
        mag = np.abs(msg)
        rows = np.arange(len(mag))
        min1_idx = mag.argmin(axis=1)
        min1 = mag[rows, min1_idx]
        mag[rows, min1_idx] = np.inf
        min2 = mag.min(axis=1)
        min_excl = np.minimum(np.where(slots == min1_idx[:, None], min2[:, None],
                                       min1[:, None]), LLR_CLAMP)
        out = scale * row_sign * sgn * min_excl
        return out.reshape(len(v2c), -1).take(edge_slots, axis=1)

    return edge_var, rule


def minsum_decode_trials(H, L_ch, s, cfg: BpConfig = BpConfig()) -> list[SideResult]:
    """Min-sum on T trials with (T, m) syndromes ``s``, check t scaled by -alpha
    if s_t = 1, else alpha.  ``H`` is a bit matrix or a ``gf2.Syndrome``."""
    check = H if isinstance(H, gf2.Syndrome) else gf2.Syndrome(H)
    edge_var, rule = _minsum_rule(check)
    scales = np.array([cfg.alpha, -cfg.alpha])
    side = Side(edge_var=edge_var, check=check, s=s,
                rule=lambda v2c, s_active: rule(v2c, scales[s_active].reshape(-1, 1)))
    return [r for r, in flood([side], [L_ch], cfg.n_iter)]


def minsum_decode(H, L_ch, s, cfg: BpConfig = BpConfig()) -> SideResult:
    """One-trial view of ``minsum_decode_trials``."""
    return minsum_decode_trials(H, L_ch, np.asarray(s)[None], cfg)[0]
