"""Scaled min-sum belief propagation on a flattened parity-check matrix.

The min-sum check rule runs in the GLDPC flooding driver, ``gldpc.flood``,
on the edges of H.  Syndrome-based: check t multiplies its outgoing
message by (-1)^{s_t}, so decoding targets the error pattern rather than
a codeword.  Same clamping and hard-decision conventions as the GLDPC
decoder, for comparability.
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
    order, and min-sum on them, scaled per check by -alpha if s_t = 1, else alpha.

    Row t of the padded block holds check t's edges by ascending column;
    padding reads a message of +inf (sign +1, never the minimum)."""
    rows, edge_var = np.nonzero(check.H)
    m, n_edges = check.H.shape[0], rows.size
    degree = np.bincount(rows, minlength=m)
    block = np.full((m, max(1, degree.max(initial=0))), n_edges)
    first = np.cumsum(degree) - degree
    block[rows, np.arange(n_edges) - first[rows]] = np.arange(n_edges)
    is_edge = block < n_edges
    slots = np.arange(block.shape[1])
    pinned = (degree <= 1)[:, None]  # min over the empty set: the clamp value
    check_rows = np.arange(m)

    def rule(v2c, scale):
        msg = np.append(v2c, np.inf)[block]
        sgn = np.where(msg < 0, -1.0, 1.0)
        row_sign = sgn.prod(axis=1, keepdims=True)
        # two smallest magnitudes per check, to exclude each edge's own
        mag = np.abs(msg)
        min1_idx = np.argmin(mag, axis=1)
        min1 = mag[check_rows, min1_idx]
        mag[check_rows, min1_idx] = np.inf
        min2 = mag.min(axis=1)
        min_excl = np.where(slots == min1_idx[:, None], min2[:, None], min1[:, None])
        min_excl = np.minimum(np.where(pinned, LLR_CLAMP, min_excl), LLR_CLAMP)
        return (scale * row_sign * sgn * min_excl)[is_edge]

    return edge_var, rule


def minsum_decode(H, L_ch, s, cfg: BpConfig = BpConfig()) -> SideResult:
    """``H`` is a bit matrix or a ``gf2.Syndrome``; an operator keeps its edge block."""
    check = H if isinstance(H, gf2.Syndrome) else gf2.Syndrome(H)
    s = np.asarray(s, dtype=np.uint8) % 2
    edge_var, rule = _minsum_rule(check)
    scale = cfg.alpha * np.where(s == 1, -1.0, 1.0)[:, None]
    side = Side(edge_var=edge_var, check=check, s=s, rule=lambda v2c: rule(v2c, scale))
    return flood([side], [L_ch], cfg.n_iter)[0]
