"""Scaled min-sum belief propagation on a flattened parity-check matrix.

Min-sum is a check rule, as SOGRAND is: ``minsum_side`` builds a
``gldpc.Side`` on the edges of H, and the GLDPC flooding driver,
``gldpc.flood``, runs it for all active trials of a chunk at once.  The
rule, slot-major, is a value, ``MinsumRule(degrees, alpha)``, equal for any two
operators of one check-degree sequence (both toric graphs), and takes k copies
of H side by side (graphs that share it).  Each operator keeps its edges.
Syndrome-based: check t multiplies its outgoing message by (-1)^{s_t}, so
decoding targets the error pattern rather than a codeword.  Same clamping
and hard-decision conventions as the GLDPC decoder, for comparability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class MinsumRule:
    """Min-sum, scaled as ``minsum_side`` says, on any H with these check degrees, as a value.

    Slot-major: edge j of check t sits at [j, t] of a (d, m) block, so every
    reduction runs across checks.  Pads read +inf (sign +1, never below an edge),
    so a degree-1 check's edge gets LLR_CLAMP, the clamped min over the empty set."""

    degrees: tuple
    alpha: float
    layout: tuple = field(init=False, repr=False, compare=False)  # built from the two above

    def __post_init__(self):
        degree = np.array(self.degrees, dtype=np.intp)
        slot, n_edges = np.arange(max(1, degree.max(initial=0)))[:, None], int(degree.sum())
        block = np.where(slot < degree, np.cumsum(degree) - degree + slot, n_edges)  # edge, or pad
        edge_slots = block.ravel().argsort(kind="stable")[:n_edges]  # each edge's place in block
        object.__setattr__(self, "layout", (block, edge_slots, np.array([self.alpha, -self.alpha])))

    def __call__(self, v2c, s_active):  # (A, k*E), (A, k*m): k copies of H side by side
        (block, edge_slots, scales), m = self.layout, len(self.degrees)
        copies = s_active.size // max(m, 1)  # A*k; an H without checks has no edges either
        padded = np.empty((copies, edge_slots.size + 1))  # the edges, then a pad
        padded[:, :-1] = v2c.reshape(copies, edge_slots.size)
        padded[:, -1] = np.inf
        msg = padded.take(block, axis=1)  # (copies, d, m)
        neg = msg < 0
        flip = np.logical_xor.reduce(neg, axis=1) ^ s_active.reshape(copies, m).view(bool)
        mag = np.abs(msg, out=msg)
        min1 = np.minimum.reduce(mag, axis=1, keepdims=True)
        at_min = mag == min1
        # an edge at the minimum gets min2, which is min1 if two or more slots hold it
        min2 = np.minimum.reduce(np.where(at_min, np.inf, mag), axis=1, keepdims=True)
        np.copyto(min2, min1, where=np.add.reduce(at_min, axis=1, keepdims=True) > 1)
        min_excl = np.minimum(np.where(at_min, min2, min1), LLR_CLAMP)
        neg ^= flip[:, None]  # each edge's sign: s_t, times the signs of the others
        out = scales.take(neg) * min_excl  # one rounding: (+-alpha) * min_excl
        return out.reshape(copies, block.size).take(edge_slots, axis=1).reshape(v2c.shape)


def minsum_side(check: gf2.Syndrome, s, alpha: float) -> Side:
    """Min-sum on the edges of ``check.H`` for (T, m) syndromes ``s``: check t
    scaled by -alpha if s_t = 1, else alpha."""
    edge_var, degrees = check.edges
    return Side(edge_var, check, s, MinsumRule(degrees, alpha))


def minsum_decode(H, L_ch, s, cfg: BpConfig = BpConfig()) -> SideResult:
    """One trial of min-sum on a bit matrix H; only tests and bench/ use it."""
    return flood(minsum_side(gf2.Syndrome(H), np.asarray(s)[None], cfg.alpha),
                 L_ch, cfg.n_iter).row(0)
