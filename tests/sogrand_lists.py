"""The error patterns of SOGRAND lists, rebuilt from ``BlockOutput.listed``.

A ``BlockOutput`` holds each row's list as query indices into the ORBGRAND
schedule.  ``listed_patterns`` maps them to the error patterns they stand
for: ``patterns``, the pattern of every slot (padding included), and
``best_pattern``, the slot of largest mass, which for an empty list is slot
0, the schedule's first and empty deviation: the hard decision.
``estimate_missing_mass`` is the paper's P_Lc formula, the oracle for the
missing mass that the block kernel computes inline.
"""

import numpy as np

from qgldpc.channel import clamp_llr
from qgldpc.sogrand import RankedInput, rank_flip_table


def listed_patterns(component, L_A, out, params):
    """(patterns, best_pattern) of ``out``, the decode of soft inputs ``L_A``
    under ``params``: (B, S, n_c) and (B, n_c) for a block (B, n_c), or
    (S, n_c) and (n_c,) for one row (n_c,) and its ``BlockOutput.row``."""
    L_A = clamp_llr(np.asarray(L_A, dtype=float))
    flips = rank_flip_table(component.n_c, params.resolve_budget(component.n_c, component.m_c))
    rank_of = np.argsort(RankedInput.from_llr(L_A).perm, axis=-1)  # rank of each position
    deviations = np.take_along_axis(flips[out.listed], rank_of[..., None, :], axis=-1)
    patterns = (L_A < 0).astype(np.uint8)[..., None, :] ^ deviations
    best = np.take_along_axis(patterns, np.argmax(out.masses, axis=-1)[..., None, None], axis=-2)
    return patterns, best[..., 0, :]


def estimate_missing_mass(P_g, m_c: int):
    """Mass of syndrome-consistent patterns outside the explored prefix.

    Consistent patterns are modelled as uniformly spread over the guessing
    order, one in every 2^m_c queries: (1 - P_g) * 2^-m_c, elementwise.
    """
    P_g = np.asarray(P_g, dtype=float)
    if not ((0.0 <= P_g) & (P_g <= 1.0 + 1e-12)).all():
        raise ValueError(f"P_g must lie in [0, 1], got {P_g}")
    return (1.0 - np.minimum(P_g, 1.0)) * 2.0 ** (-m_c)
