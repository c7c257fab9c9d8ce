"""The error patterns of SOGRAND lists, rebuilt from ``BlockOutput.listed``.

A ``BlockOutput`` holds each row's list as query indices into the ORBGRAND
schedule.  ``listed_patterns`` maps them to the error patterns they stand
for: ``patterns``, the pattern of every slot (padding included), and
``best_pattern``, the slot of largest mass, which for an empty list is slot
0, the schedule's first and empty deviation: the hard decision.
"""

import numpy as np

from qgldpc.channel import clamp_llr
from qgldpc.orbgrand import RankedInput, rank_flip_table


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
