"""Soft-in/soft-out component decoding via list-based guessing (SOGRAND).

For each row of a block of local views (all check nodes of a side): query
candidate deviations from the hard decision in ORBGRAND order, keep those
whose implied error pattern satisfies the local syndrome, track the explored
probability mass P_g, estimate the mass of syndrome-consistent patterns never
queried as P_Lc = (1 - P_g) * 2^-m_c, and convert the list into bitwise APP
and extrinsic LLRs, in one ``BlockOutput``; ``sogrand_decode`` returns its ``row(0)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .channel import as_bits, check_count, clamp_llr
from .codes import ComponentCode
from .orbgrand import RankedInput, rank_flip_table


@dataclass(frozen=True)
class SograndParams:
    list_max: int = 4
    query_budget: int | None = None  # default 2^(m_c+4), resolved per component

    def __post_init__(self):
        check_count("list_max", self.list_max, 1)
        if self.query_budget is not None:
            check_count("query_budget", self.query_budget, 1)

    def resolve_budget(self, n_c: int, m_c: int) -> int:
        budget = self.query_budget if self.query_budget is not None else 1 << (m_c + 4)
        return min(budget, 1 << n_c)


@dataclass(frozen=True)
class BlockOutput:
    """SOGRAND outputs of B rows; each row's list fills its first n_listed slots."""

    L_APP: np.ndarray         # (B, n_c)
    L_E: np.ndarray           # (B, n_c)
    best_pattern: np.ndarray  # (B, n_c)
    queries_used: np.ndarray  # (B,)
    n_listed: np.ndarray      # (B,) list size; 0 means nothing was found
    patterns: np.ndarray      # (B, S, n_c) listed error patterns, padding past n_listed
    masses: np.ndarray        # (B, S) their probability masses, zero past n_listed
    P_g: np.ndarray           # (B,) explored mass

    def row(self, b: int) -> BlockOutput:
        """Row b alone: every field indexed by b (views, or scalars for (B,) fields)."""
        return BlockOutput(*(getattr(self, f.name)[b] for f in fields(self)))


def estimate_missing_mass(P_g, m_c: int):
    """Mass of syndrome-consistent patterns outside the explored prefix.

    Consistent patterns are modelled as uniformly spread over the guessing
    order, one in every 2^m_c queries: (1 - P_g) * 2^-m_c, elementwise.
    """
    P_g = np.asarray(P_g, dtype=float)
    if not ((0.0 <= P_g) & (P_g <= 1.0 + 1e-12)).all():
        raise ValueError(f"P_g must lie in [0, 1], got {P_g}")
    return (1.0 - np.minimum(P_g, 1.0)) * 2.0 ** (-m_c)


def decode_block(component: ComponentCode, L_A, s_local,
                 params: SograndParams = SograndParams()) -> BlockOutput:
    """List-decode B local views, the rows of L_A (B, n_c), against s_local (B, m_c)."""
    L_A = clamp_llr(np.asarray(L_A, dtype=float))
    if np.isnan(L_A).any():
        raise ValueError("soft inputs must not be NaN")
    s_local = as_bits("local syndromes", s_local)
    n_c, m_c = component.n_c, component.m_c
    if L_A.ndim != 2 or L_A.shape[1] != n_c or s_local.shape != (L_A.shape[0], m_c):
        raise ValueError(f"soft inputs of shape {L_A.shape} and local syndromes of "
                         f"shape {s_local.shape} do not fit (B, {n_c}) and (B, {m_c})")
    hard = (L_A < 0).astype(np.uint8)
    ranked = RankedInput.from_llr(L_A)
    # All candidate deviations up to the budget, in schedule order, over ranks.
    flips = rank_flip_table(n_c, params.resolve_budget(n_c, m_c))  # (K, n_c)
    K, table = flips.shape[0], flips.astype(float)

    # The list is the first list_max consistent queries; the search stops at
    # the last of them once the list is full, else it spends the whole budget.
    consistent = _consistent(component, s_local, hard, ranked.perm, table)
    n_listed = np.minimum(consistent.sum(axis=1), params.list_max)
    listed = np.argsort(~consistent, axis=1, kind="stable")[:, :params.list_max].copy()
    queries_used = np.where(n_listed == params.list_max, listed[:, -1] + 1, K)
    listed_masses, P_g = _listed_masses(ranked, table, listed, n_listed, queries_used)

    # Listed deviations mapped from ranks back to positions, as error patterns.
    deviations = flips[listed[:, :, None], np.argsort(ranked.perm)[:, None, :]]
    patterns = hard[:, None, :] ^ deviations
    L_APP, L_E, best = _soft(L_A, patterns, listed_masses, n_listed, P_g, m_c)
    return BlockOutput(L_APP=L_APP, L_E=L_E, best_pattern=best, queries_used=queries_used,
                       n_listed=n_listed, patterns=patterns, masses=listed_masses, P_g=P_g)


def _consistent(component: ComponentCode, s_local, hard, perm, table) -> np.ndarray:
    """(B, K) mask of the deviations (rows of ``table``, over ranks) that
    satisfy H dev = s ^ H hard.  Syndromes are integer codes: in a group of
    checks, check t is digit t (d bits) of a column's code, so the low bit of
    each digit of a sum of codes is a parity.  Groups keep the sums below 2^52,
    where float products are exact; adding 2^52 puts a sum's integer value in
    the low 52 bits of the float's bit pattern, where the parity mask reads it.
    """
    d, m_c = component.n_c.bit_length() or 1, component.m_c
    consistent = np.ones((hard.shape[0], table.shape[0]), dtype=bool)
    for t in range(0, m_c, 52 // d):
        digit = 1 << d * np.arange(min(52 // d, m_c - t), dtype=np.int64)
        code, parity = component.H[t:t + digit.size].T @ digit, int(digit.sum())
        target = (s_local[:, t:t + digit.size] @ digit) ^ (hard @ code & parity)
        sums = code[perm] @ table.T                                  # (B, K)
        sums += 2.0 ** 52
        bits = sums.view(np.int64)
        consistent &= np.bitwise_and(bits, parity, out=bits) == target[:, None]
    return consistent


def _listed_masses(ranked: RankedInput, table, listed, n_listed, queries_used):
    """Listed masses (zero past ``n_listed``) and P_g, the running sum of each row's
    used query masses (all K for an empty list).  Log-masses: a stacked matmul, one
    gemv per row (a gemm rounds differently); exp and cumsum reuse the array."""
    log_1mq = np.log1p(-ranked.q)
    weight = np.log(ranked.q) - log_1mq
    masses = np.matmul(table, weight[:, :, None])[..., 0]
    masses += log_1mq.sum(axis=1)[:, None]
    np.exp(masses, out=masses)
    rows = np.arange(masses.shape[0])
    listed_masses = np.where(np.arange(listed.shape[1]) < n_listed[:, None],
                             masses[rows[:, None], listed], 0.0)
    explored = np.cumsum(masses, axis=1, out=masses)[rows, queries_used - 1]
    return listed_masses, np.minimum(explored, 1.0)


def sogrand_decode(component: ComponentCode, L_A, s_local,
                   params: SograndParams = SograndParams()) -> BlockOutput:
    """List-decode one local view under its local syndrome constraint."""
    return decode_block(component, [L_A], [s_local], params).row(0)


def _soft(L_A, patterns, masses, n_listed, P_g, m_c: int):
    """(L_APP, L_E, best pattern) of each row from its candidate list, by one formula.

    The unexplored mass P_Lc is apportioned to each bit's flip probability
    by the prior q_i, so a saturated search (P_g = 1) reproduces exact coset
    marginals.  Slots past a row's ``n_listed`` hold zero masses.  An empty
    list keeps the prior exactly (L_E = 0); its best pattern is slot 0, the
    schedule's first and empty deviation: the hard decision.
    """
    P_L = np.array([math.fsum(row) for row in masses.tolist()])[:, None]
    P_Lc = estimate_missing_mass(P_g, m_c)[:, None]
    P_tot = P_L + P_Lc
    q_prior = np.exp(-np.logaddexp(0.0, L_A))  # P(bit = 1 | L_A)

    # a running sum over the list, in list order: the rounding of the scalar decoder
    flip_mass = np.cumsum(masses[:, :, None] * patterns, axis=1)[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):  # an empty list may have P_tot = 0
        p1 = (flip_mass + P_Lc * q_prior) / P_tot
        L_APP = clamp_llr(np.log(np.maximum(P_tot - flip_mass - P_Lc * q_prior, 0.0))
                          - np.log(np.maximum(p1 * P_tot, 0.0)))
    L_APP = np.where(n_listed[:, None] > 0, L_APP, L_A)
    best = patterns[np.arange(len(patterns)), masses.argmax(axis=1)]
    return L_APP, L_APP - L_A, best
