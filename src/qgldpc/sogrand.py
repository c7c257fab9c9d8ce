"""Soft-in/soft-out component decoding via list-based guessing (SOGRAND).

For one check node: query candidate deviations from the hard decision in
ORBGRAND order, keep those whose implied error pattern satisfies the local
syndrome, track the explored probability mass P_g, estimate the mass of
syndrome-consistent patterns never queried as P_Lc = (1 - P_g) * 2^-m_c,
and convert the list into bitwise APP and extrinsic LLRs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import clamp_llr
from .codes import ComponentCode
from .orbgrand import RankedInput, rank_flip_table


@dataclass(frozen=True)
class SograndParams:
    list_max: int = 4
    query_budget: int | None = None  # default 2^(m_c+4), resolved per component

    def __post_init__(self):
        if self.list_max < 1:
            raise ValueError("list_max must be >= 1")
        if self.query_budget is not None and self.query_budget < 1:
            raise ValueError("query_budget must be >= 1")

    def resolve_budget(self, n_c: int, m_c: int) -> int:
        budget = self.query_budget if self.query_budget is not None else 1 << (m_c + 4)
        return min(budget, 1 << n_c)


@dataclass
class CandidateList:
    m_c: int
    patterns: list[np.ndarray] = field(default_factory=list)
    masses: list[float] = field(default_factory=list)
    P_g: float = 0.0

    @property
    def P_L(self) -> float:
        return math.fsum(self.masses)

    @property
    def P_Lc(self) -> float:
        return estimate_missing_mass(self.P_g, self.m_c)

    @property
    def P_tot(self) -> float:
        return self.P_L + self.P_Lc


@dataclass(frozen=True)
class SoftOutput:
    L_APP: np.ndarray
    L_E: np.ndarray
    best_pattern: np.ndarray
    found: bool
    queries_used: int = 0
    cand: CandidateList | None = None


def estimate_missing_mass(P_g: float, m_c: int) -> float:
    """Mass of syndrome-consistent patterns outside the explored prefix.

    Consistent patterns are modelled as uniformly spread over the guessing
    order, one in every 2^m_c queries: (1 - P_g) * 2^-m_c.
    """
    if not 0.0 <= P_g <= 1.0 + 1e-12:
        raise ValueError(f"P_g must lie in [0, 1], got {P_g}")
    return (1.0 - min(P_g, 1.0)) * 2.0 ** (-m_c)


def sogrand_decode(component: ComponentCode, L_A, s_local,
                   params: SograndParams = SograndParams()) -> SoftOutput:
    """List-decode one local view under its local syndrome constraint."""
    L_A = clamp_llr(np.asarray(L_A, dtype=float))
    n_c, m_c = component.n_c, component.m_c
    if L_A.shape[0] != n_c:
        raise ValueError(f"soft input length {L_A.shape[0]} != n_c = {n_c}")
    s_local = np.asarray(s_local, dtype=np.uint8) % 2
    if s_local.shape[0] != m_c:
        raise ValueError(f"local syndrome length {s_local.shape[0]} != m_c = {m_c}")

    hard = (L_A < 0).astype(np.uint8)
    ranked = RankedInput.from_llr(L_A)

    # All candidate deviations up to the budget, in schedule order, over ranks,
    # and the same deviations over the component's own positions.
    flips = rank_flip_table(n_c, params.resolve_budget(n_c, m_c))  # (budget, n_c)
    deviations = np.empty_like(flips)
    deviations[:, ranked.perm] = flips

    # Residual syndrome once the hard decision is peeled off: the deviation d
    # must satisfy H (hard ^ d) = s, i.e. H d = s ^ H hard.
    s_res = s_local ^ component.syndrome(hard)
    consistent = np.all(component.syndrome(deviations.T) == s_res[:, None], axis=0)

    # Log-mass of each queried deviation under the flip probabilities q.
    log_q = np.log(ranked.q)
    log_1mq = np.log1p(-ranked.q)
    log_masses = flips @ (log_q - log_1mq) + log_1mq.sum()
    masses = np.exp(log_masses)

    # The list is the first list_max consistent queries; the search stops at
    # the last of them once the list is full, else it spends the whole budget.
    listed = np.flatnonzero(consistent)[:params.list_max]
    cand = CandidateList(m_c=m_c, patterns=list(hard ^ deviations[listed]),
                         masses=masses[listed].tolist())
    queries_used = flips.shape[0]
    if listed.size == params.list_max:
        queries_used = int(listed[-1]) + 1
    if listed.size:
        cand.P_g = min(float(np.cumsum(masses[:queries_used])[-1]), 1.0)
    else:
        cand.P_g = min(float(masses.sum()), 1.0)

    return replace(extract_soft(cand, L_A), queries_used=queries_used, cand=cand)


def extract_soft(cand: CandidateList, L_A) -> SoftOutput:
    """Bitwise APP/extrinsic LLRs from a finalized candidate list.

    The unexplored mass P_Lc is apportioned to each bit's flip probability
    by the prior q_i, so an empty list passes the prior through unchanged
    and a saturated search (P_g = 1) reproduces exact coset marginals.
    """
    L_A = np.asarray(L_A, dtype=float)
    n_c = L_A.shape[0]
    if not cand.patterns:
        return SoftOutput(L_APP=L_A.copy(), L_E=np.zeros(n_c),
                          best_pattern=(L_A < 0).astype(np.uint8), found=False)

    P_L = cand.P_L
    P_Lc = cand.P_Lc
    P_tot = P_L + P_Lc
    q_prior = np.exp(-np.logaddexp(0.0, L_A))  # P(bit = 1 | L_A)

    flip_mass = np.zeros(n_c)
    for pattern, mass in zip(cand.patterns, cand.masses):
        flip_mass += mass * pattern
    p1 = (flip_mass + P_Lc * q_prior) / P_tot

    with np.errstate(divide="ignore"):
        L_APP = clamp_llr(np.log(np.maximum(P_tot - flip_mass - P_Lc * q_prior, 0.0))
                          - np.log(np.maximum(p1 * P_tot, 0.0)))
    L_E = L_APP - L_A
    best = cand.patterns[int(np.argmax(cand.masses))]
    return SoftOutput(L_APP=L_APP, L_E=L_E, best_pattern=best.copy(), found=True)
