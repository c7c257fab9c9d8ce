"""Soft-in/soft-out component decoding via list-based guessing (SOGRAND).

For each row of a block of local views (the checks of all sides that share a
component): query candidate deviations from the hard decision in ORBGRAND order,
keep those whose implied error pattern satisfies the local syndrome, track the
explored probability mass P_g, estimate the mass of consistent patterns never
queried as P_Lc = (1 - P_g) * 2^-m_c, and convert the list (``listed``, query
indices) into bitwise APP and extrinsic LLRs, in one ``BlockOutput``.  Masses
are exponentiated and summed only up to the block's last used query.  Lists are
slot-major, (S, B): past the S first-True scans, each step is one call for all slots.

Queries follow the ORBGRAND schedule, one cached table of patterns over ranks.
Positions are ranked by ascending reliability |L_A| (ties by index).  Patterns are
sets of flipped ranks, listed in increasing logistic weight (sum of flipped ranks),
then in ascending lexicographic order of their sorted rank tuples: exactly
likelihood order when reliabilities grow linearly with rank, an approximate one
otherwise.  A block decode maps the table to each row's positions through that row
of ``RankedInput.perm``.  Patterns are deviations from the bitwise hard decision,
so the empty pattern, the a-priori most likely, comes first.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .channel import LLR_CLAMP, as_llr, check_count, clamp_llr
from .codes import ComponentCode
from .gf2 import as_bits


def distinct_part_subsets(n: int):
    """Yield all subsets of {1..n} as ascending tuples.

    Order: total sum ascending, then lexicographic on the tuples.  A best-first
    walk over a heap keyed by (sum, tuple): a subset s leads to s + (s[-1]+1,)
    and to s with its last element raised by one.  Every nonempty subset but
    (1,) has exactly one such parent, of smaller sum, so each is yielded once.
    """
    yield ()
    heap = [(1, (1,))] if n else []
    while heap:
        total, s = heapq.heappop(heap)
        yield s
        if s[-1] < n:
            heapq.heappush(heap, (total + s[-1] + 1, s + (s[-1] + 1,)))
            heapq.heappush(heap, (total + 1, s[:-1] + (s[-1] + 1,)))


@lru_cache(maxsize=32)
def rank_flip_table(n: int, count: int) -> np.ndarray:
    """First ``count`` patterns (all 2^n if fewer) as a 0/1 array over ranks 1..n.

    The schedule depends only on n, so blocks are cached, read-only, and shared
    by all component decodes of the same length.
    """
    subsets = list(itertools.islice(distinct_part_subsets(n), count))
    table = np.zeros((len(subsets), n), dtype=np.uint8)
    for row, ranks in enumerate(subsets):
        for r in ranks:
            table[row, r - 1] = 1
    table.setflags(write=False)  # shared by every caller through the cache
    return table


@dataclass(frozen=True)
class RankedInput:
    """Reliability ranking of a soft-input vector, or of each row of a block."""

    perm: np.ndarray      # perm[..., r] = original position of rank r (0-based)
    q: np.ndarray         # deviation flip probability per rank, ascending reliability

    @classmethod
    def from_llr(cls, L_A) -> "RankedInput":
        abs_llr = np.abs(np.asarray(L_A, dtype=float))
        # a stable sort breaks ties in |L| by position
        perm = np.argsort(abs_llr, axis=-1, kind="stable")
        # q = 1 / (1 + exp(|L|)), computed stably
        q = np.exp(-np.logaddexp(0.0, np.sort(abs_llr, axis=-1)))
        return cls(perm=perm, q=q)


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
    queries_used: np.ndarray  # (B,)
    n_listed: np.ndarray      # (B,) list size; 0 means nothing was found
    listed: np.ndarray        # (B, S) query indices; past n_listed the first inconsistent
    masses: np.ndarray        # (B, S) their probability masses, zero past n_listed
    P_g: np.ndarray           # (B,) explored mass

    def row(self, b: int) -> BlockOutput:
        """Row b alone: every field indexed by b (views, or scalars for (B,) fields)."""
        return BlockOutput(*(getattr(self, f.name)[b] for f in fields(self)))


def decode_block(component: ComponentCode, L_A, s_local,
                 params: SograndParams = SograndParams()) -> BlockOutput:
    """List-decode B local views, the rows of L_A (B, n_c), against s_local (B, m_c)."""
    L_A, s_local = as_llr("soft inputs", L_A), as_bits("local syndromes", s_local)
    n_c, m_c = component.n_c, component.m_c
    if L_A.ndim != 2 or L_A.shape[1] != n_c or s_local.shape != (L_A.shape[0], m_c):
        raise ValueError(f"soft inputs of shape {L_A.shape} and local syndromes of "
                         f"shape {s_local.shape} do not fit (B, {n_c}) and (B, {m_c})")
    return block_kernel(component, L_A, s_local, params)


def block_kernel(component: ComponentCode, L_A, s_local, params: SograndParams) -> BlockOutput:
    """``decode_block`` past its checks: (B, n_c) LLRs without NaN, clamped here; (B, m_c) bits."""
    L_A, n_c, m_c = clamp_llr(L_A), component.n_c, component.m_c
    hard, ranked = L_A < 0, RankedInput.from_llr(L_A)
    # All candidate deviations up to the budget, in schedule order, over ranks.
    table, flips, table_T, groups = _schedule(component, params.resolve_budget(n_c, m_c))
    K, S, rows = table.shape[0], min(params.list_max, table.shape[0]), np.arange(len(L_A))

    # The list is the first list_max consistent queries; the search stops at
    # the last of them once the list is full, else it spends the whole budget.
    # Slots take the consistent queries, then the others, each in query order:
    # one first-True scan (argmax) per slot, where query K + i stands for the
    # inconsistent query i (a list of c < S takes S - c, all among the first S).
    found = np.empty((len(L_A), K + S), dtype=bool)
    _consistent(groups, s_local, hard, ranked.perm, table_T, found[:, :K])
    np.logical_not(found[:, :S], out=found[:, K:])
    listed, row_start = np.empty((S, len(L_A)), dtype=np.intp), rows * (K + S)
    for slot in listed:
        found.argmax(axis=1, out=slot)
        found.reshape(-1)[slot + row_start] = False  # flat indices: cheaper than [rows, slot]
    is_listed = listed < K  # consistent slots first: slot k is listed iff k < n_listed
    n_listed = is_listed.sum(axis=0)
    listed %= K
    queries_used = np.where(n_listed == params.list_max, listed[-1] + 1, K)

    # Log-masses: one gemv per row over all K (a gemm, or a shorter table, may round
    # differently); exp and the P_g cumsum only up to K', the block's last used query
    # (a listed query lies past every used one only in a list that is not full: K' = K).
    log_1mq = np.log1p(-ranked.q)
    masses = np.matmul(table, (np.log(ranked.q) - log_1mq)[:, :, None])[..., 0]
    masses = masses[:, :queries_used.max(initial=0)]
    masses += log_1mq.sum(axis=1)[:, None]
    np.exp(masses, out=masses)
    listed_masses = masses[rows, listed] * is_listed
    P_g = np.minimum(np.cumsum(masses, axis=1, out=masses)[rows, queries_used - 1], 1.0)
    at = ranked.perm + n_c * rows[:, None]  # flat index into (B, n_c) of each row's ranks
    errors = flips[listed] != hard.take(at)  # (S, B, n_c), over ranks
    L_APP, L_E = _soft(L_A, at, errors, listed_masses, n_listed, P_g, m_c)
    return BlockOutput(L_APP=L_APP, L_E=L_E, queries_used=queries_used, n_listed=n_listed,
                       listed=listed.T, masses=listed_masses.T, P_g=P_g)


@lru_cache(maxsize=32)
def _schedule(component: ComponentCode, K: int):
    """The first K queries as read-only tables over ranks, float (K, n_c) for the log-masses,
    bool for the errors and float (n_c, K) for ``_consistent``, and its groups of checks."""
    flips = rank_flip_table(component.n_c, K)  # read-only, as are its views
    table, table_T = flips.astype(float), np.ascontiguousarray(flips.T, dtype=float)
    d, m_c, groups = component.n_c.bit_length() or 1, component.m_c, []
    for t in range(0, m_c, 52 // d):
        digit = 1 << d * np.arange(min(52 // d, m_c - t), dtype=np.int64)
        checks = slice(t, t + digit.size)
        code = component.H[checks].T @ digit
        groups.append((checks, digit, code, code.astype(float), int(digit.sum())))
    for cached in (table, table_T):
        cached.setflags(write=False)
    return table, flips.view(bool), table_T, groups


def _consistent(groups, s_local, hard, perm, table_T, out) -> None:
    """Write to ``out`` the (B, K) mask of the deviations (columns of ``table_T``, over ranks)
    that satisfy H dev = s ^ H hard: all of them with no checks (m_c = 0).  Syndromes are
    integer codes: in a group of checks, check t is digit t (d bits) of a column's code, so
    the low bit of each digit of a sum of codes is a parity.  Groups keep the sums below
    2^52, where float products are exact; adding 2^52 puts a sum's integer value in the low
    52 bits of the float's bit pattern, where the parity mask reads it."""
    if not groups:
        out.fill(True)
    for g, (checks, digit, code, code_f, parity) in enumerate(groups):
        target = (s_local[:, checks] @ digit) ^ (hard @ code & parity)
        sums = code_f[perm] @ table_T                                  # (B, K)
        sums += 2.0 ** 52
        bits = np.bitwise_and(sums.view(np.int64), parity, out=sums.view(np.int64))
        ok = np.equal(bits, target[:, None], out=None if g else out)  # group 0 writes out
        if g:
            out &= ok


def sogrand_decode(component: ComponentCode, L_A, s_local,
                   params: SograndParams = SograndParams()) -> BlockOutput:
    """List-decode one local view under its local syndrome constraint."""
    return decode_block(component, [L_A], [s_local], params).row(0)


def _soft(L_A, at, errors, masses, n_listed, P_g, m_c: int):
    """(L_APP, L_E) of each row from its candidate list, by one formula.

    The list is slot-major: ``masses`` (S, B) and ``errors`` (S, B, n_c), the
    listed error patterns over ranks, rank r of row b at flat index at[b, r] of
    (B, n_c).  The unexplored mass P_Lc is apportioned to each bit's flip
    probability by the prior q_i, so a saturated search (P_g = 1) reproduces
    exact coset marginals.  Slots past a row's ``n_listed`` hold zero masses.
    An empty list keeps the prior exactly (L_E = 0).
    """
    P_L = np.fromiter(map(math.fsum, zip(*masses.tolist())), float, len(L_A))[:, None]
    P_Lc = ((1.0 - P_g) * 2.0 ** (-m_c))[:, None]  # the kernel's P_g lies in [0, 1]
    P_tot = P_L + P_Lc
    P_Lc_q = P_Lc * np.exp(-np.logaddexp(0.0, L_A))  # P_Lc * P(bit = 1 | L_A)

    # a reduce over the outer slot axis adds in list order: the scalar decoder's rounding
    flip_mass = np.empty(L_A.shape)  # C order, for the flat scatter; put at the positions
    flip_mass.reshape(-1)[at] = np.add.reduce(masses[:, :, None] * errors, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # an empty list may have P_tot = 0
        p1 = (flip_mass + P_Lc_q) / P_tot
        L_APP = np.log(np.maximum(P_tot - flip_mass - P_Lc_q, 0.0))
        L_APP -= np.log(np.maximum(p1 * P_tot, 0.0))
        np.minimum(np.maximum(L_APP, -LLR_CLAMP, out=L_APP), LLR_CLAMP, out=L_APP)
    L_APP = np.where(n_listed[:, None] > 0, L_APP, L_A)
    return L_APP, L_APP - L_A

