import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgldpc import gf2
from qgldpc.channel import clamp_llr
from qgldpc.codes import ComponentCode
from qgldpc.orbgrand import rank_flip_table
from qgldpc.sogrand import (BlockOutput, SograndParams, _soft, decode_block,
                            estimate_missing_mass, sogrand_decode)

HAMMING = np.array([[1, 0, 1, 0, 1, 0, 1],
                    [0, 1, 1, 0, 0, 1, 1],
                    [0, 0, 0, 1, 1, 1, 1]], dtype=np.uint8)


def all_patterns(n):
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def brute_force_posteriors(H, L_A, s):
    """Exact syndrome-conditioned bit marginals and MAP pattern, by enumeration."""
    n = H.shape[1]
    pats = all_patterns(n)
    q1 = 1.0 / (1.0 + np.exp(L_A))  # P(bit = 1)
    log_mass = pats @ np.log(q1) + (1 - pats) @ np.log1p(-q1)
    consistent = np.all((pats @ H.T) % 2 == s, axis=1)
    mass = np.where(consistent, np.exp(log_mass), 0.0)
    total = mass.sum()
    if total == 0:
        return None, None
    p1 = (mass[:, None] * pats).sum(axis=0) / total
    map_pattern = pats[np.argmax(mass)]
    return p1, map_pattern


def soft_from_list(patterns, masses, P_g, m_c, L_A):
    """(L_APP, L_E, best pattern) of one row from a finalized candidate list,
    held as the kernel holds it: a zero-mass slot follows the list."""
    n = len(patterns)
    slots = np.zeros((1, n + 1, len(L_A)), dtype=np.uint8)
    slots[0, :n] = np.reshape(patterns, (n, len(L_A)))
    L_APP, L_E, best = _soft(np.asarray(L_A, dtype=float)[None], slots,
                             np.append(masses, 0.0)[None], np.array([n]), np.array([P_g]), m_c)
    return L_APP[0], L_E[0], best[0]


def saturated_params(n_c):
    return SograndParams(list_max=1 << n_c, query_budget=1 << n_c)


def loop_sogrand(component, L_A, s_local, params):
    """Reference SOGRAND on one local view: the package's per-check decoder.

    Returns (L_APP, L_E, best pattern, queries used, listed patterns, their
    masses, P_g)."""
    L_A = clamp_llr(np.asarray(L_A, dtype=float))
    n_c, m_c = component.n_c, component.m_c
    s_local = np.asarray(s_local, dtype=np.uint8) % 2
    hard = (L_A < 0).astype(np.uint8)
    abs_llr = np.abs(L_A)
    perm = np.lexsort((np.arange(n_c), abs_llr))
    q = np.exp(-np.logaddexp(0.0, abs_llr[perm]))
    flips = rank_flip_table(n_c, params.resolve_budget(n_c, m_c))
    deviations = np.empty_like(flips)
    deviations[:, perm] = flips
    syndrome = gf2.Syndrome(component.H)
    s_res = s_local ^ syndrome(hard)
    consistent = np.all(syndrome(deviations) == s_res, axis=1)
    log_q = np.log(q)
    log_1mq = np.log1p(-q)
    masses = np.exp(flips @ (log_q - log_1mq) + log_1mq.sum())

    listed = np.flatnonzero(consistent)[:params.list_max]
    patterns, listed_masses = list(hard ^ deviations[listed]), masses[listed].tolist()
    queries_used = flips.shape[0]
    if listed.size == params.list_max:
        queries_used = int(listed[-1]) + 1
    P_g = min(float(np.cumsum(masses[:queries_used])[-1]), 1.0)
    if not patterns:
        return L_A.copy(), np.zeros(n_c), hard, queries_used, [], [], P_g

    P_L = math.fsum(listed_masses)
    P_Lc = (1.0 - min(P_g, 1.0)) * 2.0 ** (-m_c)
    P_tot = P_L + P_Lc
    q_prior = np.exp(-np.logaddexp(0.0, L_A))
    flip_mass = np.zeros(n_c)
    for pattern, mass in zip(patterns, listed_masses):
        flip_mass += mass * pattern
    p1 = (flip_mass + P_Lc * q_prior) / P_tot
    with np.errstate(divide="ignore"):
        L_APP = clamp_llr(np.log(np.maximum(P_tot - flip_mass - P_Lc * q_prior, 0.0))
                          - np.log(np.maximum(p1 * P_tot, 0.0)))
    best = patterns[int(np.argmax(listed_masses))]
    return L_APP, L_APP - L_A, best, queries_used, patterns, listed_masses, P_g


@st.composite
def blocks(draw):
    """A random component, a block of B local views and a SOGRAND setting.

    LLRs are rounded to make ties in |L| and carry +-30 and +-inf entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_c = draw(st.integers(1, 10))
    m_c = draw(st.integers(0, n_c))
    H = rng.integers(0, 2, size=(m_c, n_c), dtype=np.uint8)
    B = draw(st.integers(1, 70))
    L = np.round(rng.normal(1.0, 4.0, size=(B, n_c)), draw(st.integers(0, 2)))
    extreme = rng.random((B, n_c)) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    L[extreme] = rng.choice([30.0, -30.0, np.inf, -np.inf], size=int(extreme.sum()))
    s = rng.integers(0, 2, size=(B, m_c), dtype=np.uint8)
    budget = draw(st.one_of(st.none(), st.integers(1, 1 << n_c)))
    params = SograndParams(list_max=draw(st.integers(1, 8)), query_budget=budget)
    return ComponentCode(H), L, s, params


class TestEstimateMissingMass:
    def test_fully_explored(self):
        assert estimate_missing_mass(1.0, 3) == 0.0

    def test_formula_value(self):
        assert estimate_missing_mass(0.9, 6) == pytest.approx(0.1 * 2 ** -6)

    def test_unconstrained_unexplored(self):
        assert estimate_missing_mass(0.0, 0) == 1.0

    def test_invalid_pg(self):
        with pytest.raises(ValueError):
            estimate_missing_mass(1.5, 2)


class TestSograndDecodeBasics:
    def test_trivial_component_hard_decision(self):
        comp = ComponentCode(np.zeros((0, 5), dtype=np.uint8))
        L = np.array([3.0, -2.0, 1.0, -0.5, 4.0])
        out = decode_block(comp, L[None], np.zeros((1, 0)), SograndParams(list_max=1)).row(0)
        assert out.n_listed > 0
        assert out.best_pattern.tolist() == [0, 1, 0, 1, 0]

    def test_hamming_weight_one_strong_priors(self):
        # the list must be large enough to hold the ties that precede the
        # weight-one pattern in the query schedule when all |L| are equal
        comp = ComponentCode(HAMMING)
        L = np.full(7, 6.0)
        for j in range(7):
            e = np.zeros(7, dtype=np.uint8)
            e[j] = 1
            s = (HAMMING @ e) % 2
            out = decode_block(comp, L[None], s[None], SograndParams(list_max=16)).row(0)
            assert out.n_listed > 0
            assert np.array_equal(out.best_pattern, e)

    def test_empty_list_neutral_extrinsic(self):
        # budget 1 queries only the hard decision; each row's syndrome misses it
        L = np.array([np.full(7, 2.0), [-2.0, 2.0, 2.0, -0.5, 2.0, 2.0, 2.0]])
        hard = (L < 0).astype(np.uint8)
        s = np.array([[1, 0, 0], [1, 1, 0]], dtype=np.uint8)
        assert ((hard @ HAMMING.T) % 2 != s).any(axis=1).all()
        out = decode_block(ComponentCode(HAMMING), L, s,
                           SograndParams(list_max=4, query_budget=1))
        # a zero check never meets syndrome 1: the search covers the space, P_g = 1
        full = decode_block(ComponentCode(np.zeros((1, 7), dtype=np.uint8)), L, [[1], [1]],
                            SograndParams(query_budget=1 << 7))
        assert full.P_g.tolist() == [1.0, 1.0]
        for out in (out, full):
            assert out.n_listed.tolist() == [0, 0]
            assert (out.L_E == 0.0).all()
            assert np.array_equal(out.L_APP, L)
            assert np.array_equal(out.best_pattern, hard)

    @pytest.mark.parametrize("s", [[[2, 0, 0, 0]], [[0.7, 0, 0, 0]], [[3, 0, 0, 0]],
                                   [[-1, 0, 0, 0]], [[np.nan, 0, 0, 0]]])
    def test_syndromes_must_be_bits(self, s):
        with pytest.raises(ValueError, match=r"shape \(1, 4\) must hold only 0s and 1s"):
            decode_block(ComponentCode(np.eye(4, dtype=np.uint8)), np.ones((1, 4)), s)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, bool])
    def test_bit_syndromes_decode_alike_in_any_dtype(self, dtype):
        comp = ComponentCode(HAMMING)
        L = np.random.default_rng(5).normal(0, 2, size=(8, 7))
        s = np.random.default_rng(6).integers(0, 2, size=(8, 3), dtype=np.uint8)
        ref, out = decode_block(comp, L, s), decode_block(comp, L, s.astype(dtype))
        for f in fields(BlockOutput):
            assert np.array_equal(getattr(out, f.name), getattr(ref, f.name))

    @given(st.integers(0, 5), st.integers(1, 12), st.integers(1, 9),
           st.one_of(st.none(), st.integers(1, 300)), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_listed_patterns_satisfy_local_syndrome(self, m_c, n_c, list_max, budget,
                                                   seed):
        # random components, consistent or not, including m_c = 0 and m_c = n_c
        rng = np.random.default_rng(seed)
        m_c = min(m_c, n_c)
        H = rng.integers(0, 2, size=(m_c, n_c), dtype=np.uint8)
        L = rng.normal(0, 3, size=n_c)
        s = rng.integers(0, 2, size=m_c, dtype=np.uint8)
        out = decode_block(ComponentCode(H), L[None], s[None],
                           SograndParams(list_max=list_max, query_budget=budget)).row(0)
        assert out.n_listed <= list_max
        for pat in out.patterns[:out.n_listed]:
            assert np.array_equal((H.astype(int) @ pat) % 2, s)

    def test_accounting_identity(self):
        rng = np.random.default_rng(2)
        comp = ComponentCode(HAMMING)
        for _ in range(50):
            L = rng.normal(0, 2, size=7)
            s = rng.integers(0, 2, size=3, dtype=np.uint8)
            out = decode_block(comp, L[None], s[None]).row(0)
            P_L = math.fsum(out.masses[:out.n_listed])
            P_Lc = estimate_missing_mass(out.P_g, comp.m_c)
            P_tot = P_L + P_Lc
            assert 0.0 <= P_L <= out.P_g + 1e-12
            assert out.P_g <= 1.0
            assert P_tot == pytest.approx(P_L + P_Lc)
            assert P_Lc == pytest.approx((1 - out.P_g) * 2.0 ** -comp.m_c)

    def test_pl_monotone_in_list(self):
        # a longer list extends the shorter one, so its fsum never drops
        rng = np.random.default_rng(6)
        comp = ComponentCode(HAMMING)
        for _ in range(20):
            L = rng.normal(0, 2, size=7)
            s = rng.integers(0, 2, size=3, dtype=np.uint8)
            prev = 0.0
            for list_max in range(1, 9):
                out = decode_block(comp, L[None], s[None], SograndParams(list_max=list_max)).row(0)
                P_L = math.fsum(out.masses[:out.n_listed])
                assert P_L >= prev
                prev = P_L

    def test_argmax_stable_under_mass_rescaling(self):
        rng = np.random.default_rng(3)
        pats = [rng.integers(0, 2, 5, dtype=np.uint8) for _ in range(4)]
        masses = [0.01, 0.2, 0.05, 0.11]
        L_A = rng.normal(0, 1, 5)
        best = soft_from_list(pats, masses, 0.7, 2, L_A)[2]
        rescaled = [17.3 * m for m in masses]
        assert np.array_equal(soft_from_list(pats, rescaled, 0.7, 2, L_A)[2], best)

    def test_config_validation(self):
        SograndParams(list_max=np.int64(2), query_budget=np.int32(8))  # numpy ints are counts
        for bad, name in ((dict(list_max=0), "list_max"), (dict(list_max=2.5), "list_max"),
                          (dict(list_max=True), "list_max"), (dict(query_budget=0), "query_budget"),
                          (dict(query_budget=2.5), "query_budget")):
            with pytest.raises(ValueError, match=name):
                SograndParams(**bad)

    def test_nan_input_rejected(self):
        comp = ComponentCode(HAMMING)
        L = np.full((2, 7), 1.0)
        L[1, 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            decode_block(comp, L, np.zeros((2, 3)))
        # +-inf is clamped, not rejected
        L[1, 3] = -np.inf
        assert decode_block(comp, L, np.zeros((2, 3))).L_APP.shape == (2, 7)

    def test_dimension_checks(self):
        comp = ComponentCode(HAMMING)
        with pytest.raises(ValueError):
            decode_block(comp, np.zeros(6)[None], np.zeros(3)[None])
        with pytest.raises(ValueError):
            decode_block(comp, np.zeros(7)[None], np.zeros(2)[None])

    def test_extrinsic_is_app_minus_input(self):
        rng = np.random.default_rng(4)
        comp = ComponentCode(HAMMING)
        for _ in range(20):
            L = np.clip(rng.normal(0, 3, size=7), -20, 20)
            e = rng.integers(0, 2, size=7, dtype=np.uint8)
            out = decode_block(comp, L[None], ((HAMMING @ e) % 2)[None]).row(0)
            assert np.allclose(out.L_E, out.L_APP - L)


class TestSaturationExactness:
    def test_matches_brute_force_marginals(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m_c = int(rng.integers(1, 5))
            n_c = int(rng.integers(m_c + 1, 11))
            H = rng.integers(0, 2, size=(m_c, n_c), dtype=np.uint8)
            L = np.clip(rng.normal(0, 3, size=n_c), -12, 12)
            e = rng.integers(0, 2, size=n_c, dtype=np.uint8)
            s = (H @ e) % 2
            p1_exact, map_exact = brute_force_posteriors(H, L, s)
            out = decode_block(ComponentCode(H), L[None], s[None], saturated_params(n_c)).row(0)
            p1_hat = 1.0 / (1.0 + np.exp(out.L_APP))
            assert np.allclose(p1_hat, p1_exact, atol=1e-9)
            # the reported best pattern has the same exact mass as the MAP one
            q1 = 1.0 / (1.0 + np.exp(L))
            lm = lambda w: float((w * np.log(q1) + (1 - w) * np.log1p(-q1)).sum())
            assert lm(out.best_pattern) == pytest.approx(lm(map_exact), abs=1e-9)

    def test_single_overwhelming_entry(self):
        L_APP, _, _ = soft_from_list([np.zeros(6, dtype=np.uint8)], [0.9], 0.999999, 3,
                                     np.full(6, 1.0))
        assert (L_APP > 5.0).all()


class TestBlockAgainstLoop:
    @given(blocks())
    @settings(max_examples=200, deadline=None)
    def test_block_matches_per_check_decoder_bit_for_bit(self, case):
        comp, L, s, params = case
        out = decode_block(comp, L, s, params)
        for b in range(L.shape[0]):
            L_APP, L_E, best, queries, patterns, masses, P_g = loop_sogrand(
                comp, L[b], s[b], params)
            n = len(patterns)
            assert np.array_equal(out.L_APP[b], L_APP)
            assert np.array_equal(out.L_E[b], L_E)
            assert np.array_equal(out.best_pattern[b], best)
            assert out.queries_used[b] == queries
            assert out.n_listed[b] == n
            assert np.array_equal(out.patterns[b, :n], np.reshape(patterns, (n, comp.n_c)))
            assert out.masses[b, :n].tolist() == masses
            assert out.P_g[b] == P_g

    @given(blocks())
    @settings(max_examples=50, deadline=None)
    def test_one_row_view_is_the_block_row(self, case):
        comp, L, s, params = case
        block = decode_block(comp, L, s, params)
        one = sogrand_decode(comp, L[0], s[0], params)
        for f in fields(BlockOutput):
            assert np.array_equal(getattr(one, f.name), getattr(block, f.name)[0]), f.name
        n = one.n_listed
        L_APP, L_E, _ = soft_from_list(one.patterns[:n], one.masses[:n], one.P_g, comp.m_c,
                                       clamp_llr(L[0]))
        assert np.array_equal(L_APP, one.L_APP)
        assert np.array_equal(L_E, one.L_E)

    @pytest.mark.parametrize("n_c, m_c, budget", [(12, 12, 300), (20, 15, 40), (80, 70, 30)])
    def test_many_checks_match_per_check_decoder(self, n_c, m_c, budget):
        # syndrome codes wider than one machine word are compared in groups
        rng = np.random.default_rng(n_c)
        comp = ComponentCode(rng.integers(0, 2, size=(m_c, n_c), dtype=np.uint8))
        # hard decisions a few weak bits away from the error patterns
        e = (rng.random((9, n_c)) < 0.05).astype(np.uint8)
        L = rng.uniform(3.0, 9.0, size=(9, n_c)) * (1 - 2.0 * e)
        L[:, :3] *= -0.1 * (1 + np.arange(3))
        s = gf2.Syndrome(comp.H)(e)
        params = SograndParams(list_max=3, query_budget=budget)
        out = decode_block(comp, L, s, params)
        assert out.n_listed.any()
        for b in range(L.shape[0]):
            L_APP, _, _, queries, patterns, masses, P_g = loop_sogrand(comp, L[b], s[b], params)
            assert np.array_equal(out.L_APP[b], L_APP)
            assert out.queries_used[b] == queries
            assert out.masses[b, :len(masses)].tolist() == masses

    @pytest.mark.parametrize("L_shape, s_shape", [
        ((7,), (1, 3)), ((2, 6), (2, 3)), ((2, 7), (2, 2)), ((2, 7), (3, 3)),
        ((2, 7), (3,)), ((1, 2, 7), (1, 2, 3))])
    def test_rejects_misshapen_block(self, L_shape, s_shape):
        with pytest.raises(ValueError):
            decode_block(ComponentCode(HAMMING), np.zeros(L_shape), np.zeros(s_shape))
