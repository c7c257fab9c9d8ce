import itertools
import math

import numpy as np
import pytest

from qgldpc.codes import ComponentCode
from qgldpc.orbgrand import RankedInput, distinct_part_subsets, rank_flip_table
from qgldpc.sogrand import SograndParams, sogrand_decode


def full_sequence(n):
    return list(distinct_part_subsets(n))


def schedule(L):
    """The full query schedule for soft input L, as deviations over positions."""
    n = len(L)
    ranked = RankedInput.from_llr(np.asarray(L, dtype=float))
    flips = rank_flip_table(n, 1 << n)
    patterns = np.zeros_like(flips)
    patterns[:, ranked.perm] = flips
    return patterns


def probability(L, pattern):
    """Likelihood of a deviation under flip probabilities 1/(1+e^|L|)."""
    q = 1.0 / (1.0 + np.exp(np.abs(L)))
    return math.exp(np.where(pattern == 1, np.log(q), np.log1p(-q)).sum())


def schedule_masses(q):
    """SOGRAND's mass of every pattern of an unconstrained component.

    With no parity rows every query is consistent, so a full list and
    budget return the whole schedule with the masses sogrand computes.
    """
    n = len(q)
    L = np.log((1.0 - q) / q)
    out = sogrand_decode(ComponentCode(np.zeros((0, n), dtype=np.uint8)), L,
                         np.zeros(0), SograndParams(list_max=1 << n, query_budget=1 << n))
    return {tuple(p.tolist()): m for p, m in zip(out.cand.patterns, out.cand.masses)}


class TestSchedule:
    def test_n3_reference_sequence(self):
        seq = full_sequence(3)
        assert seq == [(), (1,), (2,), (1, 2), (3,), (1, 3), (2, 3), (1, 2, 3)]
        assert [sum(s) for s in seq] == [0, 1, 2, 3, 3, 4, 5, 6]

    def test_first_is_empty(self):
        for n in (1, 5, 12):
            assert full_sequence(n)[0] == ()

    def test_completeness_no_repeats(self):
        for n in range(1, 13):
            seq = full_sequence(n)
            assert len(seq) == 1 << n
            assert len(set(seq)) == 1 << n
            universe = set()
            for size in range(n + 1):
                universe.update(itertools.combinations(range(1, n + 1), size))
            assert set(seq) == universe

    def test_weight_monotone(self):
        for n in (4, 8, 12):
            weights = [sum(s) for s in full_sequence(n)]
            assert all(a <= b for a, b in zip(weights, weights[1:]))

    def test_flip_table_matches_stream(self):
        table = rank_flip_table(6, 40)
        for row, ranks in zip(table, distinct_part_subsets(6)):
            assert set(np.flatnonzero(row) + 1) == set(ranks)


class TestGenerator:
    """The schedule mapped to positions by the reliability ranking."""

    def test_second_query_flips_least_reliable(self):
        pats = schedule([5.0, -0.5, 3.0])
        assert not pats[0].any()
        assert pats[1].tolist() == [0, 1, 0]  # position of smallest |L|

    def test_order_depends_on_magnitudes_not_signs(self):
        L = np.array([2.0, -1.0, 0.5, -3.0])
        assert np.array_equal(schedule(L), schedule(np.abs(L)))

    def test_rank_ties_broken_by_position(self):
        assert schedule([1.0, 1.0, 1.0])[1].tolist() == [1, 0, 0]

    def test_exhaustion_returns_none(self):
        stream = distinct_part_subsets(2)
        for _ in range(4):
            assert next(stream, None) is not None
        assert next(stream, None) is None
        assert rank_flip_table(2, 10).shape == (4, 2)

    def test_pattern_sets_permuted_position(self):
        L = np.array([4.0, 0.25, 2.0, 1.0])
        # ranks: pos1 (0.25), pos3 (1.0), pos2 (2.0), pos0 (4.0)
        seq = {tuple(np.flatnonzero(f) + 1): p.tolist()
               for f, p in zip(rank_flip_table(4, 16), schedule(L))}
        assert seq[(1,)] == [0, 1, 0, 0]
        assert seq[(2,)] == [0, 0, 0, 1]
        assert seq[(4,)] == [1, 0, 0, 0]


class TestPatternProbability:
    """The pattern masses sogrand_decode assigns to the schedule."""

    def test_single_flip_product(self):
        q = np.array([0.1, 0.2, 0.3])
        assert schedule_masses(q)[(1, 0, 0)] == pytest.approx(0.1 * 0.8 * 0.7)

    def test_no_flip(self):
        q = np.array([0.1, 0.2, 0.3])
        assert schedule_masses(q)[(0, 0, 0)] == pytest.approx(0.9 * 0.8 * 0.7)

    def test_total_probability_sums_to_one(self):
        rng = np.random.default_rng(8)
        for n in (4, 9, 12):
            masses = schedule_masses(rng.uniform(0.01, 0.49, size=n))
            assert len(masses) == 1 << n
            assert math.fsum(masses.values()) == pytest.approx(1.0, abs=1e-9)


class TestLikelihoodOrder:
    def test_linear_ramp_reliabilities_give_exact_likelihood_order(self):
        # |L| proportional to rank makes log-probability an affine function
        # of the logistic weight, so the schedule is exactly likelihood order
        n = 8
        L = 0.7 * np.arange(1, n + 1)
        probs = [probability(L, p) for p in schedule(L)]
        assert all(a >= b - 1e-15 for a, b in zip(probs, probs[1:]))

    def test_empty_pattern_always_most_probable(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            L = rng.uniform(0.2, 6.0, size=7)
            pats = schedule(L)
            first = probability(L, pats[0])
            assert first >= max(probability(L, p) for p in pats[1:])
