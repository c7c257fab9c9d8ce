import itertools
import math

import numpy as np
import pytest

from qgldpc import gf2
from qgldpc.osd import InconsistentSyndromeError, OsdConfig, osd_postprocess

HAMMING = np.array([[1, 0, 1, 0, 1, 0, 1],
                    [0, 1, 1, 0, 0, 1, 1],
                    [0, 0, 0, 1, 1, 1, 1]], dtype=np.uint8)


def brute_force_ml(H, s, q):
    """Most likely syndrome-consistent pattern, by full enumeration."""
    m, n = H.shape
    q = np.broadcast_to(np.asarray(q, float), (n,))
    log_flip = np.log(q) - np.log1p(-q)
    best_score, best_e = -np.inf, None
    for bits in itertools.product((0, 1), repeat=n):
        e = np.array(bits, dtype=np.uint8)
        if not np.array_equal(gf2.Syndrome(H)(e), s):
            continue
        score = float(log_flip[e == 1].sum())
        if score > best_score:
            best_score, best_e = score, e
    return best_e, best_score


def score_of(e, q):
    q = np.broadcast_to(np.asarray(q, float), e.shape)
    return float((np.log(q) - np.log1p(-q))[e == 1].sum())


class TestBasics:
    def test_zero_syndrome_confident_llrs(self):
        e = osd_postprocess(HAMMING, np.zeros(3), np.full(7, 5.0))
        assert not e.any()

    def test_order_zero_weight_one(self):
        cfg = OsdConfig(order_w=0, strategy="exhaustive_w")
        for j in range(7):
            err = np.zeros(7, dtype=np.uint8)
            err[j] = 1
            s = gf2.Syndrome(HAMMING)(err)
            soft = np.full(7, 4.0)
            soft[j] = -1.0  # iterative stage already suspects bit j
            e = osd_postprocess(HAMMING, s, soft, cfg)
            assert np.array_equal(e, err)

    def test_always_satisfies_syndrome(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m + 1, 10))
            H = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
            err = rng.integers(0, 2, size=n, dtype=np.uint8)
            s = gf2.Syndrome(H)(err)
            soft = rng.normal(0, 3, size=n)
            e = osd_postprocess(H, s, soft, channel_q=0.05)
            assert np.array_equal(gf2.Syndrome(H)(e), s)

    def test_inconsistent_syndrome_raises(self):
        H = np.array([[1, 1, 0], [1, 1, 0]], dtype=np.uint8)
        with pytest.raises(InconsistentSyndromeError):
            osd_postprocess(H, np.array([1, 0]), np.ones(3))

    def test_dimension_and_q_validation(self):
        with pytest.raises(ValueError):
            osd_postprocess(HAMMING, np.zeros(3), np.zeros(6))
        with pytest.raises(ValueError):
            osd_postprocess(HAMMING, np.zeros(3), np.zeros(7), channel_q=1.0)
        with pytest.raises(ValueError):
            OsdConfig(order_w=-1)
        with pytest.raises(ValueError):
            OsdConfig(strategy="bogus")


class TestAgainstBruteForceMl:
    def test_full_order_exhaustive_matches_ml_score(self):
        # sweeping all non-pivot bits visits a full coset traversal, so the
        # winner must tie the enumerated maximum-likelihood score exactly
        rng = np.random.default_rng(41)
        q = 0.04
        for _ in range(60):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m + 1, 10))
            H = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
            err = rng.integers(0, 2, size=n, dtype=np.uint8)
            s = gf2.Syndrome(H)(err)
            soft = rng.normal(0, 3, size=n)
            cfg = OsdConfig(order_w=n, strategy="exhaustive_w")
            e = osd_postprocess(H, s, soft, cfg, channel_q=q)
            _, ml_score = brute_force_ml(H, s, q)
            assert score_of(e, q) == pytest.approx(ml_score, abs=1e-9)

    def test_combination_sweep_never_beats_ml(self):
        rng = np.random.default_rng(43)
        q = 0.1
        for _ in range(60):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m + 1, 10))
            H = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
            err = rng.integers(0, 2, size=n, dtype=np.uint8)
            s = gf2.Syndrome(H)(err)
            soft = rng.normal(0, 3, size=n)
            e = osd_postprocess(H, s, soft, OsdConfig(order_w=4), channel_q=q)
            _, ml_score = brute_force_ml(H, s, q)
            assert score_of(e, q) <= ml_score + 1e-9


class TestCandidateBudget:
    def test_exhaustive_w_candidate_count(self, monkeypatch):
        from qgldpc import osd as osd_mod
        counter = {"n": 0}
        original = osd_mod._flip_sets

        def counting(n_free, free_order, cfg):
            for flips in original(n_free, free_order, cfg):
                counter["n"] += 1
                yield flips

        monkeypatch.setattr(osd_mod, "_flip_sets", counting)
        soft = np.linspace(-2, 2, 7)
        osd_postprocess(HAMMING, np.zeros(3), soft,
                        OsdConfig(order_w=3, strategy="exhaustive_w"))
        assert counter["n"] == 2 ** 3  # empty set plus all subsets of 3 bits

    def test_combination_sweep_candidate_count(self, monkeypatch):
        from qgldpc import osd as osd_mod
        counter = {"n": 0}
        original = osd_mod._flip_sets

        def counting(n_free, free_order, cfg):
            for flips in original(n_free, free_order, cfg):
                counter["n"] += 1
                yield flips

        monkeypatch.setattr(osd_mod, "_flip_sets", counting)
        soft = np.linspace(-2, 2, 7)
        osd_postprocess(HAMMING, np.zeros(3), soft, OsdConfig(order_w=3))
        n_free = 7 - 3  # rank of the Hamming matrix is 3
        assert counter["n"] == 1 + n_free + math.comb(3, 2)


class TestReliabilityOrdering:
    def test_reliable_bits_kept_when_order_zero(self):
        # a weight-one error on the least reliable bit: order-0 OSD keeps
        # every confident hard decision and solves only the pivots
        soft = np.array([9.0, 8.0, 7.0, 6.0, 5.0, 4.0, -0.5])
        err = np.zeros(7, dtype=np.uint8)
        err[6] = 1
        s = gf2.Syndrome(HAMMING)(err)
        e = osd_postprocess(HAMMING, s, soft,
                            OsdConfig(order_w=0, strategy="exhaustive_w"))
        assert np.array_equal(e, err)

    def test_improvement_over_base_solution(self):
        # sweeping can only improve the likelihood of the returned pattern
        rng = np.random.default_rng(47)
        q = 0.08
        for _ in range(30):
            err = rng.integers(0, 2, size=7, dtype=np.uint8)
            s = gf2.Syndrome(HAMMING)(err)
            soft = rng.normal(0, 1, size=7)
            e0 = osd_postprocess(HAMMING, s, soft,
                                 OsdConfig(order_w=0, strategy="exhaustive_w"),
                                 channel_q=q)
            e2 = osd_postprocess(HAMMING, s, soft,
                                 OsdConfig(order_w=4, strategy="exhaustive_w"),
                                 channel_q=q)
            assert score_of(e2, q) >= score_of(e0, q) - 1e-12
