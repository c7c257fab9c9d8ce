import itertools
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from qgldpc import gf2
from qgldpc.codes import _toric
from qgldpc.minsum import BpConfig, minsum_decode
from qgldpc.osd import InconsistentSyndromeError, OsdConfig, _flip_sets, osd_postprocess

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


def loop_flip_sets(n_free, free_order, cfg):
    """Reference candidate generator of `loop_osd`: flip sets as position tuples."""
    yield ()
    if cfg.strategy == "exhaustive_w":
        w = min(cfg.order_w, n_free)
        sweep = free_order[:w]
        for size in range(1, w + 1):
            for combo in itertools.combinations(range(w), size):
                yield tuple(sweep[list(combo)])
    else:
        for pos in free_order:
            yield (int(pos),)
        w = min(cfg.order_w, n_free)
        for a, b in itertools.combinations(range(w), 2):
            yield (int(free_order[a]), int(free_order[b]))


def loop_osd(H, s, soft_llr, cfg, channel_q):
    """Reference OSD, the package's first version: one candidate per loop pass,
    each scored by the sum of its bits' log-odds, not by its weight."""
    H = np.asarray(H, dtype=np.uint8) % 2
    s = np.asarray(s, dtype=np.uint8) % 2
    n = H.shape[1]
    q = np.full(n, channel_q, dtype=float)
    reliability = np.abs(soft_llr)
    hard = (soft_llr < 0).astype(np.uint8)
    order = np.lexsort((np.arange(n), -reliability))
    # the syndrome column, visited last, carries the reduced right-hand side
    elim = gf2.row_reduce(np.column_stack([H, s]), column_order=[*order, n])
    pivots = elim.pivots
    assert n not in pivots
    free = np.array([c for c in order if c not in set(pivots.tolist())], dtype=np.intp)
    free_lsr = free[np.argsort(reliability[free], kind="stable")]
    T_s = elim.reduced[:elim.rank, n].astype(np.int64)
    R_free = elim.reduced[:elim.rank][:, free].astype(np.int64)
    log_flip = np.log(q) - np.log1p(-q)
    free_index = {int(pos): i for i, pos in enumerate(free)}
    best = None
    for flips in loop_flip_sets(free.size, free_lsr, cfg):
        fill = hard[free].copy()
        for pos in flips:
            fill[free_index[pos]] ^= 1
        e = np.zeros(n, dtype=np.uint8)
        e[free] = fill
        e[pivots] = (T_s + R_free @ fill) % 2
        assert np.array_equal(gf2.Syndrome(H)(e), s)
        score = float(log_flip[e == 1].sum())
        key = (-score, int(e.sum()), tuple(e.tolist()))
        if best is None or key < best[0]:
            best = (key, e)
    return best[1]


def score_of(e, q):
    q = np.full(e.shape, q, dtype=float)
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

    @pytest.mark.parametrize("channel_q", [np.nan, np.inf, np.full(7, 0.1)],
                             ids=["nan", "inf", "per-bit"])
    def test_channel_q_is_one_probability(self, channel_q):
        with pytest.raises(ValueError, match="channel_q"):
            osd_postprocess(HAMMING, np.zeros(3), np.ones(7), channel_q=channel_q)

    @pytest.mark.parametrize("value", [2, 0.6, -1])
    def test_syndrome_must_be_bits(self, value):
        with pytest.raises(ValueError, match=r"shape \(3,\) must hold only 0s and 1s"):
            osd_postprocess(HAMMING, np.full(3, value), np.ones(7))

    def test_dimension_and_q_validation(self):
        with pytest.raises(ValueError):
            osd_postprocess(HAMMING, np.zeros(3), np.zeros(6))
        with pytest.raises(ValueError):
            osd_postprocess(HAMMING, np.zeros(3), np.zeros(7), channel_q=1.0)
        with pytest.raises(ValueError):
            OsdConfig(order_w=-1)
        for order_w in (2.5, True):
            with pytest.raises(ValueError, match="order_w"):
                OsdConfig(order_w=order_w)
        with pytest.raises(ValueError):
            OsdConfig(strategy="bogus")


@st.composite
def osd_inputs(draw):
    """Random H (rank-deficient, zero columns), consistent s, tied soft LLRs."""
    # n past 8, where a sum over a masked row and one over a full row
    # group their terms differently and can round differently
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 14))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    H = (rng.random((m, n)) < draw(st.sampled_from([0.2, 0.5]))).astype(np.uint8)
    if draw(st.booleans()):
        H[-1] = H[0]  # a repeated row
    s = gf2.Syndrome(H)(rng.integers(0, 2, size=n, dtype=np.uint8))
    # few distinct magnitudes, so reliability ties are common
    soft = rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0], size=n)
    # past 1/2 the heaviest candidate is the most likely; at 1/2 all tie
    q = float(draw(st.sampled_from([0.01, 0.1, 0.3, 0.5, 0.7])))
    cfg = OsdConfig(order_w=draw(st.integers(0, n)),
                    strategy=draw(st.sampled_from(["combination_sweep", "exhaustive_w"])))
    return H, s, soft, cfg, q


class TestAgainstLoopOsd:
    @given(osd_inputs())
    @settings(max_examples=400, deadline=None)
    def test_identical_pattern(self, case):
        H, s, soft, cfg, q = case
        e = osd_postprocess(H, s, soft, cfg, channel_q=q)
        expected = loop_osd(H, s, soft, cfg, q)
        assert e.dtype == np.uint8
        assert np.array_equal(e, expected)

    @pytest.mark.parametrize("cfg, L, q, p_err", [
        (OsdConfig(), 12, 0.04, 0.06), (OsdConfig(5, "exhaustive_w"), 12, 0.04, 0.06),
        # toric-8 at the harness's per-side prior q = 2p/3, p = 0.05
        (OsdConfig(), 8, 2 * 0.05 / 3, 0.05), (OsdConfig(5, "exhaustive_w"), 8, 2 * 0.05 / 3, 0.05),
    ], ids=["combination_sweep", "exhaustive_w",
            "combination_sweep-toric8", "exhaustive_w-toric8"])
    def test_identical_on_failed_toric_decodes(self, cfg, L, q, p_err):
        # many equal-weight candidates: the tie-break and rounding decide
        code = _toric(L)
        llr = np.full(code.n, math.log((1 - q) / q))
        rng = np.random.default_rng(8)
        for _ in range(60):
            err = (rng.random(code.n) < p_err).astype(np.uint8)
            s = code.x_graph.syndrome(err)
            soft = minsum_decode(code.h_x, llr, s, BpConfig(n_iter=8)).app
            assert np.array_equal(osd_postprocess(code.h_x, s, soft, cfg, channel_q=q),
                                  loop_osd(code.h_x, s, soft, cfg, q))

    @given(osd_inputs(), st.sampled_from(["float", "0-d", "numpy scalar"]))
    @settings(max_examples=150, deadline=None)
    def test_scalar_q_in_any_form(self, case, form):
        # every bit scores the same, so candidates are scored by their weight;
        # the per-row loop of loop_osd must agree whatever form q takes
        H, s, soft, cfg, _ = case
        q = 0.1
        channel_q = {"float": q, "0-d": np.array(q), "numpy scalar": np.float64(q)}[form]
        assert np.array_equal(osd_postprocess(H, s, soft, cfg, channel_q=channel_q),
                              loop_osd(H, s, soft, cfg, q))


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
    def test_exhaustive_w_candidate_count(self):
        flips = _flip_sets(4, OsdConfig(order_w=3, strategy="exhaustive_w"))
        assert flips.shape[0] == 2 ** 3  # empty set plus all subsets of 3 bits

    def test_combination_sweep_candidate_count(self):
        n_free = 7 - 3  # rank of the Hamming matrix is 3
        flips = _flip_sets(n_free, OsdConfig(order_w=3))
        assert flips.shape[0] == 1 + n_free + math.comb(3, 2)


    def test_flip_index_cached_and_read_only(self):
        cfg = OsdConfig(order_w=3)
        flips = _flip_sets(6, cfg)
        assert _flip_sets(6, cfg) is flips
        with pytest.raises(ValueError):
            flips[0, 0] = 1


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
