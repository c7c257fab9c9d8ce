import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgldpc import gf2
from qgldpc.channel import LLR_CLAMP, clamp_llr
from qgldpc.codes import builtin_code
from qgldpc.gldpc import SideResult
from qgldpc.minsum import BpConfig, _minsum_rule, minsum_decode


def dense_minsum(H, L_ch, s, cfg: BpConfig) -> SideResult:
    """Reference min-sum on dense (m, n) masks: the package's first version."""
    H = np.asarray(H, dtype=np.uint8) % 2
    L_ch = np.asarray(L_ch, dtype=float)
    s = np.asarray(s, dtype=np.uint8) % 2
    m, n = H.shape
    mask = H == 1
    row_deg = mask.sum(axis=1)
    check_sign = np.where(s == 1, -1.0, 1.0)[:, None]

    v2c = np.where(mask, L_ch[None, :], 0.0)
    e_hat = (L_ch < 0).astype(np.uint8)
    app = L_ch.copy()
    for it in range(1, cfg.n_iter + 1):
        # per-row sign product and two smallest magnitudes, excluding self
        sgn = np.where(v2c < 0, -1.0, 1.0)
        sgn = np.where(mask, sgn, 1.0)
        row_sign = sgn.prod(axis=1, keepdims=True)
        mag = np.where(mask, np.abs(v2c), np.inf)
        min1_idx = np.argmin(mag, axis=1)
        min1 = mag[np.arange(m), min1_idx]
        mag_wo = mag.copy()
        mag_wo[np.arange(m), min1_idx] = np.inf
        min2 = mag_wo.min(axis=1)
        min_excl = np.where(
            np.arange(n)[None, :] == min1_idx[:, None], min2[:, None], min1[:, None])
        # degree-1 checks: min over the empty set, pinned to the clamp value
        min_excl = np.where(row_deg[:, None] <= 1, LLR_CLAMP, min_excl)
        min_excl = np.minimum(min_excl, LLR_CLAMP)
        c2v = np.where(mask, cfg.alpha * check_sign * row_sign * sgn * min_excl, 0.0)

        app = L_ch + c2v.sum(axis=0)
        e_hat = (app < 0).astype(np.uint8)
        v2c = np.where(mask, clamp_llr(app[None, :] - c2v), 0.0)
        if np.array_equal((H.astype(np.int64) @ e_hat) % 2, s):
            return SideResult(e_hat=e_hat, app=app, converged=True, iterations_used=it)
    return SideResult(e_hat=e_hat, app=app, converged=False, iterations_used=cfg.n_iter)


@st.composite
def minsum_inputs(draw):
    """Random H with all-zero and degree-one rows mixed in, LLRs and syndrome."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    H = (rng.random((m, n)) < draw(st.floats(0.1, 0.7))).astype(np.uint8)
    for r in range(m):
        kind = rng.integers(4)
        if kind == 0:
            H[r] = 0
        elif kind == 1:
            H[r] = 0
            H[r, rng.integers(n)] = 1
    L = np.round(rng.normal(1.0, 3.0, n), draw(st.integers(0, 3)))  # rounding makes ties
    s = rng.integers(0, 2, m, dtype=np.uint8)
    cfg = BpConfig(alpha=draw(st.sampled_from([0.5, 0.625, 0.8, 1.0])),
                   n_iter=draw(st.integers(1, 25)))
    return H, L, s, cfg


@st.composite
def tied_minsum_inputs(draw):
    """Tie-heavy inputs: LLRs on a 0.5 grid with +0.0 and -0.0, and a degree-1 check."""
    H, _, s, cfg = draw(minsum_inputs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row = rng.integers(len(H))
    H[row] = 0
    H[row, rng.integers(H.shape[1])] = 1  # a degree-1 check
    L = rng.choice([-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5], size=H.shape[1])
    cfg = BpConfig(alpha=draw(st.sampled_from([0.5, 1.0])), n_iter=cfg.n_iter)
    return H, L, s, cfg


HAMMING = np.array([[1, 0, 1, 0, 1, 0, 1],
                    [0, 1, 1, 0, 0, 1, 1],
                    [0, 0, 0, 1, 1, 1, 1]], dtype=np.uint8)


class TestSingleCheckHandExample:
    """One parity check over three bits, worked by hand.

    With s = 1 the check sends -alpha * min of the other magnitudes times
    their sign product.  For L_ch = (4, 3, 1), alpha = 0.625:
    c2v = (-0.625, -0.625, -1.875), app = (3.375, 2.375, -0.875); the hard
    decision (0, 0, 1) satisfies the check, so it converges in one iteration.
    """

    def test_app_values(self):
        H = np.ones((1, 3), dtype=np.uint8)
        out = minsum_decode(H, np.array([4.0, 3.0, 1.0]), np.array([1]))
        assert out.converged and out.iterations_used == 1
        assert out.app == pytest.approx([3.375, 2.375, -0.875])
        assert out.e_hat.tolist() == [0, 0, 1]

    def test_zero_syndrome_reinforces(self):
        H = np.ones((1, 3), dtype=np.uint8)
        out = minsum_decode(H, np.array([4.0, 3.0, 1.0]), np.array([0]))
        assert out.converged
        assert out.app == pytest.approx([4.625, 3.625, 2.875])

    def test_alpha_one_exact_min(self):
        H = np.ones((1, 3), dtype=np.uint8)
        out = minsum_decode(H, np.array([4.0, 3.0, 1.0]), np.array([1]),
                            BpConfig(alpha=1.0))
        assert out.app == pytest.approx([3.0, 2.0, -2.0])


class TestMinsumDecode:
    def test_zero_syndrome_zero_pattern(self):
        out = minsum_decode(HAMMING, np.full(7, 3.0), np.zeros(3))
        assert out.converged and not out.e_hat.any()

    def test_weight_one_sweep_on_cycle_free_code(self):
        # no two bits share two checks, so message passing is exact here
        H = np.array([[1, 1, 0, 0, 0],
                      [0, 0, 1, 1, 0],
                      [0, 1, 0, 1, 1]], dtype=np.uint8)
        for j in range(5):
            e = np.zeros(5, dtype=np.uint8)
            e[j] = 1
            s = gf2.Syndrome(H)(e)
            out = minsum_decode(H, np.full(5, 4.0), s)
            assert out.converged
            assert np.array_equal(out.e_hat, e)

    def test_soundness_on_convergence(self):
        rng = np.random.default_rng(29)
        code = builtin_code("toy-gldpc")
        H = code.h_x
        for _ in range(50):
            e = (rng.random(code.n) < 0.08).astype(np.uint8)
            s = gf2.Syndrome(H)(e)
            out = minsum_decode(H, np.full(code.n, 3.0), s)
            if out.converged:
                assert np.array_equal(gf2.Syndrome(H)(out.e_hat), s)

    def test_degree_one_check_pins_bit(self):
        H = np.array([[1, 0, 0], [1, 1, 1]], dtype=np.uint8)
        out = minsum_decode(H, np.array([1.0, 2.0, 2.0]), np.array([1, 1]))
        assert out.converged
        assert out.e_hat.tolist() == [1, 0, 0]

    def test_iteration_budget(self):
        # an unsatisfiable system: two identical checks with opposite syndromes
        H = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        out = minsum_decode(H, np.array([1.0, 1.0]), np.array([0, 1]),
                            BpConfig(n_iter=5))
        assert not out.converged
        assert out.iterations_used == 5

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(31)
        L = rng.normal(0, 2, size=7)
        e = rng.integers(0, 2, size=7, dtype=np.uint8)
        s = gf2.Syndrome(HAMMING)(e)
        perm = [2, 0, 1]
        a = minsum_decode(HAMMING, L, s)
        b = minsum_decode(HAMMING[perm], L, s[perm])
        assert np.array_equal(a.e_hat, b.e_hat)
        assert np.allclose(a.app, b.app)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minsum_decode(HAMMING, np.zeros(6), np.zeros(3))
        with pytest.raises(ValueError):
            minsum_decode(HAMMING, np.zeros(7), np.zeros(4))
        with pytest.raises(ValueError):
            minsum_decode(HAMMING, np.zeros(7), np.zeros(2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BpConfig(alpha=0.0)
        with pytest.raises(ValueError):
            BpConfig(alpha=1.5)
        with pytest.raises(ValueError):
            BpConfig(n_iter=0)
        for n_iter in (2.5, True, "3"):
            with pytest.raises(ValueError, match="n_iter"):
                BpConfig(n_iter=n_iter)
        assert BpConfig(n_iter=np.int64(3)).n_iter == 3

    def test_nan_prior_rejected(self):
        # a NaN prior once "converged" after one iteration with a NaN in app
        code = builtin_code("toric")
        L = np.full(code.n, 3.0)
        L[0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            minsum_decode(code.h_x, L, np.zeros(code.h_x.shape[0]))
        L[0] = np.inf  # clamped, not rejected
        assert minsum_decode(code.h_x, L, np.zeros(code.h_x.shape[0])).converged


    @pytest.mark.parametrize("value", [2, 0.6, -1])
    def test_syndrome_must_be_bits(self, value):
        # a syndrome of 2s once decoded as zeros and reported convergence
        H = builtin_code("toy-gldpc").h_x
        with pytest.raises(ValueError, match=rf"shape \(1, {H.shape[0]}\) must hold only"):
            minsum_decode(H, np.full(H.shape[1], 2.0), np.full(H.shape[0], value))


class TestAgainstDenseReference:
    @given(minsum_inputs())
    @settings(max_examples=300, deadline=None)
    def test_edge_indexed_matches_dense_bit_for_bit(self, inputs):
        H, L, s, cfg = inputs
        ref = dense_minsum(H, L, s, cfg)
        op = gf2.Syndrome(H)
        # a matrix, an operator, and the same operator again (cached edge block)
        for got in (minsum_decode(H, L, s, cfg), minsum_decode(op, L, s, cfg),
                    minsum_decode(op, L, s, cfg)):
            assert np.array_equal(got.e_hat, ref.e_hat)
            assert np.array_equal(got.app, ref.app)
            assert got.converged == ref.converged
            assert got.iterations_used == ref.iterations_used

    @given(tied_minsum_inputs())
    @settings(max_examples=200, deadline=None)
    def test_ties_and_signed_zeros_match_dense(self, inputs):
        H, L, s, cfg = inputs
        ref = dense_minsum(H, L, s, cfg)
        got = minsum_decode(H, L, s, cfg)
        assert np.array_equal(got.app.view(np.uint64), ref.app.view(np.uint64))  # sign of 0 too
        assert np.array_equal(got.e_hat, ref.e_hat)
        assert (got.converged, got.iterations_used) == (ref.converged, ref.iterations_used)

    def test_edge_block_built_once_per_operator(self):
        code = builtin_code("toy-gldpc")
        op = code.x_graph.syndrome
        rng = np.random.default_rng(8)
        minsum_decode(op, np.full(code.n, 3.0), np.zeros(op.H.shape[0]))
        misses = _minsum_rule.cache_info().misses
        for _ in range(5):
            e = (rng.random(code.n) < 0.1).astype(np.uint8)
            out = minsum_decode(op, np.full(code.n, 2.0), op(e))
            assert out.e_hat.shape == (code.n,)
        assert _minsum_rule.cache_info().misses == misses
