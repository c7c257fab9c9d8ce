from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgldpc import gf2
from qgldpc.channel import LLR_CLAMP, DepolarizingParams, clamp_llr, make_priors
from qgldpc.codes import ComponentCode, GldpcCode, TannerGraph, builtin_code
from qgldpc.gldpc import SideResult, decode_correlated_trials, decode_independent_trials, flood
from qgldpc.minsum import BpConfig, _edges, _minsum_rule, minsum_decode, minsum_side
from test_gldpc import count_fusions_and_tests, result_bytes


def dense_c2v(H, v2c, s, alpha: float) -> np.ndarray:
    """Check messages of min-sum on dense (m, n) masks, zero off the edges of H:
    the check update of the package's first version."""
    mask = H == 1
    m, n = H.shape
    row_deg = mask.sum(axis=1)
    check_sign = np.where(s == 1, -1.0, 1.0)[:, None]
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
    return np.where(mask, alpha * check_sign * row_sign * sgn * min_excl, 0.0)


def dense_minsum(H, L_ch, s, cfg: BpConfig) -> SideResult:
    """Reference min-sum on dense (m, n) masks: the package's first version."""
    H = np.asarray(H, dtype=np.uint8) % 2
    L_ch = np.asarray(L_ch, dtype=float)
    s = np.asarray(s, dtype=np.uint8) % 2
    mask = H == 1

    v2c = np.where(mask, L_ch[None, :], 0.0)
    e_hat = (L_ch < 0).astype(np.uint8)
    app = L_ch.copy()
    for it in range(1, cfg.n_iter + 1):
        c2v = dense_c2v(H, v2c, s, cfg.alpha)
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


@st.composite
def rule_inputs(draw):
    """One rule call: an irregular H from ``minsum_inputs`` (degree-0 and degree-1 checks
    mixed in), alpha, and the messages and syndromes of A trials of k copies of H side
    by side.  Messages are tie-heavy, with +-0, values past the clamp and +-inf."""
    H, _, _, cfg = draw(minsum_inputs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, k = draw(st.integers(0, 3)), draw(st.integers(1, 2))
    grid = [-np.inf, -45.0, -1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 45.0, np.inf]
    v2c = rng.choice(grid, size=(A, k * int(H.sum())))
    s = rng.integers(0, 2, (A, k * len(H)), dtype=np.uint8)
    return H, v2c, s, cfg.alpha


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

    def test_no_trials_of_a_check_free_side(self):
        # an empty edge block still reshapes, by its size: (0, 0) messages in and out
        side = minsum_side(gf2.Syndrome(np.zeros((0, 4))), np.zeros((0, 0), np.uint8), 1.0)
        assert side.rule(np.zeros((0, 0)), side.s).shape == (0, 0)
        out = flood(side, np.ones(4), 5)
        assert out.e_hat.shape == (0, 4) and out.iterations_used.shape == (0,)

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


def operator_decode(op: gf2.Syndrome, L_ch, s, cfg: BpConfig = BpConfig()) -> SideResult:
    """One trial of min-sum on the edges of an operator's matrix."""
    return flood(minsum_side(op, np.asarray(s)[None], cfg.alpha), L_ch, cfg.n_iter).row(0)


class TestAgainstDenseReference:
    @given(minsum_inputs())
    @settings(max_examples=300, deadline=None)
    def test_edge_indexed_matches_dense_bit_for_bit(self, inputs):
        H, L, s, cfg = inputs
        ref = dense_minsum(H, L, s, cfg)
        op = gf2.Syndrome(H)
        # a matrix, an operator, and the same operator again (cached edge block)
        for got in (minsum_decode(H, L, s, cfg), operator_decode(op, L, s, cfg),
                    operator_decode(op, L, s, cfg)):
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

    @given(rule_inputs())
    @settings(max_examples=300, deadline=None)
    def test_rule_matches_dense_check_update(self, inputs):
        # every row and copy of one rule call is the dense check update of its
        # own messages and syndrome, bit for bit (the sign of zero too)
        H, v2c, s, alpha = inputs
        rule = minsum_side(gf2.Syndrome(H), s[:, :0], alpha).rule
        got = rule(v2c, s)
        assert got.shape == v2c.shape
        rows, cols = np.nonzero(H)
        E, m = rows.size, len(H)
        for a in range(len(v2c)):
            for c in range(s.shape[1] // m):
                dense = np.zeros(H.shape)
                dense[rows, cols] = v2c[a, c * E:(c + 1) * E]
                want = dense_c2v(H, dense, s[a, c * m:(c + 1) * m], alpha)[rows, cols]
                assert got[a, c * E:(c + 1) * E].tobytes() == want.tobytes(), (a, c)

    def test_edge_block_built_once_per_operator(self):
        code = builtin_code("toy-gldpc")
        op = code.x_graph.syndrome
        rng = np.random.default_rng(8)
        operator_decode(op, np.full(code.n, 3.0), np.zeros(op.H.shape[0]))
        misses = _edges.cache_info().misses, _minsum_rule.cache_info().misses
        for _ in range(5):
            e = (rng.random(code.n) < 0.1).astype(np.uint8)
            out = operator_decode(op, np.full(code.n, 2.0), op(e))
            assert out.e_hat.shape == (code.n,)
        assert (_edges.cache_info().misses, _minsum_rule.cache_info().misses) == misses

    def test_bit_matrix_decodes_reuse_one_operator(self):
        # minsum_decode takes a bit matrix: calls on one H (even a fresh copy of it)
        # share one operator, so its edge list is built once
        H = builtin_code("toric-8").h_x
        hits = _edges.cache_info().hits
        for _ in range(3):
            minsum_decode(H.copy(), np.full(H.shape[1], 3.0), np.zeros(len(H)))
        assert _edges.cache_info().hits - hits >= 2

    def test_rule_is_one_object_per_operator_and_alpha(self):
        op = builtin_code("toy-gldpc").x_graph.syndrome
        s = np.zeros((3, op.H.shape[0]), np.uint8)
        rule = minsum_side(op, s, 0.625).rule
        assert minsum_side(op, s[:1], 0.625).rule is rule
        assert minsum_side(op, s, 0.5).rule is not rule

    def test_toric_graphs_share_one_rule_and_its_calls(self):
        # the X and Z graphs of a toric code are two operators with one check-degree
        # layout, so one rule: an independent decode calls it once per iteration
        # for both sides, as long as either side runs
        code = builtin_code("toric-4")
        assert code.x_graph.syndrome is not code.z_graph.syndrome
        s = np.zeros((1, code.n // 2), np.uint8)
        assert (minsum_side(code.x_graph.syndrome, s, 0.625).rule
                is minsum_side(code.z_graph.syndrome, s, 0.625).rule)
        calls, counted = [], {}

        def counting(rule):
            def wrapped(v2c, s_active):
                calls.append(len(v2c))
                return rule(v2c, s_active)
            return wrapped

        def side(g, s):  # one counting wrapper per rule, so that equal rules stay equal
            sd = minsum_side(g.syndrome, s, 0.625)
            if sd.rule not in counted:
                counted[sd.rule] = counting(sd.rule)
            return replace(sd, rule=counted[sd.rule])
        rng = np.random.default_rng(12)
        priors = make_priors(DepolarizingParams(0.1), code.n)
        iterations = set()
        for _ in range(40):
            e_x, e_z = (rng.random((2, 1, code.n)) < 0.07).astype(np.uint8)
            calls.clear()
            r = decode_independent_trials(code, priors, code.z_graph.syndrome(e_x),
                                          code.x_graph.syndrome(e_z), 100, side)
            sides = (int(r.z_side.iterations_used[0]), int(r.x_side.iterations_used[0]))
            assert len(calls) == max(sides), sides
            iterations.add(sides)
        assert len(counted) == 1
        assert any(z != x for z, x in iterations)  # the sides did not always stop together

    def test_toric_graphs_stack_and_decode_as_each_alone(self):
        # the chunk twin of the test above: the two toric graphs have one shape but
        # different supports; stacked in one block, each side decodes as it does
        # alone, with one fusion and one syndrome test per iteration for both
        code = builtin_code("toric-4")
        hx, hz = code.x_graph.syndrome, code.z_graph.syndrome
        assert hx.H.shape == hz.H.shape and not np.array_equal(hx.support, hz.support)
        priors = make_priors(DepolarizingParams(0.1), code.n)
        e_x, e_z = (np.random.default_rng(13).random((2, 40, code.n)) < 0.07).astype(np.uint8)
        z = minsum_side(hx, hx(e_z), 0.625)
        x = minsum_side(hz, hz(e_x), 0.625)
        with pytest.MonkeyPatch.context() as patch:
            counts = count_fusions_and_tests(patch)
            r = decode_independent_trials(code, priors, x.s, z.s, 100, lambda g, s: (
                z if g is code.x_graph else x))
        apart = [flood(z, priors.llr_z, 100), flood(x, priors.llr_x, 100)]
        assert result_bytes([r.z_side, r.x_side]) == result_bytes(apart)
        assert counts["fusion"] == counts["test"] == r.iterations_used.max()
        assert (r.z_side.iterations_used != r.x_side.iterations_used).any()

    @pytest.mark.parametrize("decode", [decode_independent_trials, decode_correlated_trials])
    def test_one_operator_for_both_graphs(self, decode):
        # one graph object as X and Z graph, or two equal graphs, give both sides one
        # rule (a rule per check-degree layout), which a correlated decode calls once
        # on both graphs' edges side by side.  The oracle of an independent decode is
        # dense min-sum on each side and trial; that of a correlated decode is the
        # paired side with the graphs' rules apart (a distinct wrapper on the Z
        # graph's makes ``_paired`` call each graph's rule on its own edges)
        spc = ComponentCode(np.ones((1, 4), dtype=np.uint8))
        graph, twin = (TannerGraph(8, [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 4, 5],
                                       [2, 3, 6, 7]], spc) for _ in range(2))
        rng = np.random.default_rng(3)
        s_x, s_z = (graph.syndrome(rng.random((20, 8)) < 0.2) for _ in range(2))
        priors = make_priors(DepolarizingParams(0.1), 8)

        def side(g, s):
            return minsum_side(g.syndrome, s, 0.625)
        shared, twins = (decode(GldpcCode("cube", 8, 2, 2, graph, z), priors, s_x, s_z, 10, side)
                         for z in (graph, twin))
        assert shared.converged.any() and not shared.converged.all()
        fields = ("e_hat", "app", "converged", "iterations_used")
        if decode is decode_correlated_trials:
            def apart(g, s):
                sd = side(g, s)
                return sd if g is graph else replace(sd, rule=lambda *a: sd.rule(*a))
            want = decode(GldpcCode("cube", 8, 2, 2, graph, twin), priors, s_x, s_z, 10, apart)
            want = {name: [getattr(getattr(want, name), f) for f in fields]
                    for name in ("x_side", "z_side")}
        else:
            cfg = BpConfig(alpha=0.625, n_iter=10)
            problems = (("z_side", priors.llr_z, s_z), ("x_side", priors.llr_x, s_x))
            dense = {name: [dense_minsum(graph.syndrome.H, L, t, cfg) for t in s]
                     for name, L, s in problems}
            want = {name: [np.array([getattr(r, f) for r in rs]) for f in fields]
                    for name, rs in dense.items()}
        for got in (shared, twins):
            for name in ("x_side", "z_side"):
                for field, b in zip(fields, want[name]):
                    a = getattr(getattr(got, name), field)
                    assert a.tobytes() == np.asarray(b, a.dtype).tobytes(), (name, field)
