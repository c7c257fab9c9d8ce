from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgldpc import channel
from qgldpc.channel import clamp_llr
from qgldpc.codes import builtin_code
from qgldpc.gldpc import (BELIEF_FLOOR, _PAIRS, DecodeResult, SideResult, _argmax_pauli,
                          _beliefs_from_llr, _marginal_llr, _pauli_fuse, decode_correlated,
                          decode_correlated_trials, decode_independent,
                          decode_independent_trials, flood, sogrand_side)
from qgldpc.sogrand import SograndParams

SOG = SograndParams(list_max=8)


def decode_side(graph, L_ch, s, n_iter=20, sog_params=SograndParams()):
    """SOGRAND flooding on one Tanner graph alone, for one trial."""
    side, = flood([sogrand_side(graph, np.asarray(s)[None], sog_params)], [L_ch], n_iter)
    return side.row(0)


def sog(params=SograndParams()):
    """The SOGRAND check rule of one graph, ``side(graph, s)``."""
    return lambda graph, s: sogrand_side(graph, s, params)


def priors_at(p, n):
    return channel.make_priors(channel.DepolarizingParams(p), n)


class TestDecodeSide:
    def test_zero_syndrome_converges_first_iteration(self):
        code = builtin_code("toy-gldpc")
        L = np.full(code.n, 5.0)
        out = decode_side(code.x_graph, L, np.zeros(code.x_graph.flat.shape[0]),
                          n_iter=20, sog_params=SOG)
        assert out.converged
        assert out.iterations_used == 1
        assert not out.e_hat.any()

    def test_output_satisfies_syndrome_when_converged(self):
        code = builtin_code("toy-gldpc")
        g = code.x_graph
        rng = np.random.default_rng(7)
        L = np.full(code.n, priors_at(0.05, code.n).llr_z[0])
        for _ in range(30):
            e = (rng.random(code.n) < 0.05).astype(np.uint8)
            s = g.syndrome(e)
            out = decode_side(g, L, s, n_iter=20, sog_params=SOG)
            if out.converged:
                assert np.array_equal(g.syndrome(out.e_hat), s)

    def test_weight_one_errors_recovered_up_to_stabilizer(self):
        # single Z errors on the toy code: the residual must be a stabilizer
        code = builtin_code("toy-gldpc")
        g = code.x_graph
        L = np.full(code.n, priors_at(0.01, code.n).llr_z[0])
        for j in range(code.n):
            e = np.zeros(code.n, dtype=np.uint8)
            e[j] = 1
            s = g.syndrome(e)
            out = decode_side(g, L, s, n_iter=20, sog_params=SOG)
            assert out.converged
            assert code.hz_space.contains(e ^ out.e_hat)

    def test_sign_convention(self):
        # positive APP means bit 0; flipping every channel sign flips nothing
        # about the syndrome-zero decode
        code = builtin_code("steane")
        g = code.x_graph
        out = decode_side(g, np.full(7, 8.0), np.zeros(g.flat.shape[0]),
                          sog_params=SOG)
        assert (out.app > 0).all()

    def test_iteration_budget_respected(self):
        code = builtin_code("toy-gldpc")
        g = code.x_graph
        # an inconsistent-looking random syndrome may never converge
        rng = np.random.default_rng(11)
        L = np.full(code.n, 2.0)
        s = rng.integers(0, 2, size=g.flat.shape[0], dtype=np.uint8)
        out = decode_side(g, L, s, n_iter=3, sog_params=SOG)
        assert out.iterations_used <= 3

    def test_invalid_n_iter(self):
        code = builtin_code("steane")
        with pytest.raises(ValueError):
            decode_side(code.x_graph, np.zeros(7), np.zeros(3), n_iter=0)

    def test_deterministic(self):
        code = builtin_code("toy-gldpc")
        g = code.x_graph
        rng = np.random.default_rng(13)
        L = rng.normal(2.0, 1.0, size=code.n)
        e = (rng.random(code.n) < 0.1).astype(np.uint8)
        s = g.syndrome(e)
        a = decode_side(g, L, s, sog_params=SOG)
        b = decode_side(g, L, s, sog_params=SOG)
        assert np.array_equal(a.e_hat, b.e_hat)
        assert np.allclose(a.app, b.app)
        assert a.iterations_used == b.iterations_used


class TestInputValidation:
    # toy-gldpc graphs: n = 15 qubits, 2 checks x m_c = 4 syndrome bits
    @pytest.mark.parametrize("s_len, L_len", [(11, 15), (7, 15), (8, 14), (8, 16)])
    def test_decode_side_rejects_wrong_lengths(self, s_len, L_len):
        g = builtin_code("toy-gldpc").x_graph
        with pytest.raises(ValueError, match="shape"):
            decode_side(g, np.full(L_len, 2.0), np.zeros(s_len), n_iter=5,
                        sog_params=SOG)

    @pytest.mark.parametrize("prior_shape, s_x_len, s_z_len",
                             [((15, 3), 8, 8), ((16, 4), 8, 8), ((15, 4), 9, 8),
                              ((15, 4), 8, 7)])
    def test_decode_correlated_rejects_wrong_shapes(self, prior_shape, s_x_len, s_z_len):
        code = builtin_code("toy-gldpc")
        with pytest.raises(ValueError, match="shape"):
            priors = replace(priors_at(0.05, code.n), pauli_prior=np.full(prior_shape, 0.25))
            decode_correlated_trials(code, priors, np.zeros(s_x_len)[None],
                                     np.zeros(s_z_len)[None], 5, sog(SOG))


class TestDecodeIndependent:
    def test_zero_error(self):
        code = builtin_code("toy-gldpc")
        pr = priors_at(0.03, code.n)
        res = decode_independent_trials(code, pr, np.zeros(code.h_z.shape[0])[None],
                                        np.zeros(code.h_x.shape[0])[None],
                                        20, sog(SOG)).row(0)
        assert res.converged
        assert not res.x_side.e_hat.any() and not res.z_side.e_hat.any()
        assert res.iterations_used == 1

    def test_weight_one_paulis(self):
        code = builtin_code("toy-gldpc")
        pr = priors_at(0.01, code.n)
        for j in range(code.n):
            for pauli in ("X", "Y", "Z"):
                e_x = np.zeros(code.n, dtype=np.uint8)
                e_z = np.zeros(code.n, dtype=np.uint8)
                if pauli in ("X", "Y"):
                    e_x[j] = 1
                if pauli in ("Z", "Y"):
                    e_z[j] = 1
                e = channel.PauliErrorPattern(e_x, e_z)
                s_x, s_z = channel.syndromes(code, e)
                res = decode_independent_trials(code, pr, s_x[None], s_z[None],
                                                20, sog(SOG)).row(0)
                assert res.converged
                assert code.hz_space.contains(e_z ^ res.z_side.e_hat)
                assert code.hx_space.contains(e_x ^ res.x_side.e_hat)

    def test_sides_use_their_own_graphs(self):
        code = builtin_code("toric")
        pr = priors_at(0.02, code.n)
        e_z = np.zeros(code.n, dtype=np.uint8)
        e_z[0] = 1
        e = channel.PauliErrorPattern(np.zeros(code.n, np.uint8), e_z)
        s_x, s_z = channel.syndromes(code, e)
        res = decode_independent_trials(code, pr, s_x[None], s_z[None],
                                        20, sog(SOG)).row(0)
        # the X side saw a zero syndrome and must answer zero immediately
        assert not res.x_side.e_hat.any()
        assert res.x_side.iterations_used == 1


class TestPauliBeliefs:
    ABOUT_X = _PAIRS[1]  # the Z graph's (bit, other): X flips e_x, Z leaves it

    def test_neutral_llr_gives_uniform_beliefs(self):
        bel = _beliefs_from_llr(np.array([0.0]), self.ABOUT_X)
        assert np.allclose(bel, 0.25)

    def test_strong_positive_llr_concentrates_on_no_flip(self):
        bel = _beliefs_from_llr(np.array([20.0]), self.ABOUT_X)[0]
        assert bel[0] + bel[3] == pytest.approx(1.0, abs=1e-6)  # I and Z

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(17)
        L = rng.normal(0, 5, size=40)
        for pair in _PAIRS:
            bel = _beliefs_from_llr(L, pair)
            assert np.allclose(bel.sum(axis=-1), 1.0)

    def test_marginal_inverts_belief_map(self):
        rng = np.random.default_rng(19)
        L = np.clip(rng.normal(0, 4, size=25), -20, 20)
        for pair in _PAIRS:
            bel = _beliefs_from_llr(L, pair)
            assert np.allclose(_marginal_llr(bel, pair), L, atol=1e-9)

    def test_argmax_tie_order(self):
        P = np.array([[0.25, 0.25, 0.25, 0.25],   # full tie: I
                      [0.1, 0.4, 0.4, 0.1],       # X vs Y tie: X
                      [0.1, 0.1, 0.4, 0.4],       # Y vs Z tie: Z
                      [0.1, 0.2, 0.3, 0.4]])      # clear: Z
        assert _argmax_pauli(P).tolist() == [0, 1, 3, 3]


# The fusion written with mirrored X/Z branches (columns I, X, Y, Z): the
# oracle for the per-graph formulas, which must reproduce it byte for byte.
def mirrored_beliefs_from_llr(L, about_x):
    q = np.exp(-np.logaddexp(0.0, L))
    out = np.empty(L.shape + (4,))
    if about_x:
        out[..., 1] = out[..., 2] = 0.5 * q
        out[..., 0] = out[..., 3] = 0.5 * (1.0 - q)
    else:
        out[..., 3] = out[..., 2] = 0.5 * q
        out[..., 0] = out[..., 1] = 0.5 * (1.0 - q)
    return out


def mirrored_marginal_llr(P, about_x):
    if about_x:
        num = P[..., 0] + P[..., 3]
        den = P[..., 1] + P[..., 2]
    else:
        num = P[..., 0] + P[..., 1]
        den = P[..., 3] + P[..., 2]
    return clamp_llr(np.log(np.maximum(num, BELIEF_FLOOR))
                     - np.log(np.maximum(den, BELIEF_FLOOR)))


def mirrored_pauli_fuse(prior, xg, zg, c2v):
    c2v_x, c2v_z = c2v
    bel_x = mirrored_beliefs_from_llr(c2v_x[:, xg.vn_edge], about_x=False)
    bel_z = mirrored_beliefs_from_llr(c2v_z[:, zg.vn_edge], about_x=True)
    P_app = prior * bel_x.prod(axis=-2) * bel_z.prod(axis=-2)
    P_app /= P_app.sum(axis=-1, keepdims=True)
    P_app = np.maximum(P_app, BELIEF_FLOOR)
    P_app /= P_app.sum(axis=-1, keepdims=True)
    symbol = _argmax_pauli(P_app)
    e_x = ((symbol == 1) | (symbol == 2)).astype(np.uint8)
    e_z = ((symbol == 3) | (symbol == 2)).astype(np.uint8)
    app = [mirrored_marginal_llr(P_app, about_x=False), mirrored_marginal_llr(P_app, about_x=True)]
    ext_x = P_app[..., None, :] / np.maximum(bel_x, BELIEF_FLOOR)
    ext_z = P_app[..., None, :] / np.maximum(bel_z, BELIEF_FLOOR)
    v2c_x, v2c_z = np.empty_like(c2v_x), np.empty_like(c2v_z)
    v2c_x[:, xg.vn_edge] = mirrored_marginal_llr(ext_x, about_x=False)
    v2c_z[:, zg.vn_edge] = mirrored_marginal_llr(ext_z, about_x=True)
    return app, [v2c_x, v2c_z], [e_z, e_x]


FUSE_CODES = {name: builtin_code(name) for name in ("toy-gldpc", "steane", "toric-3", "toric-4")}


@st.composite
def fuse_inputs(draw):
    """A code, a Pauli prior and c2v messages of 1-40 trials: rounded to make
    ties, and carrying 0.0, -0.0 and +-30 entries."""
    code = FUSE_CODES[draw(st.sampled_from(sorted(FUSE_CODES)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = draw(st.integers(1, 40))
    if draw(st.booleans()):
        prior = channel.make_priors(channel.DepolarizingParams(draw(st.floats(1e-4, 0.75))),
                                    code.n).pauli_prior
    else:
        prior = rng.dirichlet(np.ones(4), size=code.n)
    c2v, share = [], draw(st.sampled_from([0.0, 0.2, 0.7]))
    for g in (code.x_graph, code.z_graph):
        msg = np.round(rng.normal(0.0, 8.0, size=(A, g.edge_var.size)), draw(st.integers(0, 1)))
        special = rng.random(msg.shape) < share
        msg[special] = rng.choice([0.0, -0.0, 30.0, -30.0], size=int(special.sum()))
        c2v.append(clamp_llr(msg))
    return code, prior, c2v


@given(fuse_inputs())
@settings(max_examples=150, deadline=None)
def test_fuse_matches_mirrored_oracle_byte_for_byte(case):
    code, prior, c2v = case
    got = _pauli_fuse(prior, (code.x_graph, code.z_graph), c2v)
    want = mirrored_pauli_fuse(prior, code.x_graph, code.z_graph, c2v)
    for name, g, w in zip(("app", "v2c", "e_hat"), got, want):
        for side, a, b in zip(("z_side", "x_side"), g, w):
            assert a.dtype == b.dtype and a.shape == b.shape, (name, side)
            assert a.tobytes() == b.tobytes(), (name, side)


class TestDecodeCorrelated:
    def test_zero_error(self):
        code = builtin_code("toy-gldpc")
        pr = priors_at(0.03, code.n)
        res = decode_correlated_trials(code, pr, np.zeros(code.h_z.shape[0])[None],
                                       np.zeros(code.h_x.shape[0])[None],
                                       20, sog(SOG)).row(0)
        assert res.converged
        assert not res.x_side.e_hat.any() and not res.z_side.e_hat.any()

    def test_weight_one_paulis(self):
        code = builtin_code("toy-gldpc")
        pr = priors_at(0.01, code.n)
        for j in range(code.n):
            for ex_bit, ez_bit in ((1, 0), (0, 1), (1, 1)):
                e_x = np.zeros(code.n, dtype=np.uint8)
                e_z = np.zeros(code.n, dtype=np.uint8)
                e_x[j], e_z[j] = ex_bit, ez_bit
                e = channel.PauliErrorPattern(e_x, e_z)
                s_x, s_z = channel.syndromes(code, e)
                res = decode_correlated_trials(code, pr, s_x[None], s_z[None],
                                               20, sog(SOG)).row(0)
                assert res.converged
                assert code.hz_space.contains(e_z ^ res.z_side.e_hat)
                assert code.hx_space.contains(e_x ^ res.x_side.e_hat)

    def test_terminates_only_on_joint_syndrome(self):
        code = builtin_code("toy-gldpc")
        pr = priors_at(0.04, code.n)
        rng = np.random.default_rng(23)
        for _ in range(20):
            e = channel.sample_error(channel.DepolarizingParams(0.06), code.n,
                                     rng)
            s_x, s_z = channel.syndromes(code, e)
            res = decode_correlated_trials(code, pr, s_x[None], s_z[None],
                                           20, sog(SOG)).row(0)
            if res.converged:
                assert np.array_equal(code.x_graph.syndrome(res.z_side.e_hat), s_z)
                assert np.array_equal(code.z_graph.syndrome(res.x_side.e_hat), s_x)

    def test_deterministic(self):
        code = builtin_code("toy-gldpc")
        pr = priors_at(0.05, code.n)
        e = channel.sample_error(channel.DepolarizingParams(0.08), code.n,
                                 channel.trial_rng(0, 0.08, 3))
        s_x, s_z = channel.syndromes(code, e)
        a = decode_correlated_trials(code, pr, s_x[None], s_z[None],
                                     20, sog(SOG)).row(0)
        b = decode_correlated_trials(code, pr, s_x[None], s_z[None],
                                     20, sog(SOG)).row(0)
        assert np.array_equal(a.z_side.e_hat, b.z_side.e_hat)
        assert np.array_equal(a.x_side.e_hat, b.x_side.e_hat)


class TestArrayResults:
    """A decode returns one SideResult per side, with (T, ...) arrays."""

    def chunk(self, T=25, p=0.1):
        code = builtin_code("toy-gldpc")
        params = channel.DepolarizingParams(p)
        errors = [channel.sample_error(params, code.n, channel.trial_rng(3, p, t))
                  for t in range(T)]
        e = channel.PauliErrorPattern(np.array([x.e_x for x in errors]),
                                      np.array([x.e_z for x in errors]))
        return code, channel.make_priors(params, code.n), channel.syndromes(code, e)

    @pytest.mark.parametrize("correlated", [False, True])
    def test_shapes_and_joint_fields(self, correlated):
        code, pr, (s_x, s_z) = self.chunk()
        if correlated:
            res = decode_correlated_trials(code, pr, s_x, s_z, 4, sog())
        else:
            res = decode_independent_trials(code, pr, s_x, s_z, 4, sog())
        for side in (res.z_side, res.x_side):
            assert side.e_hat.shape == side.app.shape == (25, code.n)
            assert side.e_hat.dtype == np.uint8 and side.app.dtype == np.float64
            assert side.converged.shape == side.iterations_used.shape == (25,)
        assert np.array_equal(res.converged, res.z_side.converged & res.x_side.converged)
        assert np.array_equal(res.iterations_used, np.maximum(res.z_side.iterations_used,
                                                              res.x_side.iterations_used))
        assert not res.converged.all() and res.converged.any()

    def test_correlated_sides_do_not_share_flags(self):
        # one joint flag per trial, but each side owns its array: OSD and the
        # success check read and write them per side
        code, pr, (s_x, s_z) = self.chunk()
        res = decode_correlated_trials(code, pr, s_x, s_z, 4, sog())
        assert np.array_equal(res.z_side.converged, res.x_side.converged)
        for a, b in ((res.z_side.converged, res.x_side.converged),
                     (res.z_side.iterations_used, res.x_side.iterations_used)):
            assert not np.shares_memory(a, b)

    def test_row_is_one_trial(self):
        code, pr, (s_x, s_z) = self.chunk()
        res = decode_independent_trials(code, pr, s_x, s_z, 4, sog())
        for t in (0, 7, 24):
            one = res.row(t)
            for side, chunk in ((one.z_side, res.z_side), (one.x_side, res.x_side)):
                assert np.array_equal(side.e_hat, chunk.e_hat[t])
                assert np.array_equal(side.app, chunk.app[t])
                assert type(side.converged) is bool and type(side.iterations_used) is int
                assert side.converged == chunk.converged[t]
                assert side.iterations_used == chunk.iterations_used[t]
            assert one.converged == res.converged[t]
            assert one.iterations_used == res.iterations_used[t]

    @pytest.mark.parametrize("view, chunk_decode", [
        (decode_independent, decode_independent_trials),
        (decode_correlated, decode_correlated_trials)], ids=["independent", "correlated"])
    def test_one_trial_view_is_the_chunk_row(self, view, chunk_decode):
        code, pr, (s_x, s_z) = self.chunk()
        res = chunk_decode(code, pr, s_x, s_z, 4, sog(SOG))
        for t in (0, 7, 24):
            one, row = view(code, pr, s_x[t], s_z[t], 4, SOG), res.row(t)
            for side, expected in ((one.z_side, row.z_side), (one.x_side, row.x_side)):
                assert np.array_equal(side.e_hat, expected.e_hat)
                assert np.array_equal(side.app, expected.app)
                assert side.converged == expected.converged
                assert side.iterations_used == expected.iterations_used

    def test_sides_of_unequal_trial_counts_rejected(self):
        def side(T):
            return SideResult(e_hat=np.zeros((T, 3), np.uint8), app=np.zeros((T, 3)),
                              converged=np.ones(T, bool), iterations_used=np.ones(T, int))
        with pytest.raises(ValueError, match="trials"):
            DecodeResult(z_side=side(2), x_side=side(3))
