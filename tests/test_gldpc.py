from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgldpc import channel, gf2, gldpc
from qgldpc.channel import clamp_llr
from qgldpc.codes import ComponentCode, TannerGraph, builtin_code, vn_edges
from qgldpc.gldpc import (BELIEF_FLOOR, DecodeResult, Side, SideResult, SograndRule, _llr,
                          _lockstep, _paired, _pairs, _pauli_fuse, decode_correlated,
                          decode_correlated_trials, decode_independent,
                          decode_independent_trials, flood, sogrand_side)
from qgldpc.harness import ExperimentConfig, run_point
from qgldpc.minsum import minsum_side
from qgldpc.sogrand import SograndParams, block_kernel, decode_block
from test_digests import split_rule_code

SOG = SograndParams(list_max=8)


def decode_side(graph, L_ch, s, n_iter=20, sog_params=SograndParams()):
    """SOGRAND flooding on one Tanner graph alone, for one trial."""
    return flood(sogrand_side(graph, np.asarray(s)[None], sog_params), L_ch, n_iter).row(0)


def sog(params=SograndParams()):
    """The SOGRAND check rule of one graph, ``side(graph, s)``."""
    return lambda graph, s: sogrand_side(graph, s, params)


def priors_at(p, n):
    return channel.make_priors(channel.DepolarizingParams(p), n)


def prior_tables(component):
    """The first-iteration tables that ``component`` keeps, by (params, LLR bytes); its
    schedules are keyed by budget alone."""
    return {key: table for key, table in component._memo.items() if isinstance(key, tuple)}


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

    def test_side_without_checks_returns_every_trial(self):
        # no checks leaves no syndrome bits to key trials by: each is decoded
        side = minsum_side(gf2.Syndrome(np.zeros((0, 4))), np.zeros((3, 0), np.uint8), 1.0)
        out = flood(side, np.ones(4), 5)
        assert out.e_hat.shape == (3, 4) and out.converged.all()
        assert (out.iterations_used == 1).all()

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
                              ((15, 4), 8, 7), ((15, 4), 9, 7)])
    def test_decode_correlated_rejects_wrong_shapes(self, prior_shape, s_x_len, s_z_len):
        code = builtin_code("toy-gldpc")
        with pytest.raises(ValueError, match="shape"):
            priors = replace(priors_at(0.05, code.n), pauli_prior=np.full(prior_shape, 0.25))
            decode_correlated_trials(code, priors, np.zeros(s_x_len)[None],
                                     np.zeros(s_z_len)[None], 5, sog(SOG))

    def test_decode_correlated_rejects_unequal_trial_counts(self):
        code = builtin_code("toy-gldpc")
        # 2 trials of s_x, 3 of s_z: the X graph's side comes first
        with pytest.raises(ValueError, match=r"shapes \(3, 8\) and \(2, 8\)"):
            decode_correlated_trials(code, priors_at(0.05, code.n), np.zeros((2, 8)),
                                     np.zeros((3, 8)), 5, sog(SOG))


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


def pauli_table(prior):
    """(n, 4) Pauli beliefs, columns (I, X, Y, Z), as the fusion's (n, 2, 2) [e_z][e_x] tables."""
    return np.asarray(prior)[:, [0, 1, 3, 2]].reshape(-1, 2, 2)


class TestPauliBeliefs:
    # one qubit: its X-graph edges 0 and 1 carry e_z's messages, its Z-graph edges 2 and 3 e_x's
    EDGES = np.array([[0, 1], [2, 3]])
    UNIFORM = np.full((1, 2, 2), 0.25)

    def test_neutral_llr_gives_uniform_beliefs(self):
        prior = pauli_table([[0.7, 0.1, 0.05, 0.15]])
        app, v2c, e_hat = _pauli_fuse(prior, self.EDGES, np.zeros((3, 4)))
        L0 = _llr(_pairs(prior))
        assert np.allclose(app, L0, atol=1e-12) and np.allclose(v2c, L0[[0, 0, 1, 1]], atol=1e-12)
        app, v2c, e_hat = _pauli_fuse(self.UNIFORM, self.EDGES, np.zeros((1, 4)))
        assert not app.any() and not v2c.any() and not e_hat.any()

    def test_strong_positive_llr_concentrates_on_no_flip(self):
        c2v = np.array([[0.0, 0.0, 20.0, 0.0]])  # about e_x: I and Z hold its mass
        app, v2c, e_hat = _pauli_fuse(self.UNIFORM, self.EDGES, c2v)
        assert app[0].tolist() == [0.0, pytest.approx(20.0, abs=1e-6)]
        assert v2c[0, 3] == pytest.approx(20.0, abs=1e-6)  # carried to the other edge
        assert not v2c[0, :3].any() and not e_hat.any()

    def test_rows_sum_to_one(self):
        P = np.random.default_rng(17).dirichlet(np.ones(4), size=40)  # columns I, X, Y, Z
        pairs = _pairs(pauli_table(P))
        assert pairs.shape == (80, 2, 2)
        assert np.allclose(pairs.sum(axis=(1, 2)), 1.0)
        # [keep, flip] pairs: the X graph's (I, X) and (Z, Y), the Z graph's (I, Z) and (X, Y)
        assert np.array_equal(pairs[:40], P[:, [[0, 1], [3, 2]]])
        assert np.array_equal(pairs[40:], P[:, [[0, 3], [1, 2]]])

    def test_marginal_inverts_belief_map(self):
        rng = np.random.default_rng(19)
        L = np.clip(rng.normal(0, 4, size=25), -20, 20)
        q = 1.0 / (1.0 + np.exp(L))
        keep, flip = 0.5 * (1.0 - q), 0.5 * q  # each held by two Paulis
        assert np.allclose(2 * keep + 2 * flip, 1.0)
        pairs = np.stack([keep, flip], axis=-1)[..., None].repeat(2, axis=-1)
        assert np.allclose(_llr(pairs), L, atol=1e-9)

    def test_argmax_tie_order(self):
        # zero messages leave each prior's ties; I < X < Z < Y breaks them
        prior = pauli_table([[0.25, 0.25, 0.25, 0.25],   # full tie: I
                             [0.1, 0.4, 0.4, 0.1],       # X vs Y tie: X
                             [0.1, 0.4, 0.1, 0.4],       # X vs Z tie: X
                             [0.1, 0.1, 0.4, 0.4],       # Y vs Z tie: Z
                             [0.1, 0.2, 0.3, 0.4]])      # clear: Z
        app, v2c, e_hat = _pauli_fuse(prior, np.arange(20).reshape(10, 2), np.zeros((1, 20)))
        assert e_hat.tolist() == [[0, 0, 0, 1, 1,  # e_z
                                   0, 1, 1, 0, 0]]  # e_x


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


def mirrored_vn_edges(edge_var, n):
    """Each variable's edges, in edge order, one variable at a time."""
    return np.array([np.flatnonzero(edge_var == v) for v in range(n)])


def mirrored_pauli_fuse(prior, edge_var_x, edge_var_z, c2v):
    c2v_x, c2v_z = c2v
    n = len(prior)
    edges_x, edges_z = mirrored_vn_edges(edge_var_x, n), mirrored_vn_edges(edge_var_z, n)
    bel_x = mirrored_beliefs_from_llr(c2v_x[:, edges_x], about_x=False)
    bel_z = mirrored_beliefs_from_llr(c2v_z[:, edges_z], about_x=True)
    P_app = prior * bel_x.prod(axis=-2) * bel_z.prod(axis=-2)
    P_app /= P_app.sum(axis=-1, keepdims=True)
    P_app = np.maximum(P_app, BELIEF_FLOOR)
    P_app /= P_app.sum(axis=-1, keepdims=True)
    symbol = np.array([0, 1, 3, 2])[np.argmax(P_app[..., [0, 1, 3, 2]], axis=-1)]  # I < X < Z < Y
    e_x = ((symbol == 1) | (symbol == 2)).astype(np.uint8)
    e_z = ((symbol == 3) | (symbol == 2)).astype(np.uint8)
    app = [mirrored_marginal_llr(P_app, about_x=False), mirrored_marginal_llr(P_app, about_x=True)]
    ext_x = P_app[..., None, :] / np.maximum(bel_x, BELIEF_FLOOR)
    ext_z = P_app[..., None, :] / np.maximum(bel_z, BELIEF_FLOOR)
    v2c_x, v2c_z = np.empty_like(c2v_x), np.empty_like(c2v_z)
    v2c_x[:, edges_x] = mirrored_marginal_llr(ext_x, about_x=False)
    v2c_z[:, edges_z] = mirrored_marginal_llr(ext_z, about_x=True)
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
    edge_vars = (code.x_graph.edge_var, code.z_graph.edge_var)
    paired = np.concatenate([edge_vars[0], edge_vars[1] + code.n])
    app, v2c, e_hat = _pauli_fuse(pauli_table(prior), vn_edges(paired, 2 * code.n), np.hstack(c2v))
    got = [np.hsplit(app, 2), np.hsplit(v2c, [edge_vars[0].size]), np.hsplit(e_hat, 2)]
    want = mirrored_pauli_fuse(prior, *edge_vars, c2v)
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


def alone(side):
    """``side`` with a rule equal to no other: ``_paired`` calls it on its own edges."""
    return replace(side, rule=lambda v2c, s, rule=side.rule: rule(v2c, s))


def count_fusions_and_tests(patch):
    """Count the binary fusions and syndrome tests that ``_lockstep`` calls while
    ``patch`` is active; returns the live counts."""
    counts = {"fusion": 0, "test": 0}

    def counting(key, build):
        def built(*args):
            step = build(*args)

            def counted(*a):
                counts[key] += 1
                return step(*a)
            return counted
        return built
    patch.setattr(gldpc, "_binary_fuse", counting("fusion", gldpc._binary_fuse))
    patch.setattr(gf2, "stacked_syndrome", counting("test", gf2.stacked_syndrome))
    return counts


def result_bytes(results):
    return [[np.ascontiguousarray(getattr(r, f)).tobytes()
             for f in ("e_hat", "app", "converged", "iterations_used")] for r in results]


@st.composite
def sides_sharing_a_rule(draw, widths_match=False):
    """Two binary sides of a random component, m_1 and m_2 random checks on n
    variables (m_1 = m_2 if ``widths_match``), with the syndromes of T random
    errors; their SOGRAND rules are equal values, built apart.  If the widths
    match, the second side's first check meets one variable twice, at the two
    first positions of the component, which its first row both holds: that
    variable leaves that row of the flat H, so the sides' flat H have one shape
    but differ in nonzero count.  Returns (sides, channel LLRs, n_iter)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_c = draw(st.integers(2, 8))
    H = rng.integers(0, 2, size=(draw(st.integers(1, n_c - 1)), n_c), dtype=np.uint8)
    if widths_match:
        H[0, :2] = 1
    n, T = draw(st.integers(n_c, 16)), draw(st.integers(1, 12))
    params = SograndParams(list_max=draw(st.integers(1, 6)),
                           query_budget=draw(st.one_of(st.none(), st.integers(1, 64))))
    p = draw(st.sampled_from([0.02, 0.1, 0.25]))
    sides, L0 = [], []
    m = draw(st.integers(1, 5))
    for m in (m, m if widths_match else draw(st.integers(1, 5))):
        edge_var = np.concatenate([rng.choice(n, n_c, replace=False) for _ in range(m)])
        if widths_match and sides:
            edge_var[1] = edge_var[0]
        flat = np.zeros((m, H.shape[0], n), dtype=np.uint8)
        np.add.at(flat, (np.arange(m)[:, None, None], np.arange(H.shape[0])[:, None],
                         edge_var.reshape(m, 1, n_c)), H)
        check = gf2.Syndrome(flat.reshape(-1, n) % 2)
        e = (rng.random((T, n)) < p).astype(np.uint8)
        sides.append(Side(edge_var=edge_var, check=check, s=check(e),
                          rule=SograndRule(ComponentCode(H.copy()), params)))
        L0.append(np.round(rng.normal(2.0, 1.0, n), 1))
    return sides, L0, draw(st.integers(1, 8))


class TestSharedRule:
    @given(sides_sharing_a_rule())
    @settings(max_examples=80, deadline=None)
    def test_sides_sharing_a_rule_decode_as_each_alone(self, case):
        (x, z), L0, n_iter = case
        assert x.rule == z.rule and x.rule is not z.rule
        L0, check = np.concatenate(L0), gf2.block_diagonal(x.check, z.check)
        assert result_bytes([flood(_paired(x, z, check), L0, n_iter)]) == \
            result_bytes([flood(_paired(alone(x), alone(z), check), L0, n_iter)])

    @given(sides_sharing_a_rule(widths_match=True),
           st.lists(st.integers(0, 11), min_size=1, max_size=16))
    @settings(max_examples=80, deadline=None)
    def test_lockstep_sides_decode_as_each_alone(self, case, picks):
        # both sides take the same trials, picked with repeats, so each dedupes;
        # their flat H differ in support, so the stacked syndrome test reads each
        # row at its own side's.  Rule calls are counted: a block whose rows all hold
        # one message row (the first, or a budget too small to move the messages)
        # may find its table warm and call no kernel
        (x, z), L0, n_iter = case
        assert x.check.H.shape == z.check.H.shape
        assert np.count_nonzero(x.check.H) != np.count_nonzero(z.check.H)
        picks = [t % len(x.s) for t in picks]
        x, z = replace(x, s=x.s[picks]), replace(z, s=z.s[picks])
        calls, rule = [], SograndRule.__call__

        def kernel(comp, L_A, s_local, params):
            out = block_kernel(comp, L_A, s_local, params)
            assert out.L_E.tobytes() == decode_block(comp, L_A, s_local, params).L_E.tobytes()
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gldpc, "block_kernel", kernel)
            patch.setattr(SograndRule, "__call__", lambda self, v2c, s:
                          calls.append(len(v2c)) or rule(self, v2c, s))
            counts = count_fusions_and_tests(patch)
            together = _lockstep([(x, L0[0], None), (z, L0[1], None)], n_iter)
        apart = [flood(alone(x), L0[0], n_iter), flood(alone(z), L0[1], n_iter)]
        assert result_bytes(together) == result_bytes(apart)
        iterations = max(r.iterations_used.max() for r in together)
        assert len(calls) == counts["fusion"] == counts["test"] == iterations

    def test_sides_of_unequal_shapes_do_not_stack(self):
        # (m, n, E) must match; sides that differ decode apart, as the independent
        # decode does when its two graphs differ in shape
        comp = ComponentCode(np.array([[1, 1, 1]], np.uint8))
        rule = SograndRule(comp, SOG)
        wide = Side(np.array([0, 1, 2]), gf2.Syndrome([[1, 1, 1, 0]]), np.ones((2, 1)), rule)
        narrow = Side(np.array([0, 1, 2]), gf2.Syndrome([[1, 1, 1]]), np.ones((2, 1)), rule)
        L0 = [np.full(4, 2.0), np.full(3, 2.0)]
        apart = [flood(wide, L0[0], 5), flood(narrow, L0[1], 5)]
        assert result_bytes(_lockstep([(wide, L0[0], None), (narrow, L0[1], None)], 5)) == \
            result_bytes(apart)
        graphs = SimpleNamespace(x_graph=wide, z_graph=narrow)
        priors = SimpleNamespace(llr_z=L0[0], llr_x=L0[1])
        r = decode_independent_trials(graphs, priors, narrow.s, wide.s, 5, lambda g, s: g)
        assert result_bytes([r.z_side, r.x_side]) == result_bytes(apart)

    def test_sides_of_unequal_rules_do_not_stack(self):
        # one (m, n, E), but the second graph's [7,4] component has its columns
        # permuted: its rows decode by its own rule, not by the first side's
        H = np.array([[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]])
        cns = [list(range(7)), [3, 5, 0, 6, 1, 2, 4]]
        graphs = [TannerGraph(7, cns, ComponentCode(h)) for h in (H, H[:, [6, 0, 1, 2, 3, 4, 5]])]
        e = (np.random.default_rng(4).random((2, 30, 7)) < 0.15).astype(np.uint8)
        sides = [sogrand_side(g, g.syndrome(err), SOG) for g, err in zip(graphs, e)]
        assert sides[0].rule != sides[1].rule
        L0 = [np.full(7, 1.5), np.full(7, 2.5)]
        together = _lockstep([(sd, L, None) for sd, L in zip(sides, L0)], 6)
        assert result_bytes(together) == \
            result_bytes([flood(sd, L, 6) for sd, L in zip(sides, L0)])

    @given(sides_sharing_a_rule(widths_match=True), st.sampled_from([0, 1]))
    @settings(max_examples=40, deadline=None)
    def test_a_side_with_a_fuse_does_not_stack(self, case, fused):
        # equal rules and shapes, but one problem, the first or the second, fuses by
        # its own ``fuse``: a binary fusion of halved messages
        (x, z), L0, n_iter = case
        side = (x, z)[fused]

        def halved(c2v):
            return gldpc._binary_fuse(L0[fused][None], side.edge_var[None],
                                      np.zeros(len(c2v), int))(0.5 * c2v)
        fuses = [halved if k == fused else None for k in range(2)]
        together = _lockstep([(x, L0[0], fuses[0]), (z, L0[1], fuses[1])], n_iter)
        apart = [flood(x, L0[0], n_iter, fuses[0]), flood(z, L0[1], n_iter, fuses[1])]
        assert result_bytes(together) == result_bytes(apart)

    @pytest.mark.parametrize("split", [False, True], ids=["equal-rules", "split-rules"])
    def test_independent_decode_stacks_equal_rules_only(self, split):
        # toy-gldpc's graphs share one rule and stack: one kernel call, one fusion
        # and one syndrome test per iteration for both.  With the Z graph's VN lists
        # and component columns reversed, H_Z holds but the rules differ, so the
        # sides decode apart, each as it does alone.  The first iteration is a lookup
        # in each rule's table, which its fresh component keeps: one call if the table
        # is cold, none once it is warm
        code = builtin_code("toy-gldpc")
        if split:
            z = code.z_graph
            code = replace(code, z_graph=TannerGraph(z.n, [cn[::-1] for cn in z.cns],
                                                     ComponentCode(z.component.H[:, ::-1])))
        e_x, e_z = (np.random.default_rng(9).random((2, 40, code.n)) < 0.1).astype(np.uint8)
        s_x, s_z = code.z_graph.syndrome(e_x), code.x_graph.syndrome(e_z)
        pr, tallies = priors_at(0.1, code.n), []
        for _ in ("cold", "warm"):
            calls = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(gldpc, "block_kernel", lambda comp, L, s, params:
                              calls.append(len(L)) or block_kernel(comp, L, s, params))
                counts = count_fusions_and_tests(patch)
                r = decode_independent_trials(code, pr, s_x, s_z, 20, sog(SOG))
            tallies.append((len(calls), counts["fusion"], counts["test"]))
        apart = [flood(sogrand_side(code.x_graph, s_z, SOG), pr.llr_z, 20),
                 flood(sogrand_side(code.z_graph, s_x, SOG), pr.llr_x, 20)]
        assert result_bytes([r.z_side, r.x_side]) == result_bytes(apart)
        iterations = [int(sd.iterations_used.max()) for sd in (r.z_side, r.x_side)]
        # split, each side runs alone: a fusion and a test per iteration, and a kernel
        # call per iteration after the first, plus one fill of each rule's cold table
        expected, tables = (sum(iterations), 2) if split else (max(iterations), 1)
        assert tallies == [(expected,) * 3, (expected - tables, expected, expected)]

    @pytest.mark.parametrize("split", [False, True], ids=["toy-gldpc", "split-rules"])
    def test_paired_operator_is_built_once_per_pair_of_graphs(self, split):
        # every correlated chunk of one code takes the block-diagonal operator the code
        # keeps, and its parities are each graph's, side by side
        code = split_rule_code() if split else builtin_code("toy-gldpc")
        checks = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gldpc, "flood", lambda side, *a, **k:
                          checks.append(side.check) or flood(side, *a, **k))
            for T in (3, 5):
                s_x, s_z = (np.zeros((T, len(h)), np.uint8) for h in (code.h_z, code.h_x))
                decode_correlated_trials(code, priors_at(0.1, code.n), s_x, s_z, 2, sog(SOG))
        assert checks[0] is checks[1] is code.paired_syndrome
        x, z = code.x_graph.syndrome, code.z_graph.syndrome
        n, v = code.n, np.random.default_rng(8).integers(0, 2, (17, 2 * code.n), np.uint8)
        want = np.concatenate([x(v[:, :n]), z(v[:, n:])], axis=1)
        got = checks[0](v)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_a_code_keeps_its_state_through_a_sweep_over_many_codes(self):
        # a one-trial correlated decode on each of toric-2 to toric-10, then on toric-2
        # again: toric-2 keeps its paired operator, and its component the table that its
        # first iteration filled, however many codes ran in between
        codes, checks, fills = [builtin_code(f"toric-{L}") for L in range(2, 11)], [], []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gldpc, "flood", lambda side, *a, **k:
                          checks.append(side.check) or flood(side, *a, **k))
            patch.setattr(gldpc, "block_kernel", lambda c, L_A, s_local, params:
                          fills.append(len(L_A)) or block_kernel(c, L_A, s_local, params))
            for code in codes + codes[:1]:
                fills.clear()
                e = np.zeros((1, code.n), np.uint8)
                e[0, 0] = 1  # a Y error: checks of local syndrome 0 and 1 on both graphs
                decode_correlated_trials(code, priors_at(0.05, code.n), code.z_graph.syndrome(e),
                                         code.x_graph.syndrome(e), 1, sog(SOG))
        assert checks[-1] is checks[0]
        assert checks[0] is codes[0].paired_syndrome
        assert fills == []  # one iteration, all of it found in the table

    def test_correlated_sides_take_one_call_per_iteration(self, monkeypatch):
        # toy-gldpc: both sides check with one Hamming-15 component; the
        # trials of the chunk leave at different iterations
        code = builtin_code("toy-gldpc")
        params = channel.DepolarizingParams(0.12)
        errors = [channel.sample_error(params, code.n, channel.trial_rng(5, 0.12, t))
                  for t in range(40)]
        e = channel.PauliErrorPattern(e_x=np.array([x.e_x for x in errors]),
                                      e_z=np.array([x.e_z for x in errors]))
        s_x, s_z = channel.syndromes(code, e)
        rows = []
        monkeypatch.setattr(gldpc, "block_kernel", lambda comp, L, s, sog_params:
                            rows.append(len(L)) or block_kernel(comp, L, s, sog_params))
        results, calls = [], []
        for side in (sog(SOG), lambda g, s: alone(sogrand_side(g, s, SOG))):
            rows.clear()
            results.append(decode_correlated_trials(code, priors_at(0.12, code.n), s_x, s_z,
                                                    20, side))
            calls.append(list(rows))
        joint, apart = results
        assert len(set(joint.iterations_used.tolist())) > 2
        assert result_bytes([joint.z_side, joint.x_side]) == \
            result_bytes([apart.z_side, apart.x_side])
        # one call per iteration after the first, on both sides' checks of the active
        # trials; the first is a lookup in one table, which the joint decode fills in one
        # call with the distinct local syndromes, and which both graphs' rule calls of the
        # decode apart find warm
        m_c = code.x_graph.component.m_c
        local = {row.tobytes() for s in (s_x, s_z) for row in s.reshape(-1, m_c)}
        assert len(calls[0]) == joint.iterations_used.max() == len(calls[1]) // 2 + 1
        assert calls[0] == [len(local)] + [a + b for a, b in zip(calls[1][::2], calls[1][1::2])]


HAMMING_7 = builtin_code("steane").x_graph.component.H
TABLE_COMPONENTS = {  # Hamming-7 and -15, SPC-4, a check-free (0, 4), a permuted [7,4]
    "ham7": HAMMING_7, "ham15": builtin_code("toy-gldpc").x_graph.component.H,
    "spc4": np.ones((1, 4)), "free4": np.zeros((0, 4)),
    "ham7-perm": HAMMING_7[:, [3, 6, 0, 5, 1, 4, 2]]}
# uniform rows may hold signed zeros, values past the clamp and infinities
TABLE_LLRS = st.one_of(st.sampled_from([0.0, -0.0, 30.0, -30.0, 75.0, -1e300, np.inf, -np.inf]),
                       st.floats(-40, 40, allow_nan=False))


@st.composite
def rule_blocks(draw):
    """A SOGRAND rule, a block of R message rows (one row repeated, whose entries are all
    one LLR half the time, and maybe one entry of one row changed: the block then holds
    more than one bit pattern unless the change keeps its bits), R local syndromes, and
    how warm the rule's table is: rows decoded before, none, some or all of the block's."""
    comp = ComponentCode(TABLE_COMPONENTS[draw(st.sampled_from(sorted(TABLE_COMPONENTS)))])
    params = SograndParams(list_max=draw(st.integers(1, 6)),
                           query_budget=draw(st.one_of(st.none(), st.integers(1, 64))))
    R = draw(st.integers(0, 40))
    row = [draw(TABLE_LLRS)] * comp.n_c if draw(st.booleans()) else \
        draw(st.lists(TABLE_LLRS, min_size=comp.n_c, max_size=comp.n_c))
    L = np.tile(np.array(row), (R, 1))
    if R > 1 and draw(st.booleans()):
        L[draw(st.integers(1, R - 1)), draw(st.integers(0, comp.n_c - 1))] = draw(TABLE_LLRS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = rng.integers(0, 2, (R, comp.m_c), dtype=np.uint8)
    return SograndRule(comp, params), L, s, draw(st.sampled_from([0, R // 2, R]))


class TestPriorTable:
    @given(rule_blocks())
    @settings(max_examples=200, deadline=None)
    def test_rule_is_the_kernel_byte_for_byte(self, case):
        # a block whose every message holds one bit pattern, of any row count, is gathered
        # from the table, and only the syndromes the table lacks are decoded, in one call;
        # any other block, equal rows that are not constant too, is one kernel call on all
        # its rows
        rule, L, s, warmed = case
        comp, calls = rule.component, []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gldpc, "block_kernel", lambda c, L_A, s_local, params:
                          calls.append(s_local.copy()) or block_kernel(c, L_A, s_local, params))
            rule(L[:warmed], s[:warmed])
            calls.clear()
            got = rule(L.copy(), s.copy())
        want = block_kernel(comp, L, s, rule.params).L_E
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        bits = L.view(np.int64)
        if bits.size and (bits == bits.flat[0]).all():
            new = {row.tobytes() for row in s} - {row.tobytes() for row in s[:warmed]}
            assert [sorted(row.tobytes() for row in c) for c in calls] == \
                ([sorted(new)] if new else [])
        else:
            assert len(calls) == 1 and calls[0].tobytes() == s.tobytes()

    def test_signed_zeros_never_share_an_entry(self):
        # messages are told apart by bit pattern: a block of -0.0 finds no entry that a
        # block of 0.0 filled, and a block that mixes them, across rows or within each
        # row, is not a lookup
        rule, s, calls = SograndRule(ComponentCode(HAMMING_7), SOG), np.zeros((4, 3), np.uint8), []
        across, within = np.zeros((4, 7)), np.zeros((4, 7))
        across[3], within[:, 2] = -0.0, -0.0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gldpc, "block_kernel", lambda c, L_A, s_local, params:
                          calls.append(len(L_A)) or block_kernel(c, L_A, s_local, params))
            for L in [np.full((4, 7), zero) for zero in (0.0, -0.0, 0.0, -0.0)] + [across, within]:
                assert rule(L, s).tobytes() == block_kernel(rule.component, L, s, SOG).L_E.tobytes()
        assert calls == [1, 1, 4, 4]
        assert len(prior_tables(rule.component)) == 2

    @pytest.mark.parametrize("code, decoder, p_grid, trials, entries", [
        ("steane", "sogrand-osd", (0.02, 0.05, 0.1, 0.3), 200, 4),
        ("toy-gldpc", "sogrand-osd-corr", (0.05,), 2000, 1)])
    def test_a_sweep_fills_one_entry_per_prior(self, code, decoder, p_grid, trials, entries):
        # only the first iteration's blocks, each the prior's one LLR, are lookups: steane's
        # duplicated check makes later blocks of equal rows, which the kernel decodes and no
        # table keeps, so every point's prior keeps its entry on the one component that
        # both graphs of the code share
        kept = builtin_code(code)
        cfg = ExperimentConfig(code=f"builtin:{code}", decoder=decoder, p_grid=p_grid,
                               trials=trials, master_seed=3)
        for p in p_grid:
            run_point(kept, cfg, p)
        assert kept.z_graph.component is kept.x_graph.component
        assert len(prior_tables(kept.x_graph.component)) == entries
