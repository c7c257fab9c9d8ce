import numpy as np
import pytest

from qgldpc import channel
from qgldpc.codes import builtin_code
from qgldpc.gldpc import (decode_correlated, decode_independent, decode_side,
                          _beliefs_from_llr, _argmax_pauli, _marginal_llr)
from qgldpc.sogrand import SograndParams

SOG = SograndParams(list_max=8)


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
            assert code.z_residual_is_stabilizer(e ^ out.e_hat)

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
        assert len(out.syndrome_trace) <= 3

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
            decode_correlated(code, np.full(prior_shape, 0.25), np.zeros(s_x_len),
                              np.zeros(s_z_len), n_iter=5, sog_params=SOG)


class TestDecodeIndependent:
    def test_zero_error(self):
        code = builtin_code("toy-gldpc")
        pr = priors_at(0.03, code.n)
        res = decode_independent(code, pr, np.zeros(code.h_z.shape[0]),
                                 np.zeros(code.h_x.shape[0]), sog_params=SOG)
        assert res.converged
        assert not res.e_hat.e_x.any() and not res.e_hat.e_z.any()
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
                res = decode_independent(code, pr, s_x, s_z, sog_params=SOG)
                assert res.converged
                assert code.z_residual_is_stabilizer(e_z ^ res.z_side.e_hat)
                assert code.x_residual_is_stabilizer(e_x ^ res.x_side.e_hat)

    def test_sides_use_their_own_graphs(self):
        code = builtin_code("toric")
        pr = priors_at(0.02, code.n)
        e_z = np.zeros(code.n, dtype=np.uint8)
        e_z[0] = 1
        e = channel.PauliErrorPattern(np.zeros(code.n, np.uint8), e_z)
        s_x, s_z = channel.syndromes(code, e)
        res = decode_independent(code, pr, s_x, s_z, sog_params=SOG)
        # the X side saw a zero syndrome and must answer zero immediately
        assert not res.x_side.e_hat.any()
        assert res.x_side.iterations_used == 1


class TestPauliBeliefs:
    def test_neutral_llr_gives_uniform_beliefs(self):
        bel = _beliefs_from_llr(np.array([0.0]), about_x=True)
        assert np.allclose(bel, 0.25)

    def test_strong_positive_llr_concentrates_on_no_flip(self):
        bel = _beliefs_from_llr(np.array([20.0]), about_x=True)[0]
        assert bel[0] + bel[3] == pytest.approx(1.0, abs=1e-6)  # I and Z

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(17)
        L = rng.normal(0, 5, size=40)
        for about_x in (True, False):
            bel = _beliefs_from_llr(L, about_x)
            assert np.allclose(bel.sum(axis=-1), 1.0)

    def test_marginal_inverts_belief_map(self):
        rng = np.random.default_rng(19)
        L = np.clip(rng.normal(0, 4, size=25), -20, 20)
        for about_x in (True, False):
            bel = _beliefs_from_llr(L, about_x)
            assert np.allclose(_marginal_llr(bel, about_x), L, atol=1e-9)

    def test_argmax_tie_order(self):
        P = np.array([[0.25, 0.25, 0.25, 0.25],   # full tie: I
                      [0.1, 0.4, 0.4, 0.1],       # X vs Y tie: X
                      [0.1, 0.1, 0.4, 0.4],       # Y vs Z tie: Z
                      [0.1, 0.2, 0.3, 0.4]])      # clear: Z
        assert _argmax_pauli(P).tolist() == [0, 1, 3, 3]


class TestDecodeCorrelated:
    def test_zero_error(self):
        code = builtin_code("toy-gldpc")
        pr = priors_at(0.03, code.n)
        res = decode_correlated(code, pr.pauli_prior, np.zeros(code.h_z.shape[0]),
                                np.zeros(code.h_x.shape[0]), sog_params=SOG)
        assert res.converged
        assert not res.e_hat.e_x.any() and not res.e_hat.e_z.any()

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
                res = decode_correlated(code, pr.pauli_prior, s_x, s_z,
                                        sog_params=SOG)
                assert res.converged
                assert code.z_residual_is_stabilizer(e_z ^ res.z_side.e_hat)
                assert code.x_residual_is_stabilizer(e_x ^ res.x_side.e_hat)

    def test_terminates_only_on_joint_syndrome(self):
        code = builtin_code("toy-gldpc")
        pr = priors_at(0.04, code.n)
        rng = np.random.default_rng(23)
        for _ in range(20):
            e = channel.sample_error(channel.DepolarizingParams(0.06), code.n,
                                     rng)
            s_x, s_z = channel.syndromes(code, e)
            res = decode_correlated(code, pr.pauli_prior, s_x, s_z,
                                    sog_params=SOG)
            if res.converged:
                assert np.array_equal(code.x_graph.syndrome(res.z_side.e_hat), s_z)
                assert np.array_equal(code.z_graph.syndrome(res.x_side.e_hat), s_x)

    def test_deterministic(self):
        code = builtin_code("toy-gldpc")
        pr = priors_at(0.05, code.n)
        e = channel.sample_error(channel.DepolarizingParams(0.08), code.n,
                                 channel.trial_rng(0, 0.08, 3))
        s_x, s_z = channel.syndromes(code, e)
        a = decode_correlated(code, pr.pauli_prior, s_x, s_z, sog_params=SOG)
        b = decode_correlated(code, pr.pauli_prior, s_x, s_z, sog_params=SOG)
        assert np.array_equal(a.z_side.e_hat, b.z_side.e_hat)
        assert np.array_equal(a.x_side.e_hat, b.x_side.e_hat)
