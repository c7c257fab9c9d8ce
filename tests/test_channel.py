import math

import numpy as np
import pytest

from qgldpc import channel, gf2
from qgldpc.channel import DepolarizingParams, make_priors, sample_error, syndromes, trial_rng
from qgldpc.codes import builtin_code


class TestSampleError:
    def test_p_zero_gives_zero_pattern(self):
        rng = trial_rng(0, 0.5, 0)
        e = sample_error(DepolarizingParams(0.0), 100, rng)
        assert not e.e_x.any() and not e.e_z.any()

    def test_uniform_pauli_frequencies(self):
        # p = 0.75: I/X/Y/Z each with probability 1/4
        n = 1_000_000
        e = sample_error(DepolarizingParams(0.75), n, trial_rng(1, 0.75, 0))
        counts = {
            "I": int(((e.e_x == 0) & (e.e_z == 0)).sum()),
            "X": int(((e.e_x == 1) & (e.e_z == 0)).sum()),
            "Y": int(((e.e_x == 1) & (e.e_z == 1)).sum()),
            "Z": int(((e.e_x == 0) & (e.e_z == 1)).sum()),
        }
        sigma = math.sqrt(n * 0.25 * 0.75)
        for c in counts.values():
            assert abs(c - n / 4) < 3 * sigma

    def test_marginal_flip_rate_two_thirds_p(self):
        n = 1_000_000
        p = 0.09
        e = sample_error(DepolarizingParams(p), n, trial_rng(2, p, 0))
        rate = 2 * p / 3
        sigma = math.sqrt(rate * (1 - rate) / n)
        assert abs(e.e_z.mean() - rate) < 3 * sigma
        assert abs(e.e_x.mean() - rate) < 3 * sigma

    def test_reproducible_across_calls(self):
        a = sample_error(DepolarizingParams(0.1), 50, trial_rng(3, 0.1, 7))
        b = sample_error(DepolarizingParams(0.1), 50, trial_rng(3, 0.1, 7))
        assert np.array_equal(a.e_x, b.e_x) and np.array_equal(a.e_z, b.e_z)

    def test_distinct_trials_differ(self):
        a = sample_error(DepolarizingParams(0.5), 200, trial_rng(3, 0.5, 0))
        b = sample_error(DepolarizingParams(0.5), 200, trial_rng(3, 0.5, 1))
        assert not np.array_equal(a.e_x, b.e_x)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            DepolarizingParams(1.0)
        with pytest.raises(ValueError):
            DepolarizingParams(-0.1)


class TestMakePriors:
    def test_llr_value_at_p_015(self):
        prior = make_priors(DepolarizingParams(0.015), 4)
        assert prior.llr_z == pytest.approx(np.full(4, math.log(99)), abs=1e-10)
        assert prior.llr_x == pytest.approx(prior.llr_z)

    def test_llr_value_at_p_half(self):
        prior = make_priors(DepolarizingParams(0.5), 1)
        assert prior.llr_z[0] == pytest.approx(math.log(2.0))

    def test_pauli_rows_sum_to_one(self):
        prior = make_priors(DepolarizingParams(0.2), 10)
        assert prior.pauli_prior.sum(axis=1) == pytest.approx(np.ones(10), abs=1e-12)
        assert prior.pauli_prior[0].tolist() == pytest.approx(
            [0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3])

    def test_p_zero_rejected(self):
        with pytest.raises(ValueError):
            make_priors(DepolarizingParams(0.0), 3)

    def test_llrs_clamped_and_finite(self):
        prior = make_priors(DepolarizingParams(1e-30), 2)
        assert np.all(np.isfinite(prior.llr_z))
        assert np.all(np.abs(prior.llr_z) <= channel.LLR_CLAMP)


class TestSyndromes:
    def test_zero_error(self):
        code = builtin_code("toy-gldpc")
        e = channel.PauliErrorPattern(np.zeros(15, np.uint8), np.zeros(15, np.uint8))
        s_x, s_z = syndromes(code, e)
        assert not s_x.any() and not s_z.any()

    def test_stabilizer_row_has_zero_syndrome(self):
        code = builtin_code("toric")
        e_z = code.h_z[0].copy()  # a Z-stabilizer generator acting as a Z error
        e = channel.PauliErrorPattern(np.zeros(code.n, np.uint8), e_z)
        _, s_z = syndromes(code, e)
        assert not s_z.any()

    def test_local_syndromes_match_component(self):
        code = builtin_code("toy-gldpc")
        rng = trial_rng(5, 0.3, 0)
        e = sample_error(DepolarizingParams(0.3), code.n, rng)
        s_x, s_z = syndromes(code, e)
        for g, err, s in ((code.x_graph, e.e_z, s_z), (code.z_graph, e.e_x, s_x)):
            views = err[g.edge_var].reshape(g.m, g.component.n_c)
            local_s = s.reshape(g.m, g.component.m_c)
            for j in range(g.m):
                assert np.array_equal(local_s[j], gf2.Syndrome(g.component.H)(views[j]))

    def test_matches_independent_bitset_oracle(self):
        code = builtin_code("toy-gldpc")
        rng = trial_rng(6, 0.3, 1)
        e = sample_error(DepolarizingParams(0.3), code.n, rng)
        s_x, s_z = syndromes(code, e)
        oracle = [sum(int(e.e_x[i]) for i in range(code.n) if row[i]) % 2
                  for row in code.h_z.tolist()]
        assert s_x.tolist() == oracle
