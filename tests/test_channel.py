import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


# seeds of one to seven entropy words, and trial ranges that start anywhere,
# cross 2**32 (one word to two) or are empty
SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**128 + 3, 2**200 - 1]),
                  st.integers(0, 2**224))
TRIALS = st.builds(lambda start, T: range(start, start + T),
                   st.one_of(st.integers(0, 2**40), st.integers(2**32 - 5, 2**32)),
                   st.integers(0, 6))
P = st.floats(0.0, 0.75, exclude_min=True)


class TestSampleErrors:
    """The chunk sampler against numpy's per-trial path, which stays the oracle."""

    @given(SEEDS, TRIALS, P, st.integers(1, 300))
    @example(0, range(0), 0.05, 15)
    @example(2**32 - 1, range(2**32 - 2, 2**32 + 2), 0.75, 297)
    @example(2**32, range(3), 1e-9, 1)
    @example(2**129 + 1, range(7), 0.2, 130)
    # seeds of exactly the pool's 4 words and of 3 (padded), p of one word, p = 0
    @example(2**128 - 1, range(3), 0.1, 16)
    @example(2**96 - 1, range(2**32 - 1, 2**32 + 1), 5e-324, 7)
    @example(5, range(4), 0.0, 33)
    # chunks of a sweep's size: across 2**32, at a seed of seven words, and across 2**64,
    # where trial indices go from two words to three
    @example(7, range(2**32 - 500, 2**32 + 500), 0.05, 15)
    @example(2**200 - 1, range(128), 0.05, 288)
    @example(3, range(2**64 - 40, 2**64 + 40), 0.3, 9)
    @settings(max_examples=150, deadline=None)
    def test_rows_are_the_per_trial_samples(self, seed, trials, p, n):
        params = DepolarizingParams(p)
        e = channel.sample_errors(params, n, seed, trials)
        assert e.e_x.shape == e.e_z.shape == (len(trials), n)
        assert e.e_x.dtype == e.e_z.dtype == np.uint8
        for row, t in enumerate(trials):
            one = sample_error(params, n, trial_rng(seed, p, t))
            assert e.e_x[row].tobytes() == one.e_x.tobytes()
            assert e.e_z[row].tobytes() == one.e_z.tobytes()

    @given(SEEDS, TRIALS, P)
    @example(2**128 - 1, range(3), 0.1)
    @example(2**96 - 1, range(2**32 - 1, 2**32 + 1), 5e-324)
    @example(7, range(2**32 - 500, 2**32 + 500), 0.05)
    @example(2**200 - 1, range(128), 0.05)
    @example(3, range(2**64 - 40, 2**64 + 40), 0.3)
    @settings(max_examples=300, deadline=None)
    def test_keys_are_seed_sequence_keys(self, seed, trials, p):
        p_key = int(np.float64(p).view(np.uint64))
        want = [tuple(np.random.SeedSequence(entropy=seed, spawn_key=(p_key, t))
                      .generate_state(2, np.uint64).tolist()) for t in trials]
        assert channel._philox_keys(seed, p, trials) == want

    def test_keys_of_a_long_run_are_seed_sequence_keys_and_distinct(self):
        # 100,000 contiguous trials across 2**32, in one chunk
        trials = range(2**32 - 50_000, 2**32 + 50_000)
        p_key = int(np.float64(0.05).view(np.uint64))
        keys = channel._philox_keys(20_260, 0.05, trials)
        assert keys == [tuple(np.random.SeedSequence(entropy=20_260, spawn_key=(p_key, t))
                              .generate_state(2, np.uint64).tolist()) for t in trials]
        assert len(set(keys)) == len(trials)

    def test_threads_sample_as_if_alone(self):
        # each thread re-keys its own Philox.  Generator.random releases the GIL while
        # it draws, so with a shared one another thread would set its key mid-draw;
        # the barrier starts the calls of each round together
        jobs = [(DepolarizingParams(0.05), 15, 1, range(40)),
                (DepolarizingParams(0.3), 288, 2**70, range(2**32 - 20, 2**32 + 20)),
                (DepolarizingParams(0.1), 128, 0, range(2**64 - 10, 2**64 + 10)),
                (DepolarizingParams(0.75), 1, 2**200 - 1, range(100))]
        want = [channel.sample_errors(*job) for job in jobs]
        rounds = threading.Barrier(len(jobs))

        def run(job):
            out = []
            for _ in range(50):
                rounds.wait(timeout=60)
                out.append(channel.sample_errors(*job))
            return out

        with ThreadPoolExecutor(len(jobs)) as pool:
            got = list(pool.map(run, jobs, timeout=120))
        for runs, one in zip(got, want):
            assert len(runs) == 50
            for e in runs:
                assert e.e_x.tobytes() == one.e_x.tobytes()
                assert e.e_z.tobytes() == one.e_z.tobytes()


def spawn_key_rng(seed, p, t):
    """The oracle of ``trial_rng``: Philox seeded by numpy's spawn-key derivation."""
    p_key = int(np.float64(p).view(np.uint64))
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(p_key, t))
    return np.random.Generator(np.random.Philox(ss))


class TestTrialRng:
    """``trial_rng`` keys its Philox by ``_philox_keys``, and so draws the spawn-key stream."""

    @given(SEEDS, st.one_of(st.integers(0, 2**80), st.integers(2**64 - 3, 2**64 + 3)), P)
    @example(2**128, 2**64, 0.05)
    @example(2**200 - 1, 2**64 - 1, 0.75)
    @example(0, 0, 5e-324)
    @settings(max_examples=150, deadline=None)
    def test_stream_is_the_spawn_key_stream(self, seed, t, p):
        got, want = trial_rng(seed, p, t), spawn_key_rng(seed, p, t)
        for word in ("key", "counter"):
            assert (got.bit_generator.state["state"][word].tolist()
                    == want.bit_generator.state["state"][word].tolist())
        assert got.random(40).tobytes() == want.random(40).tobytes()
        assert got.integers(0, 2**64, 8, np.uint64).tobytes() == \
            want.integers(0, 2**64, 8, np.uint64).tobytes()

    def test_key_words_of_2_to_the_63_or_more_are_kept_whole(self):
        # a word read through float64 loses its low bits once it reaches 2^63
        keys = channel._philox_keys(11, 0.05, range(32))
        high = [t for t, (_, hi) in enumerate(keys) if hi >= 2**63]
        low = [t for t, (lo, _) in enumerate(keys) if lo >= 2**63]
        assert high and low
        for t in high + low:
            rng = trial_rng(11, 0.05, t)
            assert rng.bit_generator.state["state"]["key"].tolist() == list(keys[t])
            assert rng.random(16).tobytes() == spawn_key_rng(11, 0.05, t).random(16).tobytes()

    @pytest.mark.parametrize("seed, t", [(-1, 0), (0, -1), (-(2**70), 3), (4, -(2**64))])
    def test_negative_seed_or_trial_rejected(self, seed, t):
        with pytest.raises(ValueError, match="non-negative"):
            trial_rng(seed, 0.1, t)

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

    def test_decoding_range_ends(self):
        # (0, 3/4]: at 3/4 a flip is as likely as none, so the channel LLR is 0
        assert make_priors(DepolarizingParams(0.75), 2).llr_x.tolist() == [0.0, 0.0]
        assert make_priors(DepolarizingParams(1e-300), 1).llr_x[0] == channel.LLR_CLAMP
        for p in (0.0, np.nextafter(0.75, 1.0), 0.8):
            with pytest.raises(ValueError, match="3/4"):
                make_priors(DepolarizingParams(p), 2)

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

    @given(st.sampled_from(["steane", "toric", "toy-gldpc"]), st.integers(0, 30),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_stacked_patterns_row_by_row(self, name, T, seed):
        code = builtin_code(name)
        rng = np.random.default_rng(seed)
        E = channel.PauliErrorPattern(*rng.integers(0, 2, size=(2, T, code.n), dtype=np.uint8))
        s_x, s_z = syndromes(code, E)
        assert s_x.shape == (T, code.h_z.shape[0]) and s_z.shape == (T, code.h_x.shape[0])
        assert s_x.dtype == s_z.dtype == np.uint8
        for t in range(T):
            one_x, one_z = syndromes(code, channel.PauliErrorPattern(E.e_x[t], E.e_z[t]))
            assert np.array_equal(s_x[t], one_x) and np.array_equal(s_z[t], one_z)

    @pytest.mark.parametrize("shape", [(14,), (3, 16), (2, 3, 15)])
    def test_wrong_shapes_rejected(self, shape):
        code = builtin_code("toy-gldpc")
        e = np.zeros(shape, dtype=np.uint8)
        with pytest.raises(ValueError):
            syndromes(code, channel.PauliErrorPattern(e, e))

    def test_patterns_of_lists(self):
        code = builtin_code("steane")
        s_x, s_z = syndromes(code, channel.PauliErrorPattern([0] * 7, [0, 0, 0, 0, 0, 0, 1]))
        assert s_x.tolist() == [0] * 6 and s_z.tolist() == code.h_x[:, 6].tolist()
        with pytest.raises(ValueError, match="equal shapes"):
            channel.PauliErrorPattern([0] * 7, [[0] * 7])
