"""Lock-step chunks of trials decode exactly as each trial alone.

The harness decodes the trials of a chunk together, with one check-rule
call per side and iteration for all trials still running.  Every step is
row-wise, so no trial's result may depend on which trials share its chunk
or on its place in it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgldpc import channel
from qgldpc.codes import builtin_code
from qgldpc.harness import (DECODERS, CurvePoint, ExperimentConfig, chunk_size, run_point,
                            run_trial, run_trials, wilson_interval)
from qgldpc.sogrand import SograndParams

CODES = {name: builtin_code(name) for name in ("toy-gldpc", "steane")}


def side_facts(side):
    return (side.e_hat.dtype.str, side.e_hat.tobytes(), side.app.dtype.str,
            side.app.tobytes(), side.converged, side.iterations_used,
            side.syndrome_trace, side.osd_invoked)


def result_facts(result):
    return side_facts(result.z_side), side_facts(result.x_side)


@st.composite
def chunks(draw):
    """A decoder and the syndromes of T keyed trials on a small code."""
    code = CODES[draw(st.sampled_from(sorted(CODES)))]
    decoder = draw(st.sampled_from(list(DECODERS)))
    T, n_iter = draw(st.integers(1, 40)), draw(st.integers(1, 20))
    p, seed = draw(st.floats(0.01, 0.3)), draw(st.integers(0, 2**32 - 1))
    params = channel.DepolarizingParams(p)
    errors = [channel.sample_error(params, code.n, channel.trial_rng(seed, p, t))
              for t in range(T)]
    s_x, s_z = map(np.array, zip(*(channel.syndromes(code, e) for e in errors)))
    return code, decoder, channel.make_priors(params, code.n), s_x, s_z, n_iter


@given(chunks())
@settings(max_examples=40, deadline=None)
def test_chunk_decodes_as_each_trial_alone_in_any_order(case):
    code, decoder, priors, s_x, s_z, n_iter = case

    def decode(sx, sz):
        return [result_facts(r) for r in DECODERS[decoder].decode(
            code, priors, sx, sz, n_iter, SograndParams(), 0.625)]

    chunk = decode(s_x, s_z)
    assert chunk == [decode(s_x[t:t + 1], s_z[t:t + 1])[0] for t in range(len(s_x))]
    assert decode(s_x[::-1], s_z[::-1])[::-1] == chunk


@given(st.sampled_from(sorted(CODES)), st.sampled_from(list(DECODERS)),
       st.integers(1, 300), st.floats(0.01, 0.3), st.integers(0, 2**32 - 1),
       st.one_of(st.none(), st.integers(1, 8)), st.data())
@settings(max_examples=12, deadline=None)
def test_point_is_the_serial_loop_over_run_trial(name, decoder, trials, p, seed,
                                                 max_failures, data):
    code = CODES[name]
    cfg = ExperimentConfig(code=f"builtin:{name}", decoder=decoder, p_grid=(p,),
                           trials=trials, master_seed=seed, max_failures=max_failures)
    records = []
    for t in range(trials):
        records.append(run_trial(code, cfg, p, t))
        if max_failures is not None and \
                sum(r.logical_failure for r in records) >= max_failures:
            break
    n = len(records)
    failures = sum(r.logical_failure for r in records)
    lo, hi = wilson_interval(failures, n)
    assert run_point(code, cfg, p) == CurvePoint(
        p=p, decoder_id=decoder, trials=n, failures=failures, bler=failures / n,
        wilson_ci_low=lo, wilson_ci_high=hi,
        mean_iterations=sum(r.iterations_used for r in records) / n,
        osd_rate=sum(r.osd_invoked for r in records) / n, seed=seed)
    start = data.draw(st.integers(0, n - 1))
    stop = data.draw(st.integers(start, n))
    assert list(run_trials(code, cfg, p, start, stop)) == records[start:stop]


def test_max_failures_stop_mid_chunk_discards_later_records():
    code = CODES["toy-gldpc"]
    cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder="bp", p_grid=(0.2,),
                           trials=1000, master_seed=3, max_failures=7)
    pt = run_point(code, cfg, 0.2)
    size = chunk_size(code, cfg.sog_params)
    assert pt.failures == 7 and pt.trials % size not in (0, 1)
    records = list(run_trials(code, cfg, 0.2, 0, pt.trials))
    assert sum(r.logical_failure for r in records) == 7
    assert records[-1].logical_failure


@pytest.mark.parametrize("decoder", list(DECODERS))
def test_unequal_trial_counts_of_the_two_sides_are_rejected(decoder):
    code = CODES["toy-gldpc"]
    priors = channel.make_priors(channel.DepolarizingParams(0.05), code.n)
    s_x = np.zeros((3, code.h_z.shape[0]), dtype=np.uint8)
    s_z = np.zeros((2, code.h_x.shape[0]), dtype=np.uint8)
    with pytest.raises(ValueError):
        DECODERS[decoder].decode(code, priors, s_x, s_z, 5, SograndParams(), 0.625)
