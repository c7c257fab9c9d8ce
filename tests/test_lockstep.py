"""Lock-step chunks of trials decode exactly as each trial alone.

The harness decodes the trials of a chunk together, with one check-rule
call per side and iteration for all distinct syndromes still running (trials
with equal syndromes share one decode), and checks the chunk's estimates in
one pass.  Every step is row-wise, so no trial's result may depend on which
trials share its chunk or on its place in it, and the batched tail must give
the records of a per-trial one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgldpc import channel, gf2
from qgldpc.codes import ComponentCode, GldpcCode, TannerGraph, builtin_code
from qgldpc.harness import (DECODERS, CurvePoint, ExperimentConfig, TrialRecord, chunk_size,
                            run_point, run_trials, wilson_interval)
from qgldpc.osd import osd_postprocess


def _ham_7_2():
    """Hamming-7 on the X graph and its first two rows on the Z graph: a code
    whose two graphs have different components (flat H_X 6x7, H_Z 4x7)."""
    hamming = builtin_code("steane").x_graph.component.H
    cns = [list(range(7)), list(range(7))]
    return GldpcCode(name="ham-7-2", n=7, k=2, d=2,
                     x_graph=TannerGraph(7, cns, ComponentCode(hamming)),
                     z_graph=TannerGraph(7, cns, ComponentCode(hamming[:2])))


CODES = {name: builtin_code(name) for name in ("toy-gldpc", "steane")}
CODES["ham-7-2"] = _ham_7_2()


def side_facts(side):
    return (side.e_hat.dtype.str, side.e_hat.tobytes(), side.app.dtype.str,
            side.app.tobytes(), side.converged, side.iterations_used)


def result_facts(result):
    return side_facts(result.z_side), side_facts(result.x_side)


def maybe_osd(code, decoder, result, s_x, s_z, osd_cfg, p):
    """Post-process the non-converged sides of one trial's result in place;
    returns True if OSD ran.  The per-trial reference for ``harness._tail``."""
    if not DECODERS[decoder].osd:
        return False
    q = 2.0 * p / 3.0
    ran = False
    for side, h, s in ((result.z_side, code.h_x, s_z), (result.x_side, code.h_z, s_x)):
        if not side.converged:
            side.e_hat = osd_postprocess(h, s, side.app, osd_cfg, q)
            side.converged = ran = True
    return ran


def side_success(code, side, e_true, s, z_side):
    """One side of one trial succeeds: its syndrome holds and the residual is
    a stabilizer, tested by rank.  The per-trial reference for ``harness._tail``."""
    graph = code.x_graph if z_side else code.z_graph
    if not np.array_equal(graph.syndrome(side.e_hat), s):
        return False
    residual = (e_true ^ side.e_hat).astype(np.uint8)
    stabilizers = code.h_z if z_side else code.h_x
    return (gf2.row_reduce(np.vstack([stabilizers, residual])).rank
            == gf2.row_reduce(stabilizers).rank)


def decode_chunk(cfg, code, priors, s_x, s_z, n_iter):
    """One registry decode of a chunk, with the check rule ``cfg`` picks."""
    decoder = DECODERS[cfg.decoder]
    return decoder.decode(code, priors, s_x, s_z, n_iter, lambda g, s: decoder.side(g, s, cfg))


def serial_records(code, cfg, p, trials):
    """Records of trials 0..trials-1: one decode of the chunk, then OSD and
    the success check trial by trial on ``result.row(t)``."""
    params = channel.DepolarizingParams(p)
    errors = [channel.sample_error(params, code.n, channel.trial_rng(cfg.master_seed, p, t))
              for t in range(trials)]
    s_x, s_z = map(np.array, zip(*(channel.syndromes(code, e) for e in errors)))
    chunk = decode_chunk(cfg, code, channel.make_priors(params, code.n), s_x, s_z,
                         cfg.resolved_n_iter())
    records = []
    for t, e in enumerate(errors):
        result = chunk.row(t)
        iterations = max(result.z_side.iterations_used, result.x_side.iterations_used)
        converged = result.z_side.converged and result.x_side.converged
        osd_ran = maybe_osd(code, cfg.decoder, result, s_x[t], s_z[t], cfg.osd_config, p)
        ok = (side_success(code, result.z_side, e.e_z, s_z[t], z_side=True)
              and side_success(code, result.x_side, e.e_x, s_x[t], z_side=False))
        records.append(TrialRecord(trial_index=t, seed=cfg.master_seed, converged=converged,
                                   osd_invoked=osd_ran, iterations_used=iterations,
                                   logical_failure=not ok))
    return records


def record_facts(records):
    return [tuple((type(v), v) for v in vars(r).values()) for r in records]


@st.composite
def chunks(draw, decoder=None):
    """A decoder (``decoder``, if given) and the syndromes of T keyed trials on a small code."""
    code = CODES[draw(st.sampled_from(sorted(CODES)))]
    decoder = decoder or draw(st.sampled_from(list(DECODERS)))
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
    cfg = ExperimentConfig(code=code.name, decoder=decoder)

    def decode(sx, sz):
        out = decode_chunk(cfg, code, priors, sx, sz, n_iter)
        return [result_facts(out.row(t)) for t in range(len(sx))]

    chunk = decode(s_x, s_z)
    assert chunk == [decode(s_x[t:t + 1], s_z[t:t + 1])[0] for t in range(len(s_x))]
    assert decode(s_x[::-1], s_z[::-1])[::-1] == chunk


@pytest.mark.parametrize("decoder", list(DECODERS))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_repeated_syndromes_decode_as_each_trial_alone(decoder, data):
    code, _, priors, s_x, s_z, n_iter = data.draw(chunks(decoder))
    cfg = ExperimentConfig(code=code.name, decoder=decoder)
    alone = [result_facts(decode_chunk(cfg, code, priors, s_x[t:t + 1], s_z[t:t + 1],
                                       n_iter).row(0)) for t in range(len(s_x))]
    picks = data.draw(st.lists(st.integers(0, len(s_x) - 1), min_size=1, max_size=20))
    order = data.draw(st.permutations(picks + picks))  # every pick at least twice
    out = decode_chunk(cfg, code, priors, s_x[order], s_z[order], n_iter)
    assert [result_facts(out.row(t)) for t in range(len(order))] == [alone[i] for i in order]
    # a twin's rows are its own: harness._tail writes OSD estimates in place
    t, u = [t for t, i in enumerate(order) if i == order[0]][:2]
    for side in (out.z_side, out.x_side):
        side.e_hat[t] ^= 1
    assert result_facts(out.row(u)) == alone[order[u]]


@given(st.sampled_from(sorted(CODES)), st.sampled_from(list(DECODERS)),
       st.integers(1, 120), st.floats(0.01, 0.3), st.integers(1, 20),
       st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_batched_tail_is_the_per_trial_tail(name, decoder, trials, p, n_iter, seed):
    code = CODES[name]
    cfg = ExperimentConfig(code=f"builtin:{name}", decoder=decoder, p_grid=(p,),
                           trials=trials, master_seed=seed, n_iter=n_iter)
    assert record_facts(run_trials(code, cfg, p, 0, trials)) == \
        record_facts(serial_records(code, cfg, p, trials))


@pytest.mark.parametrize("name", sorted(CODES))
@pytest.mark.parametrize("decoder", list(DECODERS))
def test_batched_tail_is_the_per_trial_tail_with_osd(name, decoder):
    # p and n_iter chosen so that many trials fail to converge and need OSD
    code = CODES[name]
    cfg = ExperimentConfig(code=f"builtin:{name}", decoder=decoder, p_grid=(0.15,),
                           trials=300, master_seed=11, n_iter=1)
    records = list(run_trials(code, cfg, 0.15, 0, 300))
    assert record_facts(records) == record_facts(serial_records(code, cfg, 0.15, 300))
    assert sum(r.osd_invoked for r in records) >= 20 * DECODERS[decoder].osd
    assert sum(r.logical_failure for r in records) > 0


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
        records.extend(run_trials(code, cfg, p, t, t + 1))
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
        decode_chunk(ExperimentConfig(code=code.name, decoder=decoder), code, priors,
                     s_x, s_z, 5)
