"""The benchmark's per-layer tracer (bench/spans.py) sees every layer a decoder uses.

The tracer wraps module-level names that the package looks up at call
time; a refactor that binds them early would hide a layer from it.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from qgldpc import channel, gldpc, harness  # noqa: E402
from qgldpc.codes import builtin_code  # noqa: E402
from qgldpc.sogrand import SograndParams  # noqa: E402

DECODE_LAYERS = ("channel", "gf2", "harness", "osd")
# decoder -> (p, master seed) of a toy-gldpc trial 0 that needs OSD, the
# number of its sides that OSD re-solves, and the layers its decode uses
# beyond DECODE_LAYERS.  The tracer wraps the
# one-trial names (harness.run_trial, decode_independent, decode_correlated,
# minsum_decode, gldpc.sogrand_decode), which run_point no longer calls: it
# decodes a chunk of trials in lock-step, so the "gldpc", "minsum" and
# "sogrand" layers read 0 and decode time lands in the "harness" self time.
CASES = {
    "sogrand-osd": (0.1, 4, 1, ("orbgrand",)),
    "sogrand-osd-corr": (0.05, 862, 2, ("orbgrand",)),
    "bp-osd": (0.1, 4, 2, ()),
}


@pytest.mark.parametrize("decoder", sorted(CASES))
def test_one_trial_reports_every_layer_it_uses(decoder):
    p, seed, osd_sides, layers = CASES[decoder]
    code = harness.resolve_code("builtin:toy-gldpc")
    cfg = harness.ExperimentConfig(code="builtin:toy-gldpc", decoder=decoder,
                                   p_grid=(p,), trials=1, master_seed=seed)
    with spans.Tracer() as tracer:
        harness.run_point(code, cfg, p)
    assert tracer.calls("osd.osd_postprocess") == osd_sides
    used = {layer for layer in spans.LAYERS if tracer.layer_calls(layer)}
    assert used == set(DECODE_LAYERS + layers)
    assert sum(self_ns for _, self_ns in tracer.cells.values()) == tracer.wall_ns


@pytest.mark.parametrize("decoder", list(harness.DECODERS))
def test_traced_chunked_point_completes_and_reproduces(decoder):
    # the tracer's observers read one record or result per call: a batched
    # value passed to any wrapped name would crash bench/run.py --trace 1
    code = harness.resolve_code("builtin:toy-gldpc")
    cfg = harness.ExperimentConfig(code="builtin:toy-gldpc", decoder=decoder,
                                   p_grid=(0.08,), trials=30, master_seed=5)
    untraced = harness.run_point(code, cfg, 0.08)
    with spans.Tracer() as tracer:
        traced = harness.run_point(code, cfg, 0.08)
    assert traced == untraced
    assert tracer.calls("harness.run_point") == 1
    assert sum(self_ns for _, self_ns in tracer.cells.values()) == tracer.wall_ns


def test_every_traced_name_resolves():
    for layer, targets in spans.LAYERS.items():
        for owner, attr in targets:
            assert callable(getattr(owner, attr)), f"{layer}: {owner.__name__}.{attr}"


@pytest.mark.parametrize("correlated", [False, True])
def test_one_block_decode_per_side_and_iteration(monkeypatch, correlated):
    # one chunk of 30 trials: each call holds the checks of every distinct
    # syndrome still running (trials with equal syndromes share one decode), so
    # its row count shrinks as trials converge; toy-gldpc's two graphs share their
    # component, so both decoders call the kernel once per iteration for both.
    # The first iteration's rows all hold the prior, so it is a table lookup: a cold
    # table takes one call for its distinct local syndromes, a warm one none
    code = builtin_code("toy-gldpc")
    params = channel.DepolarizingParams(0.1)
    priors = channel.make_priors(params, code.n)
    calls, block_kernel = [], gldpc.block_kernel

    def sogrand(graph, s):
        return gldpc.sogrand_side(graph, s, SograndParams())

    def counting(component, L_A, s_local, sog_params):
        calls.append(L_A.shape)
        return block_kernel(component, L_A, s_local, sog_params)

    monkeypatch.setattr(gldpc, "block_kernel", counting)
    errors = [channel.sample_error(params, code.n, channel.trial_rng(7, 0.1, t))
              for t in range(30)]
    s_x, s_z = map(np.array, zip(*(channel.syndromes(code, e) for e in errors)))
    xg, zg = code.x_graph, code.z_graph
    m_c, n_c = xg.component.m_c, xg.component.n_c
    assert xg.component == zg.component and np.array_equal(priors.llr_x, priors.llr_z)
    local = {row.tobytes() for s in (s_x, s_z) for row in s.reshape(-1, m_c)}

    def running(s, iterations, it):
        return len({row.tobytes() for row, i in zip(s, iterations) if i >= it})

    gldpc._prior_table.cache_clear()
    for table in ("cold", "warm"):
        calls.clear()
        if correlated:
            out = gldpc.decode_correlated_trials(code, priors, s_x, s_z, 20, sogrand)
            s, iters = np.concatenate([s_z, s_x], axis=1), out.iterations_used.tolist()
            expected = [((xg.m + zg.m) * running(s, iters, it), n_c)
                        for it in range(2, max(iters) + 1)]
        else:
            # each call holds both graphs' checks of the distinct syndromes each still runs
            out = gldpc.decode_independent_trials(code, priors, s_x, s_z, 20, sogrand)
            sides = ((xg, s_z, out.z_side.iterations_used.tolist()),
                     (zg, s_x, out.x_side.iterations_used.tolist()))
            expected = [(sum(g.m * running(s, iters, it) for g, s, iters in sides), n_c)
                        for it in range(2, out.iterations_used.max() + 1)]
        assert calls == ([(len(local), n_c)] if table == "cold" else []) + expected
        assert expected[0][0] > expected[-1][0]  # trials left as they converged


def test_bench_micro_benches_run():
    # bench/run.py's micro-benches call the one-trial views (sogrand_decode,
    # minsum_decode) and read their fields; run.py pins the BLAS threads when
    # imported, so it runs in a fresh interpreter
    script = (f"import json, sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
              "run.load_package(); "
              "print(json.dumps({k: v for k, (v, _) in run.micro_benches(0).items()}))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, cwd=BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    values = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(values) == ["osd.micro_ms.toric8", "sogrand.micro_us.ham15",
                              "sogrand.micro_us.ham7", "sogrand.micro_us.spc4"]
    assert all(v > 0 for v in values.values())
