"""The benchmark's per-layer tracer (bench/spans.py) sees every layer a decoder uses.

The tracer wraps module-level names that the package looks up at call
time; a refactor that binds them early would hide a layer from it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402
from qgldpc import channel, gldpc, harness  # noqa: E402
from qgldpc.codes import builtin_code  # noqa: E402

DECODE_LAYERS = ("channel", "gf2", "harness", "osd")
# decoder -> (p, master seed) of a toy-gldpc trial 0 that needs OSD, and the
# layers its decode uses beyond DECODE_LAYERS.  The "sogrand" layer times
# gldpc.sogrand_decode, which the decoders no longer call: SOGRAND runs as one
# gldpc.decode_block call per side and iteration, timed inside "gldpc".
CASES = {
    "sogrand-osd": (0.1, 4, ("orbgrand", "gldpc")),
    "sogrand-osd-corr": (0.05, 862, ("orbgrand", "gldpc")),
    "bp-osd": (0.1, 4, ("minsum",)),
}


@pytest.mark.parametrize("decoder", sorted(CASES))
def test_one_trial_reports_every_layer_it_uses(decoder):
    p, seed, layers = CASES[decoder]
    code = harness.resolve_code("builtin:toy-gldpc")
    cfg = harness.ExperimentConfig(code="builtin:toy-gldpc", decoder=decoder,
                                   p_grid=(p,), trials=1, master_seed=seed)
    with spans.Tracer() as tracer:
        harness.run_point(code, cfg, p)
    assert tracer.stats["osd_trials"] == 1
    used = {layer for layer in spans.LAYERS if tracer.layer_calls(layer)}
    assert used == set(DECODE_LAYERS + layers)
    assert sum(self_ns for _, self_ns in tracer.cells.values()) == tracer.wall_ns


def test_every_traced_name_resolves():
    for layer, targets in spans.LAYERS.items():
        for owner, attr in targets:
            assert callable(getattr(owner, attr)), f"{layer}: {owner.__name__}.{attr}"


@pytest.mark.parametrize("correlated", [False, True])
def test_one_block_decode_per_side_and_iteration(monkeypatch, correlated):
    code = builtin_code("toy-gldpc")
    params = channel.DepolarizingParams(0.1)
    priors = channel.make_priors(params, code.n)
    calls, decode_block = [], gldpc.decode_block

    def counting(component, L_A, s_local, sog_params):
        calls.append(L_A.shape)
        return decode_block(component, L_A, s_local, sog_params)

    monkeypatch.setattr(gldpc, "decode_block", counting)
    for t in range(20):
        e = channel.sample_error(params, code.n, channel.trial_rng(7, 0.1, t))
        s_x, s_z = channel.syndromes(code, e)
        calls.clear()
        if correlated:
            out = gldpc.decode_correlated(code, priors.pauli_prior, s_x, s_z)
            expected = 2 * out.iterations_used
        else:
            out = gldpc.decode_independent(code, priors, s_x, s_z)
            expected = out.z_side.iterations_used + out.x_side.iterations_used
        assert len(calls) == expected
        assert set(calls) == {(code.x_graph.m, code.x_graph.component.n_c),
                              (code.z_graph.m, code.z_graph.component.n_c)}
