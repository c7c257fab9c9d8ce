"""The benchmark's per-layer tracer (bench/spans.py) sees every layer a decoder uses.

The tracer wraps module-level names that the package looks up at call
time; a refactor that binds them early would hide a layer from it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402
from qgldpc import harness  # noqa: E402

DECODE_LAYERS = ("channel", "gf2", "harness", "osd")
# decoder -> (p, master seed) of a toy-gldpc trial 0 that needs OSD, and the
# layers its decode uses beyond DECODE_LAYERS
CASES = {
    "sogrand-osd": (0.1, 4, ("orbgrand", "sogrand", "gldpc")),
    "sogrand-osd-corr": (0.05, 862, ("orbgrand", "sogrand", "gldpc")),
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
