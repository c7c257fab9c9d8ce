"""Input formats at the boundary: bits pass ``gf2.as_bits``, LLRs pass
``channel.as_llr``, and Pauli fusion takes each variable's two edges from
the sides it fuses.  Each bad input is an error naming it, not a silent
reduction, truncation or mis-wiring."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgldpc import gf2
from qgldpc.channel import (DepolarizingParams, PauliErrorPattern, as_llr, make_priors,
                            sample_error, sample_errors, syndromes, trial_rng)
from qgldpc.codes import CodeFormatError, ComponentCode, TannerGraph, builtin_code
from qgldpc.gldpc import decode_correlated_trials, flood, sogrand_side
from qgldpc.harness import ExperimentConfig, run_trials
from qgldpc.minsum import minsum_side
from qgldpc.osd import osd_postprocess
from qgldpc.sogrand import SograndParams

H = builtin_code("steane").x_graph.component.H  # Hamming-7, (3, 7)
SPC = ComponentCode(np.ones((1, 2), dtype=np.uint8))
TORIC = builtin_code("toric")  # [[8, 2, 2]]
TORIC_CFG = ExperimentConfig(code="builtin:toric", decoder="bp", trials=2)
VN_INDEX = r"check {} VN index must be an integer in \[0, 2\), got {}$"


def minsum(graph, s):
    return minsum_side(graph.syndrome, s, 0.625)


def correlated_minsum_on_toy_gldpc():
    code = builtin_code("toy-gldpc")
    s_x, s_z = np.zeros((1, code.h_z.shape[0])), np.zeros((1, code.h_x.shape[0]))
    return decode_correlated_trials(code, make_priors(DepolarizingParams(0.05), code.n),
                                    s_x, s_z, 5, minsum)


def flood_of_0d_syndromes():
    graph = builtin_code("steane").x_graph
    return flood(sogrand_side(graph, np.uint8(0), SograndParams()), np.ones(7), 5)


def syndromes_of_twos():
    code = builtin_code("steane")
    twos = np.full((1, code.n), 2, dtype=np.uint8)
    return syndromes(code, PauliErrorPattern(e_x=twos, e_z=np.zeros_like(twos)))


# (entry point and bad input, error, what the error names); every row once
# returned a result: a reduced matrix, a truncated index, a mis-wired fusion
BOUNDARY = {
    "Syndrome of 2H": (lambda: gf2.Syndrome(2 * H), ValueError,
                       r"matrix of shape \(3, 7\) must hold only 0s and 1s"),
    "row_reduce of 3H": (lambda: gf2.row_reduce(3 * H), ValueError,
                         r"matrix of shape \(3, 7\) must hold only 0s and 1s"),
    "RowSpace.contains of 2s": (lambda: gf2.RowSpace(H).contains([2] * 7), ValueError,
                                r"vectors of shape \(7,\) must hold only 0s and 1s"),
    "OSD of NaN LLRs": (lambda: osd_postprocess(H, [1, 0, 0], [np.nan] * 7), ValueError,
                        r"soft_llr of shape \(7,\) must not hold NaN"),
    "OSD of 2H": (lambda: osd_postprocess(2 * H, [1, 0, 0], np.ones(7)), ValueError,
                  r"matrix of shape \(3, 8\) must hold only 0s and 1s"),
    "OSD of 1-D H": (lambda: osd_postprocess([1, 0, 1], [1], [1.0, 1.0, 1.0]), ValueError,
                     r"H of shape \(3,\) must be a 2-D bit matrix"),
    "TannerGraph of float VNs": (lambda: TannerGraph(2, [[0, 1.7], [0.2, 1]], SPC),
                                 CodeFormatError, VN_INDEX.format(0, "1.7")),
    "TannerGraph of bool VNs": (lambda: TannerGraph(2, [[True, False], [True, False]], SPC),
                                CodeFormatError, VN_INDEX.format(0, "True")),
    "TannerGraph of a bool among int VNs": (lambda: TannerGraph(2, [[0, True], [1, 0]], SPC),
                                            CodeFormatError, VN_INDEX.format(0, "True")),
    "TannerGraph of VNs past int64": (lambda: TannerGraph(2, [[0, 2**70], [0, 1]], SPC),
                                      CodeFormatError, VN_INDEX.format(0, 2**70)),
    "TannerGraph of n and VNs past int64": (lambda: TannerGraph(10**20, [[0, 2**65]], SPC),
                                            CodeFormatError,
                                            f"degree exactly 2; 2 edges for {10**20} of them"),
    "TannerGraph of string VNs": (lambda: TannerGraph(2, [[0, 1], [0, "1"]], SPC),
                                  CodeFormatError, VN_INDEX.format(1, "'1'")),
    "TannerGraph of float n": (lambda: TannerGraph(2.0, [[0, 1], [0, 1]], SPC),
                               CodeFormatError, r"n must be an integer, got 2.0"),
    "GldpcCode of float n": (lambda: replace(TORIC, n=8.0), CodeFormatError,
                             r"n must be an integer, got 8.0"),
    "GldpcCode of float k": (lambda: replace(TORIC, k=2.0), CodeFormatError,
                             r"k must be an integer, got 2.0"),
    "GldpcCode of float d": (lambda: replace(TORIC, d=2.5), CodeFormatError,
                             r"d must be an integer, got 2.5"),
    "GldpcCode of int name": (lambda: replace(TORIC, name=5), CodeFormatError,
                              r"name must be a string, got 5"),
    "syndromes of 2s": (syndromes_of_twos, ValueError,
                        r"e_x of shape \(1, 7\) must hold only 0s and 1s"),
    "correlated min-sum on toy-gldpc": (correlated_minsum_on_toy_gldpc, CodeFormatError,
                                        "variable nodes must have degree exactly 2"),
    "flood of 0-d syndromes": (flood_of_0d_syndromes, ValueError,
                               r"syndromes of shape \(\) and LLRs of shape \(7,\) do not fit"),
    # a negative seed or trial index has no uint32 words: numpy's error, not a hang
    "run_trials from trial -1": (lambda: list(run_trials(TORIC, TORIC_CFG, 0.1, -1, 2)),
                                 ValueError, "trial index: expected non-negative integer, got -1"),
    "sample_errors of seed -1": (lambda: sample_errors(DepolarizingParams(0.1), 8, -1, range(2)),
                                 ValueError, "master_seed: expected non-negative integer, got -1"),
    # a sweep failed on these at the first trial that used them, or at none
    "ExperimentConfig of sog_params None": (lambda: replace(TORIC_CFG, sog_params=None),
                                            ValueError,
                                            "sog_params must be of type SograndParams, got None"),
    "ExperimentConfig of a dict osd_config": (lambda: replace(TORIC_CFG, osd_config={"order_w": 2}),
                                              ValueError, r"osd_config must be of type OsdConfig, "
                                                          r"got \{'order_w': 2\}"),
}


@pytest.mark.parametrize("call, error, names", BOUNDARY.values(), ids=BOUNDARY.keys())
def test_bad_input_is_named(call, error, names):
    with pytest.raises(error, match=names):
        call()


@pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(7), np.uint32(0)])
def test_numpy_integer_seed_samples_as_the_python_int(seed):
    params = DepolarizingParams(0.3)
    got = sample_errors(params, 9, seed, range(3))
    want = sample_errors(params, 9, int(seed), range(3))
    assert got.e_x.tobytes() == want.e_x.tobytes() and got.e_z.tobytes() == want.e_z.tobytes()


def test_llrs_keep_infinities_unclamped():
    L = np.array([np.inf, -np.inf, 55.0, -0.0], dtype=np.float32)
    out = as_llr("L", L)
    assert out.dtype == np.float64 and out.tolist() == L.tolist()


def test_fusion_edges_follow_the_sides_check_order():
    """Min-sum sides on toric-4 whose checks are listed in another order decode
    exactly as the graph-order sides: fusion takes edges from each side."""
    code = builtin_code("toric-4")
    p, T = 0.06, 300
    params = DepolarizingParams(p)
    errors = [sample_error(params, code.n, trial_rng(1, p, t)) for t in range(T)]
    s_x, s_z = syndromes(code, PauliErrorPattern(e_x=np.array([e.e_x for e in errors]),
                                                 e_z=np.array([e.e_z for e in errors])))
    priors = make_priors(params, code.n)
    perm = np.random.default_rng(5).permutation(code.x_graph.flat.shape[0])
    assert (perm != np.arange(perm.size)).any()

    def permuted(graph, s):
        return minsum_side(gf2.Syndrome(graph.flat[perm]), s[:, perm], 0.625)

    want = decode_correlated_trials(code, priors, s_x, s_z, 10, minsum)
    got = decode_correlated_trials(code, priors, s_x, s_z, 10, permuted)
    assert want.converged.mean() > 0.8
    for side in ("z_side", "x_side"):
        for field in ("e_hat", "app", "converged", "iterations_used"):
            a, b = getattr(getattr(got, side), field), getattr(getattr(want, side), field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (side, field)


# entries each dtype can hold; a bit is an entry equal to 0 or 1
ENTRIES = {
    "bool": [False, True],
    "int8": [0, 1, 2, -1, -128],
    "uint16": [0, 1, 2, 65535],
    "int64": [0, 1, -1, 2**40],
    "float32": [0.0, 1.0, -0.0, 0.5, 2.0, -1.0, math.nan, math.inf],
    "float64": [0.0, 1.0, -0.0, 1.0 + 2**-52, 1e-300, -math.inf, math.nan],
}


@st.composite
def entry_arrays(draw):
    dtype = draw(st.sampled_from(sorted(ENTRIES)))
    shape = draw(st.sampled_from([(0,), (1,), (6,), (2, 3), (3, 1, 2)]))
    size = math.prod(shape)
    values = draw(st.lists(st.sampled_from(ENTRIES[dtype]), min_size=size, max_size=size))
    return values, np.array(values, dtype=dtype).reshape(shape)


@given(entry_arrays())
@settings(max_examples=300, deadline=None)
def test_as_bits_accepts_exactly_the_bits(case):
    values, v = case
    if all(x in (0, 1) for x in values):
        out = gf2.as_bits("v", v)
        assert out.dtype == np.uint8 and out.shape == v.shape
        assert out.ravel().tolist() == [int(x) for x in values]
    else:
        with pytest.raises(ValueError, match=rf"v of shape {re.escape(str(v.shape))} must hold"):
            gf2.as_bits("v", v)
