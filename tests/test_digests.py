"""Decoder results stay bit-identical, case by case.

Each record case holds one SHA-256 of the ``run_trials`` records of a fixed
(code, decoder, p, trials) at seed 7: the records' fields as one little-endian
int64 array, a row per trial.  Each chunk case hashes the first toy-gldpc
chunk of ``run_trials`` as the decoder and OSD leave it (both sides' estimates,
APP LLRs, convergence and iterations, and the failure mask), so that float
drift shows even when no record flips.  Each block case hashes one SOGRAND
``decode_block`` call on a seeded block of rows (N(2, 2) LLRs, random
syndromes) twice: every ``BlockOutput`` field but ``P_g`` (what decoding
reads), and ``P_g`` alone, so that a change to the explored-mass sum shows
apart from a change to decodes.  Tight budgets leave some lists empty, where
``P_g`` sums all K query masses.  Each schedule case hashes the bytes of one
``rank_flip_table``, the ORBGRAND order that every SOGRAND call reads.  Each
elimination case hashes the reduced matrices and pivots of ``row_reduce``
calls: OSD's ``[H | s]`` on both sides of seeded toric draws, columns in
reliability order (ties by index) and s last, or a builtin's two stabilizer
matrices in column order, as ``RowSpace`` reduces them.  A failure names the
case that changed.

A change that alters decoder results on purpose re-records these digests
(``python tests/test_digests.py`` prints the table) and says so.  The float
bytes assume the numpy and BLAS builds of the recording: on another build a
chunk case may differ by rounding while every record case still holds.
"""

import hashlib
from dataclasses import astuple, fields

import numpy as np
import pytest

from qgldpc import channel
from qgldpc.gf2 import Syndrome, row_reduce
from qgldpc.harness import (DECODERS, ExperimentConfig, _tail, chunk_size, resolve_code,
                            run_trials)
from qgldpc.orbgrand import rank_flip_table
from qgldpc.sogrand import BlockOutput, SograndParams, decode_block

SEED = 7
CHUNK_P = 0.12

# (code, decoder, p, trials) -> SHA-256 of the records
RECORDS = {
    ("builtin:toy-gldpc", "bp", 0.05, 400):
        "6fae0bb2704717b78a5c9fae8816e4322e4e1a1b974a40ba8ec2aeda3e791b79",
    ("builtin:toy-gldpc", "bp-osd", 0.05, 400):
        "a807833175efed64f797ca7bd46311e1a636236bad57ed1826e518c9a0e7fd4d",
    ("builtin:toy-gldpc", "sogrand", 0.05, 400):
        "8b0a1c176b7aeb9707e550cd3c6999d5e52e45bf8eddc64875864d8ad4338435",
    ("builtin:toy-gldpc", "sogrand-osd", 0.05, 400):
        "8bcb4170fb89519189a3b29fd660ee7df9ce52adb8c136765208a08cfe1a82a6",
    ("builtin:toy-gldpc", "sogrand-osd-corr", 0.05, 400):
        "7f5cc3c047f5494a4fc1e1037253174c347134427890250125b2ee9c286349ab",
    ("builtin:toy-gldpc", "bp", 0.12, 400):
        "c78148916270246e79398e7ed438d4f61de48a581ed8f5502baddb1eeedfb40d",
    ("builtin:toy-gldpc", "bp-osd", 0.12, 400):
        "0cd07919817153332d174c23dd72373546011ee5866ad87127a05ebd920bcbd8",
    ("builtin:toy-gldpc", "sogrand", 0.12, 400):
        "2eb6d9f0263507837f499d53509e9edba2da9d18c996ba2023f6c4a6704365db",
    ("builtin:toy-gldpc", "sogrand-osd", 0.12, 400):
        "0d59453520923607fbbb4d9ffc16d4ac8a860457d161a7d8633d43a6a7f1f6d1",
    ("builtin:toy-gldpc", "sogrand-osd-corr", 0.12, 400):
        "1fbcb2fa9231c2fc1715d46322e0ed923c675d80c05c412b50f5129a799b5c2e",
    ("builtin:steane", "sogrand-osd-corr", 0.05, 400):
        "ea555c4b425231f1294a8627888c7874524473eb2ab1c35656a79685a4030295",
    ("builtin:toric-8", "sogrand-osd", 0.05, 100):
        "73210ee0194ee32d268ed0dff79acb3340b36a5301f4e8ccff92e19fe2a60b7b",
    ("builtin:toric-8", "bp-osd", 0.05, 100):
        "438fba5d53dbb27a8978f7ff020013fcdc483d3937f8c0e9f8efde571658ecc3",
    ("builtin:toric-12", "bp-osd", 0.05, 60):
        "d224978c448a8dba82343182fec9cc29a94554b0f67f317158e8d982abf8a975",
}

# decoder -> SHA-256 of the first toy-gldpc chunk at CHUNK_P
CHUNKS = {
    "bp": "9ce22766c17c60d6e66f7950d1f2c442466de7430ef8995963161524df7679a4",
    "bp-osd": "07bacd6cc014dc6119cfc3e9516b64e76fabca284e81abc5af23ead78d408a63",
    "sogrand": "6eab2ae0fe6d11bc1263c1c82ca99f377f6540ce1db7d4e7d65d68f1459c5b20",
    "sogrand-osd": "d93831c0ed99b14e5e003501c27bf08e1e1f3b5372080f5ef7e00ed2c3bb80e4",
    "sogrand-osd-corr": "d05d706f9b37ddbe2f9169bf2520c00b6147cfc4e563626c112057ba147d2114",
}

BLOCK_ROWS = 200

# (code whose X-graph component is decoded, query budget) -> SHA-256 of
# (every BlockOutput field but P_g, P_g alone); components SPC-4, Hamming-7
# and Hamming-15, at the default budget and at one that leaves lists empty
BLOCKS = {
    ("toric", None):
        ("cfff8ddc34ca6b2a4141e812f894f78d5adbc0ed14be9f61d0b03088f9eebaa0",
         "0a37d31fc5378f8bcbc0a7ae82a5a939f54628928644154caa1652f90064521a"),
    ("steane", None):
        ("c4ab605b01078469faea0255b40c13d6c1b15cc8fae6be9492acc22603c921ac",
         "d786e3648d2696d10c8503d3b8cbb17770d330a2eb28d6ab0e97272462ed6fef"),
    ("toy-gldpc", None):
        ("7a904e8cef99e8e5cb329196b2ef50e55106fa0ec6a1568d8c016de90c892302",
         "a0d26c1f344d03786532dc795eb0d6b0f6297afbe89968e3de6c718e13d7be01"),
    ("steane", 8):
        ("f814b6969da3a893ff8d6f332f75c1f5e63d4201b85a1f07403ac93547c597dc",
         "06e2836a42b4db0d53e6f243ca011f3238eb2178b2e241e29c150b89014685ff"),
    ("toy-gldpc", 16):
        ("c132d0ac69fbf92940d10d3ab9b72f34d431a167f1ba8a9b6df93acec33e000c",
         "13fe74970fea360b791552763f93a2536b0b01339803db4cf2e23d68c68414c7"),
}


# (length n, count K) -> SHA-256 of rank_flip_table(n, K): the components of
# toric, steane and toy-gldpc at their default budgets, and 36-bit components
# at budgets 4,096 and 8,192
SCHEDULES = {
    (4, 16): "fe1a674691973b3124d272766f5eef6ce230a6d75aee5a90b8fb0b54cffc3c14",
    (7, 128): "902eb29421b59579e5150036cd2676297c358b9f2cb45e76a4a400a513fa7eb6",
    (15, 256): "4d10d198f84e52f3051a11351cee7db1e746c68a0a693530683e29d36725e2ec",
    (36, 4096): "6de289a689c2ae77d8985ea92b5b838d4d1617f083481504e66019094ffced3b",
    (36, 8192): "10f84b346d6e059d0725fbeec4c6bc542ba3cdc1ba55409b568deb2e2675b3ad",
}


ELIM_DRAWS = 10

# (kind, builtin code) -> SHA-256 of (reduced, pivots) of each elimination: for
# "osd", [H | s] of ELIM_DRAWS seeded draws per side; for "rowspace", H_X and H_Z.
# Recorded with the row-XOR elimination that the packed-column basis replaced.
ELIMINATIONS = {
    ("osd", "toric-8"):
        "0dafc3fcdf9ffb372f6432e771320f593ecec3f8ec5021edd6a5e688cc27ded8",
    ("osd", "toric-12"):
        "4b951392e837f14bf2f97c7f739d30defadb069b04912147167adf34ec10e854",
    ("rowspace", "steane"):
        "a723110b7a15c0099275002b563df49bd4032447f1346abb4a97123014502266",
    ("rowspace", "toric"):
        "ff076f78c7a3f59a750e8c0c88596adf618e3643eb0ca87cd3550f5444998016",
    ("rowspace", "toy-gldpc"):
        "78b22ce8629a08ed6a97b3ed00eb3c5fd1e9766944cd821a895b8f1711acdc20",
    ("rowspace", "toric-8"):
        "47e9cad974ccebbdf2a2669c69e9698563ed0f37ca01164bcaa32a2cc95b654a",
    ("rowspace", "toric-12"):
        "a8f24163240e93448006f5f1f8b697ccc1fd4a7d5efb28a529159a3f0b96f72a",
}


def elimination_digest(kind, code):
    code = resolve_code(f"builtin:{code}")
    digest = hashlib.sha256()

    def add(elim):
        digest.update(np.ascontiguousarray(elim.reduced, dtype="u1").tobytes())
        digest.update(np.ascontiguousarray(elim.pivots, dtype="<i8").tobytes())

    if kind == "rowspace":
        for H in (code.h_x, code.h_z):
            add(row_reduce(H))
        return digest.hexdigest()
    rng = np.random.default_rng(SEED)
    for _ in range(ELIM_DRAWS):
        for H in (code.h_x, code.h_z):
            n = H.shape[1]
            e = (rng.random(n) < 0.05).astype(np.uint8)
            # LLRs on a 0.1 grid, so that reliability ties occur
            llr = np.round(rng.normal(2.5, 2.0, n), 1) * (1 - 2.0 * e)
            order = np.lexsort((np.arange(n), -np.abs(llr)))
            add(row_reduce(np.column_stack([H, Syndrome(H)(e)]), np.append(order, n)))
    return digest.hexdigest()


def schedule_digest(n, count):
    return hashlib.sha256(rank_flip_table(n, count).tobytes()).hexdigest()


def records_digest(source, decoder, p, trials):
    cfg = ExperimentConfig(code=source, decoder=decoder, p_grid=(p,), trials=trials,
                           master_seed=SEED)
    records = run_trials(resolve_code(source), cfg, p, 0, trials)
    rows = np.array([astuple(rec) for rec in records], dtype="<i8")
    return hashlib.sha256(rows.tobytes()).hexdigest()


def chunk_digest(decoder):
    code = resolve_code("builtin:toy-gldpc")
    cfg = ExperimentConfig(code="builtin:toy-gldpc", decoder=decoder, master_seed=SEED)
    params = channel.DepolarizingParams(CHUNK_P)
    errors = [channel.sample_error(params, code.n, channel.trial_rng(SEED, CHUNK_P, t))
              for t in range(chunk_size(code, cfg.sog_params))]
    e = channel.PauliErrorPattern(e_x=np.array([x.e_x for x in errors]),
                                  e_z=np.array([x.e_z for x in errors]))
    s_x, s_z = channel.syndromes(code, e)
    result = DECODERS[decoder].decode(code, channel.make_priors(params, code.n), s_x, s_z,
                                      cfg.resolved_n_iter(),
                                      lambda g, s: DECODERS[decoder].side(g, s, cfg))
    osd_cfg = cfg.osd_config if DECODERS[decoder].osd else None
    failed = _tail(code, result, e, s_x, s_z, osd_cfg, params.p_eff)
    digest = hashlib.sha256(np.ascontiguousarray(failed, dtype="u1").tobytes())
    for side in (result.z_side, result.x_side):
        digest.update(np.ascontiguousarray(side.e_hat, dtype="u1").tobytes())
        digest.update(np.ascontiguousarray(side.app, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(side.converged, dtype="u1").tobytes())
        digest.update(np.ascontiguousarray(side.iterations_used, dtype="<i8").tobytes())
    return digest.hexdigest()


def block_digests(code, budget):
    comp = resolve_code(f"builtin:{code}").x_graph.component
    rng = np.random.default_rng(SEED)
    L = rng.normal(2.0, 2.0, size=(BLOCK_ROWS, comp.n_c))
    s = rng.integers(0, 2, size=(BLOCK_ROWS, comp.m_c), dtype=np.uint8)
    out = decode_block(comp, L, s, SograndParams(query_budget=budget))
    decoded, explored = hashlib.sha256(), hashlib.sha256()
    for f in fields(BlockOutput):
        value = getattr(out, f.name)
        dtype = "<f8" if value.dtype.kind == "f" else "<i8"
        (explored if f.name == "P_g" else decoded).update(
            np.ascontiguousarray(value, dtype=dtype).tobytes())
    return decoded.hexdigest(), explored.hexdigest()


@pytest.mark.parametrize("case", list(RECORDS), ids=lambda c: "{}-{}-p{}-{}".format(
    c[0].split(":")[-1], *c[1:]))
def test_records_digest(case):
    assert records_digest(*case) == RECORDS[case]


@pytest.mark.parametrize("decoder", list(CHUNKS))
def test_chunk_digest(decoder):
    assert chunk_digest(decoder) == CHUNKS[decoder]


@pytest.mark.parametrize("case", list(BLOCKS), ids="{0[0]}-budget{0[1]}".format)
def test_block_digests(case):
    decoded, explored = block_digests(*case)
    assert decoded == BLOCKS[case][0], "a BlockOutput field other than P_g changed"
    assert explored == BLOCKS[case][1], "P_g changed"


@pytest.mark.parametrize("case", list(ELIMINATIONS), ids="{0[0]}-{0[1]}".format)
def test_elimination_digest(case):
    assert elimination_digest(*case) == ELIMINATIONS[case]


@pytest.mark.parametrize("case", list(SCHEDULES), ids="n{0[0]}-K{0[1]}".format)
def test_schedule_digest(case):
    assert schedule_digest(*case) == SCHEDULES[case]


if __name__ == "__main__":
    for case in ELIMINATIONS:
        print(f"    {case!r}: {elimination_digest(*case)!r},")
    for case in SCHEDULES:
        print(f"    {case!r}: {schedule_digest(*case)!r},")
    for case in RECORDS:
        print(f"    {case!r}: {records_digest(*case)!r},")
    for decoder in CHUNKS:
        print(f"    {decoder!r}: {chunk_digest(decoder)!r},")
    for case in BLOCKS:
        print(f"    {case!r}:\n        {block_digests(*case)!r},")
