#!/usr/bin/env python3
"""qgldpc benchmark: Monte Carlo decoding throughput through the public harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``qgldpc`` from its
``src/``.  One process and one caller in a closed loop: each trial starts
after the previous one ends, through ``harness.run_point``, the path of
``qgldpc sim``.  BLAS is pinned to one thread.  Trials come in blocks of a
fixed size per workload (about 0.2 s of work); block k uses master seed
``seed + k * BLOCK_STRIDE``.

``--trace 0`` runs blocks until ``--seconds`` have passed and reports the
end-to-end metrics.  The times in them are scaled to a reference host speed
(see ``calibrate``): on a shared host the speed of the same work drifts by
up to 3x over seconds to minutes, and that drift is common to the program
and to a fixed kernel run after each block, so their ratio is steady.
``--trace 1`` runs a fixed set of blocks (sized from ``--seconds``) twice,
untraced and under the tracer of ``spans.py``, and reports per-layer
metrics, the micro-benches and the tracer's overhead.
Every run first checks two recorded points against ``reference.json``
(bit-reproducibility): the reference seed's and that of ``--seed`` mod 10.
A traced pass must reproduce the untraced one exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same result,
with provenance, is written to ``bench/out/``.
``python3 bench/run.py --record`` rewrites ``reference.json`` from the
current program.
"""

import os

# Pin BLAS before numpy loads: the benchmark is one caller on a 2-core host.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()  # setup_s counts from here: imports are part of set-up

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_FILE = BENCH / "reference.json"
OUT_DIR = BENCH / "out"

P = 0.05                  # depolarizing rate of every workload
REF_SEED = 2024           # seed whose recorded point every run checks
RECORD_SEEDS = (REF_SEED, *range(10))
BLOCK_STRIDE = 1_000_003  # master-seed step between blocks of one run
SETUP_SAMPLES = 5         # set-ups per run (this process plus 4 children)
SETUP_CAL_CALLS = 5       # calibrate() calls after each set-up
CAL_LOOPS = 1_000         # iterations of the calibrate() kernel
CAL_REF_S = 0.010         # seconds of one calibrate() call at the reference speed
TRACE_FRACTION = 0.4      # share of --seconds for each pass of a traced run
MICRO_CALLS = 200         # calls per micro-bench, on distinct seeded inputs


@dataclasses.dataclass(frozen=True)
class Workload:
    code: str       # "builtin:NAME", or a code file relative to the repo root
    decoder: str
    block: int      # trials per timed run_point call
    ref_trials: int  # trials of a point checked against reference.json
    rate: float     # trials/s of the v0 program on a 2-core x86 host; sizes traced runs


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    "toric8-sogrand-osd": Workload("bench/codes/toric8.json", "sogrand-osd",
                                   block=1, ref_trials=8, rate=6.0),
    "toy-gldpc-corr": Workload("builtin:toy-gldpc", "sogrand-osd-corr",
                               block=100, ref_trials=400, rate=450.0),
    "toric12-bp-osd": Workload("bench/codes/toric12.json", "bp-osd",
                               block=1, ref_trials=8, rate=6.0),
}


def load_package():
    """Import qgldpc from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qgldpc
    except ImportError as exc:
        raise SystemExit(f"cannot import qgldpc from {src}: {exc}") from None
    if src.resolve() not in Path(qgldpc.__file__).resolve().parents:
        raise SystemExit(f"qgldpc was imported from {qgldpc.__file__}, not {src}")
    from qgldpc import harness
    return harness


def code_source(w: Workload) -> str:
    return w.code if w.code.startswith("builtin:") else str(ROOT / w.code)


def config(harness, w: Workload, seed: int, trials: int):
    return harness.ExperimentConfig(code=code_source(w), decoder=w.decoder,
                                    p_grid=(P,), trials=trials, master_seed=seed)


def block_seed(seed: int, k: int) -> int:
    return seed + k * BLOCK_STRIDE


def set_up(w: Workload):
    """Import, load and validate the code, and run one warm-up trial.

    The warm-up is trial 0 of the reference seed with a one-iteration
    budget: it runs the workload's decode path once, filling lazy caches
    such as ``rank_flip_table``, without the cost of a full decode.
    Returns (harness, code, seconds since start).
    """
    harness = load_package()
    code = harness.resolve_code(code_source(w))
    warm_up = dataclasses.replace(config(harness, w, REF_SEED, 1), n_iter=1)
    harness.run_point(code, warm_up, P)
    return harness, code, time.perf_counter() - T_START


def calibrate() -> float:
    """Seconds for one fixed unit of host work that does not use qgldpc.

    The work is what the decoders spend their time on: numpy calls on small
    vectors, each costing microseconds of interpreter and dispatch overhead.
    (A pure-Python integer loop follows the host's drift less closely.)  A
    time ``t`` measured next to it is scaled to the reference host speed as
    ``t * CAL_REF_S / calibrate()``.  The garbage collector is off while it
    runs, so that garbage left by the program is not charged to the host.
    """
    import gc
    import numpy as np
    vec = np.random.default_rng(0).normal(size=16)
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(CAL_LOOPS):
            mags = np.abs(vec)
            order = np.argsort(mags)
            acc += float(mags[order[0]] + np.sum(vec > 0))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def setup_sample(own_s: float) -> tuple[float, float]:
    """(set-up seconds, seconds per calibrate() call right after the set-up)."""
    return own_s, statistics.median(calibrate() for _ in range(SETUP_CAL_CALLS))


def measure_setup_s(workload: str, own: tuple[float, float]) -> tuple[float, list]:
    """Median scaled set-up time over this process and fresh child processes.

    Returns it with the raw (set-up, calibration) samples.
    """
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["cal_s"]))
    return statistics.median(s * CAL_REF_S / c for s, c in samples), samples


def point_facts(pt) -> dict:
    return {"failures": pt.failures, "mean_iterations": pt.mean_iterations,
            "osd_rate": pt.osd_rate}


def all_facts(points) -> list:
    return [None if pt is None else point_facts(pt) for pt in points]


def read_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def check_reference(harness, code, name: str, seed: int, errors: list[str]) -> None:
    """Run the recorded point of ``seed`` and compare it with reference.json."""
    ref = read_reference()
    entry = ref["workloads"][name]
    w = WORKLOADS[name]
    if entry["trials"] != w.ref_trials or ref["p"] != P:
        errors.append("reference.json was recorded for another trial count or p")
        return
    try:
        got = point_facts(harness.run_point(code, config(harness, w, seed, w.ref_trials), P))
    except Exception as exc:
        errors.append(f"reference seed {seed}: {type(exc).__name__}: {exc}")
        return
    if got != entry["seeds"][str(seed)]:
        errors.append(f"seed {seed}: got {got}, recorded {entry['seeds'][str(seed)]}")


def run_blocks(harness, code, w: Workload, seed: int, blocks, errors: list[str],
               cal: list[float] | None = None):
    """Run blocks k in ``blocks`` (an iterable that may stop early).

    With ``cal``, a ``calibrate()`` time is appended to it after each block.
    Returns (points, seconds spent in run_point, trials attempted, trials failed).
    """
    points, spent, attempted, failed = [], 0.0, 0, 0
    for k in blocks:
        cfg = config(harness, w, block_seed(seed, k), w.block)
        attempted += w.block
        t0 = time.perf_counter()
        try:
            pt = harness.run_point(code, cfg, P)
        except Exception as exc:  # a trial that raises fails its whole block
            pt = None
            failed += w.block
            errors.append(f"block {k}: {type(exc).__name__}: {exc}")
        spent += time.perf_counter() - t0
        if pt is not None and pt.trials != w.block:
            errors.append(f"block {k}: ran {pt.trials} of {w.block} trials")
        points.append(pt)
        if cal is not None:
            cal.append(calibrate())
    return points, spent, attempted, failed


def until(seconds: float):
    """Block indices 0, 1, ... until ``seconds`` of wall time have passed."""
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        yield k
        k += 1


def micro_benches(seed: int) -> dict:
    """Single-call timings on seeded inputs, outside any workload."""
    import numpy as np
    from qgldpc import (BpConfig, DepolarizingParams, OsdConfig, builtin_code,
                        make_priors, minsum_decode, osd_postprocess, sample_error,
                        sogrand_decode, syndromes)
    from qgldpc.channel import trial_rng
    from qgldpc.harness import resolve_code

    def median_us(fn, calls):
        times = []
        for args in calls:
            t0 = time.perf_counter_ns()
            fn(*args)
            times.append(time.perf_counter_ns() - t0)
        return statistics.median(times) / 1e3

    rng = np.random.default_rng([seed, 0x5EED])
    toric8 = resolve_code(str(BENCH / "codes" / "toric8.json"))
    components = {"spc4": toric8.x_graph.component,
                  "ham7": builtin_code("steane").x_graph.component,
                  "ham15": builtin_code("toy-gldpc").x_graph.component}
    out = {}
    for name, comp in components.items():
        calls = [(comp, rng.normal(2.0, 2.0, comp.n_c),
                  rng.integers(0, 2, comp.m_c, dtype=np.uint8))
                 for _ in range(MICRO_CALLS)]
        out[f"sogrand.micro_us.{name}"] = (median_us(sogrand_decode, calls), "us")

    # OSD input: the first seeded toric-8 trial whose min-sum Z-side decode
    # does not converge.
    params = DepolarizingParams(P)
    priors = make_priors(params, toric8.n)
    for t in range(10_000):
        e = sample_error(params, toric8.n, trial_rng(seed, P, t))
        _, s_z = syndromes(toric8, e)
        side = minsum_decode(toric8.h_x, priors.llr_z, s_z, BpConfig())
        if not side.converged:
            break
    else:
        raise RuntimeError("no non-converged toric-8 decode in 10000 trials")
    osd_calls = [(toric8.h_x, s_z, side.app, OsdConfig(), params.p_eff)] * 30
    out["osd.micro_ms.toric8"] = (median_us(osd_postprocess, osd_calls) / 1e3, "ms")
    return out


def package_version() -> str:
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    return match.group(1) if match else "unknown"


def git_revision() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def provenance(args, trials: int) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "qgldpc": package_version(), "git_revision": git_revision(),
            "argv": sys.argv, "nproc": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "trials": trials, "p": P, "reference_seed": REF_SEED,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def run(args) -> int:
    w = WORKLOADS[args.workload]
    harness, code, own_setup_s = set_up(w)
    own_setup = setup_sample(own_setup_s)
    errors: list[str] = []
    for seed in (REF_SEED, args.seed % 10):
        check_reference(harness, code, args.workload, seed, errors)

    detail: dict = {}
    if args.trace == 0:
        cal: list[float] = []
        points, spent, attempted, failed = run_blocks(
            harness, code, w, args.seed, until(args.seconds), errors, cal)
        raw_trials_per_s = (attempted - failed) / spent
        cal_s = statistics.fmean(cal)
        setup_s, setup_samples = measure_setup_s(args.workload, own_setup)
        metrics = {
            "trials_per_s": (raw_trials_per_s * cal_s / CAL_REF_S, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "MiB"),
        }
        detail = {"raw_trials_per_s": raw_trials_per_s, "cal_s": cal,
                  "setup_samples_s": setup_samples, "cal_ref_s": CAL_REF_S}
    else:
        import spans
        n_blocks = max(1, round(TRACE_FRACTION * args.seconds * w.rate / w.block))
        tracer = spans.Tracer()
        points, traced, spent, attempted, failed = [], [], 0.0, 0, 0
        # Each block runs untraced and traced back to back, in alternating
        # order, so that drifts in machine speed hit both passes alike.
        for k in range(n_blocks):
            for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
                if traced_turn:
                    with tracer:
                        traced += run_blocks(harness, code, w, args.seed, [k], errors)[0]
                else:
                    pts, s, a, f = run_blocks(harness, code, w, args.seed, [k], errors)
                    points += pts
                    spent, attempted, failed = spent + s, attempted + a, failed + f
        if all_facts(traced) != all_facts(points):
            errors.append("the traced pass did not reproduce the untraced pass")
        if sum(self_ns for _, self_ns in tracer.cells.values()) != tracer.wall_ns:
            errors.append("layer self times do not add up to the traced wall time")
        list_max = config(harness, w, args.seed, w.block).sog_params.list_max
        metrics = spans.layer_metrics(tracer, list_max)
        metrics["trace.overhead"] = (tracer.wall_ns / 1e9 / spent - 1.0, "ratio")
        metrics.update(micro_benches(args.seed))
        detail = {"wall_s": tracer.wall_ns / 1e9,
                  "self_s": {layer: tracer.layer_self_ns(layer) / 1e9
                             for layer in spans.LAYERS},
                  "calls": {key: cell[0] for key, cell in tracer.cells.items()}}

    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w") as fh:
        json.dump({"result": result, "errors": errors, "detail": detail,
                   "provenance": provenance(args, attempted)}, fh, indent=1)
        fh.write("\n")
    for msg in errors:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


def record() -> int:
    """Rewrite reference.json: the point facts of every workload for RECORD_SEEDS."""
    harness = load_package()
    out = {"p": P, "reference_seed": REF_SEED, "workloads": {}}
    for name, w in WORKLOADS.items():
        code = harness.resolve_code(code_source(w))
        seeds = {str(seed): point_facts(
                     harness.run_point(code, config(harness, w, seed, w.ref_trials), P))
                 for seed in RECORD_SEEDS}
        out["workloads"][name] = {"trials": w.ref_trials, "seeds": seeds}
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REF_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set up once, print the set-up time and exit")
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json from the current program")
    args = ap.parse_args(argv)
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record:
        return record()
    if args.setup_probe:
        setup_s, cal_s = setup_sample(set_up(WORKLOADS[args.workload])[2])
        print(json.dumps({"setup_s": setup_s, "cal_s": cal_s}))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
