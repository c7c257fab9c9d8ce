#!/usr/bin/env python3
"""Run every benchmark workload and print each metric by name with its unit.

    python3 bench/report.py [--seed N] [--seconds S]

For each workload in BENCHMARK.json this runs ``bench/run.py`` twice, each
time in its own process: untraced for the end-to-end metrics and traced for
the per-layer metrics.  Every run includes the output check against
``bench/reference.json``.  Exits non-zero if a run fails its check, exits
abnormally, or reports other metrics or units than BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_one(workload: str, seed: int | None, seconds: float, trace: int):
    """One run.py process; returns (exit code, parsed last line or None, stderr).

    Without a seed, run.py measures its reference seed.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600 + 4 * seconds)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the reference seed of run.py)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    ok = True
    for wl in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, stderr = run_one(wl["name"], args.seed, args.seconds, trace)
            label = f"{wl['name']} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{label}: FAILED (exit code {code})")
                sys.stderr.write(stderr)
                if result is None:
                    continue
            print(f"{label}: attempted {result['attempted']}, failed {result['failed']}")
            got = result["metrics"]
            for m in wanted:
                value = got.get(m["name"])
                if value is None or value["unit"] != m["unit"]:
                    ok = False
                    print(f"  {m['name']}: missing, or unit is not {m['unit']}")
                    continue
                print(f"  {m['name']:34s} {value['value']:>14.6g} {m['unit']}")
            extra = sorted(set(got) - {m["name"] for m in wanted})
            if extra:
                ok = False
                print(f"  not named in BENCHMARK.json: {', '.join(extra)}")
    print("output check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
