"""Decoder results stay bit-identical: every point recorded in
bench/reference.json reproduces exactly.

bench/run.py pins the BLAS threads when it is imported, so the check runs
in a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

SCRIPT = """
import json, sys
sys.path.insert(0, {bench!r})
import run
harness = run.load_package()
errors, checked = [], 0
for name, w in run.WORKLOADS.items():
    code = harness.resolve_code(run.code_source(w))
    for seed in run.RECORD_SEEDS:
        run.check_reference(harness, code, name, seed, errors)
        checked += 1
print(json.dumps({{"checked": checked, "errors": errors}}))
"""


def test_every_recorded_point_reproduces():
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(bench=str(BENCH))],
                          capture_output=True, text=True, timeout=600, cwd=BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["errors"] == []
    recorded = json.loads((BENCH / "reference.json").read_text())["workloads"]
    assert result["checked"] == sum(len(w["seeds"]) for w in recorded.values())
