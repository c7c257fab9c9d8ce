"""The pytest configuration turns warnings into errors without hiding failures."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = '''
import numpy as np
from hypothesis import given, strategies as st

@given(st.integers())
def test_property_fails(x):
    assert x < 3

def test_numpy_warning_fails():
    np.log(np.zeros(1))

def test_passes():
    pass
'''


def test_failing_property_reports_its_example(tmp_path):
    # run in tmp_path under the repo's settings: hypothesis writes its
    # .hypothesis directory into the working directory
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text())
    (tmp_path / "test_suite.py").write_text(SUITE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                          "-rA", "test_suite.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out  # 3 is an INTERNALERROR that hides the example
    assert "Falsifying example" in out
    assert "FAILED test_suite.py::test_numpy_warning_fails" in out  # package warnings still fail
    assert "PASSED test_suite.py::test_passes" in out
