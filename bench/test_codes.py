"""The shipped toric code files load, validate, and match the library's torus.

    python3 -m pytest -q bench/test_codes.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from make_codes import LENGTHS, code_path  # noqa: E402
from qgldpc import codes  # noqa: E402
from qgldpc.harness import resolve_code  # noqa: E402


@pytest.mark.parametrize("L", LENGTHS)
def test_code_file_matches_library_torus(L):
    loaded = resolve_code(str(code_path(L)))  # load_code validates on load
    ref = codes._toric(L)
    assert (loaded.n, loaded.k, loaded.d) == (2 * L * L, 2, L)
    assert np.array_equal(loaded.h_x, ref.h_x)
    assert np.array_equal(loaded.h_z, ref.h_z)
    assert loaded.x_graph.cns == ref.x_graph.cns
    assert loaded.z_graph.cns == ref.z_graph.cns
