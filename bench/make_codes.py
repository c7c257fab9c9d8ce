#!/usr/bin/env python3
"""Write the toric-8 and toric-12 code files the benchmark loads.

The built-in ``toric`` fixture only reaches L=2, so the larger tori are
shipped as code files in the ``qgldpc.codes.write_code`` JSON format and
loaded through ``load_code``, the path of ``qgldpc sim --code FILE``.
They are built here from the public constructors only.

    python3 bench/make_codes.py        # rewrites bench/codes/toric{8,12}.json
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

from qgldpc import ComponentCode, GldpcCode, TannerGraph, write_code  # noqa: E402

LENGTHS = (8, 12)


def toric(L: int) -> GldpcCode:
    """Toric code on an L x L torus: SPC(4,1) checks on plaquettes and stars.

    Qubit h(r, c) is the horizontal edge and v(r, c) the vertical edge at
    site (r, c); each check lists its four qubits in a fixed order, since
    the order defines the local view handed to the component decoder.
    """
    n = 2 * L * L

    def h(r, c):
        return (r % L) * L + (c % L)

    def v(r, c):
        return L * L + (r % L) * L + (c % L)

    x_cns = [[h(r, c), h(r, c - 1), v(r, c), v(r - 1, c)]
             for r in range(L) for c in range(L)]
    z_cns = [[h(r, c), h(r + 1, c), v(r, c), v(r, c + 1)]
             for r in range(L) for c in range(L)]
    spc = ComponentCode(np.ones((1, 4), dtype=np.uint8))
    return GldpcCode(name=f"toric-{L}", n=n, k=2, d=L,
                     x_graph=TannerGraph(n, x_cns, spc),
                     z_graph=TannerGraph(n, z_cns, spc))


def code_path(L: int) -> Path:
    return BENCH / "codes" / f"toric{L}.json"


def main() -> int:
    for L in LENGTHS:
        write_code(toric(L), code_path(L))
        print(f"wrote {code_path(L)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
