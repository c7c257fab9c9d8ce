"""Component codes, Tanner graphs with ordered edges, and assembled CSS codes.

A quantum code is given here by two classical Tanner graphs: ``x_graph``
defines H_X (checking Z errors) and ``z_graph`` defines H_Z (checking X
errors).  Every variable node has degree exactly two in each graph; the
per-check edge orderings are semantic, since they define the local views
handed to the component decoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import gf2


class CodeFormatError(ValueError):
    """Raised when a code file fails to parse or violates an invariant."""


@dataclass(frozen=True)
class ComponentCode:
    H: np.ndarray  # (m_c, n_c) parity-check matrix, uint8

    def __post_init__(self):
        H = np.asarray(self.H)
        if H.ndim != 2:
            raise CodeFormatError("component matrix must be 2-D")
        if H.shape[0] > H.shape[1]:
            raise CodeFormatError("component matrix has more rows than columns")
        if not np.isin(H, (0, 1)).all():
            raise CodeFormatError("component entries must be 0 or 1")
        object.__setattr__(self, "H", H.astype(np.uint8))
        self.H.setflags(write=False)

    @property
    def m_c(self) -> int:
        return self.H.shape[0]

    @property
    def n_c(self) -> int:
        return self.H.shape[1]


@dataclass
class TannerGraph:
    n: int                       # number of variable nodes
    cns: list[list[int]]         # per check node: ordered incident VN indices
    component: ComponentCode

    # derived, filled by __post_init__; edge j*n_c + slot is slot ``slot`` of check j
    flat: np.ndarray = field(init=False, repr=False)
    syndrome: gf2.Syndrome = field(init=False, repr=False)  # e -> flat e
    edge_var: np.ndarray = field(init=False, repr=False)  # (m*n_c,) VN of each edge
    vn_edge: np.ndarray = field(init=False, repr=False)   # (n, 2) edges of each VN

    def __post_init__(self):
        n_c = self.component.n_c
        for j, cn in enumerate(self.cns):
            if len(cn) != n_c:
                raise CodeFormatError(
                    f"check {j} has {len(cn)} edges, component length is {n_c}")
            for vn in cn:
                if not 0 <= vn < self.n:
                    raise CodeFormatError(f"check {j} references VN {vn} out of range")
        self.edge_var = np.array(self.cns, dtype=np.intp).reshape(-1)
        if self.edge_var.size != 2 * self.n:  # checked before n degree counters exist
            raise CodeFormatError("variable nodes must have degree exactly 2; "
                                  f"{self.edge_var.size} edges for {self.n} of them")
        bad = np.flatnonzero(np.bincount(self.edge_var, minlength=self.n) != 2)
        if bad.size:
            raise CodeFormatError("variable nodes must have degree exactly 2; "
                                  f"violated at {bad[:8].tolist()}")
        # a stable sort keeps each VN's two edges in check-major order
        self.vn_edge = np.argsort(self.edge_var, kind="stable").reshape(self.n, 2)
        self.flat = flatten(self)
        self.flat.setflags(write=False)
        self.syndrome = gf2.Syndrome(self.flat)

    @property
    def m(self) -> int:
        return len(self.cns)


def flatten(g: TannerGraph) -> np.ndarray:
    """Stack the component constraints of all checks into a global matrix.

    Row j*m_c + t carries component row t of check j, scattered to the
    check's incident variable nodes.  Repeated incidences XOR-accumulate.
    """
    m_c, n_c = g.component.m_c, g.component.n_c
    out = np.zeros((g.m, m_c, g.n), dtype=np.uint8)
    # (check j, row t, slot) adds H[t, slot] at the slot's variable node
    np.add.at(out, (np.arange(g.m)[:, None, None], np.arange(m_c)[:, None],
                    g.edge_var.reshape(g.m, 1, n_c)), g.component.H)
    return (out % 2).reshape(g.m * m_c, g.n)


@dataclass
class GldpcCode:
    name: str
    n: int
    k: int
    d: int          # declared metadata, never verified
    x_graph: TannerGraph
    z_graph: TannerGraph

    def __post_init__(self):
        if self.x_graph.n != self.n or self.z_graph.n != self.n:
            raise CodeFormatError("graph lengths disagree with declared n")
        h_x, h_z = self.h_x, self.h_z
        if np.any(self.x_graph.syndrome(h_z)):
            raise CodeFormatError(
                f"CSS condition violated: H_X H_Z^T != 0 for code {self.name!r}")
        # the stabilizer row spaces: a residual e ^ e_hat is harmless iff it lies
        # in the row space of the other side's checks (Z residuals in H_Z's)
        self.hx_space = gf2.RowSpace(h_x)
        self.hz_space = gf2.RowSpace(h_z)
        k = self.n - self.hx_space.rank - self.hz_space.rank
        if k != self.k:
            raise CodeFormatError(
                f"declared k={self.k} inconsistent with ranks (computed k={k})")

    @property
    def h_x(self) -> np.ndarray:
        return self.x_graph.flat

    @property
    def h_z(self) -> np.ndarray:
        return self.z_graph.flat


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def _graph_to_obj(g: TannerGraph) -> dict:
    return {"component_H": g.component.H.tolist(),
            "cns": [list(map(int, cn)) for cn in g.cns]}


def _json_int(value, name: str) -> int:
    if type(value) is not int:  # no bool, float or string is coerced
        raise CodeFormatError(f"{name} must be an integer, got {value!r}")
    return value


def _graph_from_obj(obj, n: int, label: str) -> TannerGraph:
    if label not in obj:
        raise CodeFormatError(f"missing {label} in code file")
    try:
        comp = ComponentCode([[_json_int(v, "component_H entry") for v in row]
                              for row in obj[label]["component_H"]])
        cns = [[_json_int(vn, f"check {j} VN index") for vn in cn]
               for j, cn in enumerate(obj[label]["cns"])]
    except (KeyError, TypeError, ValueError) as exc:
        raise CodeFormatError(f"malformed {label}: {exc}") from exc
    return TannerGraph(n=n, cns=cns, component=comp)


def write_code(code: GldpcCode, path) -> None:
    obj = {"name": code.name, "n": code.n, "k": code.k, "d": code.d,
           "x_graph": _graph_to_obj(code.x_graph),
           "z_graph": _graph_to_obj(code.z_graph)}
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_code(path) -> GldpcCode:
    """Load and fully validate a code file (CSS condition, degrees, k)."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise CodeFormatError(f"cannot parse code file {path}: {exc}") from exc
    try:
        name, n, k, d = obj["name"], *(_json_int(obj[key], key) for key in ("n", "k", "d"))
        if type(name) is not str:
            raise CodeFormatError(f"name must be a string, got {name!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CodeFormatError(f"missing or malformed header field in {path}: {exc}") from exc
    return GldpcCode(name=name, n=n, k=k, d=d, x_graph=_graph_from_obj(obj, n, "x_graph"),
                     z_graph=_graph_from_obj(obj, n, "z_graph"))


# ---------------------------------------------------------------------------
# built-in fixtures
# ---------------------------------------------------------------------------

def _hamming(r: int) -> np.ndarray:
    """Hamming parity checks: column c - 1 is c in binary, c = 1..2^r - 1."""
    return np.array([[(c >> b) & 1 for c in range(1, 1 << r)] for b in range(r)],
                    dtype=np.uint8)


def _steane() -> GldpcCode:
    # One Hamming constraint per side; the check node is duplicated so every
    # VN has degree two, preserving the code while exercising the schedule.
    comp = ComponentCode(_hamming(3))
    cns = [list(range(7)), list(range(7))]
    return GldpcCode(name="steane", n=7, k=1, d=3,
                     x_graph=TannerGraph(7, [list(c) for c in cns], comp),
                     z_graph=TannerGraph(7, [list(c) for c in cns], comp))


def _toric(length: int = 2) -> GldpcCode:
    L = length
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


def _gf16_times_alpha(c: int) -> int:
    c <<= 1
    if c & 16:
        c ^= 0b10011  # x^4 + x + 1
    return c


def _toy_gldpc() -> GldpcCode:
    # Hamming(15,11) component; the second check of each graph views the
    # qubits through a GF(16) multiplication permutation, an automorphism
    # of the Hamming code, so both stacked constraints define the same
    # classical code and the CSS condition holds.
    comp = ComponentCode(_hamming(4))
    ident = list(range(15))
    alpha = [_gf16_times_alpha(i + 1) - 1 for i in range(15)]
    alpha2 = [_gf16_times_alpha(_gf16_times_alpha(i + 1)) - 1 for i in range(15)]
    return GldpcCode(name="toy-gldpc", n=15, k=7, d=3,
                     x_graph=TannerGraph(15, [ident, alpha], comp),
                     z_graph=TannerGraph(15, [list(ident), alpha2], comp))


_BUILTIN_FACTORIES = {
    "steane": _steane,
    "toric": _toric,
    "toy-gldpc": _toy_gldpc,
}


def builtin_code(name: str) -> GldpcCode:
    """A built-in fixture, or ``toric-L`` for the toric code on an L x L torus, L >= 2."""
    length = name.removeprefix("toric-")
    if name.startswith("toric-") and length.isdecimal() and int(length) >= 2:
        return _toric(int(length))
    try:
        return _BUILTIN_FACTORIES[name]()
    except KeyError:
        raise KeyError(f"unknown builtin code {name!r}; available: "
                       f"{sorted(_BUILTIN_FACTORIES)} and toric-L for L >= 2") from None
