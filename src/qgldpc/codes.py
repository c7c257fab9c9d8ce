"""Component codes, Tanner graphs with ordered edges, and assembled CSS codes.

A quantum code is given here by two classical Tanner graphs: ``x_graph``
defines H_X (checking Z errors) and ``z_graph`` defines H_Z (checking X
errors).  Every variable node has degree exactly two in each graph and in
each side of a Pauli fusion (``vn_edges``); the per-check edge orderings are
semantic: they define the local views handed to the component decoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gf2


class CodeFormatError(ValueError):
    """Raised when a code file fails to parse or violates an invariant."""


def _integer(name: str, value, n=None):
    """``value`` if it is a Python or numpy integer, not a bool, and in [0, n) if n is given."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or n is not None and not 0 <= value < n):
        span = "" if n is None else f" in [0, {n})"
        raise CodeFormatError(f"{name} must be an integer{span}, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class ComponentCode:
    H: np.ndarray  # (m_c, n_c) parity-check matrix, uint8
    # ``cached``'s: SOGRAND's schedules by budget, its first-iteration tables by (params, LLR)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        H = np.asarray(self.H)
        if H.ndim != 2:
            raise CodeFormatError("component matrix must be 2-D")
        if H.shape[0] > H.shape[1]:
            raise CodeFormatError("component matrix has more rows than columns")
        try:
            object.__setattr__(self, "H", gf2.as_bits("component matrix", H))
        except ValueError as exc:
            raise CodeFormatError(f"component entries must be 0 or 1: {exc}") from None
        self.H.setflags(write=False)

    def _key(self):  # by value: the shape and bits of H (cheaper than np.array_equal)
        return self.H.shape, self.H.tobytes()

    def __eq__(self, other):
        return isinstance(other, ComponentCode) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def cached(self, key, build):
        """``key``'s value, ``build()`` on first use, kept as long as this component."""
        return self._memo[key] if key in self._memo else self._memo.setdefault(key, build())

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

    def __post_init__(self):
        n, n_c = _integer("n", self.n), self.component.n_c
        for j, cn in enumerate(self.cns):
            if len(cn) != n_c:
                raise CodeFormatError(
                    f"check {j} has {len(cn)} edges, component length is {n_c}")
        vns = [_integer(f"check {j} VN index", vn, n) for j, cn in enumerate(self.cns) for vn in cn]
        vn_edges(vns, n)  # counts them first: with 2n edges, each index in [0, n) fits intp
        self.edge_var = np.array(vns, dtype=np.intp)
        self.flat = flatten(self)
        self.flat.setflags(write=False)
        self.syndrome = gf2.Syndrome(self.flat)

    @property
    def m(self) -> int:
        return len(self.cns)


def vn_edges(edge_var, n: int) -> np.ndarray:
    """(n, 2) edges of each variable, in edge order, if each of the n has exactly two."""
    if len(edge_var) != 2 * n:
        raise CodeFormatError(f"variable nodes must have degree exactly 2; "
                              f"{len(edge_var)} edges for {n} of them")
    bad = np.flatnonzero(np.bincount(edge_var) != 2)  # with 2n edges, all of 0..n-1 hold 2
    if bad.size:
        raise CodeFormatError(f"variable nodes must have degree exactly 2, "
                              f"violated at {bad[:8].tolist()}")
    return np.argsort(edge_var, kind="stable").reshape(n, 2)


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
    d: int          # declared, not checked on load; tests check the fixtures' by enumeration
    x_graph: TannerGraph
    z_graph: TannerGraph

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise CodeFormatError(f"name must be a string, got {self.name!r}")
        for key in ("n", "k", "d"):
            _integer(key, getattr(self, key))
        if self.x_graph.n != self.n or self.z_graph.n != self.n:
            raise CodeFormatError("graph lengths disagree with declared n")
        h_x, h_z = self.h_x, self.h_z
        if np.any(self.x_graph.syndrome(h_z)):
            raise CodeFormatError(
                f"CSS condition violated: H_X H_Z^T != 0 for code {self.name!r}")
        # stabilizer row spaces: a residual e ^ e_hat is harmless iff it lies in the other
        # side's (Z in H_Z's), which the CSS check puts in ker H_X: never if e_hat misses s
        self.hx_space = gf2.RowSpace(h_x)
        self.hz_space = gf2.RowSpace(h_z)
        k = self.n - self.hx_space.rank - self.hz_space.rank
        if k != self.k:
            raise CodeFormatError(
                f"declared k={self.k} inconsistent with ranks (computed k={k})")

    @cached_property
    def paired_syndrome(self) -> gf2.Syndrome:
        """[e_z | e_x] -> [H_X e_z | H_Z e_x], a correlated decode's checks, built on first use."""
        return gf2.block_diagonal(self.x_graph.syndrome, self.z_graph.syndrome)

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


def _graph_from_obj(obj, n, label: str) -> TannerGraph:
    if label not in obj:
        raise CodeFormatError(f"missing {label} in code file")
    try:
        # ComponentCode takes any 0/1 dtype; a file's H holds JSON integers alone
        component = ComponentCode([[_integer("component_H entry", v) for v in row]
                                   for row in obj[label]["component_H"]])
        return TannerGraph(n=n, cns=obj[label]["cns"], component=component)
    except CodeFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # not the nested lists of a graph
        raise CodeFormatError(f"malformed {label}: {exc}") from exc


def write_code(code: GldpcCode, path) -> None:
    obj = {"name": code.name, "n": code.n, "k": code.k, "d": code.d,
           "x_graph": _graph_to_obj(code.x_graph),
           "z_graph": _graph_to_obj(code.z_graph)}
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_code(path) -> GldpcCode:
    """Parse a code file; the constructors validate it (fields, CSS condition, degrees, k)."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise CodeFormatError(f"cannot parse code file {path}: {exc}") from exc
    try:
        name, n, k, d = (obj[key] for key in ("name", "n", "k", "d"))
    except (KeyError, TypeError) as exc:
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
