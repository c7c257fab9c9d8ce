"""Exact linear algebra over GF(2).

Vectors and matrices cross the module boundary as numpy arrays with
entries in {0, 1}.  Every matrix-vector product H v of the package goes
through one operator, ``Syndrome``, which holds H once as an integer
matrix.  For elimination and row-space tests, rows are packed into Python
integers (bit i of a row word is column i), so those kernels reduce to XOR
and popcount.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_bits(v, length: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=np.uint8) % 2
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D bit vector, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"bit vector has length {v.shape[0]}, expected {length}")
    return v


def _as_bitmatrix(H) -> np.ndarray:
    H = np.asarray(H, dtype=np.uint8) % 2
    if H.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {H.shape}")
    return H


def pack_rows(H) -> list[int]:
    """Pack each row of a 0/1 matrix into an int (bit i = column i)."""
    H = _as_bitmatrix(H)
    words = []
    for row in H:
        w = 0
        for i in np.flatnonzero(row):
            w |= 1 << int(i)
        words.append(w)
    return words


def pack_vector(v) -> int:
    v = _as_bits(v)
    w = 0
    for i in np.flatnonzero(v):
        w |= 1 << int(i)
    return w


def unpack(word: int, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.uint8)
    for i in range(n):
        out[i] = (word >> i) & 1
    return out


class Syndrome:
    """The GF(2) map v -> H v, with H held once as an integer matrix.

    ``v`` is a bit vector of length n_cols, or an (n_cols, k) matrix whose
    columns are bit vectors; the result is a uint8 array.
    """

    def __init__(self, H):
        self.H = _as_bitmatrix(H).astype(np.int64)
        self.H.setflags(write=False)

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v)
        if v.ndim not in (1, 2) or v.shape[0] != self.H.shape[1]:
            raise ValueError(f"operand of shape {v.shape} does not fit a "
                             f"{self.H.shape[0]}x{self.H.shape[1]} matrix")
        return (self.H @ v % 2).astype(np.uint8)


@dataclass(frozen=True)
class Elimination:
    """Gauss-Jordan reduction of a matrix under an explicit column visiting order.

    ``transform`` records the row operations: transform[r] applied to the
    original rows yields reduced[r], so the same words map a syndrome s to
    the reduced system's right-hand side.
    """

    n_cols: int
    n_rows: int
    reduced: list[int]        # packed rows, pivot rows first
    transform: list[int]      # packed row-combination words (bit r = original row r)
    pivots: list[int]         # pivot column indices, in visiting order
    rank: int

    def reduced_matrix(self) -> np.ndarray:
        return np.array([unpack(w, self.n_cols) for w in self.reduced],
                        dtype=np.uint8).reshape(self.n_rows, self.n_cols)


def row_reduce(H, column_order=None) -> Elimination:
    """Gauss-Jordan elimination visiting columns in ``column_order``.

    Returns the reduced matrix, the pivot columns (the first ``rank``
    independent columns in visiting order) and the GF(2) rank.
    """
    H = _as_bitmatrix(H)
    m, n = H.shape
    if column_order is None:
        column_order = range(n)
    order = [int(c) for c in column_order]
    if sorted(order) != list(range(n)):
        raise ValueError("column_order must be a permutation of range(n_cols)")

    rows = pack_rows(H)
    trans = [1 << r for r in range(m)]
    pivots: list[int] = []
    pivot_row = 0
    for col in order:
        bit = 1 << col
        found = -1
        for r in range(pivot_row, m):
            if rows[r] & bit:
                found = r
                break
        if found < 0:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        trans[pivot_row], trans[found] = trans[found], trans[pivot_row]
        for r in range(m):
            if r != pivot_row and rows[r] & bit:
                rows[r] ^= rows[pivot_row]
                trans[r] ^= trans[pivot_row]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == m:
            break
    return Elimination(n_cols=n, n_rows=m, reduced=rows, transform=trans,
                       pivots=pivots, rank=len(pivots))


def rank(H) -> int:
    return row_reduce(H).rank


class RowSpace:
    """Reduced row basis supporting fast membership tests."""

    def __init__(self, H):
        H = _as_bitmatrix(H)
        self.n_cols = H.shape[1]
        self._basis: list[tuple[int, int]] = []  # (leading column bit, word)
        for w in pack_rows(H):
            self.add(w)

    def _reduce_word(self, w: int) -> int:
        for bit, bw in self._basis:
            if w & bit:
                w ^= bw
        return w

    def add(self, w: int) -> bool:
        """Add a packed row; returns True if it enlarged the span."""
        w = self._reduce_word(w)
        if w == 0:
            return False
        self._basis.append((w & -w, w))
        return True

    def contains(self, r) -> bool:
        r = _as_bits(r, self.n_cols)
        return self._reduce_word(pack_vector(r)) == 0


def null_space(H) -> list[np.ndarray]:
    """Basis of the right kernel of H over GF(2)."""
    H = _as_bitmatrix(H)
    m, n = H.shape
    elim = row_reduce(H)
    pivot_set = set(elim.pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = np.zeros(n, dtype=np.uint8)
        v[free] = 1
        for r in range(elim.rank):
            if (elim.reduced[r] >> free) & 1:
                v[elim.pivots[r]] = 1
        basis.append(v)
    return basis
