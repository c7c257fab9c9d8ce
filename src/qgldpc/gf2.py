"""Exact linear algebra over GF(2).

Vectors and matrices are numpy arrays with entries in {0, 1}, inside the
module as at its boundary.  Every matrix-vector product H v of the package
goes through one operator, ``Syndrome``, which holds H once as an integer
matrix (SOGRAND's block kernel alone uses integer syndrome codes of its own).
Elimination works on ``[H | I]`` with whole-row XORs and records the row
operations; row-space tests and kernels are read from its result.
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

    ``transform`` records the row operations: transform @ H == reduced
    (mod 2), so ``transform`` also maps a syndrome s to the reduced
    system's right-hand side.  Rows past ``rank`` of ``reduced`` are zero.
    """

    reduced: np.ndarray       # (m, n) uint8, pivot rows first
    transform: np.ndarray     # (m, m) uint8
    pivots: list[int]         # pivot column indices, in visiting order
    rank: int


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

    A = np.concatenate([H, np.eye(m, dtype=np.uint8)], axis=1)  # [H | I]
    pivots: list[int] = []
    for col in order:
        r = len(pivots)
        if r == m:
            break
        p = r + int(A[r:, col].argmax())  # the first row at or below r with a 1, if any
        if not A[p, col]:
            continue
        if p != r:
            A[[r, p]] = A[[p, r]]
        rows = np.flatnonzero(A[:, col])
        A[rows[rows != r]] ^= A[r]
        pivots.append(col)
    return Elimination(reduced=A[:, :n], transform=A[:, n:], pivots=pivots,
                       rank=len(pivots))


def rank(H) -> int:
    return row_reduce(H).rank


class RowSpace:
    """Reduced row basis of a matrix, for membership tests."""

    def __init__(self, H):
        elim = row_reduce(H)
        self.rank = elim.rank
        self._basis = elim.reduced[:elim.rank]
        self._pivots = np.array(elim.pivots, dtype=np.intp)

    def contains(self, r) -> bool:
        r = _as_bits(r, self._basis.shape[1])
        # the basis is reduced, so the only candidate combination is the one
        # whose coefficients are r's pivot bits
        combo = np.bitwise_xor.reduce(self._basis[r[self._pivots].astype(bool)], axis=0)
        return combo.tobytes() == r.tobytes()  # cheaper than np.array_equal here


def null_space(H) -> np.ndarray:
    """Basis of the right kernel of H over GF(2), one vector per row."""
    elim = row_reduce(H)
    n = elim.reduced.shape[1]
    free = np.setdiff1d(np.arange(n), elim.pivots)
    basis = np.zeros((free.size, n), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, elim.pivots] = elim.reduced[:elim.rank, free].T
    return basis
