"""Exact linear algebra over GF(2).

Vectors and matrices are numpy arrays with entries in {0, 1}, inside the
module as at its boundary.  Every product H v goes through one operator,
``Syndrome``, on rows as callers hold them: (n,) or (T, n).  It holds H
once as a float64 matrix for BLAS, whose counts are integers below 2^53,
exact in any summation order (SOGRAND's block kernel alone uses integer
syndrome codes of its own).  Elimination XORs whole rows of a copy of its
input; row-space tests and OSD's solve of ``[H | s]`` read its result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_bitmatrix(H) -> np.ndarray:
    H = np.asarray(H, dtype=np.uint8) % 2
    if H.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {H.shape}")
    return H


class Syndrome:
    """The GF(2) map v -> H v, with H held once as a float64 matrix.

    ``v`` is a bit vector of length n_cols, or a (T, n_cols) block whose rows
    are bit vectors; the result, (m,) or (T, m), is a uint8 array.
    """

    def __init__(self, H):
        self.H = _as_bitmatrix(H).astype(np.float64)
        self.H.setflags(write=False)

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v)
        if v.ndim not in (1, 2) or v.shape[-1] != self.H.shape[1]:
            raise ValueError(f"operand of shape {v.shape} does not fit a "
                             f"{self.H.shape[0]}x{self.H.shape[1]} matrix")
        # counts are exact integers; int64 -> uint8 wraps mod 256, keeping parity
        return (v @ self.H.T).astype(np.int64).astype(np.uint8) & 1


@dataclass(frozen=True)
class Elimination:
    """Gauss-Jordan reduction of a matrix under an explicit column visiting order.

    Rows past ``rank`` of ``reduced`` are zero.  Of ``[H | s]``, s visited
    last: s is a pivot iff H e = s has no solution, else ``reduced[:rank, n]``
    holds the pivot bits of the solution that is zero off the pivots.
    """

    reduced: np.ndarray       # (m, n) uint8, pivot rows first
    pivots: np.ndarray        # (rank,) intp pivot column indices, in visiting order

    @property
    def rank(self) -> int:
        return len(self.pivots)


def row_reduce(H, column_order=None) -> Elimination:
    """Gauss-Jordan elimination visiting columns in ``column_order``.

    Returns the reduced matrix and the pivot columns: the first ``rank``
    independent columns in visiting order.  The input is not modified.
    """
    A = _as_bitmatrix(H)  # a fresh copy, reduced in place
    m, n = A.shape
    if column_order is None:
        column_order = range(n)
    order = [int(c) for c in column_order]
    if sorted(order) != list(range(n)):
        raise ValueError("column_order must be a permutation of range(n_cols)")

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
    return Elimination(reduced=A, pivots=np.array(pivots, dtype=np.intp))


class RowSpace:
    """Reduced row basis of a matrix, for membership tests."""

    def __init__(self, H):
        elim = row_reduce(H)
        self.rank = elim.rank
        self._pivots = elim.pivots
        self._combine = Syndrome(elim.reduced[:elim.rank].T)  # coefficients -> vector

    def contains(self, r):
        """Whether r, a bit vector or each row of a (T, n) block, is in the row space."""
        n = self._combine.H.shape[0]
        r = np.asarray(r, dtype=np.uint8) % 2
        if r.ndim not in (1, 2) or r.shape[-1] != n:
            raise ValueError(f"expected bit vectors of length {n}, got shape {r.shape}")
        # the basis is reduced, so the only candidate combination is the one
        # whose coefficients are r's pivot bits
        return (self._combine(r[..., self._pivots]) == r).all(axis=-1)
