"""Exact linear algebra over GF(2).

Vectors and matrices are numpy arrays with entries in {0, 1}, inside the
module as at its boundary, where ``as_bits``, the package's one bit check,
rejects anything else by name.  Every product H v goes through one operator,
``Syndrome``, on rows as callers hold them: (n,) or (T, n).  It holds H
once as a float32 matrix for BLAS: with at most 2^24 columns, its counts are
integers exact in any summation order (SOGRAND's block kernel alone uses integer
syndrome codes of its own).  Its support form, H's nonzeros slot-major, kept
once per operator, gives the same bits for a block whose rows belong to several
operators of one shape (``stacked_syndrome``: the flooding loop's two graphs)
by one gather and one XOR over the slots.  Elimination reduces packed-int
columns against an XOR basis to the one reduced form of a visiting order, which
row-space tests and OSD's solve of ``[H | s]`` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def as_bits(name: str, v) -> np.ndarray:
    """``v`` as a uint8 array, if every entry is 0 or 1 (any integer, float or bool dtype)."""
    v = np.asarray(v)
    if not ((v == 0) | (v == 1)).all():
        raise ValueError(f"{name} of shape {v.shape} must hold only 0s and 1s")
    return v.astype(np.uint8)


def _as_bitmatrix(H) -> np.ndarray:
    H = as_bits("matrix", H)
    if H.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {H.shape}")
    return H


class Syndrome:
    """The GF(2) map v -> H v, with H held once as a float32 matrix.

    ``v``: bits (unchecked, as decoders call this every iteration; callers use
    ``as_bits``), (n_cols,) or (T, n_cols); the result, (m,) or (T, m), uint8.
    """

    def __init__(self, H):
        H = _as_bitmatrix(H)
        if H.shape[1] > 2**24:  # a count past 2^24 may round in float32
            raise ValueError(f"a {H.shape[0]}x{H.shape[1]} matrix has more than 2^24 columns")
        self.H = H.astype(np.float32)
        self.H.setflags(write=False)

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v)
        if v.ndim not in (1, 2) or v.shape[-1] != self.H.shape[1]:
            raise ValueError(f"operand of shape {v.shape} does not fit a "
                             f"{self.H.shape[0]}x{self.H.shape[1]} matrix")
        # counts are exact integers; int64 -> uint8 wraps mod 256, keeping parity
        return (v @ self.H.T).astype(np.int64).astype(np.uint8) & 1

    @cached_property
    def support(self) -> np.ndarray:
        """H's nonzeros slot-major, computed once: (d, m) columns, the j-th nonzero
        of row i at [j, i], d the largest row weight; a lighter row's last slots
        hold column n, one past H's, which reads zero in ``stacked_syndrome``."""
        rows, cols = np.nonzero(self.H)
        weight = np.bincount(rows, minlength=len(self.H))
        table = np.full((weight.max(initial=0), len(weight)), self.H.shape[1])
        table[np.arange(len(rows)) - (np.cumsum(weight) - weight)[rows], rows] = cols
        table.setflags(write=False)
        return table


def stacked_syndrome(checks, sid):
    """v -> H_i v on a stacked (A, n) block, row a against ``checks[sid[a]]`` (all of
    one shape), as a function: each row's bits are gathered at its operator's
    ``support`` and XORed slot by slot, one call for all rows.  Like ``Syndrome``,
    it takes unchecked bits and gives (A, m) uint8, the same ones."""
    (m, n), d = checks[0].H.shape, max(len(check.support) for check in checks)
    tables = np.stack([np.vstack([check.support, np.full((d - len(check.support), m), n)])
                       for check in checks])  # (k, d, m): pads read column n
    at = (tables[sid] + (n + 1) * np.arange(len(sid))[:, None, None]).transpose(1, 0, 2)
    at, bits = at.reshape(d, len(sid) * m), np.zeros((len(sid), n + 1), np.uint8)  # (d, A*m)

    def parity(v):  # row a's last column of bits stays zero: its pads read it
        bits[:, :-1] = v
        return np.bitwise_xor.reduce(bits.reshape(-1).take(at), axis=0).reshape(len(sid), m)
    return parity


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
    """Gauss-Jordan elimination visiting columns in ``column_order`` (1-D, integer).

    Returns the reduced matrix and the pivot columns: the first ``rank``
    independent columns in visiting order.  The input is not modified.  Rows
    ``[:rank]`` are unique: row i is the one vector of H's row space that is 1
    at pivot i and 0 at the other pivots, so column c holds the coefficients
    of H's column c on the pivot columns.  That is what the loop computes: a
    word holds a column packed into an int (bit i = row i) above bit m, and
    the mask of pivot columns summed into it below.  Each word is reduced
    against the pivots' words, keyed by bit length; a nonzero residue makes
    its column the next pivot, a zero one leaves the coefficients.
    """
    A = _as_bitmatrix(H)
    m, n = A.shape
    order = np.arange(n) if column_order is None else np.asarray(column_order)
    if (order.ndim != 1 or (order.size and order.dtype.kind not in "iu")
            or sorted(order.tolist()) != list(range(n))):
        raise ValueError("column_order must be a permutation of range(n_cols)")

    width = (m + 7) // 8
    packed = np.packbits(np.ascontiguousarray(A.T), axis=1, bitorder="little").tobytes()
    basis, coeffs, pivots = {}, [0] * n, []  # basis: bit length -> word
    for col in order.tolist():
        word = int.from_bytes(packed[col * width:(col + 1) * width], "little") << m
        while (top := word.bit_length()) > m and top in basis:
            word ^= basis[top]
        if top > m:  # residue = column + masked pivots, so the pivot joins the mask
            basis[top], word = word | 1 << len(pivots), 1 << len(pivots)
            pivots.append(col)
        coeffs[col] = word
    coeffs = np.frombuffer(b"".join(c.to_bytes(width, "little") for c in coeffs), np.uint8)
    reduced = np.unpackbits(coeffs.reshape(n, width), axis=1, count=m, bitorder="little")
    return Elimination(reduced.T, np.array(pivots, dtype=np.intp))


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
        r = as_bits("vectors", r)
        if r.ndim not in (1, 2) or r.shape[-1] != n:
            raise ValueError(f"expected bit vectors of length {n}, got shape {r.shape}")
        # the basis is reduced, so the only candidate combination is the one
        # whose coefficients are r's pivot bits
        return (self._combine(r[..., self._pivots]) == r).all(axis=-1)
