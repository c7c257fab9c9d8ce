"""Exact linear algebra over GF(2).

Vectors and matrices are numpy arrays with entries in {0, 1}, inside the
module as at its boundary, where ``as_bits``, the package's one bit check,
rejects anything else by name.  Every product H v of the decode path is one
gather, ``Syndrome``'s, on rows as callers hold them, (n,) or (T, n): their bits
at H's nonzeros, its ``support`` built with it, XORed over the slots, exact for any n
(SOGRAND's block kernel alone uses integer syndrome codes of its own).  It serves
a block of several operators' rows (``stacked_syndrome``) and two operators paired
once (``block_diagonal``).  Elimination reduces packed-int columns against an XOR
basis to the one reduced form of a visiting order, which row-space tests and OSD's
solve of ``[H | s]`` read; ``RowSpace``, whose basis is dense, alone takes a product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    """The GF(2) map v -> H v, a gather at H's nonzeros.

    ``v``: bits (unchecked, as decoders call this every iteration; callers use ``as_bits``),
    (n_cols,) or (T, n_cols); the result, (m,) or (T, m), uint8.  ``H`` is kept as read-only
    bits, and ``support`` as its nonzeros slot-major: (d, m) columns, the j-th nonzero of row
    i at [j, i], d the largest row weight; a lighter row's last slots hold column n, one past
    H's, which reads zero."""

    def __init__(self, H):
        self.H = _as_bitmatrix(H)
        rows, cols = np.nonzero(self.H)
        weight = np.bincount(rows, minlength=len(self.H))
        self.support = np.full((weight.max(initial=0), len(weight)), self.H.shape[1])
        self.support[np.arange(len(rows)) - (np.cumsum(weight) - weight)[rows], rows] = cols
        self.H.setflags(write=False)
        self.support.setflags(write=False)

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v)
        if v.ndim not in (1, 2) or v.shape[-1] != self.H.shape[1]:
            raise ValueError(f"operand of shape {v.shape} does not fit a "
                             f"{self.H.shape[0]}x{self.H.shape[1]} matrix")
        bits = np.zeros((v.shape[-1] + 1,) + v.shape[:-1], np.uint8)
        return _parity(bits, v, self.support).T  # (m, T) -> a row per row of v


def _parity(bits, v, at):
    """The gather both forms share: v's (n,) or (T, n) bits go column by column into ``bits``,
    whose row n stays zero for pads to read; its rows at ``at`` (d, ...) XOR over the d slots."""
    bits[:-1] = v.T
    return np.bitwise_xor.reduce(bits.take(at, axis=0), axis=0)  # at.shape[1:] + (T,)


def stacked_syndrome(checks, sid):
    """v -> H_i v on a stacked (A, n) block, row a against ``checks[sid[a]]`` (all of one
    shape), with ``Syndrome``'s bits, unchecked: one operator is its own test; several gather
    the block as one operand of A*n bits, rows offset to their places, pads to its zero bit."""
    if len(checks) == 1:  # one support serves every row: no per-row index
        return checks[0]
    (m, n), d = checks[0].H.shape, max(len(check.support) for check in checks)
    tables = np.stack([np.vstack([check.support, np.full((d - len(check.support), m), n)])
                       for check in checks], axis=1)  # (d, k, m)
    tables[tables == n], bits = n * len(sid), np.zeros(len(sid) * n + 1, np.uint8)
    at = np.minimum(tables.take(sid, axis=1) + n * np.arange(len(sid))[:, None], n * len(sid))
    return lambda v: _parity(bits, v.reshape(-1), at)  # at: (d, A, m), C order


@lru_cache(maxsize=8)
def block_diagonal(a: Syndrome, b: Syndrome) -> Syndrome:
    """The operator of [[H_a, 0], [0, H_b]], built once per pair."""
    return Syndrome(np.block([[a.H, np.zeros((len(a.H), b.H.shape[1]))],
                              [np.zeros((len(b.H), a.H.shape[1])), b.H]]))


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
        if len(elim.reduced) > 2**24:  # float32 counts of up to m products are exact to 2^24
            raise ValueError(f"a matrix of {len(elim.reduced)} rows has more than 2^24 rows")
        self.rank, self._pivots = elim.rank, elim.pivots
        self._basis = elim.reduced[:elim.rank].astype(np.float32)  # dense: a product, not a gather

    def contains(self, r):
        """Whether r, a bit vector or each row of a (T, n) block, is in the row space."""
        n = self._basis.shape[1]
        r = as_bits("vectors", r)
        if r.ndim not in (1, 2) or r.shape[-1] != n:
            raise ValueError(f"expected bit vectors of length {n}, got shape {r.shape}")
        # the basis is reduced: the one candidate combination has r's pivot bits as its
        # coefficients; counts are exact integers, and int64 -> uint8 keeps their parity
        combo = (r[..., self._pivots] @ self._basis).astype(np.int64).astype(np.uint8) & 1
        return (combo == r).all(axis=-1)
