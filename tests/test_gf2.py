import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgldpc import gf2

HAMMING = np.array([[1, 0, 1, 0, 1, 0, 1],
                    [0, 1, 1, 0, 0, 1, 1],
                    [0, 0, 0, 1, 1, 1, 1]], dtype=np.uint8)


def brute_force_rank(H):
    """Size of a maximal independent row set, by trying all row subsets."""
    H = np.asarray(H, dtype=np.uint8) % 2
    m = H.shape[0]
    best = 0
    for size in range(m, 0, -1):
        for rows in itertools.combinations(range(m), size):
            sub = H[list(rows)]
            # independent iff no nonempty subset XORs to zero
            independent = True
            for r in range(1, 1 << size):
                acc = np.zeros(H.shape[1], dtype=np.uint8)
                for i in range(size):
                    if (r >> i) & 1:
                        acc ^= sub[i]
                if not acc.any():
                    independent = False
                    break
            if independent:
                return size
    return best


class TestMatVecMul:
    """The syndrome operator, gf2.Syndrome: H v over GF(2)."""

    def test_hamming_last_unit_vector(self):
        v = np.zeros(7, dtype=np.uint8)
        v[6] = 1
        assert gf2.Syndrome(HAMMING)(v).tolist() == [1, 1, 1]

    def test_zero_vector(self):
        assert not gf2.Syndrome(HAMMING)(np.zeros(7)).any()

    def test_identity(self):
        v = np.array([1, 0, 1, 0])
        assert gf2.Syndrome(np.eye(4))(v).tolist() == [1, 0, 1, 0]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gf2.Syndrome(HAMMING)(np.zeros(6))

    def test_matrix_operand_is_columnwise(self):
        rng = np.random.default_rng(12)
        V = rng.integers(0, 2, size=(7, 5), dtype=np.uint8)
        out = gf2.Syndrome(HAMMING)(V)
        assert out.dtype == np.uint8
        for k in range(5):
            assert np.array_equal(out[:, k], gf2.Syndrome(HAMMING)(V[:, k]))

    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1),
           st.integers(1, 200))
    @settings(max_examples=200)
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        H = rng.integers(0, 2, size=(5, 12), dtype=np.uint8)
        v = np.array([(a >> i) & 1 for i in range(12)], dtype=np.uint8)
        w = np.array([(b >> i) & 1 for i in range(12)], dtype=np.uint8)
        lhs = gf2.Syndrome(H)(v ^ w)
        rhs = gf2.Syndrome(H)(v) ^ gf2.Syndrome(H)(w)
        assert np.array_equal(lhs, rhs)


class TestRowReduce:
    def test_identity(self):
        elim = gf2.row_reduce(np.eye(5))
        assert elim.rank == 5
        assert elim.pivots == [0, 1, 2, 3, 4]

    def test_duplicate_row_does_not_change_rank(self):
        H2 = np.vstack([HAMMING, HAMMING[1]])
        assert gf2.row_reduce(H2).rank == gf2.row_reduce(HAMMING).rank

    def test_hamming_pivots(self):
        elim = gf2.row_reduce(HAMMING)
        assert elim.rank == 3
        assert elim.pivots == [0, 1, 3]

    def test_column_order_changes_pivots(self):
        order = [6, 5, 4, 3, 2, 1, 0]
        elim = gf2.row_reduce(HAMMING, column_order=order)
        assert elim.rank == 3
        assert elim.pivots == [6, 5, 4]

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            gf2.row_reduce(HAMMING, column_order=[0, 0, 1, 2, 3, 4, 5])

    def test_zero_matrix(self):
        elim = gf2.row_reduce(np.zeros((3, 4)))
        assert elim.rank == 0 and elim.pivots == []

    def test_rank_against_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m, n = rng.integers(1, 7), rng.integers(1, 9)
            H = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
            assert gf2.row_reduce(H).rank == brute_force_rank(H)


def solve_coset(elim, s, non_pivot_fill=None):
    """Solve H v = s from a row_reduce record, non-pivots fixed to the fill.

    Uses the record the way OSD does: transform rows map s to the reduced
    system's right-hand side.  None when the system is inconsistent.
    """
    s_word = gf2.pack_vector(s)
    fill_word = 0 if non_pivot_fill is None else gf2.pack_vector(non_pivot_fill)
    for c in elim.pivots:
        fill_word &= ~(1 << c)
    v_word = fill_word
    for r in range(elim.rank):
        rhs = (bin(elim.transform[r] & s_word).count("1")
               + bin(elim.reduced[r] & fill_word).count("1")) & 1
        v_word |= rhs << elim.pivots[r]
    if any(bin(elim.transform[r] & s_word).count("1") & 1
           for r in range(elim.rank, elim.n_rows)):
        return None
    return gf2.unpack(v_word, elim.n_cols)


class TestSolveCoset:
    """row_reduce's record (reduced rows, transform, pivots) solves H v = s."""

    def test_zero_syndrome(self):
        elim = gf2.row_reduce(HAMMING)
        v = solve_coset(elim, np.zeros(3))
        assert not v.any()

    def test_hamming_back_substitution(self):
        elim = gf2.row_reduce(HAMMING)
        s = np.array([1, 1, 1], dtype=np.uint8)
        v = solve_coset(elim, s)
        assert np.array_equal(gf2.Syndrome(HAMMING)(v), s)

    def test_column_as_syndrome(self):
        elim = gf2.row_reduce(HAMMING)
        for j in range(7):
            v = solve_coset(elim, HAMMING[:, j])
            assert np.array_equal(gf2.Syndrome(HAMMING)(v), HAMMING[:, j])

    def test_non_pivot_fill_respected(self):
        elim = gf2.row_reduce(HAMMING)
        fill = np.array([0, 0, 1, 0, 1, 1, 0], dtype=np.uint8)
        s = np.array([0, 1, 1], dtype=np.uint8)
        v = solve_coset(elim, s, non_pivot_fill=fill)
        assert np.array_equal(gf2.Syndrome(HAMMING)(v), s)
        non_pivots = [c for c in range(7) if c not in elim.pivots]
        assert np.array_equal(v[non_pivots], fill[non_pivots])

    def test_inconsistent_system_returns_none(self):
        H = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        elim = gf2.row_reduce(H)
        assert solve_coset(elim, np.array([1, 0])) is None

    def test_random_consistent_systems(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m, n = rng.integers(1, 7), rng.integers(1, 10)
            H = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
            e = rng.integers(0, 2, size=n, dtype=np.uint8)
            s = gf2.Syndrome(H)(e)
            v = solve_coset(gf2.row_reduce(H), s)
            assert v is not None
            assert np.array_equal(gf2.Syndrome(H)(v), s)


class TestRowSpace:
    def test_own_rows_are_members(self):
        for row in HAMMING:
            assert gf2.RowSpace(HAMMING).contains(row)

    def test_zero_is_member(self):
        assert gf2.RowSpace(HAMMING).contains(np.zeros(7))

    def test_all_ones_logical_not_in_steane_hz(self):
        # all-ones is a logical operator of the Steane code
        assert not gf2.RowSpace(HAMMING).contains(np.ones(7, dtype=np.uint8))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gf2.RowSpace(HAMMING).contains(np.zeros(6))

    def test_matches_rank_comparison(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            H = rng.integers(0, 2, size=(4, 8), dtype=np.uint8)
            r = rng.integers(0, 2, size=8, dtype=np.uint8)
            expected = gf2.rank(np.vstack([H, r])) == gf2.rank(H)
            assert gf2.RowSpace(H).contains(r) == expected


class TestNullSpace:
    def test_hamming_kernel(self):
        basis = gf2.null_space(HAMMING)
        assert len(basis) == 4
        for v in basis:
            assert not gf2.Syndrome(HAMMING)(v).any()
        assert gf2.rank(np.array(basis)) == 4
