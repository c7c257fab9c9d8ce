import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
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


@st.composite
def bit_matrices(draw, max_rows=6, max_cols=9):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    bits = draw(st.lists(st.integers(0, 1), min_size=m * n, max_size=m * n))
    return np.array(bits, dtype=np.uint8).reshape(m, n)


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

    def test_block_operand_is_rowwise(self):
        rng = np.random.default_rng(12)
        V = rng.integers(0, 2, size=(5, 7), dtype=np.uint8)
        out = gf2.Syndrome(HAMMING)(V)
        assert out.dtype == np.uint8 and out.shape == (5, 3)
        for k in range(5):
            assert np.array_equal(out[k], gf2.Syndrome(HAMMING)(V[k]))

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


def parity_oracle(H, v):
    """H v over GF(2) in plain Python: one parity per (row of v, row of H)."""
    vs = [v] if v.ndim == 1 else list(v)
    out = [[sum(int(h) & int(x) for h, x in zip(row, vec)) % 2 for row in H.tolist()]
           for vec in vs]
    return np.array(out, dtype=np.uint8).reshape(v.shape[:-1] + (len(H),))


def mixed_rows(rng, m, n, density):
    """An (m, n) bit matrix whose rows differ in weight: each row's density is
    ``density`` or a fresh draw, and all-ones and all-zero rows are mixed in."""
    H = (rng.random((m, n)) < np.where(rng.random((m, 1)) < 0.5, density,
                                       rng.random((m, 1)))).astype(np.uint8)
    H[rng.random(m) < 0.3] = 1
    H[rng.random(m) < 0.2] = 0
    return H


@st.composite
def syndrome_operands(draw):
    """H with rows of unequal weight, all-ones and all-zero rows mixed in (up to
    width 600: the largest counts; m = 0 and n = 0 too), and an (n,) or (T, n)
    operand, or a square (n, n) one up to width 64 (keeps the plain-Python
    oracle fast), as uint8, bool or float 0/1."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = draw(st.integers(0, 6))
    n = draw(st.sampled_from([0, 1, 2, 7, 64, 255, 256, 257, 600]))
    H = mixed_rows(rng, m, n, draw(st.sampled_from([0.1, 0.5, 0.9])))
    shapes = [(n,), (draw(st.integers(1, 4)), n)] + [(n, n)] * (n <= 64)
    shape = draw(st.sampled_from(shapes))
    v = (rng.random(shape) < draw(st.sampled_from([0.5, 1.0]))).astype(np.uint8)
    return H, v.astype(draw(st.sampled_from([np.uint8, np.bool_, np.float64])))


@st.composite
def wide_syndrome_operands(draw):
    """H up to 70,000 columns wide (m = 0 and n = 0 too), rows of unequal weight
    with all-ones and all-zero rows mixed in, and an (n,) or (T, n) operand of
    0/1 uint8, so that counts reach the tens of thousands."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(0, 4)), draw(st.sampled_from([0, 1, 7, 600, 4097, 70_000]))
    H = mixed_rows(rng, m, n, draw(st.sampled_from([0.1, 0.5])))
    shape = draw(st.sampled_from([(n,), (draw(st.integers(1, 3)), n)]))
    return H, (rng.random(shape) < draw(st.sampled_from([0.5, 1.0]))).astype(np.uint8)


class TestSyndromeAgainstParityOracle:
    @given(wide_syndrome_operands())
    @settings(max_examples=60, deadline=None)
    def test_matches_int64_product(self, case):
        # the parities of exact integer counts
        H, v = case
        want = (v.astype(np.int64) @ H.T.astype(np.int64)) % 2
        assert np.array_equal(gf2.Syndrome(H)(v), want)

    @given(syndrome_operands())
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_python_parities(self, case):
        H, v = case
        out, want = gf2.Syndrome(H)(v), parity_oracle(H, v)
        assert out.dtype == np.uint8 and out.shape == want.shape
        assert out.tobytes() == want.tobytes()

    def test_square_block_is_rows(self):
        # a square block fits rows and columns alike, so only the values tell
        # a row-wise product from a column-wise one
        rng = np.random.default_rng(5)
        H = rng.integers(0, 2, size=(6, 6), dtype=np.uint8)
        V = rng.integers(0, 2, size=(6, 6), dtype=np.uint8)
        out = gf2.Syndrome(H)(V)
        assert np.array_equal(out, parity_oracle(H, V))
        assert not np.array_equal(out, parity_oracle(H, V.T).T)

    def test_all_ones_counts_past_uint8(self):
        for n in (255, 256, 257, 511, 512, 599, 600):
            out = gf2.Syndrome(np.ones((1, n)))(np.ones(n, dtype=np.uint8))
            assert out.dtype == np.uint8 and out.tolist() == [n % 2]

    def test_matrix_is_read_only(self):
        op = gf2.Syndrome(HAMMING)
        with pytest.raises(ValueError):
            op.H[0, 0] = 0


@st.composite
def stacked_operands(draw):
    """Two operators of one (m, n) shape, with 0 rows, empty rows or columns and
    all-ones rows mixed in, and an (A, n) block of uint8 bits whose row a is to be
    checked against operator sid[a]; sid is sorted (each operator's rows
    contiguous, as the flooding loop stacks them) or in any order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(0, 6)), draw(st.sampled_from([0, 1, 2, 7, 16]))
    ops = []
    for _ in range(2):
        H = (rng.random((m, n)) < draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))).astype(np.uint8)
        H[rng.random(m) < 0.3] = 1
        H[rng.random(m) < 0.3] = 0
        H[:, rng.random(n) < 0.2] = 0
        ops.append(gf2.Syndrome(H))
    sid = rng.integers(0, 2, size=draw(st.integers(0, 8)))
    sid = np.sort(sid) if draw(st.booleans()) else sid
    return ops, sid, rng.integers(0, 2, size=(len(sid), n), dtype=np.uint8)


class TestSupportForm:
    @given(stacked_operands())
    @settings(max_examples=200, deadline=None)
    def test_stacked_parities_are_the_products(self, case):
        # row a of the stacked test is operator sid[a]'s product, byte for byte
        ops, sid, v = case
        got = gf2.stacked_syndrome(ops, sid)(v)
        want = np.array([ops[k](row) for k, row in zip(sid, v)], np.uint8).reshape(
            len(sid), len(ops[0].H))
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # one operator: the product of the whole block
        alone = gf2.stacked_syndrome(ops[:1], np.zeros_like(sid))(v)
        assert alone.tobytes() == ops[0](v).tobytes()

    @given(stacked_operands())
    @settings(max_examples=100, deadline=None)
    def test_support_lists_each_nonzero_once(self, case):
        # column j of row i's slots: its nonzeros in order, then pads at column n
        (op, _), _, _ = case
        m, n = op.H.shape
        table = op.support
        assert table.shape == (int(op.H.sum(axis=1).max(initial=0)), m)
        for i in range(m):
            cols = np.flatnonzero(op.H[i])
            assert table[:len(cols), i].tolist() == cols.tolist()
            assert (table[len(cols):, i] == n).all()
        assert op.support is table and not table.flags.writeable


class TestRowReduce:
    def test_identity(self):
        elim = gf2.row_reduce(np.eye(5))
        assert elim.rank == 5
        assert elim.pivots.tolist() == [0, 1, 2, 3, 4]

    def test_duplicate_row_does_not_change_rank(self):
        H2 = np.vstack([HAMMING, HAMMING[1]])
        assert gf2.row_reduce(H2).rank == gf2.row_reduce(HAMMING).rank

    def test_hamming_pivots(self):
        elim = gf2.row_reduce(HAMMING)
        assert elim.rank == 3
        assert elim.pivots.tolist() == [0, 1, 3]

    def test_column_order_changes_pivots(self):
        order = [6, 5, 4, 3, 2, 1, 0]
        elim = gf2.row_reduce(HAMMING, column_order=order)
        assert elim.rank == 3
        assert elim.pivots.tolist() == [6, 5, 4]

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            gf2.row_reduce(HAMMING, column_order=[0, 0, 1, 2, 3, 4, 5])

    @pytest.mark.parametrize("order", [
        [0.5, 1.9, 2.2],          # would truncate to a permutation
        [0.0, 1.0, 2.0],          # integral, but not integers
        np.array([0, 1, 2], dtype=float),
        [True, False, True],
        [[0, 1, 2]],              # 2-D
        np.arange(3)[:, None],
        2,                        # 0-D
        "012",
        [0, 1], [0, 1, 2, 3], [0, 1, 3], [-1, 0, 1],
    ], ids=["fractions", "integral-floats", "float-array", "bools", "nested-list",
            "column-array", "scalar", "string", "short", "long", "gap", "negative"])
    def test_strict_column_order(self, order):
        with pytest.raises(ValueError, match="column_order"):
            gf2.row_reduce(np.eye(3), column_order=order)

    @pytest.mark.parametrize("order", [[2, 0, 1], (2, 0, 1), range(2, -1, -1),
                                       np.array([2, 0, 1], dtype=np.uint8),
                                       np.array([2, 0, 1], dtype=np.int32)], ids=repr)
    def test_integer_orders_accepted(self, order):
        elim = gf2.row_reduce(np.eye(3), column_order=order)
        assert elim.pivots.tolist() == list(order)

    @pytest.mark.parametrize("m", [0, 3])
    def test_empty_order_for_no_columns(self, m):
        elim = gf2.row_reduce(np.zeros((m, 0)), column_order=[])
        assert elim.rank == 0 and elim.reduced.shape == (m, 0)

    def test_zero_matrix(self):
        elim = gf2.row_reduce(np.zeros((3, 4)))
        assert elim.rank == 0 and elim.pivots.tolist() == []

    @given(bit_matrices(), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_elimination_record(self, H, rnd):
        m, n = H.shape
        order = list(range(n))
        rnd.shuffle(order)
        elim = gf2.row_reduce(H, column_order=order)
        assert elim.reduced.dtype == np.uint8 and elim.pivots.dtype == np.intp
        assert elim.reduced.shape == (m, n)
        # the reduced rows lie in H's row space: orthogonal to all of ker H
        pats = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
        kernel = pats[~gf2.Syndrome(H)(pats).any(axis=1)]
        assert not gf2.Syndrome(elim.reduced)(kernel).any()
        assert elim.rank == len(elim.pivots) == brute_force_rank(H)
        # pivots are the first independent columns in visiting order
        pivots = elim.pivots.tolist()
        assert pivots == [c for c in order if c in pivots]
        unit = np.eye(m, dtype=np.uint8)[:, :elim.rank]
        assert np.array_equal(elim.reduced[:, elim.pivots], unit)
        assert not elim.reduced[elim.rank:].any()

    def test_input_unchanged(self):
        H = np.vstack([HAMMING, HAMMING[0]])
        before = H.copy()
        elim = gf2.row_reduce(H, column_order=[6, 5, 4, 3, 2, 1, 0])
        assert np.array_equal(H, before)
        assert not np.shares_memory(elim.reduced, H)

    def test_rank_against_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m, n = rng.integers(1, 7), rng.integers(1, 9)
            H = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
            assert gf2.row_reduce(H).rank == brute_force_rank(H)


def row_xor_oracle(H, column_order=None):
    """Gauss-Jordan by whole-row XORs on a numpy copy: the elimination that
    row_reduce's packed-column basis replaced, as it stood."""
    A = np.asarray(H, dtype=np.uint8) % 2
    m, n = A.shape
    pivots = []
    for col in range(n) if column_order is None else [int(c) for c in column_order]:
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
    return A, np.array(pivots, dtype=np.intp)


@st.composite
def elimination_inputs(draw):
    """(H, column order or None): H of up to 10 rows and 12 columns, any of
    them 0, plain, with repeated rows, behind an identity block visited first
    (full row rank before the last column), or as [H | s] with s visited last."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(0, 10)), draw(st.integers(0, 12))
    H = (rng.random((m, n)) < draw(st.sampled_from([0.1, 0.3, 0.5, 0.9]))).astype(np.uint8)
    kind = draw(st.sampled_from(["natural", "shuffled", "repeated rows",
                                 "full rank first", "syndrome last"]))
    if kind == "natural":
        return H, None
    order = rng.permutation(n)
    if kind == "repeated rows" and m:
        H = H[rng.integers(0, m, size=m + draw(st.integers(0, 3)))]
    elif kind == "full rank first":
        H = np.hstack([np.eye(m, dtype=np.uint8)[:, rng.permutation(m)], H])
        order = np.concatenate([rng.permutation(m), m + order])
    elif kind == "syndrome last":
        e = rng.integers(0, 2, size=n, dtype=np.uint8)
        s = gf2.Syndrome(H)(e) if draw(st.booleans()) else rng.integers(0, 2, m, np.uint8)
        H = np.column_stack([H, s]).astype(np.uint8)
        order = np.append(order, n)
    return H, order.tolist() if draw(st.booleans()) else order


class TestRowReduceAgainstRowXorOracle:
    @given(elimination_inputs())
    @example((np.zeros((0, 5), dtype=np.uint8), None))
    @example((np.zeros((4, 0), dtype=np.uint8), None))
    @example((np.zeros((0, 0), dtype=np.uint8), []))
    @example((np.ones((6, 2), dtype=np.uint8), [1, 0]))
    @example((np.eye(3, 5, dtype=np.uint8), [4, 3, 2, 1, 0]))
    @settings(max_examples=600, deadline=None)
    def test_same_reduced_matrix_and_pivots(self, case):
        H, order = case
        reduced, pivots = row_xor_oracle(H, order)
        elim = gf2.row_reduce(H, column_order=order)
        assert elim.reduced.dtype == np.uint8 and elim.pivots.dtype == np.intp
        assert np.array_equal(elim.reduced, reduced)
        assert np.array_equal(elim.pivots, pivots)


def solve_coset(H, s, non_pivot_fill=None):
    """Solve H v = s, non-pivots fixed to the fill, and return (v, pivots).

    Uses elimination the way OSD does: ``[H | s]`` with the syndrome column
    visited last, whose reduced entries are the right-hand side.  v is None
    when the system is inconsistent.
    """
    n = H.shape[1]
    elim = gf2.row_reduce(np.column_stack([H, s]))
    if n in elim.pivots:
        return None, elim.pivots
    v = np.zeros(n, dtype=np.uint8)
    if non_pivot_fill is not None:
        v[:] = non_pivot_fill
    v[elim.pivots] = 0
    R = elim.reduced[:elim.rank, :n].astype(np.int64)
    v[elim.pivots] = (elim.reduced[:elim.rank, n] + R @ v) % 2
    return v, elim.pivots


class TestSolveCoset:
    """Reducing [H | s], the syndrome column last, solves H v = s."""

    def test_zero_syndrome(self):
        v, _ = solve_coset(HAMMING, np.zeros(3))
        assert not v.any()

    def test_hamming_back_substitution(self):
        s = np.array([1, 1, 1], dtype=np.uint8)
        v, _ = solve_coset(HAMMING, s)
        assert np.array_equal(gf2.Syndrome(HAMMING)(v), s)

    def test_column_as_syndrome(self):
        for j in range(7):
            v, _ = solve_coset(HAMMING, HAMMING[:, j])
            assert np.array_equal(gf2.Syndrome(HAMMING)(v), HAMMING[:, j])

    def test_non_pivot_fill_respected(self):
        fill = np.array([0, 0, 1, 0, 1, 1, 0], dtype=np.uint8)
        s = np.array([0, 1, 1], dtype=np.uint8)
        v, pivots = solve_coset(HAMMING, s, non_pivot_fill=fill)
        assert np.array_equal(gf2.Syndrome(HAMMING)(v), s)
        non_pivots = [c for c in range(7) if c not in pivots]
        assert np.array_equal(v[non_pivots], fill[non_pivots])

    def test_inconsistent_system_returns_none(self):
        H = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        assert solve_coset(H, np.array([1, 0]))[0] is None

    def test_random_consistent_systems(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m, n = rng.integers(1, 7), rng.integers(1, 10)
            H = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
            e = rng.integers(0, 2, size=n, dtype=np.uint8)
            s = gf2.Syndrome(H)(e)
            v, _ = solve_coset(H, s)
            assert v is not None
            assert np.array_equal(gf2.Syndrome(H)(v), s)

    @given(bit_matrices(max_rows=5, max_cols=8), st.data())
    @settings(max_examples=300)
    def test_syndrome_column_is_pivot_iff_unsolvable(self, H, data):
        m, n = H.shape
        if data.draw(st.booleans()):
            H[-1] = H[0]  # a repeated row
        s = np.array(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)),
                     dtype=np.uint8)
        order = data.draw(st.permutations(range(n)))
        elim = gf2.row_reduce(np.column_stack([H, s]), column_order=[*order, n])
        pats = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
        solvable = (gf2.Syndrome(H)(pats) == s).all(axis=1).any()
        assert (n in elim.pivots) == (not solvable)
        if solvable:
            # the solution that is zero off the pivots has the reduced column as pivot bits
            v = np.zeros(n, dtype=np.uint8)
            v[elim.pivots] = elim.reduced[:elim.rank, n]
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

    def test_more_than_2_24_rows_rejected(self):
        # the float32 product's counts sum at most m terms, and one past 2^24 could
        # round; the empty matrices allocate nothing
        with pytest.raises(ValueError, match=r"more than 2\^24 rows"):
            gf2.RowSpace(np.zeros((2**24 + 1, 0)))
        assert gf2.RowSpace(np.zeros((2**24, 0))).rank == 0

    @given(bit_matrices(), st.data())
    @settings(max_examples=300)
    def test_matches_rank_comparison(self, H, data):
        n = H.shape[1]
        r = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                     dtype=np.uint8)
        if data.draw(st.booleans()):  # a member, built from a subset of the rows
            subset = data.draw(st.lists(st.booleans(), min_size=H.shape[0],
                                        max_size=H.shape[0]))
            r = np.bitwise_xor.reduce(H[np.array(subset, dtype=bool)], axis=0)
        space = gf2.RowSpace(H)
        assert space.contains(r) == rank_test(H, r)
        assert space.rank == gf2.row_reduce(H).rank

    @given(bit_matrices(), st.data())
    @settings(max_examples=300)
    def test_block_is_row_by_row(self, H, data):
        # members and non-members mixed in one (T, n) block
        m, n = H.shape
        T = data.draw(st.integers(0, 12))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=T * (m + n),
                                  max_size=T * (m + n)))
        bits = np.array(bits, dtype=np.uint8).reshape(T, m + n)
        members = gf2.Syndrome(H.T)(bits[:, :m])  # combinations of rows
        R = np.where(bits[:, :1] == 1, members, bits[:, m:]).astype(np.uint8)
        space = gf2.RowSpace(H)
        got = space.contains(R)
        assert got.shape == (T,) and got.dtype == bool
        assert got.tolist() == [bool(space.contains(r)) for r in R]
        assert got.tolist() == [rank_test(H, r) for r in R]

    @pytest.mark.parametrize("shape", [(2, 3, 7), (1, 1, 1, 7), (), (6,), (8,), (4, 6), (4, 8)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ValueError):
            gf2.RowSpace(HAMMING).contains(np.zeros(shape))


def rank_test(H, r) -> bool:
    """r lies in the row space of H iff appending it keeps the rank."""
    return gf2.row_reduce(np.vstack([H, r])).rank == gf2.row_reduce(H).rank
