import math
from fractions import Fraction

import numpy as np
import pytest
import sympy        # a declared test dependency: fail, do not skip
from hypothesis import given, settings, strategies as st

from lietool.exact_linalg import (PRIME, ExactIntMatrix, ExactSpan,
                                  _rows_mod_p, apply_digits, bareiss_inverse,
                                  independent_rows, invert_square,
                                  unimodular_inverse)


def F(a, b=1):
    return Fraction(a, b)


def span_of(vectors, n):
    span = ExactSpan(n)
    for v in vectors:
        span.add(v)
    return span


def echelon(span):
    """The span's (pivot, row) pairs by pivot column."""
    return sorted(zip(span.pivots, span.rows))


class TestExactSpan:
    def test_incremental_rank(self):
        span = ExactSpan(3)
        assert span.add((1, 0, 0))
        assert not span.add((2, 0, 0))
        assert span.add((1, 1, 0))
        assert span.rank == 2
        assert span.generators == [(F(1), F(0), F(0)), (F(1), F(1), F(0))]
        assert span.contains((5, -3, 0))
        assert not span.contains((0, 0, 1))

    def test_coordinates_certificate(self):
        span = span_of([(1, 1, 0), (0, 1, 1)], 3)
        assert span.coordinates((2, 5, 3)) == [F(2), F(3)]
        assert span.coordinates((0, 0, 1)) is None

    def test_reduce_is_exact(self, rng):
        for _ in range(20):
            span = ExactSpan(4)
            vectors = [tuple(F(rng.randint(-5, 5), rng.randint(1, 3))
                             for _ in range(4)) for _ in range(3)]
            for v in vectors:
                span.add(v)
            coeffs = [F(rng.randint(-3, 3)) for _ in vectors]
            combo = [sum((c * v[i] for c, v in zip(coeffs, vectors)), F(0))
                     for i in range(4)]
            assert span.contains(combo)


class TestSolvers:
    """Exact solves through `ExactSpan.coordinates`: the unknowns are the
    coefficients of the span's generators, the columns of the system."""

    def test_solve_exact_system(self):
        # x + y = 3, x - y = 1
        span = span_of([(1, 1), (1, -1)], 2)
        assert span.coordinates((3, 1)) == [F(2), F(1)]

    def test_solve_detects_inconsistency(self):
        span = span_of([(1, 1)], 2)         # x = 1 and x = 2
        assert span.coordinates((1, 2)) is None

    def test_solve_underdetermined_sets_free_to_zero(self):
        # x + y = 2: the column of y does not grow the span, so it is no
        # generator and y is 0
        span = span_of([(1,), (1,)], 1)
        assert span.generators == [(F(1),)]
        assert span.coordinates((2,)) == [F(2)]

    def test_invert_square(self):
        m = [[F(2), F(1)], [F(1), F(1)]]
        inv = invert_square(m)
        assert inv == [[F(1), F(-1)], [F(-1), F(2)]]

    def test_invert_singular_raises_value_error(self):
        with pytest.raises(ValueError):
            invert_square([[F(1), F(2)], [F(2), F(4)]])

    def test_independent_rows(self):
        cols = [[F(0), F(1), F(2)], [F(0), F(0), F(1)]]
        rows = independent_rows(cols)
        assert rows == [1, 2]
        with pytest.raises(ValueError):
            independent_rows([[F(1), F(2)], [F(2), F(4)]])

    def test_rref_pivots(self):
        span = span_of([(0, 2, 4), (1, 1, 1)], 3)
        assert span.pivots == [1, 0]
        assert echelon(span) == [(0, [F(1), F(0), F(-1)]),
                                 (1, [F(0), F(1), F(2)])]


class TestNullSpace:
    def test_basis_and_orthogonality(self):
        matrix = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
        basis = span_of(matrix, 3).null_space()
        assert len(basis) == 1
        v = basis[0]
        for row in matrix:
            assert sum(a * b for a, b in zip(row, v)) == 0

    def test_empty_matrix_gives_identity(self):
        assert ExactSpan(2).null_space() == [(F(1), F(0)), (F(0), F(1))]

    def test_full_rank_gives_trivial(self):
        assert span_of([(1, 0), (0, 1)], 2).null_space() == []


def random_matrix(rng, rows, cols, rank):
    """Random rational matrix built as a product through a rank-wide middle."""
    def block(n, m):
        return [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
                for _ in range(n)]
    left, right = block(rows, rank), block(rank, cols)
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), F(0))
             for j in range(cols)] for i in range(rows)]


def to_sympy(matrix, cols):
    return sympy.Matrix(len(matrix), cols, [
        sympy.Rational(x.numerator, x.denominator)
        for row in matrix for x in row])


def to_fractions(values):
    return [F(int(x.p), int(x.q)) for x in values]


class TestAgainstSympy:
    """The one eliminator against sympy on seeded random rational matrices."""

    def shapes(self, rng, count):
        for _ in range(count):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            yield rows, cols, rng.randint(0, min(rows, cols))

    def test_rref_and_null_space(self, rng):
        for rows, cols, rank in self.shapes(rng, 40):
            a = random_matrix(rng, rows, cols, rank)
            expected, expected_pivots = to_sympy(a, cols).rref()
            span = span_of(a, cols)
            assert sorted(span.pivots) == list(expected_pivots)
            assert [row for _, row in echelon(span)] == [
                to_fractions(expected.row(i)) for i in range(span.rank)]
            assert span.null_space() == [
                tuple(to_fractions(v)) for v in to_sympy(a, cols).nullspace()]

    def test_coordinates(self, rng):
        inconsistent = 0
        for rows, cols, rank in self.shapes(rng, 40):
            a = random_matrix(rng, rows, cols, rank)
            if rng.random() < 0.5:
                x0 = [F(rng.randint(-3, 3)) for _ in range(cols)]
                b = [sum((r * x for r, x in zip(row, x0)), F(0)) for row in a]
            else:
                b = [F(rng.randint(-3, 3)) for _ in range(rows)]
            span = span_of(zip(*a), rows)          # the columns of a
            coeffs = span.coordinates(b)
            rhs = to_sympy([[v] for v in b], 1)
            try:
                to_sympy(a, cols).gauss_jordan_solve(rhs)
            except ValueError:      # sympy: the system has no solution
                inconsistent += 1
                assert coeffs is None
                continue
            if not span.generators:
                assert coeffs == []
                continue
            g = [list(col) for col in zip(*span.generators)]
            solution, params = to_sympy(g, span.rank).gauss_jordan_solve(rhs)
            assert params.shape[0] == 0     # the generators are independent
            assert coeffs == to_fractions(solution)
        assert inconsistent > 0

    def test_invert_square(self, rng):
        singular = 0
        for _ in range(30):
            n = rng.randint(1, 5)
            a = random_matrix(rng, n, n, rng.randint(n - 1, n))
            expected = to_sympy(a, n)
            if expected.det() == 0:
                singular += 1
                with pytest.raises(ValueError):
                    invert_square(a)
                continue
            inverse = expected.inv()
            assert invert_square(a) == [to_fractions(inverse.row(i))
                                        for i in range(n)]
        assert singular > 0


def rref_inverse(matrix):
    """The inverse by sympy's Gauss-Jordan (`Matrix.inv`), or None."""
    a = to_sympy(matrix, len(matrix))
    if a.rank() < len(matrix):
        return None
    inverse = a.inv()
    return [to_fractions(inverse.row(i)) for i in range(len(matrix))]


def full_column_rank(columns):
    return to_sympy(columns, len(columns[0])).rank() == len(columns)


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def matrices(draw, square=False):
    """m lists of n rationals, 1 <= m <= n <= 6 (n = m when square)."""
    m = draw(st.integers(1, 4))
    n = m if square else draw(st.integers(m, 6))
    return [[draw(rationals) for _ in range(n)] for _ in range(m)]


class TestIntegerKernel:
    """Row choice mod p and the fraction-free inverse against sympy."""

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_independent_rows_pick_a_nonsingular_square(self, columns):
        if not full_column_rank(columns):
            with pytest.raises(ValueError):
                independent_rows(columns)
            return
        rows = independent_rows(columns)
        assert len(rows) == len(columns) and rows == sorted(set(rows))
        square = [[col[i] for col in columns] for i in rows]
        assert rref_inverse(square) is not None

    @settings(max_examples=150, deadline=None)
    @given(matrices(square=True))
    def test_invert_square_equals_the_rref_inverse(self, matrix):
        expected = rref_inverse(matrix)
        if expected is None:
            with pytest.raises(ValueError):
                invert_square(matrix)
        else:
            assert invert_square(matrix) == expected

    def test_determinant_other_than_one(self):
        matrix = [[F(2), F(1), F(0)], [F(0), F(3), F(1)], [F(1), F(0), F(4)]]
        adj, det = bareiss_inverse([[int(x) for x in row] for row in matrix])
        assert det == 25
        assert invert_square(matrix) == [[F(x, det) for x in row]
                                         for row in adj]
        assert invert_square(matrix) == rref_inverse(matrix)

    @pytest.mark.parametrize("matrix, expected_det", [
        ([[0, 1], [1, 0]], -1),             # one row swap
        ([[0, 2, 1], [3, 0, 0], [1, 1, 5]], -27)])
    def test_adjugate_and_determinant_with_row_swaps(self, matrix,
                                                      expected_det):
        adj, det = bareiss_inverse(matrix)
        assert det == expected_det
        n = len(matrix)
        for i in range(n):
            for j in range(n):
                assert sum(adj[i][k] * matrix[k][j]
                           for k in range(n)) == det * (i == j)

    def test_minor_zero_mod_p_falls_back_to_exact_choice(self):
        # rows (1, 0) and (1, p): the square has det p, which is 0 mod p
        columns = [[F(1), F(1)], [F(0), F(PRIME)]]
        assert _rows_mod_p([[1, 1], [0, PRIME]], 2) == [0]
        assert independent_rows(columns) == [0, 1]
        square = [[F(1), F(0)], [F(1), F(PRIME)]]
        assert invert_square(square) == rref_inverse(square)

    def test_mod_p_choice_may_skip_a_row_that_is_independent_over_q(self):
        # the second row (1, p) is dependent on the first only mod p
        columns = [[F(1), F(1), F(1)], [F(0), F(PRIME), F(1)]]
        assert independent_rows(columns) == [0, 2]

    @pytest.mark.parametrize("columns", [
        [[F(0), F(0), F(0)]],
        [[F(1), F(2), F(3)], [F(2), F(4), F(6)]],
        [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
        [[F(1, 2), F(1, 3)], [F(3), F(2)]]])
    def test_dependent_columns_raise(self, columns):
        with pytest.raises(ValueError):
            independent_rows(columns)

    @pytest.mark.parametrize("matrix", [
        [[F(0)]],
        [[F(1, 2), F(1, 3)], [F(3), F(2)]],
        [[F(1), F(2), F(3)], [F(4), F(5), F(6)], [F(7), F(8), F(9)]]])
    def test_singular_squares_raise(self, matrix):
        with pytest.raises(ValueError):
            invert_square(matrix)
        with pytest.raises(ValueError):
            bareiss_inverse([[int(x * 6) for x in row] for row in matrix])


big_rationals = st.builds(F, st.integers(-10**12, 10**12),
                          st.integers(1, 10**6))


@st.composite
def vector_lists(draw):
    """(n, vectors): 1 <= n <= 6 columns, 1-6 random rational vectors with
    zero, duplicate and dependent (two-term combination) vectors mixed in."""
    n = draw(st.integers(1, 6))
    vectors = draw(st.lists(st.lists(big_rationals, min_size=n, max_size=n),
                            min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "dependent"]))
        if kind == "zero":
            extra = [F(0)] * n
        elif kind == "duplicate":
            extra = list(draw(st.sampled_from(vectors)))
        else:
            a, b = (draw(st.sampled_from(vectors)) for _ in range(2))
            s, t = draw(big_rationals), draw(big_rationals)
            extra = [s * x + t * y for x, y in zip(a, b)]
        vectors.insert(draw(st.integers(0, len(vectors))), extra)
    return n, vectors


class TestIntegerRows:
    """The span on integer rows against sympy's `Matrix.rref`, on large
    rationals, and the stored form itself."""

    @settings(max_examples=120, deadline=None)
    @given(vector_lists(), st.randoms(use_true_random=False))
    def test_against_sympy_rref(self, case, rnd):
        n, vectors = case
        span = span_of(vectors, n)
        matrix = to_sympy(vectors, n)
        expected, expected_pivots = matrix.rref()
        assert span.rank == len(expected_pivots) == len(span.generators)
        assert sorted(span.pivots) == list(expected_pivots)
        assert [row for _, row in echelon(span)] == [
            to_fractions(expected.row(i)) for i in range(span.rank)]
        assert span.null_space() == [
            tuple(to_fractions(v)) for v in matrix.nullspace()]
        assert all(span.contains(v) for v in vectors)

        coeffs = [F(rnd.randint(-10**6, 10**6), rnd.randint(1, 10**3))
                  for _ in span.generators]
        member = [sum((c * g[i] for c, g in zip(coeffs, span.generators)),
                      F(0)) for i in range(n)]
        assert span.contains(member)
        combination = span.coordinates(member)
        if span.generators:
            columns = to_sympy([list(g) for g in zip(*span.generators)],
                               span.rank)
            solution, params = columns.gauss_jordan_solve(
                to_sympy([[x] for x in member], 1))
            assert params.shape[0] == 0
            assert combination == to_fractions(solution) == coeffs
        else:
            assert combination == []
        for f in sorted(set(range(n)) - set(span.pivots)):
            outside = [F(int(i == f)) for i in range(n)]
            assert not span.contains(outside)
            assert span.coordinates(outside) is None

    @settings(max_examples=120, deadline=None)
    @given(vector_lists())
    def test_rows_are_canonical_integers(self, case):
        n, vectors = case
        span = span_of(vectors, n)
        for row, p, fractions in zip(span.integer_rows, span.pivots,
                                     span.rows):
            assert all(type(x) is int for x in row)
            assert row[p] > 0 and math.gcd(*row) == 1
            assert [row[q] for q in span.pivots] == [
                row[p] * (q == p) for q in span.pivots]
            assert fractions == [F(x, row[p]) for x in row]

    def test_generators_are_the_vectors_given(self):
        span = ExactSpan(2)
        v, w = (F(1, 2), F(3)), (F(-4, 3), F(2, 9))
        assert span.add(v) and span.add(w)
        assert span.generators[0] is v and span.generators[1] is w
        assert span.integer_rows == [[1, 0], [0, 1]]

    def test_back_substitution_keeps_rows_primitive(self):
        # (0, -4, -2) is stored as (0, 2, 1), sign and gcd taken out; the
        # first row becomes 2 (1, 2, 0) - 2 (0, 2, 1) = 2 (1, 0, -1)
        span = span_of([(1, 2, 0), (0, -4, -2)], 3)
        assert span.integer_rows == [[1, 0, -1], [0, 2, 1]]
        assert span.rows == [[F(1), F(0), F(-1)], [F(0), F(1), F(1, 2)]]


class TestInsertionOrder:
    """The annihilator and the certificates depend on the span, not on the
    order its vectors arrived in."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=6)),
        st.randoms(use_true_random=False))
    def test_null_space_and_coordinates(self, vectors, rnd):
        n = len(vectors[0])
        span = span_of(vectors, n)
        shuffled = list(vectors)
        rnd.shuffle(shuffled)
        assert span_of(shuffled, n).null_space() == span.null_space()
        generators = list(span.generators)
        order = list(range(len(generators)))
        rnd.shuffle(order)
        permuted = span_of([generators[j] for j in order], n)
        coeffs = [F(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in generators]
        target = [sum((c * g[i] for c, g in zip(coeffs, generators)), F(0))
                  for i in range(n)]
        assert span.coordinates(target) == coeffs
        assert permuted.coordinates(target) == [coeffs[j] for j in order]


@st.composite
def unimodular_matrices(draw):
    """Products of elementary integer matrices (row additions, swaps and
    sign flips): determinant +-1, entries kept small."""
    n = draw(st.integers(1, 6))
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["add", "swap", "negate"]))
        if kind == "add" and i != j:
            k = draw(st.integers(-3, 3))
            a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        elif kind == "swap":
            a[i], a[j] = a[j], a[i]
        elif kind == "negate":
            a[i] = [-x for x in a[i]]
    return a


def assembled(digits):
    """The integer matrix sum_k PRIME**k digits[k] as lists of ints."""
    return sum((d.astype(object) * PRIME**k for k, d in enumerate(digits)),
               np.zeros(digits[0].shape, dtype=object)).tolist()


def sympy_inverse(matrix):
    inverse = sympy.Matrix(matrix).inv()
    return [[int(inverse[i, j]) for j in range(len(matrix))]
            for i in range(len(matrix))]


class TestUnimodularInverse:
    """The verified modular inverse against sympy, and its refusals."""

    @settings(max_examples=100, deadline=None)
    @given(unimodular_matrices())
    def test_equals_the_sympy_inverse(self, matrix):
        assert assembled(unimodular_inverse(matrix)) == sympy_inverse(matrix)

    def test_entries_beyond_one_prime_force_the_lift(self):
        # I - 10 N for the shift N has the inverse sum_k 10^k N^k, whose
        # corner 10^11 exceeds 2^31; rows reversed so the elimination must
        # swap rows, and one sign flipped so the determinant is -1
        n = 12
        a = [[int(i == j) - 10 * int(j == i + 1) for j in range(n)]
             for i in range(n)][::-1]
        a[0] = [-x for x in a[0]]
        digits = unimodular_inverse(a)
        assert len(digits) == 2
        inverse = assembled(digits)
        assert max(abs(x) for row in inverse for x in row) == 10**11 > PRIME
        assert inverse == sympy_inverse(a)

    @pytest.mark.parametrize("matrix", [
        [[0]],
        [[1, 2], [2, 4]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]]])
    def test_singular_is_refused(self, matrix):
        with pytest.raises(ValueError, match="singular"):
            unimodular_inverse(matrix)

    @pytest.mark.parametrize("matrix", [
        [[2, 0], [0, 1]],
        [[1, 1], [1, -1]],
        [[3, 1, 0], [1, 1, 0], [0, 0, 1]]])
    def test_determinant_two_is_refused(self, matrix):
        assert abs(sympy.Matrix(matrix).det()) == 2
        with pytest.raises(ValueError, match="not \\+-1"):
            unimodular_inverse(matrix)

    def test_determinant_p_is_refused(self):
        # invertible over Q, singular mod the prime
        with pytest.raises(ValueError):
            unimodular_inverse([[1, 0], [0, PRIME]])

    def test_exact_product_on_big_integers(self):
        a = np.array([[1, -2, 0], [3, 4, -5]], dtype=np.int64)
        b = np.array([[2**200 + 5, 7], [-(2**150) - 7, 2**62],
                      [-3, -(2**80)]], dtype=object)
        expected = [[sum(int(x) * y for x, y in zip(row, column))
                     for column in zip(*b.tolist())] for row in a]
        assert (ExactIntMatrix(a) @ b).tolist() == expected
        assert (ExactIntMatrix(a) @ b[:, 1]).tolist() == [
            r[1] for r in expected]

    def test_digits_apply_to_big_integers(self):
        a = [[1, -10, 0], [0, 1, -10], [0, 0, 1]]
        digits = [ExactIntMatrix(d) for d in unimodular_inverse(a)]
        b = [2**100 + 1, -(2**70), 12345]
        x = sympy.Matrix(a).inv()
        assert apply_digits(digits, b).tolist() == [
            int(v) for v in x * sympy.Matrix(b)]
