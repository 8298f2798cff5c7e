"""Exact linear algebra: one Fraction eliminator and an integer kernel.

`ExactSpan` is the one eliminator in `Fraction`: a subspace grown a vector at
a time and kept in reduced row-echelon form.  Its rank, membership test,
canonical annihilator basis (`null_space`) and exact coordinates over the
vectors that grew it (`coordinates`) build the obstruction spans and their
certificates.  The Hall solver, `independent_rows` and `invert_square` run on
one integer kernel: rows are chosen modulo a 31-bit prime with numpy int64 (a
minor that is nonzero mod p is nonzero over Q, and an unlucky prime falls
back to the exact greedy choice in an `ExactSpan`), and the chosen square is
inverted fraction-free (Bareiss) in Python ints, as an adjugate and a
determinant.  Sizes are those this package meets: state dimensions <= 10,
word spaces up to a few thousand words.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

Vector = tuple[Fraction, ...]


class ExactSpan:
    """Subspace of Q^n grown one vector at a time, in reduced row-echelon form.

    `generators` are the vectors that grew the rank, in insertion order;
    `rows[k]` is 1 at column `pivots[k]` and 0 at every other pivot column.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []
        self.generators: list[Vector] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vector: Sequence) -> list[Fraction]:
        """Residual of `vector` against the span: zero on every pivot column."""
        v = [Fraction(x) for x in vector]
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for i, x in enumerate(row):
                    if x:
                        v[i] -= c * x
        return v

    def contains(self, vector: Sequence) -> bool:
        return not any(self.reduce(vector))

    def add(self, vector: Sequence) -> bool:
        """Insert a vector; returns True if the rank grew."""
        v = self.reduce(vector)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        c = v[p]
        new = [x / c for x in v]
        for row in self.rows:
            f = row[p]
            if f:
                row[:] = [x - f * y for x, y in zip(row, new)]
        self.rows.append(new)
        self.pivots.append(p)
        self.generators.append(tuple(Fraction(x) for x in vector))
        return True

    def null_space(self) -> list[Vector]:
        """Basis of {x : r . x = 0 for every r in the span}.

        One vector per free column f, 1 at f and 0 at the other free
        columns: canonical, since a subspace has one reduced echelon form.
        """
        basis = []
        for f in range(self.n):
            if f in self.pivots:
                continue
            x = [Fraction(0)] * self.n
            x[f] = Fraction(1)
            for row, p in zip(self.rows, self.pivots):
                x[p] = -row[f]
            basis.append(tuple(x))
        return basis

    def coordinates(self, vector: Sequence) -> Optional[list[Fraction]]:
        """Exact c with sum_j c_j generators[j] == vector, or None.

        G has the generators as columns, which are independent, so
        [G | -vector] has a null space exactly when vector lies in the span,
        spanned by (c, 1); the combination is re-checked before it is
        returned.
        """
        v = [Fraction(x) for x in vector]
        m = len(self.generators)
        system = ExactSpan(m + 1)
        for i in range(self.n):
            system.add([g[i] for g in self.generators] + [-v[i]])
        kernel = system.null_space()
        if not kernel:
            return None
        c = list(kernel[0][:m])
        for i in range(self.n):
            if sum((cj * g[i] for cj, g in zip(c, self.generators)),
                   Fraction(0)) != v[i]:
                return None
        return c


# Row choice runs modulo this prime (2**31 - 1), so every product of two
# residues fits in int64.
PRIME = 2**31 - 1


def clear_denominators(values: Sequence) -> tuple[list[int], int]:
    """Integers n_i and the lcm d of the denominators with values_i = n_i / d."""
    values = [Fraction(v) for v in values]
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _rows_mod_p(columns: Sequence[dict[int, int]], n: int) -> list[int]:
    """Greedy independent rows of an n-row integer matrix, mod PRIME.

    Row echelon on the transpose, scanning its columns (the rows) in order.
    A square that is nonsingular mod p is nonsingular over Q, so every row
    set this returns is valid; an unlucky prime can only make it too short.
    """
    m = len(columns)
    t = np.zeros((m, n), dtype=np.int64)
    for j, col in enumerate(columns):
        t[j, list(col)] = [x % PRIME for x in col.values()]
    picked: list[int] = []
    r = 0
    for c in range(n):
        nonzero = np.flatnonzero(t[r:, c])
        if not nonzero.size:
            continue
        s = r + int(nonzero[0])
        if s != r:
            t[[r, s]] = t[[s, r]]
        t[r, c:] = t[r, c:] * pow(int(t[r, c]), PRIME - 2, PRIME) % PRIME
        below = r + 1 + np.flatnonzero(t[r + 1:, c])
        if below.size:
            t[below, c:] = (t[below, c:]
                            - t[below, c, None] * t[r, c:]) % PRIME
        picked.append(c)
        r += 1
        if r == m:
            break
    return picked


def independent_rows_int(columns: Sequence[dict[int, int]],
                         n: int) -> list[int]:
    """Indices of rows forming an invertible square submatrix.

    `columns` is a full-column-rank integer matrix with n rows, given as
    sparse columns (row index -> nonzero entry).  Rows are chosen mod PRIME;
    if that falls short of full rank (the prime divides every candidate
    minor), the exact greedy choice decides.
    """
    if not columns:
        return []
    m = len(columns)
    picked = _rows_mod_p(columns, n)
    if len(picked) == m:
        return picked
    span = ExactSpan(m)
    picked = []
    for i in range(n):
        if span.add([col.get(i, 0) for col in columns]):
            picked.append(i)
            if len(picked) == m:
                return picked
    raise ValueError("columns are not linearly independent")


def bareiss_inverse(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Adjugate and determinant of a square integer matrix, in Python ints.

    Fraction-free Gauss-Jordan on [A | I] (Bareiss, Math. Comp. 22, 1968):
    every division is exact, and the pass ends at [det I | adj].  Step k
    touches only the window of left columns k+1.. and right columns ..k; the
    right columns beyond k still hold the scaled identity, kept implicit.
    The pivot is the smallest in absolute value, which keeps the minors
    small; row swaps permute the right columns, undone at the end.  When a
    pivot equals the previous one, rows change only where the pivot row is
    nonzero.
    """
    m = len(matrix)
    rows = [list(row) + [0] * m for row in matrix]
    order = list(range(m))      # right column of each row's identity entry
    prev, sign = 1, 1
    for k in range(m):
        s = min((i for i in range(k, m) if rows[i][k]),
                key=lambda i: abs(rows[i][k]), default=None)
        if s is None:
            raise ValueError("matrix is singular")
        if s != k:
            rows[k], rows[s] = rows[s], rows[k]
            order[k], order[s] = order[s], order[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        pivot_row[m + k] = prev
        window = slice(k + 1, m + k + 1)
        kw = pivot_row[window]
        sparse = ([(j, y) for j, y in enumerate(kw, k + 1) if y]
                  if pivot == prev else None)
        for i in range(m):
            if i == k:
                continue
            row = rows[i]
            f = row[k]
            if f and sparse is not None:
                # (prev x - f y) / prev is exact, so f y / prev is too
                for j, y in sparse:
                    row[j] -= f * y // prev
            elif f:
                row[window] = [(pivot * x - f * y) // prev
                               for x, y in zip(row[window], kw)]
            elif pivot != prev:
                row[window] = [pivot * x // prev for x in row[window]]
            row[k] = 0
        prev = pivot
    adj = [[0] * m for _ in range(m)]
    for row, out in zip(rows, adj):
        for k, j in enumerate(order):
            out[j] = sign * row[m + k]
    return adj, sign * prev


def independent_rows(columns: list[list[Fraction]]) -> list[int]:
    """Indices of rows forming an invertible square submatrix.

    `columns` is a full-column-rank matrix given column-wise; each column is
    scaled to integers, which leaves row independence unchanged.
    """
    if not columns:
        return []
    sparse = [{i: x for i, x in enumerate(clear_denominators(col)[0]) if x}
              for col in columns]
    return independent_rows_int(sparse, len(columns[0]))


def invert_square(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square invertible matrix.

    Row i is scaled by d_i to integers, B = D A, so A^-1 = adj(B) D / det(B).
    """
    cleared = [clear_denominators(row) for row in matrix]
    adj, det = bareiss_inverse([row for row, _ in cleared])
    scales = [d for _, d in cleared]
    return [[Fraction(x * d, det) for x, d in zip(row, scales)] for row in adj]
