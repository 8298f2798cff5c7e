"""Small exact (Fraction) linear algebra: spans, solving, null spaces.

Everything here is dense and meant for the dimensions this package meets
(state dimensions <= 10, word spaces up to a few hundred).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Vector = tuple[Fraction, ...]


def as_vector(values: Sequence) -> Vector:
    return tuple(Fraction(v) for v in values)


class ExactSpan:
    """Incrementally built subspace of Q^n in row-echelon form."""

    def __init__(self, n: int):
        self.n = n
        self.rows: list[Vector] = []      # echelon rows
        self.pivots: list[int] = []       # pivot column per row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vector: Sequence) -> list[Fraction]:
        """Residual of `vector` against the current span."""
        v = [Fraction(x) for x in vector]
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                c = v[p]
                for i in range(self.n):
                    v[i] -= c * row[i]
        return v

    def contains(self, vector: Sequence) -> bool:
        return not any(self.reduce(vector))

    def add(self, vector: Sequence) -> bool:
        """Insert a vector; returns True if the rank grew."""
        v = self.reduce(vector)
        for p in range(self.n):
            if v[p]:
                c = v[p]
                row = tuple(x / c for x in v)
                self.rows.append(row)
                self.pivots.append(p)
                return True
        return False

    def coordinates(self, vector: Sequence,
                    generators: Sequence[Sequence]) -> Optional[list[Fraction]]:
        """Exact coefficients writing `vector` over `generators`, or None.

        Used to produce re-checkable membership certificates.
        """
        cols = [as_vector(g) for g in generators]
        m = len(cols)
        aug = [[cols[j][i] for j in range(m)] + [Fraction(vector[i])]
               for i in range(self.n)]
        coeffs = solve_least_exact(aug, m)
        if coeffs is None:
            return None
        for i in range(self.n):
            s = sum((cols[j][i] * coeffs[j] for j in range(m)), Fraction(0))
            if s != Fraction(vector[i]):
                return None
        return coeffs


def solve_least_exact(aug: list[list[Fraction]], m: int) -> Optional[list[Fraction]]:
    """Solve A x = b given as an augmented matrix with m unknowns.

    Returns one exact solution (free variables set to 0) or None if
    inconsistent.
    """
    rows, pivots = rref(aug)
    if pivots and pivots[-1] == m:
        return None
    x = [Fraction(0)] * m
    for row, c in zip(rows, pivots):
        x[c] = row[m]
    return x


def independent_rows(columns: list[list[Fraction]]) -> list[int]:
    """Indices of rows forming an invertible square submatrix.

    `columns` is a full-column-rank matrix given column-wise.
    """
    if not columns:
        return []
    n = len(columns[0])
    span = ExactSpan(len(columns))
    picked: list[int] = []
    for i in range(n):
        row = [col[i] for col in columns]
        if span.add(row):
            picked.append(i)
            if len(picked) == len(columns):
                break
    if len(picked) != len(columns):
        raise ValueError("columns are not linearly independent")
    return picked


def invert_square(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square invertible matrix (Gauss-Jordan on [A | I])."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form and pivot columns."""
    rows = [list(row) for row in matrix]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def null_space(matrix: list[list[Fraction]], m: int) -> list[Vector]:
    """Basis of {x in Q^m : A x = 0}, in the canonical RREF parametrization."""
    if not matrix:
        return [tuple(Fraction(int(i == j)) for i in range(m)) for j in range(m)]
    reduced, pivots = rref(matrix)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(tuple(v))
    return basis
