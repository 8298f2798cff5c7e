"""Exact linear algebra: one exact eliminator and an integer kernel.

`ExactSpan` is the one exact eliminator: a subspace of Q^n grown a vector at
a time and kept in reduced row-echelon form, fraction-free (as in Bareiss,
Math. Comp. 22, 1968): each row is Python ints over one positive
denominator, made primitive by one gcd whenever it is built or changed, and
each incoming vector has its denominators cleared once.  Its rank,
membership test, canonical annihilator basis (`null_space`) and exact
coordinates over the vectors that grew it (`coordinates`) build the
obstruction spans and their certificates, which are in `Fraction`.

The integer kernel runs modulo a 31-bit prime with numpy int64, so every
product of two residues fits.  `unimodular_inverse` inverts a square of
determinant +-1, as the Hall solver needs: one Gauss-Jordan inverse mod p,
lifted p-adically (Dixon, Numer. Math. 40, 1982) until M X = I holds exactly,
within a digit budget from Hadamard's bound.  `ExactIntMatrix` multiplies an
int64 matrix into integers of any size on limbs that provably fit in int64.
`independent_rows` and `invert_square` choose rows mod p (a minor that is
nonzero mod p is nonzero over Q, and an unlucky prime falls back to the exact
greedy choice in an `ExactSpan`) and invert fraction-free (Bareiss) in Python
ints, as an adjugate and a determinant.  Sizes are those this package meets:
state dimensions <= 10, word spaces up to a few thousand words.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

Vector = tuple[Fraction, ...]


class ExactSpan:
    """Subspace of Q^n grown one vector at a time, in reduced row-echelon form.

    `generators` are the vectors that grew the rank, as given, in insertion
    order.  Row k is stored in `integer_rows[k]` as Python ints over its
    denominator, which is its entry at column `pivots[k]`: positive, and the
    gcd of the row is 1, so the form stays canonical.  Every other pivot
    column of the row is 0.  `rows` gives the rows in `Fraction`.
    """

    def __init__(self, n: int):
        self.n = n
        self.integer_rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.generators: list[Vector] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list[list[Fraction]]:
        """The reduced rows, 1 at their pivot column, in `Fraction`."""
        return [[Fraction(x, row[p]) for x in row]
                for row, p in zip(self.integer_rows, self.pivots)]

    def reduce(self, vector: Sequence) -> list[int]:
        """A positive multiple of the residual of `vector` against the span,
        in integers: zero on every pivot column."""
        v, _ = clear_denominators(vector)
        for row, p in zip(self.integer_rows, self.pivots):
            c = v[p]
            if c:
                d = row[p]
                g = math.gcd(c, d)
                c, d = c // g, d // g
                v = [d * x - c * y for x, y in zip(v, row)]
        return v

    def contains(self, vector: Sequence) -> bool:
        return not any(self.reduce(vector))

    def add(self, vector: Sequence) -> bool:
        """Insert a vector; returns True if the rank grew."""
        v = self.reduce(vector)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        new = _primitive(v, p)
        d = new[p]
        rows = self.integer_rows
        for k, (row, q) in enumerate(zip(rows, self.pivots)):
            f = row[p]
            if f:
                rows[k] = _primitive([d * x - f * y for x, y in zip(row, new)],
                                     q)
        rows.append(new)
        self.pivots.append(p)
        self.generators.append(tuple(vector))
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
            for row, p in zip(self.integer_rows, self.pivots):
                x[p] = Fraction(-row[f], row[p])
            basis.append(tuple(x))
        return basis

    def coordinates(self, vector: Sequence) -> Optional[list[Fraction]]:
        """Exact c with sum_j c_j generators[j] == vector, or None.

        On integers: with generators[j] = G_j / d_j and vector = t / e, the
        m generators are independent, so [G | -t] has rank m exactly when
        vector lies in the span, and then its reduced row j is D_j at
        column j and r_j at column m: a_j = -r_j / D_j solves
        sum_j a_j G_j = t, and c_j = a_j d_j / e.  The combination is
        re-checked in integers, over the lcm of the D_j, before it is
        returned.
        """
        target, e = clear_denominators(vector)
        columns = [clear_denominators(g) for g in self.generators]
        m = len(columns)
        system = ExactSpan(m + 1)
        for i, x in enumerate(target):
            system.add([g[i] for g, _ in columns] + [-x])
        if system.rank > m:
            return None
        reduced = sorted(zip(system.pivots, system.integer_rows))
        lcm = math.lcm(*(row[j] for j, row in reduced))
        a = [-row[m] * (lcm // row[j]) for j, row in reduced]
        if any(sum(aj * g[i] for aj, (g, _) in zip(a, columns)) != lcm * x
               for i, x in enumerate(target)):
            return None
        return [Fraction(aj * d, lcm * e) for aj, (_, d) in zip(a, columns)]


def _primitive(v: list[int], p: int) -> list[int]:
    """v divided by the gcd of its entries, signed so that v[p] > 0."""
    g = math.gcd(*v)
    if v[p] < 0:
        g = -g
    return v if g == 1 else [x // g for x in v]


# The modulus of the integer kernel (2**31 - 1): row choice and the inverse of
# `unimodular_inverse` run modulo it, so every product of two residues fits in
# int64.
PRIME = 2**31 - 1


def clear_denominators(values: Sequence) -> tuple[list[int], int]:
    """Integers n_i and the lcm d of the denominators with values_i = n_i / d
    (a `Fraction` or `int` is read as it is, anything else as a `Fraction`)."""
    values = [v if isinstance(v, (Fraction, int)) else Fraction(v)
              for v in values]
    d = math.lcm(*(v.denominator for v in values))
    if d == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (d // v.denominator) for v in values], d


def _rows_mod_p(columns: Sequence[Sequence[int]], n: int) -> list[int]:
    """Greedy independent rows of an n-row integer matrix, mod PRIME.

    Row echelon on the transpose, scanning its columns (the rows) in order.
    A square that is nonsingular mod p is nonsingular over Q, so every row
    set this returns is valid; an unlucky prime can only make it too short.
    """
    m = len(columns)
    t = np.array([[x % PRIME for x in col] for col in columns],
                 dtype=np.int64).reshape(m, n)
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


def _limbs(values: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Signed base-2**bits digits of integers below 2**(bits * count) in
    absolute value, on a new last axis of length `count`:
    values == sum_k out[..., k] << (bits * k), |digit| < 2**bits."""
    magnitude = np.abs(values)
    mask = (1 << bits) - 1
    out = np.empty(values.shape + (count,), dtype=np.int64)
    for k in range(count):
        out[..., k] = ((magnitude >> (bits * k)) & mask).astype(np.int64)
    out[np.asarray(values < 0, dtype=bool)] *= -1
    return out


class ExactIntMatrix:
    """An int64 matrix that multiplies integers of any size exactly.

    S = (largest absolute entry) x (number of columns), below 2**61, bounds
    every absolute row sum.  A factor is split into signed limbs of
    L = 62 - bitlength(S) bits, so every int64 product with a limb is exact
    (below S 2**L < 2**62); the limb products are recombined in Python ints.
    S, and so L, is found once per matrix, without a temporary copy of it.
    """

    def __init__(self, a):
        self.a = np.asarray(a, dtype=np.int64)
        peak = max(int(self.a.max(initial=0)), -int(self.a.min(initial=0)))
        s = peak * self.a.shape[-1]
        if s >= 2**61:
            raise ValueError("matrix entries too large for the int64 kernel")
        self.bits = 62 - s.bit_length()

    def __matmul__(self, b) -> np.ndarray:
        """self.a @ b over the integers, as Python ints (an object array)."""
        b = np.asarray(b, dtype=object)
        count = -(-int(np.abs(b).max(initial=0)).bit_length() // self.bits)
        if count <= 1:
            return (self.a @ b.astype(np.int64)).astype(object)
        limbs = _limbs(b, self.bits, count)
        out = 0
        for k in reversed(range(count)):
            out = (out << self.bits) + (self.a @ limbs[..., k]).astype(object)
        return out


def _inverse_mod(a: np.ndarray, p: int) -> Optional[np.ndarray]:
    """Inverse of a square int64 matrix modulo p, or None if it is singular
    mod p.

    Gauss-Jordan on [A | I]: step k touches only the window of left columns
    k.. and right columns ..k; the right columns beyond k still hold the
    identity of the rows not yet pivoted, kept implicit, and row swaps
    permute the right columns, undone at the end (as in `bareiss_inverse`).
    """
    m = len(a)
    t = np.zeros((m, 2 * m), dtype=np.int64)
    t[:, :m] = a % p
    order = list(range(m))      # right column of each row's identity entry
    for k in range(m):
        nonzero = np.flatnonzero(t[k:, k])
        if not nonzero.size:
            return None
        s = k + int(nonzero[0])
        if s != k:
            t[[k, s]] = t[[s, k]]
            order[k], order[s] = order[s], order[k]
        t[k, m + k] = 1
        window = slice(k, m + k + 1)
        t[k, window] = t[k, window] * pow(int(t[k, k]), -1, p) % p
        f = t[:, k].copy()
        f[k] = 0
        rows = np.flatnonzero(f)
        t[rows, window] = (t[rows, window]
                           - f[rows, None] * t[k, window]) % p
    inverse = np.empty((m, m), dtype=np.int64)
    inverse[:, order] = t[:, m:]
    return inverse


def unimodular_inverse(matrix) -> list[np.ndarray]:
    """Exact inverse of a square integer matrix of determinant +-1, as
    balanced digits: A^-1 = sum_k PRIME**k digits[k], each an int64 matrix
    with entries of absolute value below PRIME / 2.  A ValueError if the
    determinant is not +-1.

    With C = A^-1 mod p (p = PRIME), the balanced digits X_k = C R_k mod p of
    R_0 = I, R_(k+1) = (R_k - A X_k) / p satisfy
    A (X_0 + p X_1 + ... + p^(K-1) X_(K-1)) = I - p^K R_K (Dixon, Numer.
    Math. 40, 1982), so the lift is the exact inverse as soon as R_K = 0.
    Every entry of an integer inverse is a cofactor, at most Hadamard's
    bound H = prod_i max(1, |row_i|), and K balanced digits reach every
    integer up to (p^K - 1) / 2: a residual still nonzero once p^K > 2 H
    proves |det| != 1.  With S the largest absolute row sum of A,
    |R_k| <= S / 2 + 1, so m (S + 2) < 2**33 keeps C R_k and A X_k in int64.
    The lift is checked once more, A X == I exactly (`ExactIntMatrix`).
    """
    a = np.asarray(matrix, dtype=np.int64)
    m = len(a)
    if a.shape != (m, m):
        raise ValueError("matrix is not square")
    s = int(np.abs(a).sum(axis=1).max(initial=0))
    if m * (s + 2) >= 2**33:
        raise ValueError("matrix entries too large for the int64 kernel")
    p = PRIME
    inverse_p = _inverse_mod(a, p)
    if inverse_p is None:
        raise ValueError("matrix is singular mod p, so its determinant is "
                         "not +-1")
    norms = np.sqrt((a.astype(float) ** 2).sum(axis=1))
    log_h = float(np.log2(np.maximum(norms, 1)).sum())
    budget = math.ceil((log_h + 1) / math.log2(p)) + 1
    residual = np.eye(m, dtype=np.int64)
    digits: list[np.ndarray] = []
    while residual.any():
        if len(digits) == budget:
            raise ValueError("the determinant is not +-1: the p-adic lift "
                             "exceeds Hadamard's bound")
        digit = inverse_p @ residual % p
        digit[digit > p // 2] -= p
        digits.append(digit)
        residual, remainder = np.divmod(residual - a @ digit, p)
        if remainder.any():
            raise ArithmeticError("p-adic lift is not exact")
    exact = ExactIntMatrix(a)
    product = sum((exact @ digit * p**k for k, digit in enumerate(digits)),
                  np.zeros((m, m), dtype=object))
    if not (product == np.eye(m, dtype=np.int64)).all():
        raise ArithmeticError("lifted inverse fails A X = I")
    return digits


def apply_digits(digits: Sequence[ExactIntMatrix], b) -> np.ndarray:
    """(sum_k PRIME**k digits[k]) @ b over the integers, for the digits of
    `unimodular_inverse` and integers b of any size."""
    out = np.zeros(np.shape(b), dtype=object)
    for digit in reversed(digits):
        out = out * PRIME + digit @ b
    return out


def independent_rows(columns: list[list[Fraction]]) -> list[int]:
    """Indices of rows forming an invertible square submatrix.

    `columns` is a full-column-rank matrix given column-wise; each column is
    scaled to integers, which leaves row independence unchanged.  Rows are
    chosen mod PRIME; if that falls short of full rank (the prime divides
    every candidate minor), the exact greedy choice decides.
    """
    if not columns:
        return []
    m, n = len(columns), len(columns[0])
    integer = [clear_denominators(col)[0] for col in columns]
    picked = _rows_mod_p(integer, n)
    if len(picked) == m:
        return picked
    span = ExactSpan(m)
    picked = []
    for i in range(n):
        if span.add([col[i] for col in integer]):
            picked.append(i)
            if len(picked) == m:
                return picked
    raise ValueError("columns are not linearly independent")


def invert_square(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square invertible matrix.

    Row i is scaled by d_i to integers, B = D A, so A^-1 = adj(B) D / det(B).
    """
    cleared = [clear_denominators(row) for row in matrix]
    adj, det = bareiss_inverse([row for row, _ in cleared])
    scales = [d for _, d in cleared]
    return [[Fraction(x * d, det) for x, d in zip(row, scales)] for row in adj]
