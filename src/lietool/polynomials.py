"""Sparse multivariate polynomials with exact rational coefficients.

The component type of polynomial vector fields (:mod:`lietool.fields`).  A
coefficient is stored as an `int` whenever its value is an integer and as a
`Fraction` otherwise, never as a float; on integer systems every product in
the bracket jets is then an integer product.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Exponents = tuple[int, ...]
Coefficient = int | Fraction


def _exact(c) -> Coefficient:
    """c as an `int` when its value is an integer, else as a `Fraction`
    (floats and strings are read exactly, as `Fraction` reads them)."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class SparsePoly:
    """Polynomial in `nvars` variables: map exponent-tuple -> coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int,
                 terms: dict[Exponents, Coefficient] | None = None):
        self.nvars = nvars
        self.terms: dict[Exponents, Coefficient] = {}
        for e, c in (terms or {}).items():
            if (type(e) is not tuple or len(e) != nvars
                    or any(type(k) is not int or k < 0 for k in e)):
                raise ValueError(f"monomial exponents {e!r} are not "
                                 f"{nvars} non-negative ints")
            c = _exact(c)
            if c:
                self.terms[e] = c

    @classmethod
    def _make(cls, nvars: int,
              terms: dict[Exponents, Coefficient]) -> "SparsePoly":
        """A polynomial on terms that are already valid: exponent tuples of
        arity `nvars` and nonzero coefficients as `_exact` gives them."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def _summed(cls, nvars: int,
                terms: dict[Exponents, Coefficient]) -> "SparsePoly":
        """`_make` on sums of valid coefficients: zeros are dropped and
        integral Fractions become ints."""
        return cls._make(nvars,
                         {e: _exact(c) for e, c in terms.items() if c})

    @classmethod
    def constant(cls, nvars: int, c) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int, power: int = 1) -> "SparsePoly":
        e = [0] * nvars
        e[i] = power
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff=1) -> "SparsePoly":
        return cls(len(exponents), {tuple(exponents): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self) -> Coefficient:
        return self.terms.get((0,) * self.nvars, 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.terms
            return self.is_constant() and self.constant_term() == other
        return NotImplemented

    def __hash__(self):  # pragma: no cover
        raise TypeError("SparsePoly is unhashable")

    def _coerce(self, other) -> "SparsePoly":
        if isinstance(other, SparsePoly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return SparsePoly.constant(self.nvars, other)

    def __add__(self, other) -> "SparsePoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return SparsePoly._summed(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._make(self.nvars,
                                {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "SparsePoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "SparsePoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            other = _exact(other)
            if not other:
                return SparsePoly(self.nvars)
            return SparsePoly._summed(
                self.nvars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        out: dict[Exponents, Coefficient] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return SparsePoly._summed(self.nvars, out)

    __rmul__ = __mul__

    def truncated(self, order: int) -> "SparsePoly":
        """The terms of total degree <= order."""
        return SparsePoly._make(self.nvars, {
            e: c for e, c in self.terms.items() if sum(e) <= order})

    def coefficient(self, exponents: Sequence[int]) -> Coefficient:
        return self.terms.get(tuple(exponents), 0)

    def partial(self, i: int) -> "SparsePoly":
        out: dict[Exponents, Coefficient] = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return SparsePoly._summed(self.nvars, out)

    def eval(self, point: Sequence) -> Fraction:
        total = Fraction(0)
        pt = [Fraction(p) for p in point]
        for e, c in self.terms.items():
            term = c
            for x, k in zip(pt, e):
                for _ in range(k):
                    term *= x
            total += term
        return total

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                            for i, k in enumerate(e) if k)
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

