"""Sparse multivariate polynomials over Fraction.

The component type of polynomial vector fields (:mod:`lietool.fields`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Exponents = tuple[int, ...]


class SparsePoly:
    """Polynomial in `nvars` variables: map exponent-tuple -> Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponents, Fraction] | None = None):
        self.nvars = nvars
        self.terms: dict[Exponents, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    if len(e) != nvars:
                        raise ValueError("exponent arity mismatch")
                    self.terms[e] = c

    @classmethod
    def constant(cls, nvars: int, c) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int, power: int = 1) -> "SparsePoly":
        e = [0] * nvars
        e[i] = power
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff=1) -> "SparsePoly":
        return cls(len(exponents), {tuple(exponents): Fraction(coeff)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
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
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return SparsePoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "SparsePoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "SparsePoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return SparsePoly(self.nvars)
            return SparsePoly(
                self.nvars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return SparsePoly(self.nvars, out)

    __rmul__ = __mul__

    def truncated(self, order: int) -> "SparsePoly":
        """The terms of total degree <= order."""
        return SparsePoly(self.nvars, {e: c for e, c in self.terms.items()
                                       if sum(e) <= order})

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def partial(self, i: int) -> "SparsePoly":
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return SparsePoly(self.nvars, out)

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
