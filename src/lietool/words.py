"""Truncated free associative algebra over {X0, X1} with exact coefficients.

Words are tuples of 0/1 generator indices.  A :class:`TensorSeries` maps words
of total degree <= cutoff to coefficients; everything beyond the cutoff is
dropped exactly, so products, exponentials and logarithms of truncated series
agree with the degree-<=cutoff part of the untruncated ones.

Coefficients default to `fractions.Fraction` but any commutative ring element
supporting +, -, * (with int/Fraction scalars), == and truth-testing works;
the cross-term extraction machinery reuses this with polynomial coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .trees import BracketTree

Word = tuple[int, ...]

EMPTY_WORD: Word = ()


def word_bidegree(word: Word) -> tuple[int, int]:
    n1 = sum(word)
    return (n1, len(word) - n1)


def word_text(word: Word) -> str:
    return " ".join(f"X{g}" for g in word) if word else "1"


def all_words(max_degree: int) -> Iterable[Word]:
    """All words of total degree <= max_degree, by increasing degree."""
    level: list[Word] = [()]
    yield ()
    for _ in range(max_degree):
        level = [w + (g,) for w in level for g in (0, 1)]
        yield from level


def words_of_bidegree(n1: int, n0: int) -> list[Word]:
    """All words with exactly n1 ones and n0 zeros, lexicographic."""
    out: list[Word] = []

    def build(prefix: list[int], ones: int, zeros: int) -> None:
        if ones == 0 and zeros == 0:
            out.append(tuple(prefix))
            return
        if zeros:
            prefix.append(0)
            build(prefix, ones, zeros - 1)
            prefix.pop()
        if ones:
            prefix.append(1)
            build(prefix, ones - 1, zeros)
            prefix.pop()

    build([], n1, n0)
    return out


class CutoffError(ValueError):
    pass


class TensorSeries:
    """A polynomial in the free algebra, truncated at a fixed total degree."""

    __slots__ = ("cutoff", "coeffs")

    def __init__(self, cutoff: int, coeffs: dict[Word, object] | None = None):
        self.cutoff = cutoff
        self.coeffs = {} if coeffs is None else coeffs

    @classmethod
    def zero(cls, cutoff: int) -> "TensorSeries":
        return cls(cutoff)

    @classmethod
    def unit(cls, cutoff: int, one=Fraction(1)) -> "TensorSeries":
        return cls(cutoff, {EMPTY_WORD: one})

    @classmethod
    def from_word(cls, word: Word, cutoff: int, coeff=Fraction(1)) -> "TensorSeries":
        if len(word) > cutoff:
            return cls(cutoff)
        return cls(cutoff, {word: coeff})

    def __getitem__(self, word: Word):
        return self.coeffs.get(word, 0)

    def __bool__(self) -> bool:
        return any(self.coeffs.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorSeries):
            return NotImplemented
        for w in self.coeffs.keys() | other.coeffs.keys():
            if self.coeffs.get(w, 0) != other.coeffs.get(w, 0):
                return False
        return True

    def __hash__(self):  # pragma: no cover
        raise TypeError("TensorSeries is unhashable")

    def _check_cutoff(self, other: "TensorSeries") -> None:
        if self.cutoff != other.cutoff:
            raise CutoffError(
                f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")

    def __add__(self, other: "TensorSeries") -> "TensorSeries":
        self._check_cutoff(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return TensorSeries(self.cutoff, out)

    def __sub__(self, other: "TensorSeries") -> "TensorSeries":
        return self + other.scale(-1)

    def scale(self, factor) -> "TensorSeries":
        if not factor:
            return TensorSeries(self.cutoff)
        return TensorSeries(
            self.cutoff, {w: c * factor for w, c in self.coeffs.items()})

    def __mul__(self, other: "TensorSeries") -> "TensorSeries":
        """Concatenation product, truncated at the cutoff."""
        self._check_cutoff(other)
        out: dict[Word, object] = {}
        cutoff = self.cutoff
        for w1, c1 in self.coeffs.items():
            room = cutoff - len(w1)
            for w2, c2 in other.coeffs.items():
                if len(w2) > room:
                    continue
                w = w1 + w2
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return TensorSeries(cutoff, out)

    def bracket(self, other: "TensorSeries") -> "TensorSeries":
        return self * other - other * self

    def truncated(self, cutoff: int) -> "TensorSeries":
        return TensorSeries(
            cutoff, {w: c for w, c in self.coeffs.items() if len(w) <= cutoff})

    def exp(self) -> "TensorSeries":
        """exp of a series with zero constant term (checked)."""
        if self.coeffs.get(EMPTY_WORD, 0):
            raise ValueError("exp requires a zero constant term")
        result = TensorSeries.unit(self.cutoff, _one_like(self))
        power = TensorSeries.unit(self.cutoff, _one_like(self))
        factorial = 1
        for k in range(1, self.cutoff + 1):
            power = power * self
            factorial *= k
            if not power:
                break
            result = result + power.scale(Fraction(1, factorial))
        return result

    def log(self) -> "TensorSeries":
        """log of a series with constant term 1 (checked)."""
        if self.coeffs.get(EMPTY_WORD, 0) != 1:
            raise ValueError("log requires constant term 1")
        rest = TensorSeries(
            self.cutoff,
            {w: c for w, c in self.coeffs.items() if w != EMPTY_WORD})
        # log(1+x) = sum (-1)^{k+1} x^k / k
        result = TensorSeries(self.cutoff)
        power = TensorSeries.unit(self.cutoff, _one_like(self))
        for k in range(1, self.cutoff + 1):
            power = power * rest
            if not power:
                break
            result = result + power.scale(Fraction((-1) ** (k + 1), k))
        return result

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        items = sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return " + ".join(f"({c})*{word_text(w)}" for w, c in items if c)

    def __repr__(self) -> str:
        return f"TensorSeries(cutoff={self.cutoff}, {self.pretty()})"


def _one_like(series: TensorSeries):
    """Multiplicative unit compatible with the series' coefficient ring."""
    for c in series.coeffs.values():
        one = c * 0 + 1
        return one
    return Fraction(1)


_EXPANSION_CACHE: dict[BracketTree, dict[Word, int]] = {}


def word_expansion(tree: BracketTree) -> dict[Word, int]:
    """Integer word coefficients of the bracket evaluation of `tree` (cached)."""
    cached = _EXPANSION_CACHE.get(tree)
    if cached is not None:
        return cached
    if tree.is_leaf:
        out = {(tree.generator,): 1}
    else:
        a = word_expansion(tree.left)
        b = word_expansion(tree.right)
        out = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                c = c1 * c2
                w = w1 + w2
                out[w] = out.get(w, 0) + c
                w = w2 + w1
                out[w] = out.get(w, 0) - c
        out = {w: c for w, c in out.items() if c}
    return _EXPANSION_CACHE.setdefault(tree, out)


def expand_to_words(tree: BracketTree, cutoff: int) -> TensorSeries:
    """Word expansion of the bracket evaluation of `tree` ([a,b] = ab - ba).

    Every word carries the tree's bidegree and integer coefficients.  Fails if
    the tree does not fit under the cutoff.
    """
    if tree.length > cutoff:
        raise CutoffError(
            f"tree of length {tree.length} needs cutoff >= {tree.length}, "
            f"got {cutoff}")
    return TensorSeries(
        cutoff, {w: Fraction(c) for w, c in word_expansion(tree).items()})
