"""Truncated free associative algebra over {X0, X1} with rational coefficients.

Words are tuples of 0/1 generator indices.  A :class:`TensorSeries` holds the
words of total degree <= cutoff; everything beyond the cutoff is dropped
exactly, so products, exponentials and logarithms of truncated series agree
with the degree-<=cutoff part of the untruncated ones.

The layout is dense and graded by degree, as in iisignature (Reizenstein &
Graham, arXiv:1802.08252) and Signatory (Kidger & Lyons, arXiv:2001.00706):
degree n is one numpy object array of 2^n Python-int numerators, a word being
its bit index with the first letter as the high bit, so the concatenation of
blocks i and j is `np.multiply.outer(a_i, b_j).ravel()`, a block of degree
i + j.  All numerators share one common denominator, reduced by a single gcd
after every operation, so equal series have equal blocks.  Coefficients are
rational (`numbers.Rational`); anything else is refused with a TypeError.  An
all-zero block may be left out (``None``).  :meth:`TensorSeries.exp` is the
one exponential: a closed form on a linear series; any other exp, and every
log, is one truncated Horner evaluation of its power series.
The word expansion of a bracket tree (:func:`word_expansion`) is an int64
array of the same bit indices and one of its coefficients, so it fills a
block directly, and the Hall solver
reads its columns and targets by them.  Words are decoded from their bit
indices only where a caller asks for tuples.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import MutableMapping
from fractions import Fraction
from typing import Iterable

import numpy as np

from .exact_linalg import clear_denominators
from .trees import BracketTree

Word = tuple[int, ...]


def word_bidegree(word: Word) -> tuple[int, int]:
    n1 = sum(word)
    return (n1, len(word) - n1)


def word_text(word: Word) -> str:
    return " ".join(f"X{g}" for g in word) if word else "1"


def all_words(max_degree: int) -> Iterable[Word]:
    """All words of total degree <= max_degree, by increasing degree."""
    for n in range(max_degree + 1):
        yield from _decode(np.arange(1 << n), n)


def words_of_bidegree(n1: int, n0: int) -> list[Word]:
    """All words with exactly n1 ones and n0 zeros, lexicographic."""
    return _decode(bidegree_indices(n1, n0), n1 + n0)


def _decode(index, n: int) -> list[Word]:
    """The words of length n at the given bit indices (first letter in the
    high bit)."""
    shifts = np.arange(n - 1, -1, -1)
    letters = (np.asarray(index, dtype=np.int64)[:, None] >> shifts) & 1
    return [tuple(row) for row in letters.tolist()]


@functools.cache
def _ones(n: int) -> np.ndarray:
    """Number of X1 letters of each word of degree n, by bit index."""
    counts = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        counts = np.concatenate([counts, counts + 1])
    return counts


@functools.cache
def _by_ones(c: int) -> np.ndarray:
    """Row entry (degree n, ones k) of each word of degree <= c, in order."""
    return np.concatenate([n * (n + 1) // 2 + _ones(n) for n in range(c + 1)])


@functools.cache
def bidegree_indices(n1: int, n0: int) -> np.ndarray:
    """Bit indices of the words with n1 ones and n0 zeros, ascending, which
    is lexicographic order (read-only)."""
    out = np.flatnonzero(_ones(n1 + n0) == n1)
    out.flags.writeable = False
    return out


@functools.cache
def _lyndon_by_ones(n: int) -> dict[int, tuple[int, ...]]:
    """Bit indices of the Lyndon words (0 < 1) of length n by number of
    ones, ascending.  Duval's generation (Fredricksen-Kessler-Maiorana) lists
    the Lyndon words of length <= n in lexicographic order: increment the
    last letter, repeat the word periodically up to length n, drop trailing
    ones."""
    out: dict[int, list[int]] = {}
    w = [-1]
    while w:
        w[-1] += 1
        if len(w) == n:
            out.setdefault(sum(w), []).append(_index(w))
        period = len(w)
        while len(w) < n:
            w.append(w[-period])
        while w and w[-1] == 1:
            w.pop()
    return {ones: tuple(indices) for ones, indices in out.items()}


def lyndon_indices(n1: int, n0: int) -> tuple[int, ...]:
    """Bit indices of the Lyndon words with n1 ones and n0 zeros, ascending."""
    return _lyndon_by_ones(n1 + n0).get(n1, ())


def _index(word: Word) -> int:
    i = 0
    for g in word:
        i = 2 * i + g
    return i


def _require_rational(c) -> None:
    if not isinstance(c, numbers.Rational):
        raise TypeError(f"TensorSeries coefficients are rational, "
                        f"got {type(c).__name__} {c!r}")


def _block_product(left: list, right: list, top: int) -> list:
    """The degree blocks of the concatenation product up to degree top, as
    outer products of the integer numerators; higher blocks are None."""
    out: list[np.ndarray | None] = [None] * len(left)
    for i, a in enumerate(left[:top + 1]):
        for j, b in enumerate(right[:top - i + 1]):
            if a is not None and b is not None:
                term = np.multiply.outer(a, b).ravel()
                out[i + j] = term if out[i + j] is None else out[i + j] + term
    return out


class CutoffError(ValueError):
    pass


class TensorSeries:
    """A polynomial in the free algebra, truncated at a fixed total degree.

    `blocks[n]` holds the integer numerators of the degree-n words (or None
    when they are all zero) and `den` their common denominator, reduced
    against them.
    """

    __slots__ = ("cutoff", "blocks", "den", "_coeffs")

    def __init__(self, cutoff: int, coeffs: dict[Word, object] | None = None):
        """The series sum coeffs[w] w; words beyond the cutoff are dropped."""
        if cutoff < 0:
            raise CutoffError(f"cutoff must be >= 0, got {cutoff}")
        coeffs = coeffs or {}
        for c in coeffs.values():
            _require_rational(c)
        items = [(w, c) for w, c in coeffs.items() if len(w) <= cutoff and c]
        values, den = clear_denominators([c for _, c in items])
        blocks: list[np.ndarray | None] = [None] * (cutoff + 1)
        for (w, _), c in zip(items, values):
            n = len(w)
            if blocks[n] is None:
                blocks[n] = np.zeros(1 << n, dtype=object)
            blocks[n][_index(w)] = c
        self._set(cutoff, blocks, den)

    def _set(self, cutoff, blocks, den) -> None:
        self.cutoff = cutoff
        self.blocks = blocks
        self.den = den
        self._coeffs = None

    @classmethod
    def _make(cls, cutoff: int, blocks: list, den: int = 1) -> "TensorSeries":
        """A series on the given blocks, reduced by the gcd of its
        denominator and all its numerators."""
        if den != 1:
            g = den
            for b in blocks:
                if b is not None:
                    g = math.gcd(g, *b)
                    if g == 1:
                        break
            if g != 1:
                blocks = [None if b is None else b // g for b in blocks]
                den //= g
        out = cls.__new__(cls)
        out._set(cutoff, blocks, den)
        return out

    @classmethod
    def zero(cls, cutoff: int) -> "TensorSeries":
        return cls(cutoff)

    @classmethod
    def unit(cls, cutoff: int) -> "TensorSeries":
        return cls(cutoff, {(): 1})

    @classmethod
    def from_word(cls, word: Word, cutoff: int, coeff=Fraction(1)) -> "TensorSeries":
        return cls(cutoff, {word: coeff})

    def __getitem__(self, word: Word):
        n = len(word)
        if n > self.cutoff or self.blocks[n] is None:
            return 0
        c = self.blocks[n][_index(word)]
        return Fraction(c, self.den) if c else 0

    @property
    def coeffs(self) -> "WordCoefficients":
        """The nonzero coefficients by word; assigning to it changes the
        series."""
        return WordCoefficients(self)

    def _nonzero(self, n: int) -> tuple[list[int], list[int]]:
        """Bit indices and numerators of the nonzero degree-n entries."""
        b = self.blocks[n] if n <= self.cutoff else None
        if b is None:
            return [], []
        index = np.flatnonzero(b)
        return index.tolist(), b[index].tolist()

    def _coeff_dict(self) -> dict[Word, Fraction]:
        if self._coeffs is None:
            den = self.den
            self._coeffs = {}
            for n in range(self.cutoff + 1):
                index, values = self._nonzero(n)
                self._coeffs.update(zip(
                    _decode(index, n), (Fraction(c, den) for c in values)))
        return self._coeffs

    def _assign(self, word: Word, value) -> None:
        if len(word) > self.cutoff:
            raise CutoffError(f"word {word} is longer than the cutoff "
                              f"{self.cutoff}")
        new = self + TensorSeries(self.cutoff, {word: value - self[word]})
        self._set(new.cutoff, new.blocks, new.den)

    def __bool__(self) -> bool:
        return any(b is not None and b.any() for b in self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorSeries):
            return NotImplemented
        # both reduced: equal series have equal numerators and den
        return self.den == other.den and all(
            self._nonzero(n) == other._nonzero(n)
            for n in range(max(self.cutoff, other.cutoff) + 1))

    def __hash__(self):  # pragma: no cover
        raise TypeError("TensorSeries is unhashable")

    def _check_cutoff(self, other: "TensorSeries") -> None:
        if self.cutoff != other.cutoff:
            raise CutoffError(
                f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")

    def __add__(self, other: "TensorSeries") -> "TensorSeries":
        self._check_cutoff(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        left = [b if b is None or fa == 1 else b * fa for b in self.blocks]
        right = [b if b is None or fb == 1 else b * fb for b in other.blocks]
        blocks = [a if b is None else b if a is None else a + b
                  for a, b in zip(left, right)]
        return TensorSeries._make(self.cutoff, blocks, den)

    def __sub__(self, other: "TensorSeries") -> "TensorSeries":
        return self + other.scale(-1)

    def scale(self, factor) -> "TensorSeries":
        _require_rational(factor)
        factor = Fraction(factor)
        if not factor:
            return TensorSeries(self.cutoff)
        p = factor.numerator
        blocks = [b if b is None or p == 1 else b * p for b in self.blocks]
        return TensorSeries._make(self.cutoff, blocks,
                                  self.den * factor.denominator)

    def __mul__(self, other: "TensorSeries") -> "TensorSeries":
        """Concatenation product, truncated at the cutoff: blocks meet whole,
        as outer products of ints."""
        self._check_cutoff(other)
        return TensorSeries._make(
            self.cutoff, _block_product(self.blocks, other.blocks, self.cutoff),
            self.den * other.den)

    def _power_sum(self, coefficient) -> "TensorSeries":
        """sum_{k >= 0} coefficient(k) x^k, x this series without its
        constant term, by truncated Horner: with m the lowest degree of x
        and K = c // m, r_K = a_K and r_k = a_k + x r_{k+1}, which is needed
        only up to degree c - k m, and the sum is r_0."""
        c = self.cutoff
        x = [None] + [b if b is not None and b.any() else None
                      for b in self.blocks[1:]]
        m = next((n for n in range(1, c + 1) if x[n] is not None), c + 1)
        r = TensorSeries.unit(c).scale(coefficient(c // m))
        for k in range(c // m - 1, -1, -1):
            a = Fraction(coefficient(k))
            den = math.lcm(self.den * r.den, a.denominator)
            f = den // (self.den * r.den)
            blocks = _block_product(x, r.blocks, c - k * m)
            blocks = [b if b is None or f == 1 else b * f for b in blocks]
            if a:
                blocks[0] = np.array([int(a * den)], dtype=object)
            r = TensorSeries._make(c, blocks, den)
        return r

    def exp(self) -> "TensorSeries":
        """exp of a series with zero constant term (checked).

        A linear series (x0 X0 + x1 X1) / d, c the cutoff, takes the closed
        form: a word of length n with k X1 letters gets x0^(n-k) x1^k
        d^(c-n) (c!/n!) over d^c c!, the (c+1)(c+2)/2 values reduced by their
        gcd before one index spreads them over the words.  Any other series
        takes the truncated Horner evaluation of sum x^k / k!."""
        if self[()]:
            raise ValueError("exp requires a zero constant term")
        c, d = self.cutoff, self.den
        if any(b is not None and b.any() for b in self.blocks[2:]):
            return self._power_sum(lambda k: Fraction(1, math.factorial(k)))
        first = self.blocks[1] if c else None
        x0, x1 = (0, 0) if first is None else first.tolist()
        powers0, powers1 = ([x ** j for j in range(c + 1)] for x in (x0, x1))
        den = math.factorial(c) * d ** c
        values, weight = [den], den               # weight d^(c-n) c!/n!
        for n in range(1, c + 1):
            weight //= d * n
            values += [weight * powers0[n - k] * powers1[k]
                       for k in range(n + 1)]
        g = math.gcd(*values)
        spread = (np.array(values, dtype=object) // g)[_by_ones(c)]
        blocks = [spread[(1 << n) - 1:(2 << n) - 1] for n in range(c + 1)]
        out = TensorSeries.__new__(TensorSeries)
        out._set(c, blocks, den // g)
        return out

    def log(self) -> "TensorSeries":
        """log of a series with constant term 1 (checked), by the truncated
        Horner evaluation of sum (-1)^{k+1} x^k / k, x the series minus 1."""
        if self[()] != 1:
            raise ValueError("log requires constant term 1")
        return self._power_sum(lambda k: Fraction((-1) ** (k + 1), k) if k else 0)

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*{word_text(w)}"
                          for w, c in self.coeffs.items())

    def __repr__(self) -> str:
        return f"TensorSeries(cutoff={self.cutoff}, {self.pretty()})"


class WordCoefficients(MutableMapping):
    """`TensorSeries.coeffs`: a mapping word -> nonzero coefficient.

    Reads go to a dict built once per state of the series; a write or a
    deletion re-encodes the series' blocks.
    """

    __slots__ = ("_series",)

    def __init__(self, series: TensorSeries):
        self._series = series

    def _dict(self) -> dict[Word, Fraction]:
        return self._series._coeff_dict()

    def __getitem__(self, word: Word):
        return self._dict()[word]

    def __setitem__(self, word: Word, value) -> None:
        self._series._assign(word, value)

    def __delitem__(self, word: Word) -> None:
        if word not in self:
            raise KeyError(word)
        self._series._assign(word, 0)

    def __iter__(self):
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self._dict())

    def values(self):
        return self._dict().values()

    def items(self):
        return self._dict().items()

    def __repr__(self) -> str:
        return repr(self._dict())


_EXPANSION_CACHE: dict[BracketTree, tuple[np.ndarray, np.ndarray]] = {}


def word_expansion(tree: BracketTree) -> tuple[np.ndarray, np.ndarray]:
    """The bracket evaluation of `tree` in the words of length
    `tree.length`: two read-only int64 arrays, the ascending bit indices of
    its nonzero words and their integer coefficients (cached).

    Concatenating words of lengths l1 and l2 is (i1 << l2) | i2, so
    [a, b] = ab - ba is two outer products of the children's arrays; each
    product hits distinct words, and a coefficient is at most 2^(length - 1)
    in absolute value, so a dense int64 block of the length adds them up.
    """
    cached = _EXPANSION_CACHE.get(tree)
    if cached is not None:
        return cached
    if tree.is_leaf:
        index = np.array([tree.generator], dtype=np.int64)
        coeffs = np.ones(1, dtype=np.int64)
    else:
        la, lb = tree.left.length, tree.right.length
        ia, ca = word_expansion(tree.left)
        ib, cb = word_expansion(tree.right)
        c = np.multiply.outer(ca, cb)
        block = np.zeros(1 << (la + lb), dtype=np.int64)
        block[(ia[:, None] << lb) | ib] += c
        block[(ib << la) | ia[:, None]] -= c
        index = np.flatnonzero(block).astype(np.int64, copy=False)
        coeffs = block[index]
    index.flags.writeable = coeffs.flags.writeable = False
    return _EXPANSION_CACHE.setdefault(tree, (index, coeffs))


def expansion_series(terms: Iterable[tuple[BracketTree, int]], cutoff: int,
                     den: int = 1) -> TensorSeries:
    """sum_k c_k E(tree_k) / den for integer c_k, filled into the degree
    blocks straight from the cached bit-index expansions; every tree must
    fit under the cutoff."""
    blocks: list[np.ndarray | None] = [None] * (cutoff + 1)
    for tree, c in terms:
        index, coeffs = word_expansion(tree)
        n = tree.length
        if blocks[n] is None:
            blocks[n] = np.zeros(1 << n, dtype=object)
        blocks[n][index] += coeffs.astype(object) * c
    return TensorSeries._make(cutoff, blocks, den)


def expand_to_words(tree: BracketTree, cutoff: int) -> TensorSeries:
    """Word expansion of the bracket evaluation of `tree` ([a,b] = ab - ba).

    Every word carries the tree's bidegree and integer coefficients.  Fails if
    the tree does not fit under the cutoff.
    """
    if tree.length > cutoff:
        raise CutoffError(
            f"tree of length {tree.length} needs cutoff >= {tree.length}, "
            f"got {cutoff}")
    return expansion_series([(tree, 1)], cutoff)
