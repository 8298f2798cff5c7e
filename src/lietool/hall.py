"""The Hall set over {X0, X1} adapted to trailing-X0 brackets.

The carrier order lives on the subset G of trees in which X0 never appears as
a left factor.  Writing b = g 0^nu with g the germ of b (the core left after
peeling trailing right X0 factors), the order compares, lexicographically,

    (n1(germ), left factor of germ, right factor of germ, nu),

with X0 the maximal element and X1 the minimal one.  Each tree of G caches
one sort key (:func:`hall_key`) that spells this out as nested tuples: X0 has
(inf,), X1 0^nu has (1, (), (), nu), and any other tree
(n1(germ), key(germ.left), key(germ.right), nu).  The key is the carrier
test too: a tree outside G has none, and `hall_key` raises
:class:`NotInCarrierError`.  Python's tuple comparison is then the order, so
enumeration sorts with `key=` and no pair of trees is ever compared through
a memoized comparator.  The associated Hall set (written `basis`
throughout) has the crucial closure property that b in the basis implies
b 0^nu in the basis, and its layers with a fixed number of X1 factors are
spanned by a handful of named families (M, W, P, Q, Qs, Qf, R, Rs); the
enumeration below reproduces them.  One table holds the one
:class:`HallElement` of each tree known to be Hall: the enumerator enters
the trees it builds unchecked (they are Hall by construction), `is_hall`
enters those it validates, and :meth:`HallElement.of` validates.

`decompose` expands arbitrary bracket trees on the basis by exact linear
algebra in the word space of the matching bidegree, which is unconditionally
correct because the evaluated Hall set is a basis of the free Lie algebra.
Words are bit indices (first letter in the high bit, length implied by the
bidegree), as in :class:`lietool.words.TensorSeries`.  The solver of a
bidegree works in integers: the Hall elements' word expansions are int64
columns, their rows at the Lyndon words form a unimodular square, fixed in
advance, whose inverse is lifted from one modulo a prime and checked exactly
(:func:`lietool.exact_linalg.unimodular_inverse`), and every decomposition
is checked exactly against all words of the bidegree before its
coefficients become fractions.  Its input is integer too, and reaches it by
one road (:func:`decompose_vector`): a tree's cached expansion arrays
(:func:`lietool.words.word_expansion`) fill the vector of its bidegree, and
a word series is split by bidegree into its numerators over its common
denominator (:func:`decompose_lie_series`), a Lie element through its
`expand_to_words`.  Trees and Lie elements longer than
`MAX_DECOMPOSE_LENGTH` are refused; a series is solved at any length.
"""

from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from . import trees
from .exact_linalg import (ExactIntMatrix, apply_digits, clear_denominators,
                           unimodular_inverse)
from .trees import BracketTree, X0, X1, node, strip_trailing_zeros
from .words import (CutoffError, TensorSeries, _ones, bidegree_indices,
                    expansion_series, lyndon_indices, word_expansion)

MAX_DECOMPOSE_LENGTH = 16


class NotInCarrierError(ValueError):
    """Comparison requested outside G (X0 used as a left factor)."""


class InternalConsistencyError(RuntimeError):
    """An exact identity that must hold failed; signals a library bug."""


_KEY_CACHE: dict[BracketTree, tuple] = {}


def hall_key(b: BracketTree) -> tuple:
    """The sort key of b in G: (inf,) for X0, (1, (), (), nu) for X1 0^nu,
    and (n1(germ), key(germ.left), key(germ.right), nu) otherwise.

    Raises NotInCarrierError when X0 is a left factor somewhere in b.
    """
    cached = _KEY_CACHE.get(b)
    if cached is not None:
        return cached
    if b is X0:
        key: tuple = (math.inf,)
    else:
        germ, nu = strip_trailing_zeros(b)
        if germ is X1:
            key = (1, (), (), nu)
        elif germ is X0 or germ.left is X0:
            raise NotInCarrierError(f"{b.text} is not in the carrier set G")
        else:
            # n1(germ) >= 2: a germ with one X1 factor is X1 itself
            key = (germ.n1, hall_key(germ.left), hall_key(germ.right), nu)
    return _KEY_CACHE.setdefault(b, key)


def hall_compare(a: BracketTree, b: BracketTree) -> int:
    """Total order on G: -1, 0 or +1.  X0 maximal, X1 minimal."""
    if a is b:
        return 0
    ka, kb = hall_key(a), hall_key(b)
    if ka == kb:
        raise InternalConsistencyError(
            f"distinct trees share a sort key: {a.text} / {b.text}")
    return -1 if ka < kb else 1


def is_hall(b: BracketTree) -> bool:
    """Membership in the Hall set (leaves included)."""
    if b in HallElement._cache:
        return True         # both leaves among them
    # Hall trees lie in G, so no key below is refused
    b1, b2 = b.left, b.right
    if not (is_hall(b1) and is_hall(b2)
            and hall_key(b1) < hall_key(b2)
            and (b2.is_leaf or hall_key(b2.left) <= hall_key(b1))):
        return False
    _element(b)
    return True


@functools.total_ordering
class HallElement:
    """A Hall-set member: one per tree, so equality is identity.

    :meth:`of` validates a tree and returns its one element; the
    constructor trusts its caller and enters nothing in the table.
    """

    __slots__ = ("tree",)

    # every tree known to be Hall, with its one element
    _cache: dict[BracketTree, "HallElement"] = {}

    def __init__(self, tree: BracketTree):
        object.__setattr__(self, "tree", tree)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("HallElement is immutable")

    @classmethod
    def of(cls, tree: Union[BracketTree, "HallElement", str]) -> "HallElement":
        if isinstance(tree, HallElement):
            return tree
        if isinstance(tree, str):
            tree = trees.parse_tree(tree)
        element = cls._cache.get(tree)
        if element is None:
            if not is_hall(tree):
                raise ValueError(f"{tree.text} is not a Hall-set element")
            element = cls._cache[tree]
        return element

    @property
    def trailing_zeros(self) -> int:
        return strip_trailing_zeros(self.tree)[1]

    @property
    def n0(self) -> int:
        return self.tree.n0

    @property
    def n1(self) -> int:
        return self.tree.n1

    @property
    def length(self) -> int:
        return self.tree.length

    @property
    def bidegree(self) -> tuple[int, int]:
        return self.tree.bidegree

    def __lt__(self, other: "HallElement") -> bool:
        return hall_key(self.tree) < hall_key(other.tree)

    def __repr__(self) -> str:
        return trees.display_form(self.tree)


def _element(tree: BracketTree) -> HallElement:
    """The element of a tree known to be Hall, entering it if new."""
    element = HallElement._cache.get(tree)
    if element is None:
        element = HallElement._cache.setdefault(tree, HallElement(tree))
    return element


_element(X0)
_element(X1)

_BIDEGREE_CACHE: dict[tuple[int, int], tuple[HallElement, ...]] = {}


def basis_of_bidegree(n1: int, n0: int) -> tuple[HallElement, ...]:
    """All Hall elements of exact bidegree (n1, n0), sorted ascending."""
    key = (n1, n0)
    cached = _BIDEGREE_CACHE.get(key)
    if cached is not None:
        return cached
    if n1 < 0 or n0 < 0:
        raise ValueError(f"bidegree must be >= 0, got ({n1}, {n0})")
    found: list[BracketTree] = []
    if (n1, n0) == (0, 1):
        found.append(X0)
    elif (n1, n0) == (1, 0):
        found.append(X1)
    elif n1 + n0 >= 2 and n1 >= 1:
        # both factors of a Hall node are Hall; sweep factor bidegrees
        for p1 in range(n1 + 1):
            for q1 in range(n0 + 1):
                if (p1, q1) in ((0, 0), (n1, n0)):
                    continue
                right = [b.tree for b in basis_of_bidegree(n1 - p1, n0 - q1)]
                right_keys = [hall_key(b) for b in right]
                for a in basis_of_bidegree(p1, q1):
                    # right ascends: the b with a < b are a suffix of it
                    # (none for a = X0, the maximum)
                    ka = hall_key(a.tree)
                    for b in right[bisect.bisect_right(right_keys, ka):]:
                        if b.is_leaf or hall_key(b.left) <= ka:
                            found.append(node(a.tree, b))
    result = tuple(_element(t) for t in sorted(found, key=hall_key))
    return _BIDEGREE_CACHE.setdefault(key, result)


def _sorted_basis(bidegrees: Iterable[tuple[int, int]]) -> list[HallElement]:
    out = [e for n1, n0 in bidegrees for e in basis_of_bidegree(n1, n0)]
    out.sort()
    return out


def enumerate_basis(n1_max: int, n0_max: int) -> list[HallElement]:
    """All Hall elements with n1 <= n1_max and n0 <= n0_max, sorted."""
    if n1_max < 0 or n0_max < 0:
        raise ValueError("bounds must be >= 0")
    return _sorted_basis((p, q) for p in range(n1_max + 1)
                         for q in range(n0_max + 1))


def basis_up_to_length(max_length: int) -> list[HallElement]:
    """All Hall elements of length <= max_length, sorted."""
    return _sorted_basis((p, q) for p in range(max_length + 1)
                         for q in range(max_length + 1 - p))


class LieElement:
    """Finite rational combination of Hall elements."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[HallElement, Fraction] | None = None):
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                if type(v) is not Fraction:
                    v = Fraction(v)
                if v:
                    self.coeffs[k] = v

    @classmethod
    def single(cls, element, coeff=1) -> "LieElement":
        return cls({HallElement.of(element): Fraction(coeff)})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LieElement) and self.coeffs == other.coeffs

    def __add__(self, other: "LieElement") -> "LieElement":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k, Fraction(0)) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return LieElement(out)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + other.scale(-1)

    def scale(self, factor) -> "LieElement":
        factor = Fraction(factor)
        if not factor:
            return LieElement()
        return LieElement({k: v * factor for k, v in self.coeffs.items()})

    def support(self) -> set[HallElement]:
        return set(self.coeffs)

    def expand_to_words(self, cutoff: int) -> TensorSeries:
        for element in self.coeffs:
            if element.length > cutoff:
                raise CutoffError(f"{element!r} does not fit under the "
                                  f"cutoff {cutoff}")
        numerators, den = clear_denominators(self.coeffs.values())
        return expansion_series(
            zip((e.tree for e in self.coeffs), numerators), cutoff, den)

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({v})*{k!r}" for k, v in self.items_sorted())


# Cached per-bidegree integer solvers.  Each Hall element's bit-index word
# expansion is an int64 column of E over the words of the bidegree.  Its rows
# at the Lyndon words form a unimodular square M: Hall sets and the Lyndon
# basis are both Z-bases of the free Lie ring (M. Hall, Proc. AMS 1, 1950;
# Reutenauer, Free Lie Algebras, ch. 5).  `unimodular_inverse` gives its exact
# inverse X as int64 p-adic digits, so a decomposition is c = X t on the
# Lyndon rows of the target t (`apply_digits`), and E c = t is then checked
# exactly over every word of the bidegree.
_SOLVER_CACHE: dict[tuple[int, int], tuple] = {}


def _bidegree_solver(n1: int, n0: int):
    key = (n1, n0)
    cached = _SOLVER_CACHE.get(key)
    if cached is not None:
        return cached
    elements = basis_of_bidegree(n1, n0)
    words = bidegree_indices(n1, n0)
    expansion = np.zeros((len(words), len(elements)), dtype=np.int64)
    for j, element in enumerate(elements):
        index, coeffs = word_expansion(element.tree)
        expansion[np.searchsorted(words, index), j] = coeffs
    rows = np.searchsorted(words, lyndon_indices(n1, n0))
    try:
        inverse = unimodular_inverse(expansion[rows])
    except ValueError as err:
        raise InternalConsistencyError(
            f"the Lyndon-row square of bidegree ({n1},{n0}) is not "
            f"unimodular: {err}") from err
    cached = (elements, ExactIntMatrix(expansion), rows,
              [ExactIntMatrix(digit) for digit in inverse])
    return _SOLVER_CACHE.setdefault(key, cached)


def decompose_vector(target: np.ndarray, n1: int, n0: int,
                     den: int = 1) -> LieElement:
    """Write sum_w target[w] w / den over the Hall basis, `target` holding
    the integer numerators of the words of bidegree (n1, n0) in ascending
    bit index.

    The coefficients' numerators are c = X t on the Lyndon rows, and
    E c = t must hold on every word, otherwise the input was not a Lie
    element of that bidegree (or the library is inconsistent).
    """
    elements, expansion, rows, inverse = _bidegree_solver(n1, n0)
    target = np.asarray(target, dtype=object)
    coeffs = apply_digits(inverse, target[rows])
    if not (expansion @ coeffs == target).all():
        raise InternalConsistencyError(
            "nonzero residual: the input is not a Lie element of bidegree "
            f"({n1},{n0})")
    return LieElement({e: Fraction(c, den)
                       for e, c in zip(elements, coeffs) if c})


def decompose_lie_series(series: TensorSeries) -> LieElement:
    """Write a Lie polynomial, given by its words, over the Hall basis: its
    numerators are split by bidegree and each part is solved over the
    series' common denominator (:func:`decompose_vector`), in ascending
    bidegree."""
    bidegrees = []
    for n, block in enumerate(series.blocks):
        if block is not None:
            counts = np.bincount(_ones(n)[block != 0], minlength=n + 1)
            bidegrees += [(n1, n - n1)
                          for n1 in np.flatnonzero(counts).tolist()]
    out: dict[HallElement, Fraction] = {}
    for n1, n0 in sorted(bidegrees):
        part = series.blocks[n1 + n0][bidegree_indices(n1, n0)]
        out.update(decompose_vector(part, n1, n0, series.den).coeffs)
    return LieElement(out)


def decompose_series(series: TensorSeries, n1: int, n0: int) -> LieElement:
    """Write a bidegree-homogeneous word polynomial over the Hall basis."""
    n = n1 + n0
    for k, block in enumerate(series.blocks):
        if block is not None and (block if k != n
                                  else block[_ones(k) != n1]).any():
            raise ValueError(
                f"the series has words outside bidegree (n1={n1}, n0={n0})")
    return decompose_lie_series(series)


def decompose(b: Union[BracketTree, str, LieElement]) -> LieElement:
    """Coordinates of a bracket tree (or Lie element) on the Hall basis."""
    if isinstance(b, str):
        b = trees.parse_tree(b)
    length = (max((e.length for e in b.coeffs), default=0)
              if isinstance(b, LieElement) else b.length)
    if length > MAX_DECOMPOSE_LENGTH:
        raise ValueError(
            f"length {length} exceeds the decomposition cutoff "
            f"{MAX_DECOMPOSE_LENGTH}")
    if isinstance(b, LieElement):
        return decompose_lie_series(b.expand_to_words(length))
    if is_hall(b):
        return LieElement.single(b)
    index, coeffs = word_expansion(b)
    if not len(index):
        return LieElement()
    words = bidegree_indices(b.n1, b.n0)
    target = np.zeros(len(words), dtype=object)
    target[np.searchsorted(words, index)] = coeffs.tolist()
    return decompose_vector(target, b.n1, b.n0)


def lie_bracket(a: Union[BracketTree, LieElement, str],
                b: Union[BracketTree, LieElement, str]) -> LieElement:
    """Bracket re-expanded on the Hall basis (bilinear in both slots)."""
    a = a if isinstance(a, LieElement) else decompose(a)
    b = b if isinstance(b, LieElement) else decompose(b)
    out = LieElement()
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            pair = node(ea.tree, eb.tree)
            out = out + decompose(pair).scale(ca * cb)
    return out


def coefficient_of(a: Union[BracketTree, LieElement, str],
                   b: Union[BracketTree, HallElement, str]) -> Fraction:
    """The coefficient of the Hall element b in the basis expansion of a."""
    target = HallElement.of(b)
    if not isinstance(a, LieElement):
        a = decompose(a)
    return a.coeffs.get(target, Fraction(0))


def hall_factor(b: Union[BracketTree, HallElement]) -> tuple[BracketTree, int, BracketTree]:
    """Factor a non-leaf Hall element as ad_{b1}^m(b2) with maximal m.

    Returns (b1, m, b2) with b1 < b2 in the Hall order and b2 not of the form
    (b1, c).
    """
    tree = b.tree if isinstance(b, HallElement) else b
    if tree.is_leaf:
        raise ValueError("leaves have no factorization")
    if not is_hall(tree):
        raise ValueError(f"{tree.text} is not a Hall-set element")
    b1 = tree.left
    m = 1
    rest = tree.right
    while not rest.is_leaf and rest.left is b1:
        m += 1
        rest = rest.right
    return b1, m, rest
