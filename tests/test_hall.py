import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_carrier_tree, random_tree
from lietool import hall, trees
from lietool.exact_linalg import PRIME
from lietool.hall import (HallElement, InternalConsistencyError, LieElement,
                          NotInCarrierError, basis_of_bidegree,
                          basis_up_to_length, coefficient_of, decompose,
                          decompose_series, enumerate_basis, hall_compare,
                          is_hall, lie_bracket)
from lietool.trees import (D, M, P, Q, Q_flat, Q_sharp, R, R_sharp, W, X0, X1,
                           node, parse_tree, strip_trailing_zeros, zeros)
from lietool.words import TensorSeries, expand_to_words, words_of_bidegree

DATA = Path(__file__).parent / "data"


import functools


@functools.total_ordering
class HallKey:
    """Sort adapter over the carrier order (not only basis elements)."""

    def __init__(self, tree):
        self.tree = tree

    def __eq__(self, other):
        return hall_compare(self.tree, other.tree) == 0

    def __lt__(self, other):
        return hall_compare(self.tree, other.tree) < 0


def mobius(n: int) -> int:
    result, p, m = 1, 2, n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def witt(p: int, q: int) -> int:
    """Bidegree dimension of the free Lie algebra on two generators."""
    n = p + q
    if n == 0:
        return 0
    g = math.gcd(p, q)
    total = sum(mobius(d) * math.comb(n // d, p // d)
                for d in range(1, g + 1) if g % d == 0)
    return total // n


class TestOrder:
    def test_trailing_zero_comparison(self):
        assert hall_compare(X1, M(1)) < 0

    def test_germ_control_degree_dominates(self):
        assert hall_compare(M(5), W(1, 0)) < 0

    def test_left_factor_dominates_trailing(self):
        assert hall_compare(W(1, 3), W(2, 0)) < 0

    def test_total_order_invariants(self, rng):
        # antisymmetry + transitivity on a sample of carrier elements
        sample = [e.tree for e in enumerate_basis(3, 3)]
        for a in sample:
            for b in sample:
                c1 = hall_compare(a, b)
                assert c1 == -hall_compare(b, a)
        ordered = sorted(sample, key=HallElement.of)
        for a, b in zip(ordered, ordered[1:]):
            assert hall_compare(a, b) < 0

    def test_x0_maximal(self):
        for e in enumerate_basis(2, 2):
            if e.tree is not X0:
                assert hall_compare(e.tree, X0) < 0

    def test_carrier_rejection(self):
        with pytest.raises(NotInCarrierError):
            hall_compare(node(X0, X1), X1)

    def test_transitivity_on_random_carrier_trees(self, rng):
        from conftest import random_carrier_tree
        sample = [random_carrier_tree(rng, rng.randint(1, 6))
                  for _ in range(30)]
        ordered = sorted(sample, key=lambda t: HallKey(t))
        for a, b in zip(ordered, ordered[1:]):
            assert hall_compare(a, b) <= 0
        for a in sample:
            for b in sample:
                assert hall_compare(a, b) == -hall_compare(b, a)


def reference_compare(a, b) -> int:
    """The carrier order as a pairwise recursion: X0 maximal; otherwise the
    germ's n1, then the germ's left and right factors, then the trailing
    X0 count decide."""
    if a is b:
        return 0
    if a is X0:
        return 1
    if b is X0:
        return -1
    ga, nua = strip_trailing_zeros(a)
    gb, nub = strip_trailing_zeros(b)
    if ga is gb:
        return -1 if nua < nub else 1
    if ga.n1 != gb.n1:
        return -1 if ga.n1 < gb.n1 else 1
    return (reference_compare(ga.left, gb.left)
            or reference_compare(ga.right, gb.right))


class TestOrderAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_the_pairwise_reference_and_is_a_total_order(self, seed):
        rng = random.Random(seed)
        sample = list({random_carrier_tree(rng, rng.randint(1, 9))
                       for _ in range(16)})
        for a in sample:
            for b in sample:
                assert hall_compare(a, b) == reference_compare(a, b)
                assert hall_compare(a, b) == -hall_compare(b, a)
                assert (hall_compare(a, b) == 0) == (a is b)
        for a in sample:
            for b in sample:
                if hall_compare(a, b) < 0:
                    for c in sample:
                        if hall_compare(b, c) < 0:
                            assert hall_compare(a, c) < 0

    def test_outside_the_carrier_is_refused_on_either_side(self):
        outside = node(W(1, 0), node(X0, X1))
        for a, b in ((outside, X1), (X0, outside), (M(2), outside)):
            with pytest.raises(NotInCarrierError):
                hall_compare(a, b)

    def test_hall_order_is_pinned(self):
        pinned = json.loads((DATA / "hall_order.json").read_text())
        for key, texts in pinned["bidegrees"].items():
            n1, n0 = map(int, key.split(","))
            assert [e.tree.text for e in basis_of_bidegree(n1, n0)] == texts, key
        assert [e.tree.text for e in basis_up_to_length(11)] == \
            pinned["up_to_length_11"]


class TestMembership:
    def test_m_family(self):
        for nu in range(4):
            assert is_hall(M(nu))

    def test_x0_left_factor_rejected(self):
        assert not is_hall(node(X0, X1))

    def test_cubic_pair(self):
        assert is_hall(node(P(1, 1, 0), P(1, 2, 0)))

    def test_named_families_are_members(self):
        members = [W(2, 1), P(1, 2, 0), P(2, 2, 1), Q(1, 2, 3, 0),
                   Q_sharp(1, 0, 2, 1), Q_flat(2, 1, 0), R(1, 1, 2, 2, 0),
                   R_sharp(1, 2, 1, 0, 1), D()]
        for m in members:
            assert is_hall(m), m.text

    def test_wrong_index_order_not_member(self):
        assert not is_hall(P(2, 1, 0))     # (M(0), W(2,0)): j > k
        assert not is_hall(node(M(1), M(0)))


def all_trees(max_length: int) -> list:
    """Every tree over {X0, X1} of length <= max_length."""
    by_length = {1: [X0, X1]}
    for n in range(2, max_length + 1):
        by_length[n] = [node(a, b) for k in range(1, n)
                        for a in by_length[k] for b in by_length[n - k]]
    return [t for n in sorted(by_length) for t in by_length[n]]


class TestMembershipAgainstEnumeration:
    TREES = all_trees(7)

    def test_is_hall_iff_enumerated(self):
        assert len(self.TREES) == sum(math.comb(2 * n - 2, n - 1) // n * 2 ** n
                                      for n in range(1, 8))
        for t in self.TREES:
            enumerated = [e.tree for e in basis_of_bidegree(*t.bidegree)]
            assert is_hall(t) == (t in enumerated), t.text

    def test_of_refuses_every_non_hall_tree(self):
        refused = 0
        for t in self.TREES:
            if not is_hall(t):
                with pytest.raises(ValueError):
                    HallElement.of(t)
                refused += 1
        assert refused == len(self.TREES) - len(basis_up_to_length(7))

    def test_key_refuses_exactly_the_trees_outside_the_carrier(self):
        def in_carrier(t):
            return t.is_leaf or (t.left is not X0 and in_carrier(t.left)
                                 and in_carrier(t.right))

        for t in self.TREES:
            if in_carrier(t):
                hall.hall_key(t)
            else:
                with pytest.raises(NotInCarrierError):
                    hall.hall_key(t)

    def test_of_is_the_enumerated_element(self):
        for e in basis_up_to_length(7):
            assert HallElement.of(e.tree) is e
            assert HallElement.of(e.tree.text) is e
            assert HallElement.of(e) is e


class TestEnumeration:
    def test_exact_bidegree_22(self):
        assert [e.tree for e in basis_of_bidegree(2, 2)] == [W(1, 1)]

    def test_single_control_layer(self):
        for q in range(7):
            assert [e.tree for e in basis_of_bidegree(1, q)] == [M(q)]

    def test_exact_bidegree_31(self):
        assert [e.tree for e in basis_of_bidegree(3, 1)] == [P(1, 1, 0)]

    def test_witt_dimensions_up_to_9(self):
        for p in range(10):
            for q in range(10 - p):
                if p + q == 0:
                    continue
                assert len(basis_of_bidegree(p, q)) == witt(p, q), (p, q)

    @pytest.mark.parametrize("n1, n0", [(-1, 3), (2, -1), (-1, -1)])
    def test_negative_bidegree_is_refused(self, n1, n0):
        with pytest.raises(ValueError, match=f"got \\({n1}, {n0}\\)"):
            basis_of_bidegree(n1, n0)

    def test_enumerate_sorted_and_bounded(self):
        out = enumerate_basis(2, 3)
        assert all(e.n1 <= 2 and e.n0 <= 3 for e in out)
        assert out == sorted(out)
        assert out[0].tree is X1 and out[-1].tree is X0

    def test_rejects_negative_bounds(self):
        with pytest.raises(ValueError):
            enumerate_basis(-1, 0)

    def test_third_hall_condition_on_enumeration(self):
        for e in enumerate_basis(4, 4):
            if not e.tree.is_leaf:
                assert hall_compare(e.tree.left, e.tree) < 0


def expected_family_layers(n1_max: int, n0_max: int) -> set[str]:
    """The named-family description of the low layers, generated directly."""
    out = set()
    if n0_max >= 1:
        out.add(X0.text)
    cap = n0_max
    for nu in range(cap + 1):
        out.add(M(nu).text)                                   # layer 1
    for j in range(1, cap + 2):
        for nu in range(cap + 1):
            out.add(W(j, nu).text)                            # layer 2
    for j in range(1, cap + 2):
        for k in range(j, cap + 2):
            for nu in range(cap + 1):
                out.add(P(j, k, nu).text)                     # layer 3
    for j in range(1, cap + 2):                               # layer 4
        for k in range(j, cap + 2):
            for l in range(k, cap + 2):
                for nu in range(cap + 1):
                    out.add(Q(j, k, l, nu).text)
    for j in range(1, cap + 2):
        for mu in range(cap + 1):
            for k in range(j + 1, cap + 2):
                for nu in range(cap + 1):
                    out.add(Q_sharp(j, mu, k, nu).text)
            for nu in range(cap + 1):
                out.add(Q_flat(j, mu, nu).text)
    for j in range(1, cap + 2):                               # layer 5
        for k in range(j, cap + 2):
            for l in range(k, cap + 2):
                for m in range(l, cap + 2):
                    for nu in range(cap + 1):
                        out.add(R(j, k, l, m, nu).text)
            for l in range(1, cap + 2):
                for mu in range(cap + 1):
                    for nu in range(cap + 1):
                        out.add(R_sharp(j, k, l, mu, nu).text)
    filtered = set()
    for text in out:
        tree = parse_tree(text)
        if tree.n1 <= n1_max and tree.n0 <= n0_max:
            filtered.add(tree.text)
    return filtered


def test_low_layers_match_named_families():
    """Layers 1..5 are exactly the eight named families (plus X0, X1)."""
    got = {e.tree.text for e in enumerate_basis(5, 6)}
    want = expected_family_layers(5, 6)
    assert got == want


def is_lyndon(word) -> bool:
    """Strictly smaller than each of its proper rotations (0 < 1)."""
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


class TestDecompose:
    @pytest.mark.parametrize("length", range(1, 12))
    def test_solver_rows_are_the_lyndon_words(self, length):
        # the solver's rows are the Lyndon words of the bidegree, in word
        # order; its square holds the Hall elements' coefficients on them,
        # and its inverse is exact: M X = I over the integers
        for n1 in range(length + 1):
            words = words_of_bidegree(n1, length - n1)
            elements, _, rows, digits = hall._bidegree_solver(
                n1, length - n1)
            lyndon = [words[i] for i in rows]
            assert lyndon == [w for w in words if is_lyndon(w)]
            square = [[expand_to_words(e.tree, length)[w] for e in elements]
                      for w in lyndon]
            inverse = [[sum(int(d.a[i, j]) * PRIME**k
                            for k, d in enumerate(digits))
                        for j in range(len(rows))] for i in range(len(rows))]
            product = [[sum(a * x for a, x in zip(row, column))
                        for column in zip(*inverse)] for row in square]
            assert product == [[int(i == j) for j in range(len(rows))]
                               for i in range(len(rows))]

    def test_bracket_of_m_family(self):
        assert decompose(node(M(0), M(1))).coeffs == {
            HallElement.of(W(1, 0)): Fraction(1)}

    def test_bracket_m_with_w(self):
        assert decompose(node(M(1), W(1, 0))).coeffs == {
            HallElement.of(P(1, 2, 0)): Fraction(1)}

    def test_rtl_instance_on_basis(self):
        # [X1, W(1,1)] = P(1,1,0)0 - P(1,2,0): via the word-expansion route
        element = decompose(node(X1, W(1, 1)))
        assert element.coeffs == {
            HallElement.of(P(1, 1, 1)): Fraction(1),
            HallElement.of(P(1, 2, 0)): Fraction(-1)}

    def test_sixth_order_anchor_minus_one(self):
        tree = parse_tree("(X1, (W(1,1), (X1,(X1,(X1,X0)))))")
        assert coefficient_of(tree, D()) == Fraction(-1)

    def test_sixth_order_anchor_plus_one(self):
        tree = parse_tree("(X1, (W(1,0), P(1,1,1)))")
        assert coefficient_of(tree, D()) == Fraction(1)

    def test_sixth_order_two_plus_four_vanishes(self):
        for a in enumerate_basis(2, 2):
            if a.n1 != 2:
                continue
            for b in enumerate_basis(4, 3):
                if b.n1 != 4 or a.n0 + b.n0 != 3:
                    continue
                assert coefficient_of(node(a.tree, b.tree), D()) == 0

    def test_round_trip_on_basis(self):
        for e in basis_up_to_length(8):
            element = decompose(e.tree)
            assert element.coeffs == {e: Fraction(1)}

    def test_soundness_random_trees(self, rng):
        for _ in range(80):
            tree = random_tree(rng, rng.randint(1, 8))
            element = decompose(tree)
            cutoff = tree.length
            assert element.expand_to_words(cutoff) == \
                expand_to_words(tree, cutoff)

    def test_non_lie_series_raises(self):
        # the single word X1 X0 is not a Lie element: [X1, X0] is X1 X0 - X0 X1
        with pytest.raises(InternalConsistencyError):
            decompose_series(TensorSeries(2, {(1, 0): Fraction(1)}), 1, 1)

    @pytest.mark.parametrize("stray", [(0, 0, 1), (1, 1, 0, 0)],
                             ids=["same-length", "other-length"])
    def test_series_refuses_a_word_outside_its_bidegree(self, stray):
        tree = node(X1, W(1, 0))
        series = expand_to_words(tree, 4) + TensorSeries.from_word(stray, 4)
        with pytest.raises(ValueError, match="outside bidegree"):
            decompose_series(series, *tree.bidegree)

    def test_rational_target_keeps_exact_coefficients(self):
        tree = node(X1, W(1, 1))
        series = expand_to_words(tree, tree.length).scale(Fraction(-2, 7))
        assert decompose_series(series, *tree.bidegree) == decompose(
            tree).scale(Fraction(-2, 7))

    def test_bidegree_6_7_round_trip(self):
        tree = parse_tree("((X1,X0),((X0,(X0,X1)),(X0,((((X0,(X0,X1)),X1),"
                          "X1),(X1,X0)))))")
        assert tree.bidegree == (6, 7)
        element = decompose(tree)
        assert len(element.coeffs) > 1
        assert all(e.bidegree == (6, 7) and is_hall(e.tree)
                   for e in element.coeffs)
        assert element.expand_to_words(13) == expand_to_words(tree, 13)

    def test_oversized_tree_rejected(self, monkeypatch):
        def unreachable(n1, n0):
            raise AssertionError(f"solver of ({n1},{n0}) reached")

        monkeypatch.setattr(hall, "_bidegree_solver", unreachable)
        big = zeros(X1, 17)
        with pytest.raises(ValueError, match="decomposition cutoff"):
            decompose(big)
        element = LieElement.single(basis_of_bidegree(3, 14)[0])
        with pytest.raises(ValueError, match="decomposition cutoff"):
            decompose(element)


class TestLieBracket:
    def test_examples(self):
        assert lie_bracket(M(0), M(1)).coeffs == {
            HallElement.of(W(1, 0)): Fraction(1)}
        assert lie_bracket(M(1), W(1, 0)).coeffs == {
            HallElement.of(P(1, 2, 0)): Fraction(1)}

    def test_antisymmetry(self):
        a = decompose(node(X1, W(1, 1)))
        assert not lie_bracket(a, a)


def test_jacobi_rtl_identity(rng):
    # [a, b 0^nu] = sum binom(nu,k) (-1)^k [a 0^k, b] 0^(nu-k), word-exactly
    for _ in range(25):
        a = random_tree(rng, rng.randint(1, 3))
        b = random_tree(rng, rng.randint(1, 3))
        nu = rng.randint(0, 3)
        cutoff = a.length + b.length + nu
        lhs = expand_to_words(node(a, zeros(b, nu)), cutoff)
        rhs = None
        from lietool.words import TensorSeries
        rhs = TensorSeries(cutoff)
        for k in range(nu + 1):
            term = expand_to_words(zeros(node(zeros(a, k), b), nu - k), cutoff)
            rhs = rhs + term.scale(Fraction((-1) ** k * math.comb(nu, k)))
        assert lhs == rhs


@pytest.mark.parametrize("base", [X1, W(1, 0)])
@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_jacobi_balance_support(base, nu):
    # decompose([b, b 0^nu]) lies in the span of [b0^j, b0^(j+1)] 0^(nu-2j-1)
    element = decompose(node(base, zeros(base, nu)))
    allowed = set()
    for j in range(nu):
        if 2 * j + 1 > nu:
            break
        pair = node(zeros(base, j), zeros(base, j + 1))
        allowed |= {e.tree.text
                    for e in decompose(zeros(pair, nu - 2 * j - 1)).support()}
    assert {e.tree.text for e in element.support()} <= allowed


def test_cubic_support_bound_exhaustive():
    # supp [M(k-1), W(j,nu)] only contains P(j',k',nu') with j' <= j
    for j in range(1, 5):
        for k in range(1, 5):
            for nu in range(3):
                element = decompose(node(M(k - 1), W(j, nu)))
                for e in element.support():
                    named = trees.named_form(e.tree)
                    assert named and named.startswith("P(")
                    j_prime = int(named[2:].split(",")[0])
                    assert j_prime <= j, (j, k, nu, named)


@st.composite
def bracket_trees(draw, max_length: int):
    """Bracket trees over {X0, X1} with at most `max_length` leaves."""
    def build(length):
        if length == 1:
            return draw(st.sampled_from([X0, X1]))
        split = draw(st.integers(min_value=1, max_value=length - 1))
        return node(build(split), build(length - split))
    return build(draw(st.integers(min_value=1, max_value=max_length)))


@settings(max_examples=50, deadline=None)
@given(bracket_trees(4), bracket_trees(4))
def test_decompose_antisymmetry(a, b):
    assert decompose(node(a, b)) == decompose(node(b, a)).scale(-1)


@settings(max_examples=50, deadline=None)
@given(bracket_trees(3), bracket_trees(3), bracket_trees(2))
def test_decompose_jacobi(a, b, c):
    total = (decompose(node(a, node(b, c))) + decompose(node(b, node(c, a)))
             + decompose(node(c, node(a, b))))
    assert not total


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(basis_up_to_length(8)),
                          st.fractions(-5, 5, max_denominator=7)),
                max_size=6))
@example([(HallElement.of(W(1, 0)), Fraction(1, 2)),
          (HallElement.of(W(1, 0)), Fraction(-1, 2))])
def test_lie_element_decomposes_to_itself(terms):
    element = LieElement()
    for e, c in terms:
        element = element + LieElement.single(e, c)
    assert decompose(element) == element


@settings(max_examples=50, deadline=None)
@given(bracket_trees(4), bracket_trees(4))
def test_lie_bracket_expands_to_the_tree_words(a, b):
    cutoff = a.length + b.length
    assert lie_bracket(a, b).expand_to_words(cutoff) == \
        expand_to_words(node(a, b), cutoff)
