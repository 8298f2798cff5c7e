import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_tree
from lietool.expansions import _factor_patterns, cross_coefficient_element
from lietool.hall import LieElement, basis_up_to_length, decompose_series
from lietool.polynomials import SparsePoly
from lietool.trees import X0, X1, node, parse_tree
from lietool.words import (CutoffError, TensorSeries, expand_to_words,
                           word_bidegree, words_of_bidegree)


def brute_expand(tree):
    """Independent oracle: plain-dict recursive ab - ba expansion."""
    if tree.is_leaf:
        return {(tree.generator,): 1}
    a = brute_expand(tree.left)
    b = brute_expand(tree.right)
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
            out[w2 + w1] = out.get(w2 + w1, 0) - c1 * c2
    return {w: c for w, c in out.items() if c}


def test_expand_leaf():
    assert expand_to_words(X1, 1).coeffs == {(1,): Fraction(1)}


def test_expand_commutator():
    s = expand_to_words(node(X1, X0), 2)
    assert s.coeffs == {(1, 0): Fraction(1), (0, 1): Fraction(-1)}


def test_expand_double_bracket_pattern():
    s = expand_to_words(parse_tree("(X1,(X1,X0))"), 3)
    assert s.coeffs == {(1, 1, 0): Fraction(1), (1, 0, 1): Fraction(-2),
                        (0, 1, 1): Fraction(1)}
    assert s.coeffs == {w: Fraction(c)
                        for w, c in brute_expand(parse_tree("(X1,(X1,X0))")).items()}


def test_expand_against_brute_force_oracle(rng):
    for _ in range(60):
        tree = random_tree(rng, rng.randint(1, 8))
        got = expand_to_words(tree, tree.length).coeffs
        want = {w: Fraction(c) for w, c in brute_expand(tree).items()}
        assert got == want


def test_expand_coefficients_are_integers(rng):
    for _ in range(30):
        tree = random_tree(rng, rng.randint(1, 7))
        for c in expand_to_words(tree, tree.length).coeffs.values():
            assert c.denominator == 1


def test_expand_cutoff_rejection():
    with pytest.raises(CutoffError) as err:
        expand_to_words(parse_tree("W(2,0)"), 3)
    assert "5" in str(err.value)


def test_series_product_example():
    one = TensorSeries.unit(2)
    a = one + TensorSeries.from_word((0,), 2)
    b = one + TensorSeries.from_word((1,), 2)
    assert (a * b).coeffs == {(): Fraction(1), (0,): Fraction(1),
                              (1,): Fraction(1), (0, 1): Fraction(1)}


def test_series_unit_and_truncation():
    a = TensorSeries(3, {(0, 1): Fraction(2), (1,): Fraction(-1)})
    assert a * TensorSeries.unit(3) == a
    x0 = TensorSeries.from_word((0,), 1)
    assert not (x0 * x0)        # degree 2 dropped at cutoff 1


def test_series_cutoff_mismatch():
    with pytest.raises(CutoffError):
        TensorSeries.unit(2) * TensorSeries.unit(3)


def test_exp_zero_is_one():
    assert TensorSeries.zero(4).exp() == TensorSeries.unit(4)


def test_exp_scalar_generator():
    t = Fraction(3, 7)
    series = TensorSeries.from_word((0,), 3, t).exp()
    assert series[()] == 1
    assert series[(0,)] == t
    assert series[(0, 0)] == t * t / 2
    assert series[(0, 0, 0)] == t ** 3 / 6


def test_log_exp_cbh_degree_two():
    e0 = expand_to_words(X0, 2).exp()
    e1 = expand_to_words(X1, 2).exp()
    log = (e0 * e1).log()
    assert log[(0,)] == 1 and log[(1,)] == 1
    assert log[(0, 1)] == Fraction(1, 2)
    assert log[(1, 0)] == Fraction(-1, 2)


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        TensorSeries.unit(2).exp()
    with pytest.raises(ValueError):
        TensorSeries.zero(2).log()


@st.composite
def small_series(draw):
    cutoff = draw(st.integers(min_value=1, max_value=8))
    n_terms = draw(st.integers(min_value=0, max_value=10))
    coeffs = {}
    for _ in range(n_terms):
        degree = draw(st.integers(min_value=1, max_value=cutoff))
        word = tuple(draw(st.integers(min_value=0, max_value=1))
                     for _ in range(degree))
        coeffs[word] = Fraction(draw(st.integers(min_value=-9, max_value=9)),
                                draw(st.integers(min_value=1, max_value=5)))
    return TensorSeries(cutoff, {w: c for w, c in coeffs.items() if c})


@settings(max_examples=60, deadline=None)
@given(small_series())
def test_exp_log_inverse_pair(series):
    assert series.exp().log() == series


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 20))
def test_bilinearity_antisymmetry_at_word_level(seed):
    rng = random.Random(seed)
    a = random_tree(rng, rng.randint(1, 4))
    b = random_tree(rng, rng.randint(1, 4))
    cutoff = a.length + b.length
    ea = expand_to_words(a, cutoff)
    eb = expand_to_words(b, cutoff)
    assert expand_to_words(node(a, b), cutoff) == ea * eb - eb * ea


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 20))
def test_jacobi_at_word_level(seed):
    rng = random.Random(seed)
    a = random_tree(rng, rng.randint(1, 2))
    b = random_tree(rng, rng.randint(1, 2))
    c = random_tree(rng, rng.randint(1, 2))
    cutoff = a.length + b.length + c.length
    total = (expand_to_words(node(a, node(b, c)), cutoff)
             + expand_to_words(node(b, node(c, a)), cutoff)
             + expand_to_words(node(c, node(a, b)), cutoff))
    assert not total


def test_bidegree_homogeneity(rng):
    for _ in range(40):
        tree = random_tree(rng, rng.randint(1, 8))
        for w in expand_to_words(tree, tree.length).coeffs:
            assert word_bidegree(w) == tree.bidegree


def test_words_of_bidegree_counts():
    assert len(words_of_bidegree(2, 2)) == 6
    assert words_of_bidegree(0, 0) == [()]


# ---------------------------------------------------------------------------
# the dense series against a dict-of-tuples reference

def ref_add(a, b):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def ref_scale(a, factor):
    return {w: c * factor for w, c in a.items() if c * factor}


def ref_mul(a, b, cutoff):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if len(w1) + len(w2) <= cutoff:
                out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def ref_truncated(a, cutoff):
    return {w: c for w, c in a.items() if len(w) <= cutoff}


def ref_exp(a, cutoff, one=Fraction(1)):
    result = {(): one}
    power = {(): one}
    factorial = 1
    for k in range(1, cutoff + 1):
        power = ref_mul(power, a, cutoff)
        factorial *= k
        result = ref_add(result, ref_scale(power, Fraction(1, factorial)))
    return result


def ref_log(a, cutoff, one=Fraction(1)):
    rest = {w: c for w, c in a.items() if w}
    result = {}
    power = {(): one}
    for k in range(1, cutoff + 1):
        power = ref_mul(power, rest, cutoff)
        result = ref_add(result, ref_scale(power, Fraction((-1) ** (k + 1), k)))
    return result


@st.composite
def fraction_dicts(draw, cutoff, constant=None):
    """A dict word -> Fraction with words of degree <= cutoff; `constant`
    fixes the empty word's coefficient (None: drawn like the others)."""
    out = {}
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        degree = draw(st.integers(min_value=0, max_value=cutoff))
        word = tuple(draw(st.integers(min_value=0, max_value=1))
                     for _ in range(degree))
        out[word] = Fraction(draw(st.integers(min_value=-9, max_value=9)),
                             draw(st.integers(min_value=1, max_value=6)))
    if constant is not None:
        out[()] = constant
    return {w: c for w, c in out.items() if c}


cutoffs = st.integers(min_value=0, max_value=7)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ring_operations_match_the_reference(data):
    cutoff = data.draw(cutoffs)
    a = data.draw(fraction_dicts(cutoff))
    b = data.draw(fraction_dicts(cutoff))
    factor = Fraction(data.draw(st.integers(-5, 5)),
                      data.draw(st.integers(1, 5)))
    sa, sb = TensorSeries(cutoff, a), TensorSeries(cutoff, b)
    assert sa.coeffs == a
    assert (sa + sb).coeffs == ref_add(a, b)
    assert (sa - sb).coeffs == ref_add(a, ref_scale(b, -1))
    assert (sa * sb).coeffs == ref_mul(a, b, cutoff)
    assert sa.scale(factor).coeffs == ref_scale(a, factor)
    for k in range(cutoff + 3):
        assert sa.truncated(k).coeffs == ref_truncated(a, k)
        assert sa.truncated(k).cutoff == k
    assert (sa == sb) == (a == b)
    assert sa == TensorSeries(cutoff, dict(a)) == sa * TensorSeries.unit(cutoff)
    assert (sa + sb - sb) == sa


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exp_and_log_match_the_reference(data):
    cutoff = data.draw(cutoffs)
    x = data.draw(fraction_dicts(cutoff, constant=Fraction(0)))
    y = data.draw(fraction_dicts(cutoff, constant=Fraction(1)))
    assert TensorSeries(cutoff, x).exp().coeffs == ref_exp(x, cutoff)
    assert TensorSeries(cutoff, y).log().coeffs == ref_log(y, cutoff)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_log_exp_round_trips(data):
    cutoff = data.draw(cutoffs)
    x = TensorSeries(cutoff, data.draw(fraction_dicts(cutoff, Fraction(0))))
    assert x.exp().log() == x
    y = TensorSeries(cutoff, data.draw(fraction_dicts(cutoff, Fraction(1))))
    assert y.log().exp() == y


@settings(max_examples=60, deadline=None)
@given(cutoffs, st.fractions(max_denominator=12), st.fractions(max_denominator=12))
def test_closed_form_piece_exponential(cutoff, dt, value):
    generator = (TensorSeries.from_word((0,), cutoff, dt)
                 + TensorSeries.from_word((1,), cutoff, dt * value))
    assert TensorSeries.piece_exponential(cutoff, dt, value) == generator.exp()
    assert (TensorSeries.piece_exponential(cutoff, dt, 0)
            == TensorSeries.from_word((0,), cutoff, dt).exp())


def test_reduced_to_one_common_denominator():
    s = TensorSeries(2, {(0,): Fraction(1, 6), (1, 0): Fraction(1, 4)})
    assert s.den == 12
    assert s.scale(6).den == 2
    assert s.scale(12).den == 1
    assert (s - s).den == 1 and not (s - s)


def test_coefficient_assignment_changes_the_series():
    s = TensorSeries(3, {(1,): Fraction(1, 2)})
    s.coeffs[(0, 1)] = Fraction(2, 3)
    assert s == TensorSeries(3, {(1,): Fraction(1, 2), (0, 1): Fraction(2, 3)})
    del s.coeffs[(1,)]
    assert s.coeffs == {(0, 1): Fraction(2, 3)} and s.den == 3
    with pytest.raises(KeyError):
        del s.coeffs[(1,)]
    with pytest.raises(CutoffError):
        s.coeffs[(0, 0, 0, 0)] = 1


def test_empty_series():
    empty = TensorSeries(3, {})
    assert empty.coeffs == {} and not empty
    assert empty == TensorSeries.zero(3) == TensorSeries.zero(5)
    assert empty.pretty() == "0"
    assert empty.exp() == TensorSeries.unit(3)
    assert not empty * TensorSeries.unit(3)
    assert empty.den == 1 and all(b is None for b in empty.blocks)
    with pytest.raises(ValueError):
        empty.log()


def test_cutoff_zero():
    a = TensorSeries(0, {(): Fraction(2, 3)})
    assert (a * a).coeffs == {(): Fraction(4, 9)}
    assert not TensorSeries.from_word((1,), 0)
    assert TensorSeries.zero(0).exp() == TensorSeries.unit(0)
    assert not TensorSeries.unit(0).log()
    assert TensorSeries.piece_exponential(0, 3, 5) == TensorSeries.unit(0)


def test_words_longer_than_the_cutoff_are_dropped():
    s = TensorSeries(2, {(0, 1, 1): Fraction(5), (1,): Fraction(1, 3)})
    assert s.coeffs == {(1,): Fraction(1, 3)}
    assert s[(0, 1, 1)] == 0 and s[(1,)] == Fraction(1, 3)
    assert not TensorSeries.from_word((0, 0, 0), 2)
    assert s == TensorSeries(2, {(1,): Fraction(1, 3)})


@pytest.mark.parametrize("bad", [SparsePoly.variable(2, 0), 0.5, 0.0])
def test_coefficients_must_be_rational(bad):
    with pytest.raises(TypeError):
        TensorSeries(3, {(0,): bad})
    with pytest.raises(TypeError):
        TensorSeries(3, {(0, 1): Fraction(1, 2), (1,): bad})
    with pytest.raises(TypeError):
        TensorSeries.from_word((1,), 3).scale(bad)
    s = TensorSeries.from_word((1,), 3)
    with pytest.raises(TypeError):
        s.coeffs[(0,)] = bad
    assert s == TensorSeries.from_word((1,), 3)


def ref_cross_coefficient_element(elements, powers):
    """The CBHD cross coefficient by dict algebra over SparsePoly."""
    q = len(elements)
    degree = sum(e.length * h for e, h in zip(elements, powers))
    one = SparsePoly.constant(q, 1)
    product = {(): one}
    for i, element in enumerate(elements):
        var = SparsePoly.variable(q, i)
        factor = {w: var * c for w, c in brute_expand(element.tree).items()}
        product = ref_mul(product, ref_exp(factor, degree, one), degree)
    buckets = {}
    for w, poly in ref_log(product, degree, one).items():
        c = poly.coefficient(tuple(powers))
        if c:
            buckets.setdefault(word_bidegree(w), {})[w] = c
    result = LieElement()
    for (p, qq), part in buckets.items():
        result = result + decompose_series(TensorSeries(degree, part), p, qq)
    return result


def test_cross_coefficients_match_the_reference():
    pool = sorted((e for e in basis_up_to_length(5) if e.tree is not X0),
                  reverse=True)
    patterns = {pattern for target in basis_up_to_length(6)
                if target.tree is not X0
                for pattern in _factor_patterns(target, pool)}
    assert len(patterns) == 36
    for pattern in patterns:
        elements = [e for e, _ in pattern]
        powers = [h for _, h in pattern]
        assert (cross_coefficient_element(elements, powers)
                == ref_cross_coefficient_element(elements, powers))
