import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from conftest import random_tree
from lietool import fields, trees
from lietool.fields import (PolyVectorField, SystemDef, eval_bracket,
                            eval_lie, jet_bracket, load_system,
                            system_from_json_dict, system_to_json_dict,
                            vf_bracket)
from lietool.hall import basis_up_to_length, decompose
from lietool.polynomials import SparsePoly
from lietool.trees import M, P, W, X0, X1, ad, node
from lietool.zoo import default_instances, zoo

DATA = Path(__file__).parent / "data"


def _field(dim, comps):
    return PolyVectorField(dim, [SparsePoly(dim, t) for t in comps])


def _random_system(seed, dim):
    """Cubic f0 with f0(0) = 0 and quadratic f1 with f1(0) != 0.

    Each component has two random monomials (plus the constant in f1) with
    small rational coefficients.
    """
    rng = random.Random(seed)

    def component(low, high, constant):
        monomials = [e for e in product(range(high + 1), repeat=dim)
                     if low <= sum(e) <= high]
        picked = rng.sample(monomials, 2) + ([(0,) * dim] if constant else [])
        return SparsePoly(dim, {e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                            rng.choice((1, 1, 2, 3)))
                                for e in picked})

    return SystemDef(
        dim=dim, name=f"random{dim}",
        f0=PolyVectorField(dim, [component(1, 3, False) for _ in range(dim)]),
        f1=PolyVectorField(dim, [component(1, 2, True) for _ in range(dim)]))


def _full_bracket(f, g):
    """[f, g] = (Dg) f - (Df) g from whole products, with no truncation."""
    out = []
    for fi, gi in zip(f.components, g.components):
        acc = SparsePoly(f.dim)
        for j in range(f.dim):
            acc = (acc + gi.partial(j) * f.components[j]
                   - fi.partial(j) * g.components[j])
        out.append(acc)
    return PolyVectorField(f.dim, out)


def _full_field(sys, tree, memo):
    """f_b by plain recursion over whole fields, memoized in `memo` only."""
    if tree not in memo:
        if tree.is_leaf:
            memo[tree] = sys.f0 if tree is X0 else sys.f1
        else:
            memo[tree] = _full_bracket(_full_field(sys, tree.left, memo),
                                       _full_field(sys, tree.right, memo))
    return memo[tree]


class TestBracket:
    def test_constant_vs_linear(self):
        # f = e1, g = x1 e2 -> [f, g] = e2
        f = PolyVectorField.constant(2, (1, 0))
        g = _field(2, [{}, {(1, 0): Fraction(1)}])
        assert vf_bracket(f, g).value_at_zero() == (0, 1)
        assert vf_bracket(f, g).components[1].is_constant()

    def test_self_bracket_vanishes(self):
        g = _field(2, [{(0, 1): Fraction(2)}, {(1, 1): Fraction(1)}])
        assert not vf_bracket(g, g)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vf_bracket(PolyVectorField.constant(2, (1, 0)),
                       PolyVectorField.constant(3, (1, 0, 0)))

    def test_vf_bracket_is_the_whole_product(self):
        for dim in (2, 3):
            sys = _random_system(dim, dim)
            inner = _full_bracket(sys.f1, sys.f0)
            assert vf_bracket(sys.f1, sys.f0) == inner
            assert vf_bracket(inner, sys.f1) == _full_bracket(inner, sys.f1)

    def test_jet_bracket_is_the_truncated_whole_bracket(self):
        sys = _random_system(5, 3)
        whole = _full_bracket(sys.f1, sys.f0)
        for order in range(-1, 6):
            assert jet_bracket(sys.f1, sys.f0, order) == whole.truncated(order)

    def test_double_input_bracket_on_benchmark(self):
        # [f1,[f1,f0]](0) is the order-2 square bracket value
        easy = zoo("easy")
        inner = vf_bracket(easy.f1, easy.f0)
        outer = vf_bracket(easy.f1, inner)
        assert outer.value_at_zero() == (0, 0, 2)
        assert eval_bracket(easy, W(1, 0)) == (0, 0, 2)


class TestEval:
    def test_easy_cubic(self):
        assert eval_bracket(zoo("easy"), P(1, 1, 0)) == (0, 0, -6)

    def test_jakubczyk_values(self):
        sys = zoo("jakubczyk")
        assert eval_bracket(sys, P(1, 1, 0)) == (0, 0, 6)
        assert eval_bracket(sys, W(2, 0)) == (0, 0, 2)

    def test_sextic_values(self):
        sys = zoo("sextic", p=8)
        assert eval_bracket(sys, trees.D()) == (0, 0, 0, 72)
        import math
        assert eval_bracket(sys, ad(M(1), 8, X0)) == (0, 0, 0, -math.factorial(8))

    def test_homomorphism_on_random_trees(self, rng):
        systems = [zoo("easy"), zoo("no_zm_pure"), zoo("w3_vs_q111"),
                   zoo("sextic", p=7)]
        for _ in range(25):
            tree = random_tree(rng, rng.randint(1, 7))
            element = decompose(tree)
            for sys in systems:
                assert eval_lie(sys, element) == eval_bracket(sys, tree)

    def test_h0_stability(self, rng):
        # f_{b 0^nu}(0) = H0^nu f_b(0), via the full symbolic route
        for sys in [zoo("easy"), zoo("w3_vs_qb10"), zoo("w3_time")]:
            for base in (X1, M(1), W(1, 0), P(1, 1, 0)):
                value = sys.bracket_field(base).value_at_zero()
                for nu in range(1, 6):
                    tree = trees.zeros(base, nu)
                    symbolic = sys.bracket_field(tree).value_at_zero()
                    value = sys.h0_apply(value)
                    assert symbolic == value
                    assert eval_bracket(sys, tree) == value


class TestSystemDef:
    def test_f0_must_vanish_at_zero(self):
        bad = PolyVectorField.constant(2, (1, 0))
        with pytest.raises(ValueError):
            SystemDef(dim=2, f0=bad, f1=bad)

    def test_json_round_trip(self):
        sys = zoo("w2_vs_q111")
        payload = json.loads(json.dumps(system_to_json_dict(sys)))
        again = system_from_json_dict(payload)
        assert again.dim == sys.dim
        assert again.f0 == sys.f0 and again.f1 == sys.f1
        assert eval_bracket(again, W(2, 0)) == (0, 0, 2)


class TestJets:
    """Jet evaluation against whole fields built outside SystemDef."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_values_match_the_whole_field_recursion(self, dim):
        nonzero = 0
        for seed in range(5 - dim):    # whole fields grow fast with dim
            sys = _random_system(100 * dim + seed, dim)
            rng = random.Random(seed)
            memo = {}
            for _ in range(20):
                tree = random_tree(rng, rng.randint(1, 8))
                value = _full_field(sys, tree, memo).value_at_zero()
                assert eval_bracket(sys, tree) == value, tree
                nonzero += any(value)
        assert nonzero >= 5

    def test_values_match_sympy(self):
        cases = [(2, "(X1,(X1,X0))"), (2, "((X1,X0),(X1,(X1,X0)))"),
                 (3, "W(1,0)"), (3, "P(1,1,0)"), (3, "(X1,(X0,(X1,X0)))"),
                 (3, "((X1,X0),((X1,X0),X0))")]
        nonzero = 0
        for dim, text in cases:
            sys = _random_system(7 * dim, dim)
            xs = sympy.symbols(f"x0:{dim}")

            def expr(field):
                return sympy.Matrix([
                    sum((sympy.Rational(c.numerator, c.denominator)
                         * sympy.prod([x ** k for x, k in zip(xs, e)])
                         for e, c in comp.terms.items()), sympy.Integer(0))
                    for comp in field.components])

            leaves = {X0: expr(sys.f0), X1: expr(sys.f1)}

            def bracket(tree):
                if tree.is_leaf:
                    return leaves[tree]
                f, g = bracket(tree.left), bracket(tree.right)
                return g.jacobian(xs) * f - f.jacobian(xs) * g

            tree = trees.parse_tree(text)
            at_zero = bracket(tree).subs({x: 0 for x in xs})
            expected = tuple(Fraction(int(v.p), int(v.q)) for v in at_zero)
            assert eval_bracket(sys, tree) == expected, text
            nonzero += any(expected)
        assert nonzero >= 4

    def test_cache_serves_lower_orders_and_recomputes_higher_ones(self):
        # each short tree recurs two or three levels down in a long one, so
        # the long trees need its jet to a higher order than its value does
        short = [node(X1, X0), W(1, 0), node(W(1, 0), X1)]
        long = [wrapped for tree in short
                for wrapped in (node(X1, node(X1, tree)),
                                node(node(tree, X1), X1))]
        oracle_sys = _random_system(11, 3)
        memo = {}
        expected = {t: _full_field(oracle_sys, t, memo).value_at_zero()
                    for t in short + long}
        assert sum(1 for v in expected.values() if any(v)) >= 6
        up, down = _random_system(11, 3), _random_system(11, 3)
        up_values = {t: eval_bracket(up, t) for t in short + long}
        down_values = {t: eval_bracket(down, t) for t in long + short}
        assert up_values == down_values == expected
        for tree in short + long:
            whole = _full_field(oracle_sys, tree, memo)
            assert up.bracket_field(tree) == whole, tree
            assert _random_system(11, 3).bracket_field(tree) == whole, tree
            assert up.bracket_jet(tree, 1) == whole.truncated(1), tree


def _dense_system(seed, dim):
    """Cubic f0 with f0(0) = 0 and quadratic f1, each component holding
    about half of the monomials it may have.  Only f1's first component has
    a constant term, and f0's linear part only involves the first dim - 1
    coordinates, so some brackets vanish at the origin and some do not."""
    rng = random.Random(seed)

    def component(low, high, linear_vars):
        return SparsePoly(dim, {
            e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
            for e in product(range(high + 1), repeat=dim)
            if low <= sum(e) <= high and (sum(e) != 1 or e[linear_vars] == 0)
            and rng.random() < 0.5})

    f0 = [component(1, 3, dim - 1) for _ in range(dim)]
    f1 = [component(1, 2, dim - 1) for _ in range(dim)]
    f1[0] = f1[0] + SparsePoly.constant(dim, 1)
    return SystemDef(dim=dim, name=f"dense{dim}",
                     f0=PolyVectorField(dim, f0), f1=PolyVectorField(dim, f1))


class TestTrailingZeroChains:
    """`bracket_value` peels trailing X0 factors only down to a cached tree
    or the core, and applies H0 once per peeled factor."""

    def test_a_deep_chain_needs_no_recursion(self):
        sys = zoo("easy")
        assert sys.bracket_value(M(3000)) == (0, 0, 0)
        assert all(sys._value_cache[M(nu)] is sys._zero_value
                   for nu in range(3, 3001))

    def test_one_h0_application_per_uncached_factor(self, monkeypatch):
        sys = _dense_system(0, 5)
        calls = []
        h0_apply = SystemDef.h0_apply

        def counted(self, v):
            calls.append(v)
            return h0_apply(self, v)

        monkeypatch.setattr(SystemDef, "h0_apply", counted)
        values = [sys.bracket_value(trees.zeros(W(1, 0), 6))]
        assert len(calls) == 6
        values.append(sys.bracket_value(trees.zeros(W(1, 0), 7)))
        assert len(calls) == 7
        assert all(any(v) for v in calls + values)
        # each value is the cached one of its tree, and H0 of the one before
        chain = [sys.bracket_value(trees.zeros(W(1, 0), nu))
                 for nu in range(8)]
        assert len(calls) == 7
        assert all(v is c for v, c in zip(calls, chain))
        for before, after in zip(chain, chain[1:]):
            assert h0_apply(sys, before) == after


class TestVanishingJets:
    """A vanishing jet is the system's one shared zero, and costs nothing."""

    @pytest.mark.parametrize("make", [lambda: zoo("sextic", p=8),
                                      lambda: _dense_system(5, 4),
                                      lambda: zoo("easy")],
                             ids=["sextic", "dense4", "easy"])
    def test_no_zero_field_and_no_vanishing_factor(self, make, monkeypatch):
        # easy has brackets past their degree bound, such as ad(X1)^4 X0
        sys = make()
        zero_calls, factors = [], []
        original_zero = PolyVectorField.zero.__func__
        original_bracket = fields.jet_bracket

        def counted_zero(cls, dim):
            zero_calls.append(dim)
            return original_zero(cls, dim)

        def checked_bracket(f, g, order):
            factors.append((bool(f), bool(g)))
            return original_bracket(f, g, order)

        monkeypatch.setattr(PolyVectorField, "zero",
                            classmethod(counted_zero))
        monkeypatch.setattr(fields, "jet_bracket", checked_bracket)
        values = [sys.bracket_value(e.tree) for e in basis_up_to_length(9)]
        assert zero_calls == []
        assert factors and all(f and g for f, g in factors)
        assert any(any(v) for v in values)
        assert any(not any(v) for v in values)
        # every zero value is the shared one, also where the core's jet was
        # computed to a higher order and is nonzero: X0 after the sweep
        assert all(v is sys._zero_value for v in values if not any(v))
        assert sys.bracket_value(X0) is sys._zero_value

    @pytest.mark.parametrize("make", [lambda: zoo("sextic", p=8),
                                      lambda: _random_system(11, 3)],
                             ids=["sextic", "random3"])
    def test_a_zero_jet_holds_at_its_own_order_only(self, make):
        oracle, memo = make(), {}
        found = 0
        for element in basis_up_to_length(5):
            tree = element.tree
            for k in range(4):
                sys = make()
                if (k >= sys._degree_bound(tree)
                        or sys._numerator_jet(tree, k) is not sys._zero_jet):
                    continue
                whole = _full_field(oracle, tree, memo)
                assert not whole.truncated(k), (tree, k)
                if whole.truncated(k + 1):
                    assert sys.bracket_jet(tree, k + 1) == whole.truncated(
                        k + 1), (tree, k)
                    # a bracket k + 1 levels up needs the tree to order k + 1
                    fresh = make()
                    fresh._numerator_jet(tree, k)
                    wrapped = ad(X1, k + 1, tree)
                    assert fresh.bracket_value(wrapped) == _full_field(
                        oracle, wrapped, memo).value_at_zero(), (tree, k)
                    found += 1
        assert found >= 5


class TestPinnedValues:
    """f_b(0) for every Hall b of length <= 10 on every default catalog
    instance, against `tests/data/bracket_values.json`, which lists the
    nonzero values."""

    def test_values_match_the_pinned_table(self):
        with open(DATA / "bracket_values.json") as fh:
            pinned = json.load(fh)
        elements = basis_up_to_length(pinned["max_length"])
        systems = default_instances()
        assert sorted(s.name for s in systems) == sorted(pinned["values"])
        nonzero = 0
        for sys in systems:
            table = pinned["values"][sys.name]
            for element in elements:
                value = eval_bracket(sys, element)
                expected = table.get(element.tree.text)
                if expected is None:
                    assert not any(value), (sys.name, element)
                else:
                    assert value == tuple(map(Fraction, expected)), \
                        (sys.name, element)
                    nonzero += 1
        assert len(elements) * len(systems) == 4068
        assert nonzero == sum(map(len, pinned["values"].values())) == 153


def _pinned_dense_systems():
    with open(DATA / "catalog_verdicts.json") as fh:
        return [system_from_json_dict(d)
                for d in json.load(fh)["dense_systems"]]


def _constant_vanishes(sys, tree):
    """f_b(0) = 0 read off the order-0 jet, which `vanishes_at` never
    shortcuts."""
    jet = sys.bracket_jet(tree, 0)
    return not any(c.constant_term() for c in jet.components)


@st.composite
def _graded_systems(draw):
    """A system graded by drawn integer weights (r, w0, w1): every term
    c x^e d_i of f0 (f1) has sum_j e_j r_j - r_i = w0 (w1), degree <= 3,
    and f0(0) = 0."""
    dim = draw(st.integers(1, 3))
    r = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
    w = draw(st.tuples(st.integers(-3, 2), st.integers(-3, 2)))
    leaves = []
    for slot, weight in enumerate(w):
        components = []
        for i in range(dim):
            monomials = [e for e in product(range(4), repeat=dim)
                         if sum(e) <= 3 and (slot or any(e))
                         and sum(a * b for a, b in zip(e, r)) - r[i] == weight]
            picked = draw(st.lists(st.sampled_from(monomials), unique=True,
                                   max_size=3)) if monomials else []
            components.append(SparsePoly(dim, {
                e: Fraction(draw(st.sampled_from((-3, -2, -1, 1, 2, 3))))
                for e in picked}))
        leaves.append(PolyVectorField(dim, components))
    return SystemDef(dim=dim, f0=leaves[0], f1=leaves[1], name="graded"), r, w


class TestGradedVanishing:
    """`vanishes_at` claims f_b(0) = 0 only where the order-0 jet agrees,
    and claims it wherever a weighting of the system proves it."""

    def test_zoo_and_dense_systems(self):
        zoo_systems, dense = default_instances(), _pinned_dense_systems()
        dead = 0
        for sys in zoo_systems + dense:
            for element in basis_up_to_length(9):
                if sys.vanishes_at(element.n1, element.n0):
                    assert _constant_vanishes(sys, element.tree), \
                        (sys.name, element)
                    dead += 1
        assert sum(bool(sys._gradings) for sys in zoo_systems) == 16
        assert all(sys._gradings == [] for sys in dense)
        assert dead > 1500

    @settings(max_examples=60, deadline=None)
    @given(drawn=_graded_systems())
    def test_random_graded_systems(self, drawn):
        sys, r, (w0, w1) = drawn
        for element in basis_up_to_length(6):
            n1, n0 = element.n1, element.n0
            if all(-ri != n0 * w0 + n1 * w1 for ri in r):
                assert sys.vanishes_at(n1, n0), element
            if sys.vanishes_at(n1, n0):
                assert _constant_vanishes(sys, element.tree), element

    def test_a_dead_value_computes_no_jet(self, monkeypatch):
        sys = zoo("sextic", p=7)
        tree = next(e.tree for e in basis_up_to_length(6)
                    if sys.vanishes_at(e.n1, e.n0) and e.tree.right is X0)
        jets = []
        numerator_jet = SystemDef._numerator_jet

        def counted(self, b, order):
            jets.append(b)
            return numerator_jet(self, b, order)

        monkeypatch.setattr(SystemDef, "_numerator_jet", counted)
        assert sys.bracket_value(tree) is sys._zero_value
        assert jets == []

    def test_jets_of_dead_bidegrees_keep_their_terms(self):
        """A dead bidegree's f_b need not vanish, and a parent bracket reads
        it: on jakubczyk W(1,0) is dead and P(1,1,0) = [X1, W(1,0)] is not
        zero at 0."""
        sys = zoo("jakubczyk")
        inner = W(1, 0)
        assert sys.vanishes_at(inner.n1, inner.n0)
        assert sys.bracket_value(inner) is sys._zero_value
        assert sys.bracket_field(inner)
        assert any(sys.bracket_value(P(1, 1, 0)))


# ---------------------------------------------------------------------------
# Plain-Fraction reference: terms as {exponent tuple: Fraction}, the product
# and the truncated bracket computed the direct way, with no packing and no
# denominator clearing.

def _ref_terms(poly):
    return {e: Fraction(c) for e, c in poly.terms.items()}


def _ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _ref_jet_bracket(f, g, order):
    """[f, g] = (Dg) f - (Df) g on lists of Fraction term dicts, without its
    terms of total degree above order."""
    out = []
    for fi, gi in zip(f, g):
        acc = {}
        for p, direction, sign in ((gi, f, 1), (fi, g, -1)):
            for e, c in p.items():
                for j, k in enumerate(e):
                    if not k:
                        continue
                    base = e[:j] + (k - 1,) + e[j + 1:]
                    for e2, c2 in direction[j].items():
                        key = tuple(a + b for a, b in zip(base, e2))
                        if sum(key) <= order:
                            acc[key] = acc.get(key, Fraction(0)) + sign * k * c * c2
        out.append({e: c for e, c in acc.items() if c})
    return out


def _ref_jet(leaves, tree, order, memo):
    """f_b up to `order` by the Taylor recursion on Fraction term dicts."""
    key = (tree, order)
    if key not in memo:
        if tree.is_leaf:
            memo[key] = [{e: c for e, c in comp.items() if sum(e) <= order}
                         for comp in leaves[tree]]
        else:
            memo[key] = _ref_jet_bracket(
                _ref_jet(leaves, tree.left, order + 1, memo),
                _ref_jet(leaves, tree.right, order + 1, memo), order)
    return memo[key]


def _rational_system(seed, dim, rational):
    """f0 with monomials of degree 1..2 (f0(0) = 0), f1 of degree 0..1 with
    f1(0) != 0; coefficients with denominators 1..6 when `rational`."""
    rng = random.Random(seed)

    def coeff():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                        rng.randint(1, 6) if rational else 1)

    def component(low, high):
        monomials = [e for e in product(range(high + 1), repeat=dim)
                     if low <= sum(e) <= high]
        return SparsePoly(dim, {e: coeff() for e in rng.sample(monomials, 2)})

    f1 = [component(1, 1) for _ in range(dim)]
    f1[0] = f1[0] + coeff()
    return SystemDef(
        dim=dim, name=f"rational{dim}",
        f0=PolyVectorField(dim, [component(1, 2) for _ in range(dim)]),
        f1=PolyVectorField(dim, f1))


def _exact_form(field):
    """Every coefficient an int or a non-integral Fraction."""
    return all(type(c) is int
               or (type(c) is Fraction and c.denominator != 1)
               for comp in field.components for c in comp.terms.values())


class TestIntegerJets:
    """Integer-coefficient jets against the plain-Fraction reference."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4),
           rational=st.booleans())
    def test_jets_values_and_fields_match_the_fraction_reference(
            self, seed, dim, rational):
        sys = _rational_system(seed, dim, rational)
        leaves = {X0: [_ref_terms(c) for c in sys.f0.components],
                  X1: [_ref_terms(c) for c in sys.f1.components]}
        memo = {}
        for element in basis_up_to_length(6):
            tree = element.tree
            value = eval_bracket(sys, element)
            assert all(type(x) is Fraction for x in value), tree.text
            expected = _ref_jet(leaves, tree, 0, memo)
            assert value == tuple(comp.get((0,) * dim, Fraction(0))
                                  for comp in expected), tree.text
            for order in range(3):
                jet = sys.bracket_jet(tree, order)
                assert _exact_form(jet), tree.text
                assert [jet_c.terms for jet_c in jet.components] == \
                    _ref_jet(leaves, tree, order, memo), (tree.text, order)
            whole = sys.bracket_field(tree)
            assert _exact_form(whole), tree.text
            assert [c.terms for c in whole.components] == \
                _ref_jet(leaves, tree, sys._degree_bound(tree), memo), tree.text

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rational=st.booleans())
    def test_products_match_the_fraction_reference(self, seed, rational):
        sys = _rational_system(seed, 3, rational)
        for p in sys.f0.components + sys.f1.components:
            for q in sys.f0.components:
                product_ = p * q
                assert product_.terms == _ref_mul(_ref_terms(p), _ref_terms(q))
                assert all(type(c) is int or c.denominator != 1
                           for c in product_.terms.values())

    @pytest.mark.parametrize("order", [13, 14, 15, 16, 31, 32])
    def test_orders_past_a_bit_field_boundary(self, order):
        # a jet bracket to `order` packs exponents up to order + 1: 4 bits
        # each suffice at order 14 but not at 15, 5 at order 30 but not at
        # 31; pure powers x^(order + 1) reach that bound, and their
        # derivatives times the constant terms reach x^order in the output
        rng = random.Random(order)
        monomials = [(a, b) for a in range(order + 2)
                     for b in range(order + 2 - a)]
        edges = [(order + 1, 0), (0, order + 1), (order, 1), (1, order),
                 (0, 0), (1, 0), (0, 1)]

        def poly():
            picked = set(rng.sample(monomials, 30) + edges)
            return SparsePoly(2, {e: rng.choice((-3, -2, -1, 1, 2, 3))
                                  for e in picked})

        f = PolyVectorField(2, [poly(), poly()])
        g = PolyVectorField(2, [poly(), poly()])
        expected = _ref_jet_bracket([_ref_terms(c) for c in f.components],
                                    [_ref_terms(c) for c in g.components],
                                    order)
        got = jet_bracket(f, g, order)
        assert [c.terms for c in got.components] == expected
        assert any(max(e) == order for comp in expected for e in comp)


class TestExponentValidation:
    def _system(self, powers):
        return {"dim": 2,
                "f0": [[{"coeff": "1", "powers": [0, 1]}],
                       [{"coeff": "1", "powers": [1, 0]}]],
                "f1": [[{"coeff": "1", "powers": [0, 0]}],
                       [{"coeff": "1", "powers": powers}]]}

    @pytest.mark.parametrize("powers", [[1.7, 0], [-1, 0], ["1/2", 0],
                                        [True, 0], [None, 0], ["x", 1]])
    def test_field_from_json_refuses_non_polynomial_powers(self, powers):
        with pytest.raises(ValueError, match="monomial"):
            system_from_json_dict(self._system(powers))

    def test_field_from_json_reads_integral_powers(self):
        sys = system_from_json_dict(self._system([2.0, "1"]))
        assert sys.f1.components[1].terms == {(2, 1): 1}


class TestDimValidation:
    """`dim` is read by the same integer rule as the powers, and a system
    of no dimension is refused rather than checked vacuously."""

    def _file(self, tmp_path, dim):
        data = system_to_json_dict(zoo("jakubczyk"))
        if dim in (0, -1):
            data["f0"] = data["f1"] = []
        data["dim"] = dim
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("dim", [3, 3.0, "3"])
    def test_integral_dim_loads(self, tmp_path, dim):
        sys = load_system(self._file(tmp_path, dim))
        assert type(sys.dim) is int and sys.dim == 3

    @pytest.mark.parametrize("dim, message", [
        (3.9, "dim 3.9 is not an integer"), (True, "dim True is not an integer"),
        ("3/2", "dim '3/2' is not an integer"),
        (0, "dim 0 is not a positive integer"),
        (-1, "dim -1 is not a positive integer")])
    def test_refused_dim(self, tmp_path, dim, message):
        with pytest.raises(ValueError, match=message):
            load_system(self._file(tmp_path, dim))

    def test_system_def_refuses_no_dimension(self):
        empty = PolyVectorField(0, [])
        with pytest.raises(ValueError, match="dim 0 is not a positive"):
            SystemDef(dim=0, f0=empty, f1=empty)


def _reference_floats(field, x, power):
    """field(x) term by term: per component 0.0 + c*p*p + ... in `terms`
    order, every power x_j^k with k >= 2 through `power` as it is met; x_j^1
    is the coordinate itself, as in the generated step."""
    out = []
    for comp in field.components:
        total = 0.0
        for e, c in comp.terms.items():
            term = float(c)
            for j, k in enumerate(e):
                if k:
                    term = term * (x[j] if k == 1 else power(x[j], k))
            total = total + term
        out.append(total)
    return out


def _reference_step(sys, u0, um, u1, x, h, power):
    """One classical RK4 step over the term-by-term right-hand side
    f0(y) + uv * f1(y) of `_reference_floats`, stage by stage."""
    def rhs(uv, y):
        return [a + uv * b for a, b in zip(_reference_floats(sys.f0, y, power),
                                           _reference_floats(sys.f1, y, power))]

    half = h / 2
    k1 = rhs(u0, x)
    k2 = rhs(um, [v + half * k for v, k in zip(x, k1)])
    k3 = rhs(um, [v + half * k for v, k in zip(x, k2)])
    k4 = rhs(u1, [v + h * k for v, k in zip(x, k3)])
    sixth = h / 6
    return [v + sixth * (a + 2 * b + 2 * c + d)
            for v, a, b, c, d in zip(x, k1, k2, k3, k4)]


def _float_bits(values):
    return [v.tobytes() if isinstance(v, np.ndarray) else float(v).hex()
            for v in values]


def _outcome(f, *args):
    """The bits of f(*args), or OverflowError where a float power leaves
    the float range (scalar `pow` raises; arrays hold inf)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _float_bits(f(*args))
    except OverflowError:
        return OverflowError


@st.composite
def _float_systems(draw):
    """1-4 states, non-dyadic rational coefficients and coefficients +-1,
    powers 0-4, and some components without terms in f0 and/or f1."""
    dim = draw(st.integers(1, 4))
    coeff = st.one_of(
        st.sampled_from((Fraction(1), Fraction(-1))),
        st.builds(Fraction, st.integers(-40, 40).filter(bool),
                  st.sampled_from((3, 5, 7, 9, 10, 11, 12))))
    exponents = st.tuples(*[st.integers(0, 4)] * dim)

    def field(drift):
        comps = []
        for _ in range(dim):
            terms = draw(st.dictionaries(exponents, coeff, max_size=4))
            if drift:
                terms.pop((0,) * dim, None)     # f0(0) = 0
            comps.append(SparsePoly(dim, terms))
        return PolyVectorField(dim, comps)

    return SystemDef(dim=dim, f0=field(True), f1=field(False))


_COORDINATES = st.one_of(st.sampled_from((0.0, -0.0, -1.0, 1.0)),
                         st.floats(-30.0, 30.0))
_STEPS = st.one_of(st.sampled_from((2e-4, 1e-3)), st.floats(1e-6, 0.1))


class TestFloatFunction:
    """The generated RK4 step against a reference step over the
    term-by-term right-hand side, bit for bit, at points and on arrays of
    points."""

    @settings(max_examples=60, deadline=None)
    @given(sys=_float_systems(), data=st.data())
    def test_scalar_points(self, sys, data):
        x = data.draw(st.lists(_COORDINATES, min_size=sys.dim,
                               max_size=sys.dim))
        u0, um, u1 = (data.draw(_COORDINATES) for _ in range(3))
        h = data.draw(_STEPS)
        assert _outcome(sys.rk4_step, u0, um, u1, x, h, pow) \
            == _outcome(_reference_step, sys, u0, um, u1, x, h, pow)

    @settings(max_examples=60, deadline=None)
    @given(sys=_float_systems(), data=st.data())
    def test_array_points(self, sys, data):
        n = data.draw(st.integers(1, 6))
        points = st.lists(_COORDINATES, min_size=n, max_size=n).map(np.array)
        x = [data.draw(points) for _ in range(sys.dim)]
        u0, um, u1 = (data.draw(st.one_of(points, _COORDINATES))
                      for _ in range(3))
        h = data.draw(st.one_of(
            st.lists(_STEPS, min_size=n, max_size=n).map(np.array), _STEPS))
        P = np.float_power
        assert _outcome(sys.rk4_step, u0, um, u1, x, h, P) \
            == _outcome(_reference_step, sys, u0, um, u1, x, h, P)

    def test_negative_nan_lane_through_a_degree_one_term(self):
        """x_j^1 is the coordinate itself in the step and the reference
        alike, so a lane holding -NaN keeps its bits in both; numpy's
        `float_power` may drop the sign of a NaN base."""
        sys = SystemDef(dim=2, f0=_field(2, [
            {(1, 0): 1, (0, 1): -2}, {(2, 0): Fraction(1, 3), (1, 1): 1}]),
            f1=_field(2, [{(0, 0): 1}, {(1, 0): Fraction(-1, 7)}]))
        minus_nan = np.copysign(np.nan, -1.0)
        x = [np.array([minus_nan, 0.5, -0.25]), np.array([1.5, minus_nan, 0.0])]
        args = (np.array([0.5, -1.0, 0.0]), 0.25, -1.0, x, 1e-3)
        with np.errstate(invalid="ignore"):
            step = sys.rk4_step(*args, np.float_power)
            assert _float_bits(step) == _float_bits(
                _reference_step(sys, *args, np.float_power))

    @pytest.mark.parametrize("x", [[0.0, -0.0], [-0.0, -0.0], [0.5, -0.0],
                                   [-1.5, 0.25]])
    def test_folded_terms_are_exact(self, x):
        """Coefficients 1 and -1, and f1 components without terms, at
        signed zeros, where 1.0*y and a + uv*0.0 are the cases to get
        right, as floats and as arrays."""
        sys = SystemDef(dim=2, f0=_field(2, [
            {(0, 1): 1, (2, 0): -1}, {(1, 0): 1, (1, 1): Fraction(1, 3)}]),
            f1=_field(2, [{}, {(0, 0): 1, (0, 2): 1}]))
        args = (Fraction(-1, 3), 0.0, 2.5, x, 1e-3)
        assert _float_bits(sys.rk4_step(*args, pow)) \
            == _float_bits(_reference_step(sys, *args, pow))
        arrays = [np.array([v, -v, 0.0]) for v in x]
        args = (np.array([-0.5, 0.0, 1.0]), 0.0, -0.0, arrays,
                np.array([1e-3, 2e-4, 0.5]))
        assert _float_bits(sys.rk4_step(*args, np.float_power)) \
            == _float_bits(_reference_step(sys, *args, np.float_power))

    def test_each_power_is_computed_once_per_call(self):
        calls = []

        def counting_pow(x, k):
            calls.append(k)
            return pow(x, k)

        # x1^2 appears in three terms, x1^1 needs no power
        sys = SystemDef(dim=2, f0=_field(2, [
            {(0, 2): Fraction(1, 3), (1, 2): Fraction(2, 7)},
            {(1, 0): 1, (0, 2): Fraction(-5, 3)}]),
            f1=_field(2, [{(0, 0): 1}, {}]))
        sys.rk4_step(0.5, 0.25, -1.0, [0.25, -1.5], 1e-3, counting_pow)
        assert calls == [2] * 4         # once per stage
