import json
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy

from conftest import random_tree
from lietool import trees
from lietool.fields import (PolyVectorField, SystemDef, eval_bracket,
                            eval_lie, jet_bracket, system_from_json_dict,
                            system_to_json_dict, vf_bracket)
from lietool.hall import decompose
from lietool.polynomials import SparsePoly
from lietool.trees import M, P, W, X0, X1, ad, node
from lietool.zoo import zoo


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
