import gc
import math
import random
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_poly_control
from lietool import trees
from lietool.controls import PiecewisePolyControl, Poly, SampledControl, primitive
from lietool.coord import (chen_coefficient, chen_coefficient_path,
                           check_inequalities, match_named_family, rough_bound_constant, xi,
                           xi_closed_form, xi_path)
from lietool.hall import basis_of_bidegree, basis_up_to_length
from lietool.trees import D, M, P, Q_flat, W, X1, parse_tree
from lietool.words import all_words

UNIT = PiecewisePolyControl.constant(1, 1)


class TestPrimitive:
    def test_first(self):
        assert primitive(UNIT, 1).end_value() == 1

    def test_second(self):
        assert primitive(UNIT, 2).eval(Fraction(1, 2)) == Fraction(1, 8)

    def test_symmetry(self):
        u = PiecewisePolyControl.piecewise_constant(
            (0, Fraction(1, 2), 1), (1, -1))
        assert primitive(u, 1).end_value() == 0


class TestXi:
    def test_x1(self):
        assert xi(X1, UNIT).exact == 1

    def test_w1_direct_integration(self):
        # (1/2) int_0^1 s^2 ds = 1/6
        assert xi(W(1, 0), UNIT).exact == Fraction(1, 6)

    def test_sixth_order_germ_closed_form(self, rng):
        for _ in range(8):
            u = random_poly_control(rng)
            got = xi(D(), u).exact
            u1 = u.antiderivative()
            direct = (u1.power(3).antiderivative().power(2)
                      .integral()) / 72
            assert got == direct

    def test_positivity_of_square_coordinates(self, rng):
        for _ in range(25):
            u = random_poly_control(rng)
            for k in (1, 2, 3):
                assert xi(W(k, 0), u).exact >= 0
            assert xi(D(), u).exact >= 0

    def test_trailing_zero_kernel(self, rng):
        # xi_{b 0^nu} = int (t-s)^nu/nu! d xi_b
        for base in (X1, W(1, 0), P(1, 1, 0)):
            for nu in range(4):
                u = random_poly_control(rng)
                tree = trees.zeros(base, nu)
                got = xi(tree, u).exact
                path = xi_path(base, u)
                want = path.derivative().kernel_integral(nu) if nu else \
                    path.end_value()
                # derivative of the xi path is only piecewise; integrate the
                # exact path instead via repeated antiderivatives of d(xi)
                dxi = _dxi(base, u)
                want = dxi.kernel_integral(nu)
                assert got == want

    def test_sampled_vs_exact_second_order(self):
        u_exact = PiecewisePolyControl((0, 1), (Poly((0, 1)),))  # u(s) = s
        target = float(xi(W(1, 0), u_exact).exact)
        errors = []
        for n in (33, 65, 129, 257):
            grid = np.linspace(0, 1, n)
            u = SampledControl(1.0, grid)
            errors.append(abs(float(xi(W(1, 0), u)) - target))
        orders = [math.log(errors[i] / errors[i + 1]) / math.log(2)
                  for i in range(len(errors) - 1)]
        assert min(orders) >= 2.0 - 0.2

    def test_sampled_error_estimate_present(self):
        u = SampledControl(1.0, np.ones(65))
        value = xi(W(1, 0), u)
        assert value.exact is None and value.error_estimate is not None


def _dxi(base, u):
    from lietool.coord import _xi_derivative
    return _xi_derivative(base, u)


class TestClosedForm:
    def test_m_family(self, rng):
        u = random_poly_control(rng)
        for nu in range(4):
            assert xi_closed_form(M(nu), u).exact == \
                primitive(u, nu + 1).end_value()

    def test_p_coefficient_one_sixth(self):
        # alpha_{1,1} = 1/3! on the diagonal
        u = UNIT
        val = xi_closed_form(P(1, 1, 0), u).exact
        u1 = u.antiderivative()
        assert val == u1.power(3).integral() / 6

    def test_qf_one_eighth(self, rng):
        u = random_poly_control(rng)
        got = xi_closed_form(Q_flat(1, 0, 0), u).exact
        inner = u.antiderivative().power(2).antiderivative()
        assert got == inner.power(2).integral() / 8

    def test_matches_recursion_everywhere(self, rng):
        elements = [e for p in range(1, 6) for q in range(0, 9 - p)
                    for e in basis_of_bidegree(p, q)]
        controls = [random_poly_control(rng) for _ in range(6)]
        for e in elements:
            for u in controls:
                assert xi(e, u).exact == xi_closed_form(e, u).exact, repr(e)

    def test_primitive_chain_dies_with_its_control(self, rng):
        u = random_poly_control(rng)
        xi_closed_form(parse_tree("Rs(1,1,2,0,1)"), u)
        alive = weakref.ref(u)
        del u
        gc.collect()
        assert alive() is None

    def test_family_match_structure(self):
        assert match_named_family(parse_tree("Qs(1,2,3,1)")).family == "Qs"
        assert match_named_family(parse_tree("Rs(1,1,2,0,1)")).family == "Rs"
        assert match_named_family(D()) is None

    def test_family_match_accepts_hall_element_and_text(self):
        elements = [e for p in range(1, 5) for q in range(0, 7 - p)
                    for e in basis_of_bidegree(p, q)]
        assert any(trees.match_named_family(e.tree) for e in elements)
        for e in elements:
            expected = trees.match_named_family(e.tree)
            assert match_named_family(e) == expected, repr(e)
            assert match_named_family(e.tree.text) == expected, repr(e)

    def test_outside_families_rejected(self):
        with pytest.raises(ValueError):
            xi_closed_form(D(), UNIT)


class TestChen:
    def test_x0_word(self):
        u = random_poly_control(random.Random(1), horizon=Fraction(2, 3))
        assert chen_coefficient((0,), u).exact == Fraction(2, 3)

    def test_x1_word(self, rng):
        u = random_poly_control(rng)
        assert chen_coefficient((1,), u).exact == \
            u.antiderivative().end_value()

    def test_x1x1_word(self):
        assert chen_coefficient((1, 1), UNIT).exact == Fraction(1, 2)

    def test_empty_word(self):
        assert chen_coefficient((), UNIT).exact == 1

    def test_sampled_path(self):
        u = SampledControl(1.0, np.ones(129))
        val = chen_coefficient((1, 1), u)
        assert abs(val.approx - 0.5) < 1e-3


def _chen_by_letters(word, u):
    """The Chen path built letter by letter from the constant 1, no memo."""
    one = u.power(0)
    path = one
    for letter in word:
        path = (path * (u if letter else one)).antiderivative()
    return path


class TestChenMemo:
    """The prefix-memoized Chen paths equal the letter-by-letter loop, bit
    for bit, on an exact and on a sampled control."""

    EXACT = random_poly_control(random.Random(7), max_pieces=3, max_degree=2)

    def test_exact_control(self):
        u = self.EXACT
        for word in all_words(6):
            got, want = chen_coefficient_path(word, u), _chen_by_letters(word, u)
            assert got.breakpoints == want.breakpoints
            assert got.pieces == want.pieces
            assert chen_coefficient(word, u).exact == want.end_value()

    def test_sampled_control(self):
        u = SampledControl(1.0, self.EXACT.sample(257))
        for word in all_words(6):
            for v in (u, u.coarsened()):
                assert np.array_equal(chen_coefficient_path(word, v).values,
                                      _chen_by_letters(word, v).values)
            fine = _chen_by_letters(word, u).end_value()
            coarse = _chen_by_letters(word, u.coarsened()).end_value()
            value = chen_coefficient(word, u)
            assert value.approx == fine
            assert value.error_estimate == abs(fine - coarse)

    def test_each_prefix_is_integrated_once(self, monkeypatch):
        u = SampledControl(1.0, self.EXACT.sample(257))
        calls = Counter()
        antiderivative = SampledControl.antiderivative

        def counted(v):
            calls[v.values.size] += 1
            return antiderivative(v)

        monkeypatch.setattr(SampledControl, "antiderivative", counted)
        for word in all_words(5):
            chen_coefficient(word, u)
        # one antiderivative per nonempty word, on each grid
        assert calls == {257: 62, 129: 62}


class TestSampledAgainstExact:
    """The shared recursion on a 257-point sample of u = 1/2 - 3s + 3s^2:
    every estimate must bound its distance to the exact value."""

    EXACT = PiecewisePolyControl((0, 1), (Poly((Fraction(1, 2), -3, 3)),))
    SAMPLED = SampledControl(1.0, EXACT.sample(257))

    def check(self, approx, exact):
        assert approx.exact is None
        assert abs(approx.approx - float(exact.exact)) <= \
            approx.error_estimate + 1e-12

    def test_xi_on_hall_elements_up_to_length_6(self):
        elements = basis_up_to_length(6)
        assert len(elements) == 23
        for e in elements:
            self.check(xi(e, self.SAMPLED), xi(e, self.EXACT))

    def test_half_grid_paths_are_memoized(self, monkeypatch):
        u = SampledControl(1.0, self.EXACT.sample(257))
        assert u.coarsened() is u.coarsened()
        calls = Counter()
        antiderivative = SampledControl.antiderivative

        def counted(v):
            calls[v.values.size] += 1
            return antiderivative(v)

        monkeypatch.setattr(SampledControl, "antiderivative", counted)
        for e in basis_up_to_length(6):
            xi(e, u)
        assert calls == {257: 23, 129: 23}

    def test_chen_on_words_up_to_length_5(self):
        for word in all_words(5):
            self.check(chen_coefficient(word, self.SAMPLED),
                       chen_coefficient(word, self.EXACT))


class TestInequalities:
    @pytest.mark.parametrize("u", [
        PiecewisePolyControl.constant(0, 1),
        PiecewisePolyControl((0, Fraction(1, 3), 1), (Poly(), Poly()))])
    def test_zero_control_is_not_applicable(self, u):
        # both sides of every inequality are 0: a pass would be vacuous
        results = check_inequalities(u)
        assert len(results) == len(check_inequalities(UNIT)) == 12
        for result in results:
            assert not result.applicable and result.passed is None
            assert result.line().endswith("not applicable (zero control)")

    def test_unit_control_first_interpolation_values(self):
        results = check_inequalities(UNIT)
        first = results[0]
        assert first.name == "odd-power interpolation k=1"
        assert abs(first.lhs - 0.25) < 1e-9      # int s^3 = 1/4
        assert abs(first.rhs - Fraction(1, 3)) < 1e-9

    def test_gated_inequality_skipped(self):
        results = check_inequalities(UNIT)
        gated = [r for r in results if r.name.startswith("quintic")][0]
        assert not gated.applicable

    def test_gated_inequality_checked_when_applicable(self):
        u = PiecewisePolyControl.piecewise_constant(
            (0, Fraction(1, 2), 1), (1, -1))
        results = check_inequalities(u)
        gated = [r for r in results if r.name.startswith("quintic")][0]
        assert gated.applicable and gated.passed

    def test_random_controls_all_pass(self, rng):
        for _ in range(30):
            u = random_poly_control(rng)
            for result in check_inequalities(u):
                if result.applicable:
                    assert result.passed, (result.line(), u.to_json_dict())

    def test_cauchy_schwarz_bound_is_exact_path(self, rng):
        for _ in range(40):
            u = random_poly_control(rng, max_pieces=2)
            lhs = xi(parse_tree("P(1,1,1)"), u).exact ** 2
            rhs = 2 * u.horizon * xi(D(), u).exact
            assert lhs <= rhs

    def test_rough_constant_chain(self):
        assert rough_bound_constant(1) == 4
        assert rough_bound_constant(2) == 64
        assert rough_bound_constant(3) == 2048
