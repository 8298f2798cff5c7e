import re
from fractions import Fraction

import pytest

from lietool.polynomials import SparsePoly


class TestArithmetic:
    def test_ring_operations(self):
        x = SparsePoly.variable(2, 0)
        y = SparsePoly.variable(2, 1)
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert p.coefficient((2, 0)) == 1
        assert p.coefficient((1, 1)) == 0

    def test_scalar_coercion_both_sides(self):
        x = SparsePoly.variable(1, 0)
        assert (1 + x) - 1 == x
        assert 2 * x == x * 2 == x + x
        assert (x * Fraction(1, 2)).coefficient((1,)) == Fraction(1, 2)

    def test_zero_terms_dropped(self):
        x = SparsePoly.variable(1, 0)
        assert not (x - x).terms
        assert not bool(x * 0)

    def test_equality_with_numbers(self):
        one = SparsePoly.constant(3, 1)
        assert one == 1
        assert SparsePoly(3) == 0
        assert SparsePoly.variable(3, 1) != 1

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            SparsePoly.variable(2, 0) + SparsePoly.variable(3, 0)


class TestCalculusAndEval:
    def test_partial_derivative(self):
        x = SparsePoly.variable(2, 0)
        y = SparsePoly.variable(2, 1)
        p = x * x * y + 3 * y
        assert p.partial(0) == 2 * x * y
        assert p.partial(1) == x * x + 3

    def test_eval_exact_and_float(self):
        x = SparsePoly.variable(2, 0)
        y = SparsePoly.variable(2, 1)
        p = x * y + Fraction(1, 2)
        assert p.eval((Fraction(2), Fraction(3, 2))) == Fraction(7, 2)

    def test_monomial_coefficient_extraction(self):
        p = SparsePoly.monomial((2, 1), Fraction(5, 3))
        assert p.coefficient((2, 1)) == Fraction(5, 3)
        assert p.total_degree() == 3


class TestRepresentation:
    def test_integer_values_are_stored_as_ints(self):
        p = SparsePoly(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3),
                           (0, 0): 0.5, (2, 0): "3"})
        assert {e: type(c) for e, c in p.terms.items()} == {
            (1, 0): int, (0, 1): Fraction, (0, 0): Fraction, (2, 0): int}
        assert p.coefficient((0, 0)) == Fraction(1, 2)
        q = p * 3 + p
        assert type(q.coefficient((0, 1))) is Fraction
        assert type((q * Fraction(3, 4)).coefficient((0, 1))) is int
        assert type(q.partial(1).constant_term()) is Fraction

    def test_missing_coefficients_are_integer_zero(self):
        p = SparsePoly.variable(2, 0)
        assert p.constant_term() == 0 and type(p.constant_term()) is int
        assert type(p.coefficient((5, 5))) is int

    @pytest.mark.parametrize("exponents", [(1.7, 0), (-1, 0), (1,),
                                           (1, 0, 0), ("1", 0), (True, 0)])
    def test_bad_exponents_are_refused_with_the_monomial(self, exponents):
        with pytest.raises(ValueError, match=re.escape(repr(exponents))):
            SparsePoly(2, {exponents: 1})

    def test_monomial_refuses_a_negative_power(self):
        with pytest.raises(ValueError, match="monomial"):
            SparsePoly.monomial([1, -2])
