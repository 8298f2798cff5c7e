import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pc_control
from lietool import expansions, trees
from lietool.controls import (PiecewisePolyControl, Poly, SampledControl,
                              primitive)
from lietool.coord import chen_coefficient, xi
from lietool.expansions import (cross_coefficient_element, cross_term_check,
                                eta_by_product, formal_state, interaction_log,
                                magnus_log, ordered_product, verify_expansions)
from lietool.hall import HallElement, LieElement, basis_up_to_length, decompose
from lietool.trees import M, W, X0, X1, node
from lietool.words import TensorSeries, all_words, expand_to_words

ZERO = PiecewisePolyControl.constant(0, 1)
UNIT = PiecewisePolyControl.constant(1, 1)


_SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def poly_controls(draw):
    """Piecewise polynomials of degree <= 2 on rational breakpoints."""
    horizon = draw(st.fractions(min_value=Fraction(1, 4), max_value=1,
                                max_denominator=6))
    cuts = draw(st.lists(st.fractions(min_value=0, max_value=1,
                                      max_denominator=7),
                         max_size=2, unique=True))
    inner = sorted({c * horizon for c in cuts} - {0, horizon})
    polys = [Poly(draw(st.lists(_SMALL, max_size=3)))
             for _ in range(len(inner) + 1)]
    return PiecewisePolyControl([0, *inner, horizon], polys)


class TestFormalState:
    def test_zero_control_is_exp_tx0(self):
        state = formal_state(PiecewisePolyControl.constant(0, Fraction(1, 2)), 4)
        t = Fraction(1, 2)
        for k in range(5):
            word = (0,) * k
            assert state.series[word] == t ** k / _fact(k)
        assert sum(1 for c in state.series.coeffs.values() if c) == 5

    def test_single_piece_is_matrix_exponential(self):
        c = Fraction(2, 3)
        state = formal_state(PiecewisePolyControl.constant(c, 1), 3)
        # coefficient of a word in exp(X0 + c X1) is c^(ones)/3!-ish
        for word in all_words(3):
            k = len(word)
            ones = sum(word)
            assert state.series[word] == c ** ones / _fact(k)

    def test_coefficients_match_iterated_integrals(self, rng):
        for _ in range(5):
            u = random_pc_control(rng)
            state = formal_state(u, 4)
            for word in all_words(4):
                assert state.series[word] == chen_coefficient(word, u).exact

    def test_requires_piecewise_constant(self):
        ramp = PiecewisePolyControl((0, 1), ([0, 1],))
        with pytest.raises(ValueError):
            formal_state(ramp, 3)


def _fact(k):
    import math
    return math.factorial(k)


class TestOrderedProduct:
    def test_zero_control(self):
        u = PiecewisePolyControl.constant(0, Fraction(3, 4))
        assert ordered_product(u, 4) == formal_state(u, 4).series

    def test_matches_formal_state(self, rng):
        for _ in range(6):
            u = random_pc_control(rng)
            assert ordered_product(u, 5) == formal_state(u, 5).series

    def test_degree_one_coefficients(self, rng):
        u = random_pc_control(rng)
        series = ordered_product(u, 3)
        assert series[(0,)] == u.horizon
        assert series[(1,)] == primitive(u, 1).end_value()

    @settings(max_examples=25, deadline=None)
    @given(poly_controls())
    def test_reproduces_every_chen_coefficient(self, u):
        # the Hall product is the truncated state on any exact control
        series = ordered_product(u, 5)
        for word in all_words(5):
            assert series[word] == chen_coefficient(word, u).exact

    def test_two_quadratic_pieces_at_cutoff_six(self):
        u = PiecewisePolyControl(
            (0, Fraction(1, 3), 1),
            (Poly([1, -2, Fraction(1, 2)]), Poly([Fraction(-1, 2), 3])))
        series = ordered_product(u, 6)
        for word in all_words(6):
            assert series[word] == chen_coefficient(word, u).exact

    def test_sampled_control_is_refused(self):
        u = SampledControl(1.0, np.ones(9))
        with pytest.raises(TypeError):
            ordered_product(u, 3)


class TestInteractionLog:
    def test_eta_x0_vanishes(self, rng):
        for _ in range(5):
            eta = interaction_log(random_pc_control(rng), 4)
            assert eta[X0] == 0

    def test_eta_x1_is_first_primitive(self, rng):
        u = random_pc_control(rng)
        eta = interaction_log(u, 4)
        assert eta[X1] == primitive(u, 1).end_value()

    def test_eta_m1_no_cross_terms(self, rng):
        u = random_pc_control(rng)
        eta = interaction_log(u, 4)
        assert eta[M(1)] == primitive(u, 2).end_value()
        assert eta[M(1)] == xi(M(1), u).exact

    def test_lie_residual_is_zero_by_construction(self, rng):
        # would raise InternalConsistencyError otherwise
        interaction_log(random_pc_control(rng), 5)

    def test_cutoff_eleven_three_pieces(self):
        # every bidegree of length <= 11 passes its exact residual check
        # inside the solve; the anchors pin the two degree-one coordinates
        u = PiecewisePolyControl.piecewise_constant(
            (0, Fraction(1, 3), Fraction(2, 3), 1), (1, -2, Fraction(1, 2)))
        eta = interaction_log(u, 11)
        assert eta[X0] == 0
        assert eta[X1] == primitive(u, 1).end_value()
        assert eta[M(1)] == xi(M(1), u).exact
        assert max(e.length for e in eta.values) == 11


class TestMagnusUsual:
    def test_degree_one_coordinates(self, rng):
        u = random_pc_control(rng)
        zeta = magnus_log(u, 4)
        assert zeta[X0] == u.horizon
        assert zeta[X1] == primitive(u, 1).end_value()


class TestCrossCoefficients:
    def test_two_factor_anchor(self):
        m1 = HallElement.of(M(1))
        x1 = HallElement.of(X1)
        got = cross_coefficient_element([m1, x1], [1, 1])
        # (1/2)[M1, X1] = -(1/2) W(1,0)
        assert got == LieElement.single(W(1, 0), Fraction(-1, 2))

    def test_two_factor_higher_anchor(self):
        m1 = HallElement.of(M(1))
        x1 = HallElement.of(X1)
        got = cross_coefficient_element([m1, x1], [2, 1])
        want = decompose(node(M(1), node(M(1), X1))).scale(Fraction(1, 12))
        assert got == want

    def test_three_factor_value(self):
        # brute-force-verified trilinear term of the iterated product log:
        # (1/3)[Y1,[Y2,Y3]] - (1/6)[Y2,[Y1,Y3]]
        w1 = HallElement.of(W(1, 0))
        m1 = HallElement.of(M(1))
        x1 = HallElement.of(X1)
        got = cross_coefficient_element([w1, m1, x1], [1, 1, 1])
        first = decompose(node(W(1, 0), node(M(1), X1)))
        second = decompose(node(M(1), node(W(1, 0), X1)))
        want = (first.scale(Fraction(1, 3)) - second.scale(Fraction(1, 6)))
        assert got == want


class TestCrossTermCheck:
    def test_all_elements_match_up_to_length_four(self, rng):
        for _ in range(4):
            u = random_pc_control(rng)
            reports = cross_term_check(u, cutoff=4)
            assert reports and all(r.matched for r in reports)

    def test_single_control_layer_has_no_cross_terms(self, rng):
        u = random_pc_control(rng)
        for report in cross_term_check(u, cutoff=4):
            if report.element.n1 == 1:
                assert report.cross_sum == 0
                assert report.eta == report.xi

    def test_zero_control_trivial(self):
        for report in cross_term_check(ZERO, cutoff=4):
            assert report.eta == 0 and report.xi == 0

    def test_all_elements_match_at_cutoff_six_three_pieces(self):
        u = PiecewisePolyControl.piecewise_constant(
            (0, Fraction(1, 3), Fraction(2, 3), 1), (1, -2, Fraction(1, 2)))
        reports = cross_term_check(u, cutoff=6)
        assert len(reports) == 22
        assert all(r.matched for r in reports)
        assert any(r.cross_sum for r in reports if r.element.length == 6)

    def test_w1_cross_term_is_product_of_lower_coordinates(self, rng):
        u = random_pc_control(rng)
        reports = {r.element: r for r in cross_term_check(u, cutoff=3)}
        w1 = HallElement.of(W(1, 0))
        # eta - xi = -(1/2) xi_{M1} xi_{X1} (single CBH pair M1 > X1)
        expected = -Fraction(1, 2) * xi(M(1), u).exact * xi(X1, u).exact
        assert reports[w1].eta - reports[w1].xi == expected


class TestEtaByProduct:
    @settings(max_examples=25, deadline=None)
    @given(poly_controls())
    def test_reproduces_every_chen_coefficient(self, u):
        # exp(t X0) exp(sum eta_b E(b)) is the state on any exact control
        cutoff = 5
        log = TensorSeries.zero(cutoff)
        for b, value in eta_by_product(u, cutoff, cutoff).values.items():
            log = log + expand_to_words(b.tree, cutoff).scale(value)
        state = TensorSeries.piece_exponential(cutoff, u.horizon, 0) * log.exp()
        for word in all_words(cutoff):
            assert state[word] == chen_coefficient(word, u).exact

    def test_matches_the_interaction_log_at_cutoff_seven(self, rng):
        u = random_pc_control(rng)
        eta = interaction_log(u, 7)
        by_product = eta_by_product(u, 7, 7)
        assert len(by_product.values) == len(basis_up_to_length(7)) - 1
        assert all(eta[b] == v for b, v in by_product.values.items())

    def test_targets_stop_at_max_n1(self, rng):
        u = random_pc_control(rng)
        full = eta_by_product(u, 6, 6).values
        low = eta_by_product(u, 6, 2).values
        assert low == {b: v for b, v in full.items() if b.n1 <= 2}

    def test_sampled_control_gives_the_fine_grid_floats(self):
        grid = np.linspace(0.0, 1.0, 33)
        u = SampledControl(1.0, np.cos(3 * grid))
        eta = eta_by_product(u, 4, 2)
        w1 = HallElement.of(W(1, 0))
        # eta_W(1,0) = xi_W(1,0) - (1/2) xi_M(1) xi_X1
        want = (xi(w1, u).approx
                - Fraction(1, 2) * xi(M(1), u).approx * xi(X1, u).approx)
        assert eta[w1] == want


def test_verify_expansions_all_pass():
    outcomes = verify_expansions(degree=4, trials=6, seed=11)
    assert all(passed for _, passed in outcomes)


@pytest.mark.parametrize("degree, trials", [(4, 0), (0, 3), (-1, 3)])
def test_verify_expansions_refuses_checking_nothing(degree, trials):
    with pytest.raises(ValueError, match="degree" if degree < 1 else "trials"):
        verify_expansions(degree=degree, trials=trials)


def test_chen_identity_sees_a_word_the_state_drops(monkeypatch):
    # X1 X1 X1 has a nonzero Chen coefficient on every control with
    # u1(t) != 0; a state without it must fail the identity
    real = expansions.formal_state

    def dropping(u, cutoff):
        state = real(u, cutoff)
        state.series.coeffs.pop((1, 1, 1), None)
        return state

    monkeypatch.setattr(expansions, "formal_state", dropping)
    outcomes = dict(verify_expansions(degree=3, trials=2, seed=1))
    assert outcomes["formal_state == chen coefficients"] is False
