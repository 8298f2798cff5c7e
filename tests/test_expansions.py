import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pc_control
from lietool import expansions, trees
from lietool.controls import (PiecewisePolyControl, Poly, SampledControl,
                              primitive)
from lietool.coord import chen_coefficient, xi, xi_path
from lietool.expansions import (cross_coefficient_element, cross_term_check,
                                eta_by_product, formal_state, interaction_log,
                                magnus_log, ordered_product, verify_expansions)
from lietool.hall import HallElement, LieElement, basis_up_to_length, decompose
from lietool.trees import M, W, X0, X1, node
from lietool.words import (CutoffError, TensorSeries, all_words,
                           expand_to_words)

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


def _one_factor_at_a_time(u, cutoff):
    """Sussmann's product with every factor exp(xi_b E(b)) multiplied in on
    its own, decreasing left to right."""
    out = TensorSeries.unit(cutoff)
    for element in sorted(basis_up_to_length(cutoff), reverse=True):
        value = xi(element, u).exact
        if value:
            factor = expand_to_words(element.tree, cutoff).scale(value)
            out = out * factor.exp()
    return out


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

    @settings(max_examples=20, deadline=None)
    @given(poly_controls())
    def test_matches_one_factor_at_a_time(self, u):
        # even cutoffs matter most: |b| = cutoff/2 is still exponentiated
        for cutoff in range(1, 9):
            assert ordered_product(u, cutoff) == _one_factor_at_a_time(u, cutoff)

    @pytest.mark.parametrize("cutoff, most", [(7, 14), (9, 27)])
    def test_one_product_per_run_of_long_factors(self, monkeypatch, cutoff,
                                                 most):
        # one factor at a time makes 84 products at cutoff 7 and 262 at 9
        u = PiecewisePolyControl.piecewise_constant(
            (0, Fraction(1, 3), Fraction(3, 4), 1), (2, Fraction(-1, 3), 5))
        calls = []
        mul = TensorSeries.__mul__

        def counted(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(TensorSeries, "__mul__", counted)
        ordered_product(u, cutoff)
        assert len(calls) <= most


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


def _per_target_patterns(target, pool):
    """The factor patterns of one target, enumerated for that target: the
    reference for the per-bidegree `expansions._factor_patterns`."""
    n1_t, n0_t = target.bidegree
    usable = [e for e in pool
              if e.n1 <= n1_t and e.n0 <= n0_t and e.length < target.length]

    def recurse(start, n1_left, n0_left, chosen):
        if n1_left == 0 and n0_left == 0:
            if len(chosen) >= 2 or (len(chosen) == 1 and chosen[0][1] >= 2):
                if sum(h for _, h in chosen) >= 2:
                    yield tuple(chosen)
            return
        for i in range(start, len(usable)):
            e = usable[i]
            if e.n1 > n1_left or e.n0 > n0_left:
                continue
            max_h = target.length // e.length
            for h in range(1, max_h + 1):
                if e.n1 * h > n1_left or e.n0 * h > n0_left:
                    break
                chosen.append((e, h))
                yield from recurse(i + 1, n1_left - e.n1 * h,
                                   n0_left - e.n0 * h, chosen)
                chosen.pop()

    yield from recurse(0, n1_t, n0_t, [])


def _eta_per_target(u, cutoff, max_n1):
    """eta by Sussmann's product, one target at a time: the target's own
    patterns, each coefficient element probed for the target's entry."""
    elements = [e for e in basis_up_to_length(cutoff)
                if e.tree is not X0 and e.n1 <= max_n1]
    xis = {e: xi_path(e.tree, u).end_value() for e in elements}
    pool = sorted(elements, reverse=True)
    values = {}
    for target in elements:
        total = xis[target]
        for pattern in _per_target_patterns(target, pool):
            term = cross_coefficient_element(
                [e for e, _ in pattern],
                [h for _, h in pattern]).coeffs.get(target)
            if term:
                for e, h in pattern:
                    term *= xis[e] ** h
                total += term
        values[target] = total
    return values


def _bits(values):
    return [(b, v if isinstance(v, Fraction) else float.hex(v))
            for b, v in values.items()]


_SAMPLES = st.lists(st.floats(min_value=-3, max_value=3), min_size=129,
                    max_size=129)


class TestEtaByProduct:
    @settings(max_examples=15, deadline=None)
    @given(st.one_of(poly_controls(), _SAMPLES.map(
               lambda v: SampledControl(0.75, v))),
           st.sampled_from([(4, 4), (5, 5), (6, 2), (7, 7), (9, 3)]))
    def test_matches_the_per_target_walk(self, u, degrees):
        # same values, same order and, on samples, the same float bits
        cutoff, max_n1 = degrees
        assert (_bits(eta_by_product(u, cutoff, max_n1).values)
                == _bits(_eta_per_target(u, cutoff, max_n1)))

    @settings(max_examples=25, deadline=None)
    @given(poly_controls())
    def test_reproduces_every_chen_coefficient(self, u):
        # exp(t X0) exp(sum eta_b E(b)) is the state on any exact control
        cutoff = 5
        log = TensorSeries.zero(cutoff)
        for b, value in eta_by_product(u, cutoff, cutoff).values.items():
            log = log + expand_to_words(b.tree, cutoff).scale(value)
        state = TensorSeries.from_word((0,), cutoff, u.horizon).exp() * log.exp()
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


class TestNegativeCutoff:
    """A cutoff below zero is refused, never read as an empty series."""

    @pytest.mark.parametrize("view", [formal_state, ordered_product,
                                      interaction_log, magnus_log])
    def test_state_views_refuse(self, view):
        with pytest.raises(CutoffError, match="got -1"):
            view(UNIT, -1)

    @pytest.mark.parametrize("cutoff, max_n1", [(-1, 3), (3, -1)])
    def test_eta_by_product_refuses(self, cutoff, max_n1):
        with pytest.raises(ValueError, match="got"):
            eta_by_product(UNIT, cutoff, max_n1)

    @pytest.mark.parametrize("cutoff", [0, -1])
    def test_cross_term_check_refuses_checking_nothing(self, cutoff):
        with pytest.raises(ValueError, match=f"got {cutoff}"):
            cross_term_check(UNIT, cutoff)


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
