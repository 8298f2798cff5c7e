import math
import threading
from fractions import Fraction

import numpy as np
import pytest

from lietool.conditions import MembershipHoldsError, family_n2, family_s1
from lietool.controls import PiecewisePolyControl, Poly, SampledControl, primitive
from lietool.simulate import (BlowUpError, drift_scan, integrate,
                              pure_counterexample_check,
                              residual_scaling_slope, zm_state)
from lietool.zoo import zoo

EASY = zoo("easy")


def sym_pc(amplitude, t) -> PiecewisePolyControl:
    """Bang-bang pattern with u1(t) = u2(t) = 0 (even about the midpoint)."""
    a = Fraction(amplitude)
    t = Fraction(t)
    return PiecewisePolyControl.piecewise_constant(
        (0, t / 4, 3 * t / 4, t), (a, -a, a))


def skew_pc(amplitude, t) -> PiecewisePolyControl:
    """u1(t) = u2(t) = 0 but with nonvanishing odd integrals of u1."""
    a = Fraction(amplitude)
    t = Fraction(t)
    return PiecewisePolyControl.piecewise_constant(
        (0, t / 6, t / 3, 2 * t / 3, t), (a, -a, -a / 4, a / 4))


class TestIntegrate:
    def test_zero_control_stays_at_origin(self):
        u = PiecewisePolyControl.constant(0, Fraction(1, 10))
        for sys in (EASY, zoo("jakubczyk"), zoo("w3_vs_qb10")):
            x = integrate(sys, u, 1e-3).final_state
            assert np.all(x == 0)

    def test_easy_closed_form(self):
        u = PiecewisePolyControl.constant(1, Fraction(1, 10))
        x = integrate(EASY, u, 1e-4).final_state
        u1 = u.antiderivative()
        u2 = u1.antiderivative()
        x3 = float(u1.power(2).integral() - u2.power(2).integral()
                   - u1.power(3).integral() - 2 * u2.end_value() ** 2)
        assert abs(x[0] - float(u1.end_value())) < 1e-8
        assert abs(x[1] - float(u2.end_value())) < 1e-8
        assert abs(x[2] - x3) < 1e-8

    def test_jakubczyk_linear_chain_exact(self):
        u = PiecewisePolyControl(
            (0, Fraction(1, 10)), (Poly((1, Fraction(-3))),))
        x = integrate(zoo("jakubczyk"), u, 1e-4).final_state
        assert abs(x[0] - float(primitive(u, 1).end_value())) < 1e-10
        assert abs(x[1] - float(primitive(u, 2).end_value())) < 1e-10

    def test_qb10_closed_form(self):
        sys = zoo("w3_vs_qb10")
        u = PiecewisePolyControl.piecewise_constant(
            (0, Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), -1))
        x = integrate(sys, u, 2e-4).final_state
        u1, u3 = primitive(u, 1), primitive(u, 3)
        q = u1.power(2)
        x3 = float(u3.end_value() + q.integral())
        x4 = float(primitive(u, 4).end_value() + q.kernel_integral(1))
        inner = q.antiderivative()
        x5 = float(u3.power(2).integral() - inner.power(2).integral()
                   + 2 * x4 * q.integral())
        assert abs(x[2] - x3) < 1e-7
        assert abs(x[3] - x4) < 1e-7
        assert abs(x[4] - x5) < 1e-7

    def test_no_zm_pure_closed_form(self):
        sys = zoo("no_zm_pure")
        u = PiecewisePolyControl.piecewise_constant(
            (0, Fraction(1, 4), Fraction(1, 2)), (1, Fraction(-1, 2)))
        x = integrate(sys, u, 2e-4).final_state
        u1, u2e = primitive(u, 1), primitive(u, 2).end_value()
        q_half = u1.power(2).integral() / 2
        x2 = float(u2e + q_half)
        x3 = float(-u2e ** 2 / 2 - u2e * q_half
                   + (primitive(u, 2) * u1.power(2)).integral() / 2)
        assert abs(x[1] - x2) < 1e-7
        assert abs(x[2] - x3) < 1e-7

    def test_x22_x1k_closed_form(self):
        for k in (3, 4, 5):
            sys = zoo("x22_x1k", k=k)
            u = PiecewisePolyControl.piecewise_constant(
                (0, Fraction(1, 4), Fraction(1, 2)), (1, Fraction(-1, 2)))
            x = integrate(sys, u, 2e-4).final_state
            u1 = primitive(u, 1)
            x3 = float(primitive(u, 2).power(2).integral()
                       - u1.power(k).integral())
            assert abs(x[2] - x3) < 1e-7, k

    def test_rk4_order(self):
        # successive-halving differences estimate the error decay directly
        u = PiecewisePolyControl((0, Fraction(1, 2)), (Poly((1, -2, 1)),))
        states = [integrate(EASY, u, h).final_state
                  for h in (8e-3, 4e-3, 2e-3, 1e-3)]
        diffs = [np.linalg.norm(a - b) for a, b in zip(states, states[1:])]
        orders = [math.log(diffs[i] / diffs[i + 1]) / math.log(2)
                  for i in range(len(diffs) - 1)]
        assert min(orders) >= 3.7

    def test_blow_up_guard(self):
        from lietool.fields import PolyVectorField, SystemDef
        from lietool.polynomials import SparsePoly
        runaway = SystemDef(
            dim=1,
            f0=PolyVectorField(1, [SparsePoly(1, {(2,): Fraction(10)})]),
            f1=PolyVectorField.constant(1, (1,)), name="runaway")
        with pytest.raises(BlowUpError):
            integrate(runaway, PiecewisePolyControl.constant(50, 10), 1e-2)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            integrate(EASY, PiecewisePolyControl.constant(1, 1), 0.0)


class TestZmState:
    def test_first_order_captures_linear_chain(self):
        u = PiecewisePolyControl.constant(1, Fraction(1, 10))
        z = zm_state(EASY, u, 1, 4)
        u1 = primitive(u, 1).end_value()
        u2 = primitive(u, 2).end_value()
        assert np.allclose(z.value, [float(u1), float(u2), 0.0], atol=1e-12)

    def test_zero_control(self):
        u = PiecewisePolyControl.constant(0, Fraction(1, 10))
        assert np.all(zm_state(EASY, u, 2, 5).value == 0)

    def test_sampled_control_refinement(self):
        grid = np.linspace(0, 0.1, 65)
        u = SampledControl(0.1, 0.5 * np.sin(40 * grid))
        z = zm_state(EASY, u, 1, 4)
        assert z.refinement_pieces > 8
        assert np.isfinite(z.value).all()

    def test_parameter_validation(self):
        u = PiecewisePolyControl.constant(1, 1)
        with pytest.raises(ValueError):
            zm_state(EASY, u, 0, 4)
        with pytest.raises(ValueError):
            zm_state(EASY, u, 3, 2)


class TestResidualScaling:
    def test_easy_slopes(self):
        base = skew_pc(Fraction(1, 5), Fraction(1, 10))
        assert residual_scaling_slope(EASY, base, 1, length_cutoff=5) >= 1.8
        assert residual_scaling_slope(EASY, base, 2, length_cutoff=6) >= 2.8


class TestPureCounterexample:
    def test_zero_control(self):
        u = PiecewisePolyControl.constant(0, 1)
        report = pure_counterexample_check(u)
        assert report.passed and report.quartic_value == 0

    def test_oscillating_identity(self):
        report = pure_counterexample_check(sym_pc(Fraction(1, 5), 1))
        assert report.passed
        assert report.residual <= 1e-7
        assert report.quartic_value > 0

    def test_quartic_scaling_slope(self):
        base = sym_pc(Fraction(1, 5), 1)
        values = []
        for lam in (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            rep = pure_counterexample_check(base.scale(lam))
            values.append(rep.discrepancy[2])
        slopes = [math.log(values[i] / values[i + 1]) / math.log(2)
                  for i in range(3)]
        assert all(abs(s - 4) <= 0.1 for s in slopes)

    def test_precondition_enforced(self):
        u = PiecewisePolyControl.constant(1, 1)   # u2(1) = 1/2 != 0
        with pytest.raises(ValueError):
            pure_counterexample_check(u)


class TestDriftScan:
    def test_easy_square_bracket_scan_passes(self):
        report = drift_scan(EASY, "W(1,0)", family_s1(), trials=40, seed=3)
        assert report.passed
        assert report.min_margin >= 0

    def test_zero_control_margin_is_zero(self):
        report = drift_scan(EASY, "W(1,0)", family_s1(), trials=1, seed=0)
        u = PiecewisePolyControl.constant(0, Fraction(1, 10))
        from lietool.coord import xi
        from lietool.trees import parse_tree
        x = integrate(EASY, u, 1e-3).final_state
        comp = np.array([float(c) for c in report.component])
        margin = comp @ x - 0.9 * float(xi(parse_tree("W(1,0)"), u).exact)
        assert abs(margin) < 1e-14

    def test_quartic_system_scan_passes(self):
        report = drift_scan(zoo("w2_vs_q111"), "W(2,0)", family_n2(),
                            trials=40, seed=5)
        assert report.passed

    def test_scan_refused_when_satisfied(self):
        with pytest.raises(MembershipHoldsError):
            drift_scan(zoo("jakubczyk"), "W(2,0)", family_n2(),
                       trials=5, seed=1)

    def test_deterministic_given_seed(self):
        a = drift_scan(EASY, "W(1,0)", family_s1(), trials=10, seed=42)
        b = drift_scan(EASY, "W(1,0)", family_s1(), trials=10, seed=42)
        assert a.margins == b.margins

    def test_runs_without_starting_a_thread(self, monkeypatch):
        def refuse(self):
            raise RuntimeError("drift_scan started a thread")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        report = drift_scan(EASY, "W(1,0)", family_s1(), trials=5, seed=7)
        assert len(report.margins) == len(report.weak_margins) == 5
