import json
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import lietool
from lietool import simulate
from lietool.conditions import MembershipHoldsError, family_n2, family_s1
from lietool.controls import PiecewisePolyControl, Poly, SampledControl, primitive
from lietool.coord import xi
from lietool.expansions import eta_by_product, interaction_log
from lietool.fields import PolyVectorField, SystemDef
from lietool.polynomials import SparsePoly
from lietool.simulate import (BlowUpError, _final_states,
                              _float_bracket_values, drift_scan, integrate,
                              pure_counterexample_check,
                              random_control_family, residual_scaling_slope,
                              zm_state)
from lietool.trees import parse_tree
from lietool.zoo import zoo

EASY = zoo("easy")

# acceptance criterion 8's control
SCALING_BASE = PiecewisePolyControl.piecewise_constant(
    (0, Fraction(1, 60), Fraction(1, 30), Fraction(1, 15), Fraction(1, 10)),
    (Fraction(1, 5), Fraction(-1, 5), Fraction(-1, 20), Fraction(1, 20)))


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


RUNAWAY = SystemDef(
    dim=1, f0=PolyVectorField(1, [SparsePoly(1, {(2,): Fraction(10)})]),
    f1=PolyVectorField.constant(1, (1,)), name="runaway")


def reference_rk4(sys_def: SystemDef, u, step: float):
    """RK4 on numpy state arrays, converting every SparsePoly coefficient
    at every stage: the arithmetic the compiled float form must reproduce
    bit for bit."""
    def field_at(f, x):
        out = []
        for comp in f.components:
            total = 0.0
            for e, c in comp.terms.items():
                term = float(c)
                for v, k in zip(x, e):
                    if k:
                        term *= v ** k
                total += term
            out.append(total)
        return out

    if isinstance(u, PiecewisePolyControl):
        segments = [(float(u.breakpoints[i]), float(u.breakpoints[i + 1]),
                     lambda t, p=p, l=float(u.breakpoints[i]): p.eval(t - l))
                    for i, p in enumerate(u.pieces)]
    else:
        segments = [(0.0, u.horizon, u.eval)]
    times, states = [0.0], [np.zeros(sys_def.dim)]
    x = states[0]
    for left, right, control_at in segments:
        def rhs(t, y):
            uv = control_at(t)
            return np.array([a + uv * b for a, b in zip(
                field_at(sys_def.f0, y), field_at(sys_def.f1, y))])
        n = max(1, math.ceil((right - left) / step - 1e-12))
        h = (right - left) / n
        for i in range(n):
            t0 = left + i * h
            k1 = rhs(t0, x)
            k2 = rhs(t0 + h / 2, x + h / 2 * k1)
            k3 = rhs(t0 + h / 2, x + h / 2 * k2)
            k4 = rhs(t0 + h, x + h * k3)
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            times.append(t0 + h)
            states.append(x)
    return np.array(times), np.array(states)


REFERENCE_CONTROLS = {
    "piecewise_constant": PiecewisePolyControl.piecewise_constant(
        (0, Fraction(1, 30), Fraction(1, 10)), (Fraction(1, 2), -1)),
    "quadratic_pieces": PiecewisePolyControl(
        (0, Fraction(1, 7), Fraction(1, 5)),
        (Poly((1, -3, 2)), Poly((Fraction(-1, 3), 0, 5)))),
    "sampled": SampledControl(
        0.2, 0.5 * np.sin(40 * np.linspace(0, 0.2, 65))),
}


class TestIntegrate:
    @pytest.mark.parametrize("control", sorted(REFERENCE_CONTROLS))
    @pytest.mark.parametrize("system", ["easy", "w2_vs_q111", "jakubczyk"])
    def test_bit_identical_to_reference_rk4(self, system, control):
        sys_def, u = zoo(system), REFERENCE_CONTROLS[control]
        traj = integrate(sys_def, u, 1e-3)
        times, states = reference_rk4(sys_def, u, 1e-3)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.states.tobytes() == states.tobytes()

    def test_bit_identical_to_reference_rk4_on_random_controls(self, rng):
        """Seeded piecewise polynomials of degree 0-3: the constant pieces
        skip Horner, the others do not, and the reference runs Horner on
        every piece."""
        from conftest import random_poly_control
        degrees = set()
        for system in ("easy", "w2_vs_q111", "jakubczyk"):
            sys_def = zoo(system)
            for _ in range(4):
                u = random_poly_control(rng, Fraction(rng.randint(1, 8), 40),
                                        max_pieces=4, max_degree=3)
                degrees |= {len(c) for *_, c in u.float_pieces()}
                traj = integrate(sys_def, u, 1e-3)
                times, states = reference_rk4(sys_def, u, 1e-3)
                assert traj.times.tobytes() == times.tobytes()
                assert traj.states.tobytes() == states.tobytes()
        assert {1, 4} <= degrees        # constant and cubic pieces

    def test_constant_pieces_do_not_call_horner(self, monkeypatch):
        def refuse(coeffs, x):
            raise AssertionError("horner on a constant piece")

        controls = random_control_family(7, 20, 0.3, 0.2) + [
            PiecewisePolyControl.constant(0, Fraction(1, 20)),
            PiecewisePolyControl.piecewise_constant(
                (0, Fraction(1, 40), Fraction(1, 20)), (0, Fraction(1, 3)))]
        monkeypatch.setattr(simulate, "horner", refuse)
        states = _final_states(EASY, controls, 2e-3)
        for u, x in zip(controls, states):
            traj = integrate(EASY, u, 2e-3)
            assert x.tobytes() == traj.final_state.tobytes()
            assert traj.states.tobytes() \
                == reference_rk4(EASY, u, 2e-3)[1].tobytes()

    def test_sampled_grid_built_once_with_unchanged_states(self, monkeypatch):
        class FreshGrid(SampledControl):
            """Interpolates on a new linspace at every evaluation."""
            __slots__ = ()

            def eval(self, s):
                grid = np.linspace(0.0, self.horizon, self.values.size)
                return float(np.interp(s, grid, self.values))

        values = 0.5 * np.sin(40 * np.linspace(0, 0.2, 65))
        expected = integrate(EASY, FreshGrid(0.2, values), 1e-3)
        calls = []
        linspace = np.linspace
        monkeypatch.setattr(np, "linspace",
                            lambda *a, **k: calls.append(a) or linspace(*a, **k))
        traj = integrate(EASY, SampledControl(0.2, values), 1e-3)
        assert len(calls) == 1
        assert traj.states.tobytes() == expected.states.tobytes()
        assert traj.times.tobytes() == expected.times.tobytes()

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
        with pytest.raises(BlowUpError):
            integrate(RUNAWAY, PiecewisePolyControl.constant(50, 10), 1e-2)

    def test_float_overflow_is_a_blow_up(self):
        # x' = x^9 + u: one stage past the guard overflows a float power
        sys_def = SystemDef(
            dim=1, f0=PolyVectorField(1, [SparsePoly(1, {(9,): 1})]),
            f1=PolyVectorField.constant(1, (1,)), name="nonic")
        with pytest.raises(BlowUpError) as info:
            integrate(sys_def, PiecewisePolyControl.constant(900, 1), 0.1)
        assert info.value.norm == math.inf

    def test_step_validation(self):
        for step in (0.0, -0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="step must be finite and > 0"):
                integrate(EASY, PiecewisePolyControl.constant(1, 1), step)


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

    def test_converged_on_exact_piecewise_constant_input(self):
        u = skew_pc(Fraction(1, 5), Fraction(1, 10))
        assert zm_state(EASY, u, 2, 5).error_estimate == 0.0

    @pytest.mark.parametrize("M, cutoff", [(1, 5), (2, 6)])
    def test_criterion_8_controls_match_the_interaction_log(self, M, cutoff):
        # the word-space route, summed in zm_state's order, bit for bit
        values = _float_bracket_values(EASY, cutoff, M)
        for lam in (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            u = SCALING_BASE.scale(lam)
            eta = interaction_log(u, cutoff)
            want = np.zeros(EASY.dim)
            for element, vec in values.items():
                want = want + float(eta[element]) * vec
            assert zm_state(EASY, u, M, cutoff).value.tobytes() \
                == want.tobytes()

    def test_exact_on_a_smooth_control(self):
        # two quadratic pieces: eta is exact, so is the sum
        u = PiecewisePolyControl(
            (0, Fraction(1, 2), 1),
            (Poly((Fraction(1, 2), -3, 3)),
             Poly((Fraction(-1, 4), 1, Fraction(-2, 3)))))
        z = zm_state(EASY, u, 3, 6)
        eta = eta_by_product(u, 6, 3)
        assert all(isinstance(v, Fraction) for v in eta.values.values())
        assert z.error_estimate == 0.0
        assert z.value[0] == float(primitive(u, 1).end_value())
        assert z.value[1] == float(primitive(u, 2).end_value())

    @pytest.mark.parametrize("points", [65, 257])
    def test_sampled_error_estimate_bounds_the_error(self, points):
        smooth = PiecewisePolyControl((0, 1), (Poly((Fraction(1, 2), -3, 3)),))
        grid = np.linspace(0.0, 1.0, points)
        sampled = SampledControl(1.0, 0.5 - 3 * grid + 3 * grid ** 2)
        exact = zm_state(EASY, smooth, 3, 6).value
        z = zm_state(EASY, sampled, 3, 6)
        assert 0 < z.error_estimate < math.inf
        assert np.linalg.norm(z.value - exact) <= z.error_estimate

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

    def test_zero_control_is_refused(self):
        u = PiecewisePolyControl.constant(0, Fraction(1, 10))
        with pytest.raises(ValueError, match="zero residual"):
            residual_scaling_slope(EASY, u, 1, length_cutoff=4)

    def test_one_scale_is_refused(self):
        with pytest.raises(ValueError, match="at least two scales"):
            residual_scaling_slope(EASY, SCALING_BASE, 1, lambdas=(1.0,))

    @pytest.mark.parametrize("lambdas, named", [
        ((0.5, 0.5), "0.5"),
        ((0.5, -0.5), "-0.5"),
        ((1.0, 0.0), "0.0"),
        ((1.0, float("nan")), "nan"),
        ((float("inf"), 1.0), "inf"),
        ((1.0, 0.5, 0.5, 0.25), "0.5")])
    def test_bad_scales_are_refused_before_integrating(self, monkeypatch,
                                                       lambdas, named):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before the scales were checked")
        monkeypatch.setattr(simulate, "integrate", no_integration)
        with pytest.raises(ValueError, match="scales must be") as info:
            residual_scaling_slope(EASY, SCALING_BASE, 1, lambdas=lambdas)
        assert f"got {named}" in str(info.value)


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

    def test_no_real_correction_is_refused(self):
        # u2(1) = 0, but the steering defect 0.61 c^2 + 0.67 c + 0.67 has no
        # real root: no correction zeroes the second state
        u = PiecewisePolyControl.piecewise_constant(
            (0, Fraction(1, 4), Fraction(3, 4), 1), (8, -8, 8))
        assert primitive(u, 2).end_value() == 0
        with pytest.raises(ValueError, match="no real root"):
            pure_counterexample_check(u)

    def test_steering_zeroes_the_second_state(self):
        for lam in (1, 5, Fraction(1, 8)):
            u = sym_pc(Fraction(1, 5), 1).scale(lam)
            steered, defect = simulate._steer_second_state(u)
            u1 = steered.antiderivative()
            exact = u1.antiderivative().end_value() + u1.power(2).integral() / 2
            assert float(exact) == defect
            assert abs(defect) <= 1e-16


class TestDriftScan:
    def test_easy_square_bracket_scan_passes(self):
        report = drift_scan(EASY, "W(1,0)", family_s1(), trials=40, seed=3)
        assert report.passed
        assert report.min_margin >= 0

    def test_zero_control_margin_is_zero(self):
        report = drift_scan(EASY, "W(1,0)", family_s1(), trials=1, seed=0)
        u = PiecewisePolyControl.constant(0, Fraction(1, 10))
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

    @pytest.mark.parametrize("trials", [0, -1])
    def test_empty_scan_refused(self, trials):
        with pytest.raises(ValueError, match="trials >= 1"):
            drift_scan(EASY, "W(1,0)", family_s1(), trials=trials, seed=0)

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

    @pytest.mark.parametrize("system, bracket, family", [
        ("easy", "W(1,0)", family_s1), ("w2_vs_q111", "W(2,0)", family_n2)])
    def test_lockstep_margins_equal_sequential_ones(self, system, bracket,
                                                     family):
        sys_def, tree = zoo(system), parse_tree(bracket)
        params = dict(trials=40, seed=11, rho=0.3, t_max=0.2, step=1e-3)
        report = drift_scan(sys_def, tree, family(), **params)
        controls = random_control_family(11, 40, 0.3, 0.2)
        assert len({u.horizon for u in controls}) > 20
        comp = np.array([float(c) for c in report.component])
        margins = []
        for u in controls:
            x = integrate(sys_def, u, 1e-3).final_state
            px = float(comp @ x)
            margins.append(px - 0.9 * float(xi(tree, u).exact)
                           + 10.0 * float(np.linalg.norm(x)) ** 1.5)
        assert report.margins == margins

    def test_lockstep_states_equal_integrate_on_polynomial_pieces(self, rng):
        from conftest import random_poly_control
        controls = [random_poly_control(rng, Fraction(rng.randint(1, 8), 40),
                                        max_pieces=4, max_degree=3)
                    for _ in range(12)]
        controls.append(PiecewisePolyControl.constant(0, Fraction(1, 20)))
        # piecewise-constant and zero controls in the same batch
        controls += random_control_family(5, 10, 0.3, 0.2)
        for system in ("easy", "w2_vs_q111", "jakubczyk"):
            states = _final_states(zoo(system), controls, 2e-3)
            for u, x in zip(controls, states):
                expected = integrate(zoo(system), u, 2e-3).final_state
                assert x.tobytes() == expected.tobytes()

    def test_lowest_index_blow_up_is_reported(self):
        tame = PiecewisePolyControl.constant(Fraction(1, 10), Fraction(1, 2))
        controls = [tame] * 10
        controls[3] = PiecewisePolyControl.constant(50, 10)
        controls[7] = PiecewisePolyControl.constant(500, 10)   # blows first
        with pytest.raises(BlowUpError) as sequential:
            integrate(RUNAWAY, controls[3], 1e-2)
        with pytest.raises(BlowUpError) as lockstep:
            _final_states(RUNAWAY, controls, 1e-2)
        with pytest.raises(BlowUpError) as seventh:
            integrate(RUNAWAY, controls[7], 1e-2)
        assert seventh.value.time_reached < sequential.value.time_reached
        assert lockstep.value.time_reached == sequential.value.time_reached
        assert lockstep.value.norm == sequential.value.norm

    @pytest.mark.parametrize("name, value, message", [
        ("rho", 1e-4, "rho = 0.0001 is 0 "),
        ("rho", -0.1, "rho = -0.1 is -1/10 "),
        ("rho", math.inf, "rho must be finite"),
        ("rho", math.nan, "rho must be finite"),
        ("t_max", 1e-4, "t_max = 0.0001 is 0 "),
        ("t_max", 0.0, "t_max = 0.0 is 0 "),
        ("t_max", math.inf, "t_max must be finite"),
        ("eps", math.nan, "eps must be finite"),
        ("C", math.inf, "C must be finite"),
        ("beta", math.nan, "beta must be finite"),
        ("beta", 0.0, "beta must be > 0"),
        ("beta", -0.5, "beta must be > 0"),
        ("beta", -1.0, "beta must be > 0"),
    ])
    def test_degenerate_parameters_refused(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            drift_scan(EASY, "W(1,0)", family_s1(), trials=20, seed=0,
                       **{name: value})

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_step_validation(self, step):
        with pytest.raises(ValueError, match="step must be finite and > 0"):
            drift_scan(EASY, "W(1,0)", family_s1(), trials=2, step=step)

    def test_longest_first_order_keeps_each_trial_bit_identical(self):
        # step counts 15, 5, 25, 5, 10, 25, 20 at step 2e-3: distinct,
        # out of order and tied, so the stable sort permutes the trials
        pieces = (Fraction(1, 3), Fraction(-1, 2), Fraction(3, 4))
        controls = [PiecewisePolyControl(
            (0, Fraction(k, 1000), Fraction(k, 500), Fraction(k, 200)),
            (Poly((a,)), Poly((a, -2)), Poly((Fraction(1, 7), 0, a))))
            for k, a in zip((6, 2, 10, 2, 4, 10, 8), pieces * 3)]
        steps = [len(integrate(EASY, u, 2e-3).times) - 1 for u in controls]
        assert steps == [15, 5, 25, 5, 10, 25, 20]
        for system in ("easy", "jakubczyk"):
            states = _final_states(zoo(system), controls, 2e-3)
            for u, x in zip(controls, states):
                expected = integrate(zoo(system), u, 2e-3).final_state
                assert x.tobytes() == expected.tobytes()

    def test_blow_up_reported_for_the_lowest_input_index_after_sorting(self):
        tame = PiecewisePolyControl.constant(0, 10)     # x stays 0
        controls = [PiecewisePolyControl.constant(Fraction(1, 10),
                                                  Fraction(1, 2)),
                    tame,
                    PiecewisePolyControl.constant(50, 5),     # reported
                    PiecewisePolyControl.constant(500, 10),   # blows first
                    tame]
        # longest first the trials run as 1, 3, 4, 2, 0: the reported
        # trial moves from position 2 to 3, behind the one that blows first
        with pytest.raises(BlowUpError) as second:
            integrate(RUNAWAY, controls[2], 1e-2)
        with pytest.raises(BlowUpError) as third:
            integrate(RUNAWAY, controls[3], 1e-2)
        assert third.value.time_reached < second.value.time_reached
        with pytest.raises(BlowUpError) as lockstep:
            _final_states(RUNAWAY, controls, 1e-2)
        assert lockstep.value.time_reached == second.value.time_reached
        assert lockstep.value.norm == second.value.norm

    def test_zero_trials_counted(self):
        report = drift_scan(EASY, "W(1,0)", family_s1(), trials=200, seed=0)
        zero = [i for i, m in enumerate(report.margins) if m == 0]
        assert zero == [2, 16, 35, 93]
        assert report.zero_trials == 4
        assert report.to_json_dict()["zero_trials"] == 4

    def test_cli_json_is_byte_identical_across_runs(self):
        src = os.path.dirname(os.path.dirname(lietool.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "lietool.cli", "drift-scan",
                "--system", "zoo:easy", "--bracket", "W(1,0)", "--family",
                "s1", "--eps", "0.1", "--C", "10", "--beta", "1.5",
                "--trials", "200", "--seed", "0", "--json"]
        outputs = [subprocess.run(argv, capture_output=True, env=env,
                                  timeout=120, check=True).stdout
                   for _ in range(2)]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["zero_trials"] == 4
