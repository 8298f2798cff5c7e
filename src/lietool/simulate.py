"""Floating-point integration and the numerical verification layer.

* :func:`integrate` - classical fixed-step fourth-order Runge-Kutta, with
  steps aligned to the control's breakpoints so every step sees a smooth
  right-hand side; the state is a list of Python floats, and each step is
  the system's one generated straight-line function
  (:attr:`~lietool.fields.SystemDef.rk4_step`);
* :func:`zm_state` - the truncated bracket expansion of the state
  sum_b eta_b(t,u) f_b(0), an approximate representation whose residual
  shrinks like the (M+1)-th power of the control size; eta comes from
  Sussmann's product, exact on piecewise-polynomial controls and with a
  half-grid error estimate on sampled ones;
* :func:`pure_counterexample_check` - reproduces, on the catalog system
  ``no_zm_pure``, the exact quartic discrepancy that appears when the
  expansion uses the plain second-kind coordinates instead of eta;
* :func:`drift_scan` - empirical verification of one-sided drift
  inequalities P x(t;u) >= (1-eps) xi_b(t,u) - C |x|^beta over a seeded
  family of controls.  Its trials are stepped in lockstep on (trials,)
  arrays by the same generated RK4 step, each on `integrate`'s schedule,
  so every final state equals the sequential one bit for bit.  The trials
  run longest first, so the ones still running are always a prefix of the
  arrays and each step works on views of it.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import trees
from .conditions import Caps, FamilySpec, component_functional
from .controls import (ControlSignal, PiecewisePolyControl, Poly, horner,
                       primitive)
from .coord import xi
from .expansions import eta_by_product
from .fields import SystemDef, eval_bracket
from .hall import HallElement, basis_up_to_length
from .zoo import zoo

BLOWUP_GUARD = 1.0e6


class BlowUpError(RuntimeError):
    def __init__(self, time_reached: float, norm: float):
        super().__init__(
            f"state norm {norm:.3g} exceeded the blow-up guard "
            f"{BLOWUP_GUARD:.1e} at t = {time_reached:.6g}")
        self.time_reached = time_reached
        self.norm = norm


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # shape (len(times), d)
    step: float

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _check_step(step: float) -> None:
    """Refuse an integration step that is not finite and > 0."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")


def _substeps(left: float, right: float, step: float) -> tuple[int, float]:
    """The number of RK4 steps on [left, right] and their common size."""
    n = max(1, math.ceil((right - left) / step - 1e-12))
    return n, (right - left) / n


def _within_guard(x: list):
    """|x| <= BLOWUP_GUARD, False for a non-finite x (per trial on arrays)."""
    return sum(v * v for v in x) <= BLOWUP_GUARD ** 2


def integrate(sys: SystemDef, u: ControlSignal, step: float) -> Trajectory:
    """Fixed-step RK4 from x(0) = 0, sub-stepping each control piece.

    Within one piece the control is evaluated through that piece's own
    polynomial, so stage values at piece boundaries never leak across a
    discontinuity.  A constant piece c is passed to the step as it is:
    horner((c,), s) = 0.0*s + c is c at every stage time s >= 0.  The state
    is a list of Python floats.
    """
    _check_step(step)
    if isinstance(u, PiecewisePolyControl):
        segments = [(left, right, coeffs[0] if coeffs else 0.0, None)
                    if len(coeffs) <= 1 else
                    (left, right, None,
                     lambda t, c=coeffs, l=left: horner(c, t - l))
                    for left, right, coeffs in u.float_pieces()]
    else:
        segments = [(0.0, u.horizon, None, u.eval)]

    rk4 = sys.rk4_step
    x = [0.0] * sys.dim
    times = [0.0]
    states = [x]
    for left, right, value, control_at in segments:
        n, h = _substeps(left, right, step)
        u0 = um = u1 = value
        for i in range(n):
            t0 = left + i * h
            t = t0 + h
            if control_at is not None:
                u0, um, u1 = (control_at(t0), control_at(t0 + h / 2),
                              control_at(t))
            try:
                x = rk4(u0, um, u1, x, h, pow)
            except OverflowError:       # a float power past the float range
                raise BlowUpError(t, math.inf) from None
            if not _within_guard(x):
                raise BlowUpError(t, float(np.linalg.norm(x)))
            times.append(t)
            states.append(x)
    return Trajectory(times=np.array(times), states=np.array(states), step=step)


def _final_states(sys: SystemDef, controls: Sequence[PiecewisePolyControl],
                  step: float) -> np.ndarray:
    """`integrate(sys, u, step).final_state` for each u, as the rows of one
    array, with every trial stepped in lockstep on (trials,) arrays.

    The trials are ordered longest first (a stable sort on their step
    counts), so the ones still running at step s are a prefix and each
    step works on views of it.  Each trial keeps `integrate`'s schedule in
    per-trial vectors (piece left end, step size, first step, coefficients)
    that a list of piece starts updates as the steps reach them.  When every
    piece of every trial is constant, as in the drift-scan family, the
    coefficient row is each trial's control value at every stage (see
    `integrate`) and no stage time is computed.  A trial that trips the
    blow-up guard is frozen at 0; after the loop the one of lowest input
    index raises `BlowUpError` with its own time and norm, as the
    sequential loop would.
    """
    rk4, trials = sys.rk4_step, len(controls)
    schedules = [[(left, *_substeps(left, right, step), coeffs)
                  for left, right, coeffs in u.float_pieces()]
                 for u in controls]
    steps = [sum(n for _, n, _, _ in schedule) for schedule in schedules]
    order = sorted(range(trials), key=lambda r: -steps[r])
    terms = max(1, max((len(c) for s in schedules for *_, c in s), default=0))
    starts: dict[int, list] = {}        # step -> the pieces starting there
    for row, r in enumerate(order):
        at = 0
        for left, n, h, coeffs in schedules[r]:
            starts.setdefault(at, []).append(
                (row, left, h, coeffs + (0.0,) * (terms - len(coeffs))))
            at += n

    left, h = np.zeros(trials), np.zeros(trials)
    first = np.zeros(trials, dtype=np.intp)
    coeffs = np.zeros((terms, trials))
    blown = None
    blow_ups: dict[int, tuple[float, float]] = {}
    x = [np.zeros(trials) for _ in range(sys.dim)]
    m = trials
    for s in range(steps[order[0]] if trials else 0):
        while steps[order[m - 1]] <= s:
            m -= 1
        if s in starts:
            rows, ls, hs, cs = map(np.array, zip(*starts[s]))
            left[rows], h[rows], first[rows] = ls, hs, s
            coeffs[:, rows] = cs.T
        hc, cc, xs = h[:m], coeffs[:, :m], [v[:m] for v in x]
        if terms == 1:
            new = rk4(cc[0], cc[0], cc[0], xs, hc, np.float_power)
        else:
            lc = left[:m]
            t0 = lc + (s - first[:m]) * hc
            new = rk4(horner(cc, t0 - lc), horner(cc, t0 + hc / 2 - lc),
                      horner(cc, t0 + hc - lc), xs, hc, np.float_power)
        if blown is not None:           # frozen trials hold 0
            new = [np.where(blown[:m], 0.0, v) for v in new]
        tripped = ~_within_guard(new)
        if tripped.any():
            for r in np.flatnonzero(tripped):
                blow_ups[order[r]] = (
                    float(left[r] + (s - first[r]) * h[r] + h[r]),
                    float(np.linalg.norm([v[r] for v in new])))
                for v in new:           # its later steps must not overflow
                    v[r] = 0.0
            if blown is None:
                blown = np.zeros(trials, dtype=bool)
            blown[:m] |= tripped
        for v, w in zip(x, new):
            v[:m] = w
    if blow_ups:
        raise BlowUpError(*blow_ups[min(blow_ups)])
    out = np.empty((trials, sys.dim))
    out[order] = np.stack(x, axis=1)
    return out


# ---------------------------------------------------------------------------
# truncated bracket expansion of the state

def _float_bracket_values(sys: SystemDef, max_length: int,
                          max_n1: int) -> dict[HallElement, np.ndarray]:
    """Nonzero f_b(0) as floats, in basis order, for the Hall elements
    b != X0 with |b| <= max_length and n1(b) <= max_n1."""
    values = {}
    for element in basis_up_to_length(max_length):
        if element.tree is trees.X0 or element.n1 > max_n1:
            continue
        v = eval_bracket(sys, element.tree)
        if any(v):
            values[element] = np.array([float(c) for c in v])
    return values


@dataclass
class ZmResult:
    value: np.ndarray
    order: int
    length_cutoff: int
    tail_estimate: float
    error_estimate: float


def zm_state(sys: SystemDef, u: ControlSignal, M: int,
             length_cutoff: int = 6) -> ZmResult:
    """sum over basis elements b with n1(b) <= M, |b| <= length_cutoff of
    eta_b(t,u) f_b(0).

    eta comes from Sussmann's product (`eta_by_product`), exact on a
    piecewise-polynomial control, where `error_estimate` is 0.0.  On a
    sampled control the value is the fine grid's and `error_estimate` is
    its distance to the half grid's, as for `xi`.  The tail estimate
    reports the contribution of the outermost length layer (the summands
    decay factorially in the length).
    """
    if M < 1 or length_cutoff < M:
        raise ValueError("need 1 <= M <= length_cutoff")
    values = _float_bracket_values(sys, length_cutoff, M)

    def run(v: ControlSignal) -> tuple[np.ndarray, float]:
        eta = eta_by_product(v, length_cutoff, M)
        total = np.zeros(sys.dim)
        tail = 0.0
        for element, vec in values.items():
            term = float(eta[element]) * vec
            total = total + term
            if element.length == length_cutoff:
                tail += float(np.linalg.norm(term))
        return total, tail

    value, tail = run(u)
    error = 0.0
    if not isinstance(u, PiecewisePolyControl):
        error = float(np.linalg.norm(value - run(u.coarsened())[0]))
    return ZmResult(value=value, order=M, length_cutoff=length_cutoff,
                    tail_estimate=tail, error_estimate=error)


# ---------------------------------------------------------------------------
# the quartic cross-term discrepancy

@dataclass
class PureCounterexampleReport:
    discrepancy: np.ndarray
    predicted: np.ndarray
    residual: float
    quartic_value: float
    correction: float
    passed: bool

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"pure-expansion discrepancy check: {status} "
                f"(|residual| = {self.residual:.3g}, quartic term = "
                f"{self.quartic_value:.3g})")


def _steer_second_state(u: PiecewisePolyControl) -> tuple[PiecewisePolyControl, float]:
    """Perturb u by c*g so the second state of ``no_zm_pure`` vanishes at t.

    g is a fixed early bump with unit double primitive, and the defect
    x2(t) = u2(t) + (1/2) int u1^2 of u + c*g is exactly a c^2 + b c + k:
    a = (1/2) int g1^2, b = 1 + int u1 g1 and k the defect of u.  c is its
    real root nearest 0, found by the cancellation-free quadratic formula
    and cut to a denominator <= 10^12; the returned defect is exact at that
    c.  The identity below is insensitive to the leftover defect delta (its
    error is exactly delta^2 / 2).  Raises ValueError when no real c exists.
    """
    t = u.horizon
    # g = triangle bump on [0, t/2] scaled so that g2(t) = 1
    half = t / 2
    g = PiecewisePolyControl(
        (0, half / 2, half, t),
        (Poly((0, 1)), Poly((half / 2, -1)), Poly(())),
    )
    g = g.scale(1 / primitive(g, 2).end_value())
    u1, g1 = u.antiderivative(), g.antiderivative()
    a = g1.power(2).integral() / 2
    b = 1 + (u1 * g1).integral()
    k = u1.antiderivative().end_value() + u1.power(2).integral() / 2
    disc = b * b - 4 * a * k
    if disc < 0:
        raise ValueError(
            "no correction c*g zeroes the second state of no_zm_pure: the "
            f"defect {float(a):.6g} c^2 + {float(b):.6g} c + {float(k):.6g} "
            "has no real root")
    q = -(float(b) + math.copysign(math.sqrt(disc), b)) / 2
    c = Fraction(float(k) / q if q else 0.0).limit_denominator(10 ** 12)
    return u + g.scale(c), float(a * c * c + b * c + k)


def pure_counterexample_check(u: PiecewisePolyControl,
                              step: float = 1e-3) -> PureCounterexampleReport:
    """Check x(t;u) - Z4_pure(0) = (1/8) (int u1^2)^2 e3 on ``no_zm_pure``.

    Requires u2(t) = 0 for the input control.  The identity itself holds on
    the closed loop x2(t) = 0, which the checker reaches by a small internal
    state-feedback correction (quadratic in the control size); the reported
    quantities refer to the corrected control, and the check passes at a
    residual <= 1e-7.  Raises ValueError when no correction exists.
    """
    if not isinstance(u, PiecewisePolyControl):
        raise TypeError("needs an exact piecewise-polynomial control")
    if primitive(u, 2).end_value() != 0:
        raise ValueError("precondition violated: u2(t) must vanish")
    sys = zoo("no_zm_pure")
    steered, residual_defect = _steer_second_state(u)

    x = integrate(sys, steered, step).final_state
    u1 = steered.antiderivative()
    pure = np.zeros(3)
    for element, vec in _float_bracket_values(sys, 6, 4).items():
        pure = pure + float(xi(element, steered).exact) * vec
    discrepancy = x - pure
    quartic = float(u1.power(2).integral()) ** 2 / 8
    predicted = np.array([0.0, 0.0, quartic])
    residual = float(np.linalg.norm(discrepancy - predicted))
    return PureCounterexampleReport(
        discrepancy=discrepancy, predicted=predicted, residual=residual,
        quartic_value=quartic, correction=residual_defect,
        passed=residual <= 1e-7)


# ---------------------------------------------------------------------------
# drift scans

@dataclass
class DriftScanReport:
    system: str
    bracket: str
    family: str
    eps: float
    C: float
    beta: float
    seed: int
    trials: int
    rho: float
    t_max: float
    component: tuple
    zero_trials: int = 0        # identically zero controls (margin 0)
    margins: list[float] = field(default_factory=list)
    weak_margins: list[float] = field(default_factory=list)
    min_margin: float = math.inf
    min_weak_margin: float = math.inf
    passed: bool = False
    weak_passed: bool = False
    note: str = ""

    def finalize(self) -> None:
        self.min_margin = min(self.margins) if self.margins else math.inf
        self.min_weak_margin = (min(self.weak_margins)
                                if self.weak_margins else math.inf)
        self.passed = self.min_margin >= 0
        self.weak_passed = self.min_weak_margin >= 0

    def to_json_dict(self) -> dict:
        return {
            "system": self.system, "bracket": self.bracket,
            "family": self.family, "eps": self.eps, "C": self.C,
            "beta": self.beta, "seed": self.seed, "trials": self.trials,
            "zero_trials": self.zero_trials,
            "rho": self.rho, "t_max": self.t_max,
            "component": [str(c) for c in self.component],
            "min_margin": self.min_margin,
            "min_weak_margin": self.min_weak_margin,
            "passed": self.passed, "weak_passed": self.weak_passed,
            "note": self.note,
        }

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        suffix = f"; {self.note}" if self.note else ""
        return (f"drift scan {self.bracket} vs {self.family} on "
                f"{self.system}: {status} (min margin {self.min_margin:.3g}, "
                f"weak {self.min_weak_margin:.3g}, seed {self.seed}{suffix})")


def worker_count() -> int:
    """Pool size of the benchmark's traced drift-scan replay (`bench/`).

    Only the benchmark reads it; `drift_scan` steps its trials in lockstep in
    the calling thread.
    """
    env = os.environ.get("LIETOOL_THREADS")
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def _family_rational(name: str, value: float) -> Fraction:
    """value as the family's rational of denominator <= 1000, refused
    unless finite and > 0."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    rational = Fraction(value).limit_denominator(1000)
    if rational <= 0:
        raise ValueError(f"{name} = {value!r} is {rational} as a fraction of "
                         f"denominator <= 1000; it must be > 0")
    return rational


def random_control_family(seed: int, trials: int, rho: float, t_max: float,
                          ) -> list[PiecewisePolyControl]:
    """Seeded piecewise-constant controls plus adversarial bang-bang ones.

    The amplitude rho and the horizon t_max are read as rationals of
    denominator <= 1000 and must be > 0 there: a zero amplitude would make
    every control zero and the scan pass vacuously.
    """
    horizon = _family_rational("t_max", t_max)
    amp = _family_rational("rho", rho)
    rng = random.Random(seed)
    out = []
    denominator = 64
    for i in range(trials):
        t = Fraction(rng.randint(max(1, denominator // 8), denominator),
                     denominator) * horizon
        bang = i % 5 == 4
        pieces = rng.randint(1, 6) if not bang else rng.randint(2, 8)
        cuts = sorted(rng.sample(range(1, 24), pieces - 1)) if pieces > 1 else []
        breakpoints = [Fraction(0)] + [t * c / 24 for c in cuts] + [t]
        if bang:
            start = rng.choice((1, -1))
            values = [amp * start * (-1) ** j for j in range(pieces)]
        else:
            values = [amp * Fraction(rng.randint(-8, 8), 8)
                      for _ in range(pieces)]
        out.append(PiecewisePolyControl.piecewise_constant(breakpoints, values))
    return out


def drift_scan(sys: SystemDef, bracket, fam: FamilySpec,
               eps: float = 0.1, C: float = 10.0, beta: float = 1.5,
               trials: int = 200, seed: int = 0, rho: float = 0.1,
               t_max: float = 0.1, step: float = 2e-4,
               caps: Caps | None = None) -> DriftScanReport:
    """Empirical margin scan of the drift inequality for one bad bracket.

    Refuses to run when the span condition is satisfied (no component
    functional exists, so there is nothing to scan), and refuses an empty
    scan (`trials < 1`), which would pass vacuously, non-finite eps, C or
    beta, and beta <= 0, where C |x|^beta does not vanish at small states
    (see `random_control_family` for rho and t_max).  All trials are
    integrated together (`_final_states`); identically zero controls, whose
    margins are 0, are counted in `zero_trials`.
    """
    if trials < 1:
        raise ValueError(f"a drift scan needs trials >= 1, got {trials}")
    _check_step(step)
    for name, value in (("eps", eps), ("C", C), ("beta", beta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta!r}")
    controls = random_control_family(seed, trials, rho, t_max)
    tree = trees.parse_tree(bracket) if isinstance(bracket, str) else bracket
    if isinstance(tree, HallElement):
        tree = tree.tree
    component = component_functional(sys, tree, fam, caps)
    note = ""
    if tree == trees.W(3, 0) and fam.name == "N3":
        # the refined obstruction for this bracket holds along a
        # time-dependent functional; only the weak-variant margin is the
        # theoretically backed one for a fixed component
        note = "refined scan: rely on the weak-variant margin"
    report = DriftScanReport(
        system=sys.name, bracket=trees.display_form(tree),
        family=fam.name, eps=eps, C=C, beta=beta, seed=seed, trials=trials,
        rho=rho, t_max=t_max, component=component, note=note)
    comp = np.array([float(c) for c in component])
    report.zero_trials = sum(1 for u in controls if not any(u.pieces))
    for u, x in zip(controls, _final_states(sys, controls, step)):
        xi_val = float(xi(tree, u).exact)
        px = float(comp @ x)
        norm = float(np.linalg.norm(x))
        report.margins.append(px - (1 - eps) * xi_val + C * norm ** beta)
        report.weak_margins.append(px - (1 - eps) * xi_val + eps * norm)
    report.finalize()
    return report


def residual_scaling_slope(sys: SystemDef, u: PiecewisePolyControl, M: int,
                           lambdas: Sequence[float] = (1.0, 0.5, 0.25, 0.125),
                           length_cutoff: int = 6,
                           step: float = 5e-4) -> float:
    """Log-log slope of |x - Z_M(0)| under control scaling u -> lambda u.

    Needs at least two finite scales > 0, each unlike its neighbours, and a
    nonzero residual at each (a zero control has none), else no slope fits.
    """
    if len(lambdas) < 2:
        raise ValueError(f"a residual slope needs at least two scales, "
                         f"got {len(lambdas)}")
    for previous, lam in zip((None, *lambdas), lambdas):
        if not (math.isfinite(lam) and lam > 0) or lam == previous:
            raise ValueError(f"scales must be finite, > 0 and unlike their "
                             f"neighbours, got {lam!r}")
    residuals = []
    for lam in lambdas:
        scaled = u.scale(Fraction(lam).limit_denominator(10 ** 6))
        x = integrate(sys, scaled, step).final_state
        z = zm_state(sys, scaled, M, length_cutoff).value
        residual = float(np.linalg.norm(x - z))
        if residual == 0:
            raise ValueError(f"zero residual |x - Z_M(0)| at scale {lam}: "
                             f"no slope to fit")
        residuals.append(residual)
    slopes = []
    for i in range(len(lambdas) - 1):
        num = math.log(residuals[i] / residuals[i + 1])
        den = math.log(lambdas[i] / lambdas[i + 1])
        slopes.append(num / den)
    return min(slopes)
