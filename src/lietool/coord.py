"""Iterated-integral functionals of a control attached to Hall elements.

The coordinate of the second kind of a Hall element b is defined recursively:
xi_{X0}(t,u) = t, xi_{X1}(t,u) = u_1(t), and, factoring b = ad_{b1}^m(b2)
with m maximal,

    xi_b(t,u) = (1/m!) int_0^t xi_{b1}(s,u)^m  d xi_{b2}(s,u).

One recursion (`xi_path`, and `chen_coefficient_path` for word
coefficients, both memoized per control) serves both control types through
the operations they share.  For exact piecewise-polynomial controls every
xi_b(s, .) is itself an exact piecewise polynomial in s, so values are exact
rationals.  For sampled controls the antiderivative is the cumulative
trapezoid sum, and `xi` and `chen_coefficient` report the fine-grid value
with the fine-minus-coarse (half grid) difference as a Richardson error
estimate.

Closed forms exist for every element whose germ lies in the eight named
families (M, W, P, Q, Qs, Qf, R, Rs), as recognized by the structural matcher
`trees.match_named_family`; `xi_closed_form` evaluates them with the
combinatorial prefactors alpha/beta/gamma and is an independent path
cross-checked against the recursion in the tests.  Each call builds its own
primitives u_1, u_2, ... and iterated primitives of u_j^2, apart from the
recursion's paths.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import trees
from .controls import (ControlSignal, PiecewisePolyControl, primitive,
                       primitives)
from .hall import HallElement, hall_factor
from .trees import BracketTree, X0, X1
from .words import Word


@dataclass(frozen=True)
class XiValue:
    """Exact rational (piecewise-polynomial path) or float with error bar."""

    exact: Optional[Fraction] = None
    approx: Optional[float] = None
    error_estimate: Optional[float] = None

    def __float__(self) -> float:
        return float(self.exact) if self.exact is not None else self.approx

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"XiValue({self.exact})"
        return f"XiValue(~{self.approx:.6g} +- {self.error_estimate:.2g})"


def _as_tree(b) -> BracketTree:
    if isinstance(b, HallElement):
        return b.tree
    if isinstance(b, str):
        return trees.parse_tree(b)
    return b


def match_named_family(b) -> Optional[trees.FamilyPattern]:
    """`trees.match_named_family` on a Hall element, tree or tree text."""
    return trees.match_named_family(_as_tree(b))


# ---------------------------------------------------------------------------
# the recursion, for exact and sampled controls alike

# memo tables, keyed by tree (xi paths) or word tuple (Chen paths), die with
# their control: weak keys avoid stale-id collisions
_XI_CACHE: "weakref.WeakKeyDictionary[ControlSignal, dict]" = (
    weakref.WeakKeyDictionary())


def xi_path(b, u: ControlSignal) -> ControlSignal:
    """The function s -> xi_b(s, u) on [0, t]: exact, or on u's grid."""
    tree = _as_tree(b)
    cache = _XI_CACHE.setdefault(u, {})
    cached = cache.get(tree)
    if cached is not None:
        return cached
    return cache.setdefault(tree, _xi_derivative(tree, u).antiderivative())


def _xi_derivative(b: BracketTree, u: ControlSignal) -> ControlSignal:
    """d/ds xi_b(s, u) (a.e. for exact controls)."""
    if b is X0:
        return u.power(0)
    if b is X1:
        return u
    b1, m, b2 = hall_factor(b)
    integrand = xi_path(b1, u).power(m) * _xi_derivative(b2, u)
    return integrand if m == 1 else integrand.scale(
        Fraction(1, math.factorial(m)))


def _end_value(path_of, u: ControlSignal) -> XiValue:
    """The exact end value of path_of(u), or the float one on u's grid with
    its distance to the half grid's as the error estimate."""
    if isinstance(u, PiecewisePolyControl):
        return XiValue(exact=path_of(u).end_value())
    fine = path_of(u).end_value()
    coarse = path_of(u.coarsened()).end_value()
    return XiValue(approx=fine, error_estimate=abs(fine - coarse))


def xi(b, u: ControlSignal) -> XiValue:
    """xi_b(t, u): exact for piecewise-polynomial u, estimated for samples."""
    tree = _as_tree(b)
    return _end_value(lambda v: xi_path(tree, v), u)


# ---------------------------------------------------------------------------
# closed forms for the named families

def alpha_coeff(j: int, k: int) -> Fraction:
    return Fraction(1, 2) if j < k else Fraction(1, 6)


def beta_coeff(j: int, k: int, l: int) -> Fraction:
    if k < l:
        return alpha_coeff(j, k)
    if j < k == l:
        return Fraction(1, 4)
    return Fraction(1, 24)  # j == k == l


def gamma_coeff(j: int, k: int, l: int, m: int) -> Fraction:
    if l < m:
        return beta_coeff(j, k, l)
    if j == k == l == m:
        return Fraction(1, 120)
    if j < k < l == m:
        return Fraction(1, 4)
    return Fraction(1, 12)  # j < k == l == m or j == k < l == m


def xi_closed_form(b, u: PiecewisePolyControl) -> XiValue:
    """Closed-form xi for elements of the eight named families, exact."""
    if not isinstance(u, PiecewisePolyControl):
        raise TypeError("closed forms are evaluated on exact controls")
    pattern = match_named_family(b)
    if pattern is None:
        raise ValueError(f"{_as_tree(b).text} is outside the named families")
    fam, idx, nu = pattern.family, pattern.indices, pattern.nu
    # built per call, apart from _XI_CACHE, so the closed forms stay an
    # independent check of the recursion
    prim = primitives(u)

    def primitive_of_square(j: int, mu: int):
        """The (mu + 1)-th primitive of u_j^2."""
        return primitive(prim(j).power(2), mu + 1)

    if fam == "M":
        integrand = u
    elif fam == "W":
        (j,) = idx
        integrand = prim(j).power(2).scale(Fraction(1, 2))
    elif fam == "P":
        j, k = idx
        integrand = (prim(k) * prim(j).power(2)).scale(alpha_coeff(j, k))
    elif fam == "Q":
        j, k, l = idx
        integrand = (prim(l) * prim(k) * prim(j).power(2)).scale(
            beta_coeff(j, k, l))
    elif fam == "Qf":
        j, mu = idx
        inner = primitive_of_square(j, mu)
        integrand = inner.power(2).scale(Fraction(1, 8))
    elif fam == "Qs":
        j, mu, k = idx
        inner = primitive_of_square(j, mu)
        integrand = (inner * prim(k).power(2)).scale(Fraction(1, 4))
    elif fam == "R":
        j, k, l, m = idx
        integrand = (prim(m) * prim(l) * prim(k) * prim(j).power(2)).scale(
            gamma_coeff(j, k, l, m))
    elif fam == "Rs":
        j, k, l, mu = idx
        inner = primitive_of_square(l, mu)
        integrand = (inner * prim(k) * prim(j).power(2)).scale(
            alpha_coeff(j, k) / 2)
    else:
        raise AssertionError(fam)
    return XiValue(exact=integrand.kernel_integral(nu))


# ---------------------------------------------------------------------------
# Chen coefficients

def chen_coefficient_path(word: Word, u: ControlSignal) -> ControlSignal:
    """s -> coefficient of `word` in the word-series state at time s.

    Convention: the LAST letter of the word is the outermost integral, so the
    path is the antiderivative of the prefix's path times that letter; every
    prefix is memoized with the xi paths of the same control.
    """
    word = tuple(word)
    cache = _XI_CACHE.setdefault(u, {})
    cached = cache.get(word)
    if cached is not None:
        return cached
    if not word:
        return cache.setdefault(word, u.power(0))
    letter = u if word[-1] else u.power(0)
    path = (chen_coefficient_path(word[:-1], u) * letter).antiderivative()
    return cache.setdefault(word, path)


def chen_coefficient(word: Word, u: ControlSignal) -> XiValue:
    return _end_value(lambda v: chen_coefficient_path(word, v), u)


# ---------------------------------------------------------------------------
# constant-explicit inequality suite

def rough_bound_constant(k: int) -> Fraction:
    """The explicit chain c(1)=4, c(k) = 2^(k+2) c(k-1)."""
    c = Fraction(4)
    for i in range(2, k + 1):
        c *= 2 ** (i + 2)
    return c


@dataclass
class InequalityResult:
    name: str
    applicable: bool
    lhs: Optional[float]
    rhs: Optional[float]
    passed: Optional[bool]
    note: str = ""

    def line(self) -> str:
        if not self.applicable:
            return f"{self.name}: not applicable ({self.note})"
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status} (lhs={self.lhs:.6g} <= rhs={self.rhs:.6g})"


_REL_TOL = 1e-9
_ABS_TOL = 1e-12


def _leq(lhs: float, rhs: float) -> bool:
    return lhs <= rhs * (1 + _REL_TOL) + _ABS_TOL


def check_inequalities(u: PiecewisePolyControl) -> list[InequalityResult]:
    """Evaluate every constant-explicit inequality on one control.

    Returns one result per inequality with both side values; the inequality
    requiring u_1(t) = 0 is reported not-applicable when the precondition
    fails, and on the identically zero control, where both sides of every
    inequality are 0, all of them are reported not-applicable.
    """
    results: list[InequalityResult] = []
    t = float(u.horizon)
    prim = primitives(u)
    u1 = prim(1)
    u1_sup = u1.sup_norm()

    # interpolation: ||u1||_{2k+1}^{2k+1} <= ||u1||_inf ||u1||_{2k}^{2k}
    for k in (1, 2, 3):
        lhs = u1.abs_power_integral(2 * k + 1)
        rhs = u1_sup * float(u1.even_power_integral(2 * k))
        results.append(InequalityResult(
            f"odd-power interpolation k={k}", True, lhs, rhs, _leq(lhs, rhs)))

    # |xi_{P(1,1,1)}|^2 <= 2 t xi_D  (Cauchy-Schwarz, exact rationals)
    lhs_exact = xi(trees.parse_tree("P(1,1,1)"), u).exact ** 2
    rhs_exact = 2 * Fraction(u.horizon) * xi(trees.parse_tree("D"), u).exact
    results.append(InequalityResult(
        "squared-P(1,1,1) vs D", True, float(lhs_exact), float(rhs_exact),
        lhs_exact <= rhs_exact))

    # int |u1|^5 <= 3 ||u||_inf (int u1^2)^2, requires u1(t) = 0
    if u1.end_value() != 0:
        results.append(InequalityResult(
            "quintic vs squared-quadratic", False, None, None, None,
            note="requires u1(t) = 0"))
    else:
        lhs = u1.abs_power_integral(5)
        rhs = 3 * u.sup_norm() * float(u1.even_power_integral(2)) ** 2
        results.append(InequalityResult(
            "quintic vs squared-quadratic", True, lhs, rhs, _leq(lhs, rhs)))

    # ||u_j||_p <= t^(j-j0)/(j-j0)! ||u_j0||_p
    for j, j0, p in ((2, 1, 2.0), (3, 1, math.inf), (3, 2, 1.0)):
        lhs = prim(j).lp_norm(p)
        rhs = t ** (j - j0) / math.factorial(j - j0) * prim(j0).lp_norm(p)
        results.append(InequalityResult(
            f"primitive norm j={j} j0={j0} p={p}", True, lhs, rhs,
            _leq(lhs, rhs)))

    # rough bound |xi_b| <= (c(k) t)^|b| / |b|! t^-(1+k) ||u1||_k^k
    for text in ("M(2)", "W(1,0)", "W(2,1)", "P(1,1,0)"):
        tree = trees.parse_tree(text)
        k = tree.n1
        c = float(rough_bound_constant(k))
        lhs = abs(float(xi(tree, u).exact))
        norm_k = u1.abs_power_integral(k)
        rhs = ((c * t) ** tree.length / math.factorial(tree.length)
               * t ** (-(1 + k)) * norm_k)
        results.append(InequalityResult(
            f"rough bound {text}", True, lhs, rhs, _leq(lhs, rhs)))

    if not any(u.pieces):
        return [InequalityResult(r.name, False, None, None, None,
                                 note="zero control") for r in results]
    return results
