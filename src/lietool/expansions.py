"""Truncated state expansions and the coordinates of the pseudo-first kind.

Four exact views of the same word series at a degree cutoff (they are
word-space constructions):

* :func:`formal_state` - the state as an ordered product of piece
  exponentials exp(dt (X0 + u X1)) (the exact flow of the right-invariant
  formal ODE for piecewise-constant inputs), each built in closed form by
  :meth:`TensorSeries.piece_exponential`; piecewise-constant controls only;
* the letter-by-letter iterated-integral coefficients from
  :mod:`lietool.coord` (cross-checked in tests rather than recomputed here);
* :func:`ordered_product` - the infinite ordered product of Hall-element
  exponentials exp(xi_b E(b)), made finite by keeping |b| <= cutoff, factors
  decreasing from left to right (X0 leftmost, X1 rightmost); on every exact
  piecewise-polynomial control;
* :func:`interaction_log` - the logarithm after factoring exp(t X0) out on
  the left, whose coefficients on the Hall basis are the coordinates of the
  pseudo-first kind eta_b; built on :func:`formal_state`, so
  piecewise-constant controls only.

The products, exponentials and logarithms run on the dense degree-graded
series of :mod:`lietool.words`; exp(-t X0) is a piece exponential too, and a
logarithm reaches the Hall basis through its integer numerators, one
bidegree solve at a time (:func:`lietool.hall.decompose_lie_series`).

:func:`eta_by_product` reaches eta on every control without word series:
exp(-t X0) cancels the leftmost factor of Sussmann's product, and the
multivariate Campbell-Baker-Hausdorff-Dynkin expansion of the rest gives
eta_b = xi_b + sum_h F_{b,h} xi^h.  :func:`cross_coefficient_element`
extracts one universal coefficient element F as the x^h entry of
log(prod_i exp(x_i E(b_i))), computed as a series in the magnitudes x whose
entries are rational word series and whose exponents are cut at h;
:func:`cross_term_check` compares the two routes to eta.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .controls import ControlSignal, PiecewisePolyControl
from .coord import chen_coefficient, xi, xi_path
from .hall import (HallElement, InternalConsistencyError, LieElement,
                   basis_up_to_length, decompose_lie_series, decompose_series)
from .trees import X0, X1
from .words import TensorSeries, all_words, expand_to_words


@dataclass
class FormalState:
    """Truncated word series of the state with its provenance."""

    series: TensorSeries
    horizon: Fraction
    control: PiecewisePolyControl

    def coefficient(self, word):
        return self.series[word]


def _require_piecewise_constant(u: PiecewisePolyControl) -> None:
    if not isinstance(u, PiecewisePolyControl) or not u.is_piecewise_constant():
        raise ValueError("the formal layer needs a piecewise-constant control "
                         "with rational breakpoints and values")


def formal_state(u: PiecewisePolyControl, cutoff: int) -> FormalState:
    """Exact truncated solution of the formal ODE at the horizon."""
    _require_piecewise_constant(u)
    state = TensorSeries.unit(cutoff)
    for i, piece in enumerate(u.pieces):
        dt = u.breakpoints[i + 1] - u.breakpoints[i]
        state = state * TensorSeries.piece_exponential(
            cutoff, dt, piece.eval(Fraction(0)))
    return FormalState(series=state, horizon=u.horizon, control=u)


def ordered_product(u: PiecewisePolyControl, cutoff: int) -> TensorSeries:
    """Product of exp(xi_b E(b)) over Hall elements with |b| <= cutoff.

    Factors are ordered decreasing left to right (X0 leftmost, X1 rightmost);
    omitted factors only touch degrees beyond the cutoff, so the result is
    exactly the truncated state, on every exact piecewise-polynomial control.
    """
    if not isinstance(u, PiecewisePolyControl):
        raise TypeError("ordered_product needs an exact control")
    elements = basis_up_to_length(cutoff)
    out = TensorSeries.unit(cutoff)
    for element in sorted(elements, reverse=True):
        value = xi(element, u).exact
        if not value:
            continue
        factor = expand_to_words(element.tree, cutoff).scale(value)
        out = out * factor.exp()
    return out


@dataclass
class EtaTable:
    """Coordinates of the pseudo-first kind for |b| <= cutoff: exact
    rationals, or floats on a sampled control."""

    cutoff: int
    horizon: Fraction
    values: dict[HallElement, Fraction] = field(default_factory=dict)

    def __getitem__(self, element) -> Fraction:
        return self.values.get(HallElement.of(element), Fraction(0))


def interaction_log(u: PiecewisePolyControl, cutoff: int) -> EtaTable:
    """eta_b table from log(exp(-t X0) * state); exact, residual-checked.

    The X0-only components must cancel identically (eta_{X0} = 0); any
    surviving (0, q) word triggers an internal-consistency failure inside the
    bidegree decomposition.
    """
    state = formal_state(u, cutoff).series
    log_series = (TensorSeries.piece_exponential(cutoff, -u.horizon, 0)
                  * state).log()
    if any(log_series[(0,) * n] for n in range(1, cutoff + 1)):
        raise InternalConsistencyError(
            "factoring exp(t X0) left a pure-X0 term")
    return EtaTable(cutoff, u.horizon, decompose_lie_series(log_series).coeffs)


def magnus_log(u: PiecewisePolyControl, cutoff: int) -> EtaTable:
    """Coordinates of the first kind: log of the full state on the basis."""
    log_series = formal_state(u, cutoff).series.log()
    return EtaTable(cutoff, u.horizon, decompose_lie_series(log_series).coeffs)


# ---------------------------------------------------------------------------
# cross-term coefficient elements

_CROSS_CACHE: dict[tuple, LieElement] = {}


def _truncated_product(a: dict, b: dict, top: tuple) -> dict:
    """Product of two series in the magnitudes, {exponent: TensorSeries},
    keeping only the exponents <= top componentwise."""
    out: dict[tuple, TensorSeries] = {}
    for ma, sa in a.items():
        for mb, sb in b.items():
            m = tuple(i + j for i, j in zip(ma, mb))
            if all(e <= t for e, t in zip(m, top)):
                term = sa * sb
                out[m] = out[m] + term if m in out else term
    return out


def cross_coefficient_element(elements: Sequence[HallElement],
                              powers: Sequence[int]) -> LieElement:
    """Hall coefficients of the CBHD cross term for a factor pattern.

    For Hall elements b_1 > ... > b_q (that order) and multiplicities h,
    returns the Hall-basis expansion of the coefficient of
    x_1^{h_1} ... x_q^{h_q} in log(prod_i exp(x_i E(b_i))) with the product
    ordered decreasing left to right.

    The product and its logarithm are series in the magnitudes x with
    rational word series as coefficients, cut at the exponents <= h, so no
    monomial beyond the one asked for is ever formed.
    """
    key = tuple(zip(elements, powers))
    cached = _CROSS_CACHE.get(key)
    if cached is not None:
        return cached
    q = len(elements)
    target = tuple(powers)
    degree = sum(e.length * h for e, h in zip(elements, powers))
    constant = (0,) * q
    product = {constant: TensorSeries.unit(degree)}
    for i, (element, h) in enumerate(zip(elements, powers)):
        generator = expand_to_words(element.tree, degree)
        factor, power = {}, TensorSeries.unit(degree)
        for k in range(h + 1):                  # exp(x_i A_i), x_i^k <= x_i^h
            exponent = tuple(k if j == i else 0 for j in range(q))
            factor[exponent] = power.scale(Fraction(1, math.factorial(k)))
            power = power * generator
        product = _truncated_product(product, factor, target)
    # log(1 + x) = sum_k (-1)^{k+1} x^k / k; x^k has total exponent >= k
    x = {m: s for m, s in product.items() if m != constant}
    coefficient, power = TensorSeries.zero(degree), x
    for k in range(1, sum(powers) + 1):
        if target in power:
            coefficient = coefficient + power[target].scale(
                Fraction((-1) ** (k + 1), k))
        power = _truncated_product(power, x, target)
    result = LieElement()
    if coefficient:
        n1 = sum(e.n1 * h for e, h in zip(elements, powers))
        result = decompose_series(coefficient, n1, degree - n1)
    return _CROSS_CACHE.setdefault(key, result)


def _factor_patterns(target: HallElement, pool: Sequence[HallElement]):
    """All (b_1 > ... > b_q, h) with q >= 2 matching the target bidegree.

    `pool` holds the candidate factors, Hall elements other than X0, sorted
    descending; the factors that fit the target keep that order.
    """
    n1_t, n0_t = target.bidegree
    usable = [e for e in pool
              if e.n1 <= n1_t and e.n0 <= n0_t and e.length < target.length]

    def recurse(start: int, n1_left: int, n0_left: int, chosen):
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


def eta_by_product(u: ControlSignal, cutoff: int, max_n1: int) -> EtaTable:
    """eta_b for the Hall elements b != X0 with |b| <= cutoff and
    n1(b) <= max_n1, from Sussmann's product.

    eta_b = xi_b + sum over the factor patterns (b_1 > ... > b_q, h) of
    `cross_coefficient_element` at b times prod_i xi_{b_i}^{h_i}, on every
    control: exact on a piecewise-polynomial one, the fine-grid float values
    on a sampled one.  The factors of a pattern have n1 <= n1(b), so the
    restriction to n1 <= max_n1 loses nothing below it.
    """
    elements = [e for e in basis_up_to_length(cutoff)
                if e.tree is not X0 and e.n1 <= max_n1]
    xis = {e: xi_path(e.tree, u).end_value() for e in elements}
    pool = sorted(elements, reverse=True)
    table = EtaTable(cutoff=cutoff, horizon=u.horizon)
    for target in elements:
        total = xis[target]
        for pattern in _factor_patterns(target, pool):
            term = cross_coefficient_element(
                [e for e, _ in pattern],
                [h for _, h in pattern]).coeffs.get(target)
            if term:
                for e, h in pattern:
                    term *= xis[e] ** h
                total += term
        table.values[target] = total
    return table


@dataclass
class CrossTermReport:
    element: HallElement
    eta: Fraction
    xi: Fraction
    cross_sum: Fraction
    matched: bool

    def line(self) -> str:
        status = "ok" if self.matched else "MISMATCH"
        return (f"{self.element!r}: eta={self.eta} xi={self.xi} "
                f"cross={self.cross_sum} [{status}]")


def cross_term_check(u: PiecewisePolyControl, cutoff: int = 4) -> list[CrossTermReport]:
    """Compare eta_b from `interaction_log` with `eta_by_product`.

    Checked for every Hall element b != X0 with length <= cutoff; each
    report's cross sum is the product route's eta_b - xi_b.
    """
    eta = interaction_log(u, cutoff)
    reports = []
    for target, by_product in eta_by_product(u, cutoff, cutoff).values.items():
        eta_val, xi_val = eta[target], xi(target, u).exact
        reports.append(CrossTermReport(
            element=target, eta=eta_val, xi=xi_val,
            cross_sum=by_product - xi_val, matched=eta_val == by_product))
    return reports


def verify_expansions(degree: int, trials: int, seed: int = 0) -> list[tuple[str, bool]]:
    """Randomized identity checks between the four state views and the
    two routes to eta.

    Returns (identity name, passed) pairs; all exact comparisons.  Needs
    degree >= 1 and trials >= 1: anything less would check nothing.
    """
    if degree < 1:
        raise ValueError(f"verify_expansions needs degree >= 1, got {degree}")
    if trials < 1:
        raise ValueError(f"verify_expansions needs trials >= 1, got {trials}")
    rng = random.Random(seed)
    outcomes = {
        "formal_state == chen coefficients": True,
        "formal_state == ordered_product": True,
        "interaction_log: eta_X0 = 0, eta_X1 = u1(t)": True,
        "magnus_log: zeta_X0 = t, zeta_X1 = u1(t)": True,
        "interaction_log is a Lie series (zero residual)": True,
        "eta by product == interaction_log": True,
    }
    for _ in range(trials):
        pieces = rng.randint(1, 3)
        cuts = sorted(rng.sample(range(1, 12), pieces - 1))
        breakpoints = [Fraction(0)]
        breakpoints += [Fraction(c, 12) for c in cuts]
        breakpoints.append(Fraction(1))
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(pieces)]
        u = PiecewisePolyControl.piecewise_constant(breakpoints, values)
        state = formal_state(u, degree)
        if any(chen_coefficient(w, u).exact != state.coefficient(w)
               for w in all_words(degree)):
            outcomes["formal_state == chen coefficients"] = False
        if ordered_product(u, degree) != state.series:
            outcomes["formal_state == ordered_product"] = False
        try:
            eta = interaction_log(u, degree)
        except InternalConsistencyError:
            outcomes["interaction_log is a Lie series (zero residual)"] = False
            continue
        if any(eta[b] != value for b, value in
               eta_by_product(u, degree, degree).values.items()):
            outcomes["eta by product == interaction_log"] = False
        u1t = u.antiderivative().end_value()
        if eta[X0] != 0 or eta[X1] != u1t:
            outcomes["interaction_log: eta_X0 = 0, eta_X1 = u1(t)"] = False
        zeta = magnus_log(u, degree)
        if zeta[X0] != u.horizon or zeta[X1] != u1t:
            outcomes["magnus_log: zeta_X0 = t, zeta_X1 = u1(t)"] = False
    return list(outcomes.items())
