"""Catalog of benchmark control-affine systems with certified bracket values.

Each entry builds a :class:`~lietool.fields.SystemDef` whose metadata records
the nonzero values f_b(0) stated for it in the controllability literature
(exact rationals, keyed by canonical tree text), whether all other basis
brackets vanish at 0, and any subspace claims.  These tables are the ground
truth for the regression tests.

Parametric entries take keyword arguments (e.g. ``zoo("wk_prototype", k=2,
p=5)``); defaults are chosen to match the classical instances.
"""

from __future__ import annotations

import inspect
from fractions import Fraction
from typing import Callable

from . import trees
from .fields import PolyVectorField, SystemDef
from .polynomials import SparsePoly


def _mono(d: int, coeff, *powers: tuple[int, int]) -> SparsePoly:
    """Monomial helper: powers are (variable index 1-based, exponent)."""
    e = [0] * d
    for var, k in powers:
        e[var - 1] += k
    return SparsePoly.monomial(tuple(e), coeff)


def _field(d: int, component_terms: dict[int, list[SparsePoly]]) -> PolyVectorField:
    comps = []
    for i in range(1, d + 1):
        acc = SparsePoly(d)
        for term in component_terms.get(i, []):
            acc = acc + term
        comps.append(acc)
    return PolyVectorField(d, comps)


def _e(d: int, i: int, c=1) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) if j == i else Fraction(0) for j in range(1, d + 1))


def _chain_terms(d: int, first: int, last: int) -> dict[int, list[SparsePoly]]:
    """Integrator chain xdot_i = x_{i-1} for i in [first, last]."""
    return {i: [_mono(d, 1, (i - 1, 1))] for i in range(first, last + 1)}


def _e1_input(d: int) -> PolyVectorField:
    return PolyVectorField.constant(d, _e(d, 1))


def _easy() -> SystemDef:
    d = 3
    f0 = _field(d, {
        2: [_mono(d, 1, (1, 1))],
        3: [_mono(d, 1, (1, 2)), _mono(d, -1, (2, 2)),
            _mono(d, -1, (1, 3)), _mono(d, -4, (1, 1), (2, 1))],
    })
    return SystemDef(
        dim=d, f0=f0, f1=_e1_input(d), name="easy",
        expected_values={
            "X1": _e(d, 1), "M(1)": _e(d, 2),
            "W(1,0)": _e(d, 3, 2), "W(2,0)": _e(d, 3, -2),
            "P(1,1,0)": _e(d, 3, -6),
        },
        zero_elsewhere=True,
        notes="integrator chain with competing quadratic and cubic outputs; "
              "fails the order-2 span condition",
    )


def _no_zm_pure() -> SystemDef:
    d = 3
    f0 = _field(d, {
        2: [_mono(d, 1, (1, 1)), _mono(d, Fraction(1, 2), (1, 2))],
        3: [_mono(d, -1, (1, 1), (2, 1))],
    })
    return SystemDef(
        dim=d, f0=f0, f1=_e1_input(d), name="no_zm_pure",
        expected_values={
            "X1": _e(d, 1), "M(1)": _e(d, 2), "W(1,0)": _e(d, 2),
            "P(1,2,0)": _e(d, 3),
        },
        zero_elsewhere=True, zero_elsewhere_max_n1=4,
        notes="state expansion with plain second-kind coordinates misses a "
              "quartic cross term on this system",
    )


def _wk_prototype(k: int = 2, p: int = 5,
                  lam: Fraction = Fraction(1)) -> SystemDef:
    if k < 1 or p < 2 or (k == 1 and p == 2):
        raise ValueError("need k >= 1 and p >= 2 with (k,p) != (1,2)")
    d = k + 1
    terms = _chain_terms(d, 2, k)
    terms[k + 1] = [_mono(d, 1, (k, 2)), _mono(d, -Fraction(lam), (1, p))]
    expected = {f"M({j - 1})": _e(d, j) for j in range(1, k + 1)}
    expected[f"W({k},0)"] = _e(d, k + 1, 2)
    import math
    expected[trees.ad(trees.X1, p, trees.X0).text] = _e(
        d, k + 1, -Fraction(lam) * math.factorial(p))
    name = f"wk_prototype(k={k},p={p})"
    if lam != 1:
        name = f"wk_prototype(k={k},p={p},lam={lam})"
    return SystemDef(
        dim=d, f0=_field(d, terms), f1=_e1_input(d), name=name,
        expected_values=expected, zero_elsewhere=True,
        notes="prototype competition between the order-2k square bracket and "
              "a pure control power",
    )


def _jakubczyk() -> SystemDef:
    d = 3
    terms = _chain_terms(d, 2, 2)
    terms[3] = [_mono(d, 1, (2, 2)), _mono(d, 1, (1, 3))]
    return SystemDef(
        dim=d, f0=_field(d, terms), f1=_e1_input(d), name="jakubczyk",
        expected_values={
            "M(0)": _e(d, 1), "M(1)": _e(d, 2),
            "P(1,1,0)": _e(d, 3, 6), "W(2,0)": _e(d, 3, 2),
        },
        zero_elsewhere=True,
        notes="controllable: the cubic term neutralizes the square bracket",
    )


def _x22_x1k(k: int = 4) -> SystemDef:
    if k < 2:
        raise ValueError("need k >= 2")
    import math
    d = 3
    terms = _chain_terms(d, 2, 2)
    terms[3] = [_mono(d, 1, (2, 2)), _mono(d, -1, (1, k))]
    return SystemDef(
        dim=d, f0=_field(d, terms), f1=_e1_input(d), name=f"x22_x1k(k={k})",
        expected_values={
            "M(0)": _e(d, 1), "M(1)": _e(d, 2), "W(2,0)": _e(d, 3, 2),
            trees.ad(trees.X1, k, trees.X0).text: _e(d, 3, -math.factorial(k)),
        },
        zero_elsewhere=True,
        notes="separates the controllability notions for k = 3, 4, 5",
    )


def _w2_vs_q111() -> SystemDef:
    sys = _x22_x1k(4)
    return SystemDef(
        dim=sys.dim, f0=sys.f0, f1=sys.f1, name="w2_vs_q111",
        expected_values={
            "M(0)": _e(3, 1), "M(1)": _e(3, 2), "W(2,0)": _e(3, 3, 2),
            "Q(1,1,1,0)": _e(3, 3, -24),
        },
        zero_elsewhere=True,
        notes="controllable only with large controls: the quartic power is "
              "not an admissible neutralizer for the order-4 square bracket",
    )


def _w2_vs_p11nu(nu: int = 1) -> SystemDef:
    if nu < 1:
        raise ValueError("need nu >= 1 (nu = 0 is 'jakubczyk')")
    d = 3 + nu
    terms = {2: [_mono(d, 1, (1, 1))], 3: [_mono(d, 1, (1, 3))]}
    terms.update(_chain_terms(d, 4, 3 + nu - 1))
    terms[3 + nu] = [_mono(d, 1, (2, 2)), _mono(d, 1, (3 + nu - 1, 1))]
    expected = {"M(0)": _e(d, 1), "M(1)": _e(d, 2),
                f"W(2,0)": _e(d, 3 + nu, 2)}
    for mu in range(nu + 1):
        expected[f"P(1,1,{mu})"] = _e(d, 3 + mu, 6)
    return SystemDef(
        dim=d, f0=_field(d, terms), f1=_e1_input(d),
        name=f"w2_vs_p11nu(nu={nu})",
        expected_values=expected, zero_elsewhere=True,
        notes="cubic neutralizer pushed down an integrator chain",
    )


def _w3_generic(l_mono: list[SparsePoly], d: int, nu: int,
                name: str, expected: dict) -> SystemDef:
    """Common frame: triple integrator + monomial output + nu-chain + x3^2."""
    terms = _chain_terms(d, 2, 3)
    if nu == 0:
        terms[4] = [_mono(d, 1, (3, 2))] + l_mono
    else:
        terms[4] = l_mono
        terms.update(_chain_terms(d, 5, 4 + nu - 1))
        terms[4 + nu] = [_mono(d, 1, (3, 2)), _mono(d, 1, (4 + nu - 1, 1))]
    for i in range(1, 4):
        expected[f"M({i - 1})"] = _e(d, i)
    expected["W(3,0)"] = _e(d, 4 + nu, 2)
    return SystemDef(
        dim=d, f0=_field(d, terms), f1=_e1_input(d), name=name,
        expected_values=expected, zero_elsewhere=True)


def _w3_vs_p1l(l: int = 1, nu: int = 0) -> SystemDef:
    if not 1 <= l <= 3:
        raise ValueError("this entry covers l in {1,2,3}; see w3_vs_p1l_ge4")
    d = 4 + nu
    c = 6 if l == 1 else 2
    expected = {f"P(1,{l},{mu})": _e(d, 4 + mu, c) for mu in range(nu + 1)}
    return _w3_generic([_mono(d, 1, (1, 2), (l, 1))], d, nu,
                       f"w3_vs_p1l(l={l},nu={nu})", expected)


def _w3_vs_p1l_ge4(l: int = 4, nu: int = 0) -> SystemDef:
    if l < 4:
        raise ValueError("this entry covers l >= 4; see w3_vs_p1l")
    d = l + 1 + nu
    terms = _chain_terms(d, 2, l)
    if nu == 0:
        terms[l + 1] = [_mono(d, 1, (3, 2)), _mono(d, 1, (1, 2), (l, 1))]
    else:
        terms[l + 1] = [_mono(d, 1, (1, 2), (l, 1))]
        terms.update({l + 1 + mu: [_mono(d, 1, (l + mu, 1))]
                      for mu in range(1, nu)})
        terms[l + 1 + nu] = [_mono(d, 1, (3, 2)), _mono(d, 1, (l + nu, 1))]
    expected = {f"M({i - 1})": _e(d, i) for i in range(1, l + 1)}
    for mu in range(nu + 1):
        expected[f"P(1,{l},{mu})"] = _e(d, l + 1 + mu, 2)
    expected["W(3,0)"] = _e(d, l + 1 + nu, 2)
    return SystemDef(
        dim=d, f0=_field(d, terms), f1=_e1_input(d),
        name=f"w3_vs_p1l_ge4(l={l},nu={nu})",
        expected_values=expected, zero_elsewhere=True)


def _w3_vs_q112(nu: int = 0) -> SystemDef:
    d = 4 + nu
    # the cubic-times-linear monomial carries 3! = 6, as direct evaluation
    # confirms (the literature table lists 2 for this unlabeled example)
    expected = {f"Q(1,1,2,{mu})": _e(d, 4 + mu, 6) for mu in range(nu + 1)}
    return _w3_generic([_mono(d, 1, (1, 3), (2, 1))], d, nu,
                       f"w3_vs_q112(nu={nu})", expected)


def _w3_vs_r1111(nu: int = 0) -> SystemDef:
    d = 4 + nu
    expected = {f"R(1,1,1,1,{mu})": _e(d, 4 + mu, 120) for mu in range(nu + 1)}
    return _w3_generic([_mono(d, 1, (1, 5))], d, nu,
                       f"w3_vs_r1111(nu={nu})", expected)


def _w3_vs_rsharp(mu: int = 0, nu: int = 0) -> SystemDef:
    d = 5 + mu + nu
    terms = _chain_terms(d, 2, 3)
    terms[4] = [_mono(d, 1, (1, 3))]
    terms.update({4 + m: [_mono(d, 1, (3 + m, 1))] for m in range(1, mu + 1)})
    quad = [_mono(d, 1, (3, 2)), _mono(d, 1, (1, 2), (4 + mu, 1))]
    if nu == 0:
        terms[5 + mu] = quad
    else:
        terms[5 + mu] = [_mono(d, 1, (1, 2), (4 + mu, 1))]
        terms.update({5 + mu + n: [_mono(d, 1, (4 + mu + n, 1))]
                      for n in range(1, nu)})
        terms[5 + mu + nu] = [_mono(d, 1, (3, 2)),
                              _mono(d, 1, (4 + mu + nu, 1))]
    expected = {f"M({i - 1})": _e(d, i) for i in range(1, 4)}
    for m in range(mu + 1):
        expected[f"P(1,1,{m})"] = _e(d, 4 + m, 6)
    sign = -12 * (-1) ** mu
    for n in range(nu + 1):
        expected[f"Rs(1,1,1,{mu},{n})"] = _e(d, 5 + mu + n, sign)
    expected["W(3,0)"] = _e(d, 5 + mu + nu, 2)
    return SystemDef(
        dim=d, f0=_field(d, terms), f1=_e1_input(d),
        name=f"w3_vs_rsharp(mu={mu},nu={nu})",
        expected_values=expected, zero_elsewhere=True)


def _w3_vs_q111() -> SystemDef:
    d = 4
    return _w3_generic([_mono(d, -1, (1, 4))], d, 0, "w3_vs_q111",
                       {"Q(1,1,1,0)": _e(d, 4, -24)})


def _w3_time() -> SystemDef:
    d = 5
    terms = _chain_terms(d, 2, 3)
    terms[4] = [_mono(d, 1, (1, 4)), _mono(d, 1, (3, 3))]
    terms[5] = [_mono(d, 1, (3, 2)), _mono(d, -1, (4, 1))]
    return SystemDef(
        dim=d, f0=_field(d, terms), f1=_e1_input(d), name="w3_time",
        expected_values={
            "X1": _e(d, 1), "M(1)": _e(d, 2), "M(2)": _e(d, 3),
            "W(3,0)": _e(d, 5, 2),
            # derived by direct evaluation (hand-audited)
            "Q(1,1,1,0)": _e(d, 4, 24), "Q(1,1,1,1)": _e(d, 5, -24),
            "P(3,3,0)": _e(d, 4, 6), "P(3,3,1)": _e(d, 5, -6),
        },
        zero_elsewhere=False,
        notes="obstructed only through a time-dependent drift direction",
    )


def _sextic(p: int = 8) -> SystemDef:
    if p < 3:
        raise ValueError("need p >= 3")
    import math
    d = 4
    terms = {2: [_mono(d, 1, (1, 1))], 3: [_mono(d, 1, (1, 3))],
             4: [_mono(d, 1, (3, 2)), _mono(d, -1, (2, p))]}
    return SystemDef(
        dim=d, f0=_field(d, terms), f1=_e1_input(d), name=f"sextic(p={p})",
        expected_values={
            "M(0)": _e(d, 1), "M(1)": _e(d, 2), "P(1,1,0)": _e(d, 3, 6),
            "D": _e(d, 4, 72),
            trees.ad(trees.M(1), p, trees.X0).text: _e(d, 4, -math.factorial(p)),
        },
        zero_elsewhere=True,
        notes="order-6 square bracket vs an order-p primitive power",
    )


def _w3_vs_qb10() -> SystemDef:
    d = 5
    terms = {2: [_mono(d, 1, (1, 1))],
             3: [_mono(d, 1, (2, 1)), _mono(d, 1, (1, 2))],
             4: [_mono(d, 1, (3, 1))],
             5: [_mono(d, 1, (3, 2)), _mono(d, 2, (1, 2), (4, 1))]}
    return SystemDef(
        dim=d, f0=_field(d, terms), f1=_e1_input(d), name="w3_vs_qb10",
        expected_values={
            "M(0)": _e(d, 1), "M(1)": _e(d, 2), "M(2)": _e(d, 3),
            "M(3)": _e(d, 4),
            "W(1,0)": _e(d, 3, 2), "W(1,1)": _e(d, 4, 2),
            "Qf(1,0,0)": _e(d, 5, -8), "W(3,0)": _e(d, 5, 2),
        },
        zero_elsewhere=True,
        notes="square-vs-square competition at trailing depth 0",
    )


def _w3_vs_qb11() -> SystemDef:
    d = 6
    terms = {2: [_mono(d, 1, (1, 1)), _mono(d, 1, (1, 2))]}
    terms.update(_chain_terms(d, 3, 5))
    terms[6] = [_mono(d, 1, (3, 2)), _mono(d, -2, (1, 2), (5, 1))]
    expected = {f"M({i - 1})": _e(d, i) for i in range(1, 6)}
    for nu in range(4):
        expected[f"W(1,{nu})"] = _e(d, 2 + nu, 2)
    expected["Qf(1,1,0)"] = _e(d, 6, -8)
    expected["W(3,0)"] = _e(d, 6, 2)
    return SystemDef(
        dim=d, f0=_field(d, terms), f1=_e1_input(d), name="w3_vs_qb11",
        expected_values=expected, zero_elsewhere=True,
        notes="square-vs-square competition at trailing depth 1",
    )


def _w3_vs_qb12() -> SystemDef:
    d = 7
    terms = {1: [_mono(d, 1, (1, 2))]}
    terms.update(_chain_terms(d, 2, 6))
    terms[7] = [_mono(d, 1, (3, 2)), _mono(d, 2, (1, 2), (6, 1))]
    return SystemDef(
        dim=d, f0=_field(d, terms), f1=_e1_input(d), name="w3_vs_qb12",
        expected_values={
            "W(3,0)": _e(d, 7, 2), "Qf(1,2,0)": _e(d, 7, -8),
        },
        zero_elsewhere=False,
        notes="not nilpotent: the drift term feeds back into the input line",
    )


_BUILDERS: dict[str, Callable[..., SystemDef]] = {
    "easy": _easy,
    "no_zm_pure": _no_zm_pure,
    "wk_prototype": _wk_prototype,
    "jakubczyk": _jakubczyk,
    "w2_vs_q111": _w2_vs_q111,
    "w2_vs_p11nu": _w2_vs_p11nu,
    "w3_vs_p1l": _w3_vs_p1l,
    "w3_vs_p1l_ge4": _w3_vs_p1l_ge4,
    "w3_vs_q112": _w3_vs_q112,
    "w3_vs_r1111": _w3_vs_r1111,
    "w3_vs_rsharp": _w3_vs_rsharp,
    "w3_vs_q111": _w3_vs_q111,
    "w3_time": _w3_time,
    "sextic": _sextic,
    "w3_vs_qb10": _w3_vs_qb10,
    "w3_vs_qb11": _w3_vs_qb11,
    "w3_vs_qb12": _w3_vs_qb12,
    "x22_x1k": _x22_x1k,
}


class UnknownSystemError(KeyError):
    def __init__(self, name: str):
        available = ", ".join(sorted(_BUILDERS))
        super().__init__(f"unknown system {name!r}; available: {available}")


def _builder(name: str) -> Callable[..., SystemDef]:
    builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownSystemError(name)
    return builder


def zoo(name: str, **params) -> SystemDef:
    """Build a catalog system; unknown names list the catalog."""
    return _builder(name)(**params)


def zoo_parameters(name: str) -> dict[str, object]:
    """The keyword parameters a catalog entry accepts, with their defaults."""
    return {key: param.default for key, param
            in inspect.signature(_builder(name)).parameters.items()}


def zoo_names() -> list[str]:
    return sorted(_BUILDERS)


def default_instances() -> list[SystemDef]:
    """One representative instance per entry (parametric ones at defaults)."""
    out = []
    for name in zoo_names():
        out.append(zoo(name))
    return out
