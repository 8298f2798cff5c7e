"""Polynomial vector fields, bracket jets, and evaluation at the origin.

A :class:`PolyVectorField` stores one sparse multivariate polynomial per state
component.  The bracket is the exact Jacobian combination
[f, g] = (Dg) f - (Df) g, which lowers the total degree by one; so
:func:`jet_bracket` truncates it at a given order without ever forming a
product of terms whose degrees sum past that order.  :func:`eval_bracket`
pushes a formal bracket tree through the substitution homomorphism
X0 -> f0, X1 -> f1 on Taylor jets: f_b(0) is the order-0 jet of f_b, and a
node needed to order k asks its children for order k + 1 (truncated-Taylor
arithmetic).  Each system keeps, per interned tree, the highest-order jet
computed so far, which serves every lower order; trailing X0 brackets at the
origin reduce to multiplication by the Jacobian of f0 at 0 (valid because
f0(0) = 0), which the span machinery exploits.

For simulation `PolyVectorField.eval_float` compiles a field to floats once
and evaluates it at one point or, on numpy arrays, at many points at once,
with the same operations in the same order either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Optional, Sequence, Union

import numpy as np

from . import trees
from .hall import HallElement, LieElement
from .polynomials import SparsePoly
from .trees import BracketTree

Vector = tuple[Fraction, ...]


class PolyVectorField:
    """d polynomial components over d state variables."""

    __slots__ = ("dim", "components", "_float_form")

    def __init__(self, dim: int, components: Sequence[SparsePoly]):
        if len(components) != dim:
            raise ValueError("need one component per dimension")
        for c in components:
            if c.nvars != dim:
                raise ValueError("component variable count != dim")
        self.dim = dim
        self.components = tuple(components)
        self._float_form = None

    @classmethod
    def zero(cls, dim: int) -> "PolyVectorField":
        return cls(dim, [SparsePoly(dim) for _ in range(dim)])

    @classmethod
    def constant(cls, dim: int, vector: Sequence) -> "PolyVectorField":
        return cls(dim, [SparsePoly.constant(dim, v) for v in vector])

    def __bool__(self) -> bool:
        return any(self.components)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyVectorField)
                and self.components == other.components)

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        self._check(other)
        return PolyVectorField(
            self.dim, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        self._check(other)
        return PolyVectorField(
            self.dim, [a - b for a, b in zip(self.components, other.components)])

    def scale(self, factor) -> "PolyVectorField":
        return PolyVectorField(self.dim, [c * factor for c in self.components])

    def _check(self, other: "PolyVectorField") -> None:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def value_at_zero(self) -> Vector:
        return tuple(c.constant_term() for c in self.components)

    def eval(self, point: Sequence) -> Vector:
        return tuple(c.eval(point) for c in self.components)

    def eval_float(self, xs: Sequence) -> list:
        """f(xs) in floats.  The d coordinates in `xs` are floats (one
        point) or numpy arrays of one length (one point per entry).

        The float form is built on the first call: per component, the terms
        as (float(c), ((var, power), ...)) in the order `terms` holds them.
        Powers go through C `pow` in both cases: `np.float_power` on arrays,
        because numpy's vectorized `**` rounds differently.
        """
        if self._float_form is None:
            self._float_form = tuple(
                tuple((float(c), tuple((j, k) for j, k in enumerate(e) if k))
                      for e, c in comp.terms.items())
                for comp in self.components)
        power = np.float_power if isinstance(xs[0], np.ndarray) else pow
        out = []
        for terms in self._float_form:
            total = 0.0
            for c, powers in terms:
                term = c
                for j, k in powers:
                    term = term * power(xs[j], k)
                total = total + term
            out.append(total)
        return out

    def jacobian_at_zero(self) -> list[list[Fraction]]:
        return [[self.components[i].partial(j).constant_term()
                 for j in range(self.dim)] for i in range(self.dim)]

    def degree(self) -> int:
        """The highest total degree of a component (0 for the zero field)."""
        return max((c.total_degree() for c in self.components), default=0)

    def truncated(self, order: int) -> "PolyVectorField":
        """The terms of total degree <= order."""
        return PolyVectorField(self.dim,
                               [c.truncated(order) for c in self.components])


def jet_bracket(f: PolyVectorField, g: PolyVectorField,
                order: int) -> PolyVectorField:
    """[f, g] = (Dg) f - (Df) g without its terms of total degree above order.

    Exact up to `order` whenever f and g are exact up to order + 1.
    """
    f._check(g)
    f_terms = [_by_degree(c) for c in f.components]
    g_terms = [_by_degree(c) for c in g.components]
    out = []
    for fi, gi in zip(f.components, g.components):
        acc: dict = {}
        _add_derivative(acc, gi, f_terms, order, 1)
        _add_derivative(acc, fi, g_terms, order, -1)
        out.append(SparsePoly(f.dim, acc))
    return PolyVectorField(f.dim, out)


def _by_degree(p: SparsePoly) -> list:
    return sorted((sum(e), e, c) for e, c in p.terms.items())


def _add_derivative(acc: dict, p: SparsePoly, direction: list, order: int,
                    sign: int) -> None:
    """acc += sign * (Dp) . direction, cut at total degree `order`.

    `direction[j]` lists the terms of the j-th component by increasing
    degree, so no product of terms whose degrees sum past `order` is formed.
    """
    for e, c in p.terms.items():
        room = order + 1 - sum(e)
        if room < 0:
            continue
        for j, k in enumerate(e):
            if not k:
                continue
            base = e[:j] + (k - 1,) + e[j + 1:]
            scale = sign * k * c
            for degree, e2, c2 in direction[j]:
                if degree > room:
                    break
                key = tuple(map(add, base, e2))
                acc[key] = acc.get(key, 0) + scale * c2


def vf_bracket(f: PolyVectorField, g: PolyVectorField) -> PolyVectorField:
    """[f, g] = (Dg) f - (Df) g."""
    return jet_bracket(f, g, f.degree() + g.degree() - 1)


@dataclass
class SystemDef:
    """Control-affine system xdot = f0(x) + u f1(x) with f0(0) = 0."""

    dim: int
    f0: PolyVectorField
    f1: PolyVectorField
    name: str = "system"
    expected_values: dict[str, Vector] = field(default_factory=dict)
    zero_elsewhere_max_n1: Optional[int] = None  # None = no vanishing claim
    zero_elsewhere: bool = False
    notes: str = ""

    def __post_init__(self):
        if any(self.f0.value_at_zero()):
            raise ValueError("f0(0) must vanish")
        # normalize expected-table keys to canonical tree text
        self.expected_values = {
            trees.parse_tree(k).text: tuple(Fraction(x) for x in v)
            for k, v in self.expected_values.items()}
        self._field_cache: dict[BracketTree, PolyVectorField] = {}
        self._jet_order: dict[BracketTree, int] = {}
        self._value_cache: dict[BracketTree, Vector] = {}
        self._leaf_degrees = (self.f0.degree(), self.f1.degree())
        self._h0: Optional[list[list[Fraction]]] = None

    @property
    def h0(self) -> list[list[Fraction]]:
        if self._h0 is None:
            self._h0 = self.f0.jacobian_at_zero()
        return self._h0

    def h0_apply(self, v: Sequence[Fraction]) -> Vector:
        return tuple(sum((row[j] * v[j] for j in range(self.dim)),
                         Fraction(0)) for row in self.h0)

    def _degree_bound(self, b: BracketTree) -> int:
        """A bound on deg f_b: deg f0 or deg f1 at a leaf, deg L + deg R - 1
        at a node (the bracket lowers the degree by one)."""
        d0, d1 = self._leaf_degrees
        return b.n0 * (d0 - 1) + b.n1 * (d1 - 1) + 1

    def bracket_jet(self, b: BracketTree, order: int) -> PolyVectorField:
        """f_b without its terms of total degree above `order`.

        `_field_cache[b]` holds the highest-order jet computed so far for b
        (its order in `_jet_order[b]`): a lower order is cut from it, a
        higher one is recomputed from the children's jets one order up.
        """
        order = min(order, self._degree_bound(b))
        if order < 0:
            return PolyVectorField.zero(self.dim)
        have = self._jet_order.get(b, -1)
        if have >= order:
            jet = self._field_cache[b]
            return jet if have == order else jet.truncated(order)
        if b.is_leaf:
            out = (self.f0 if b is trees.X0 else self.f1).truncated(order)
        else:
            left = self.bracket_jet(b.left, order + 1)
            right = self.bracket_jet(b.right, order + 1)
            if not left or not right:
                out = PolyVectorField.zero(self.dim)
            else:
                out = jet_bracket(left, right, order)
        self._field_cache[b] = out
        self._jet_order[b] = order
        return out

    def bracket_field(self, b: BracketTree) -> PolyVectorField:
        """f_b in full: its jet at the degree bound."""
        return self.bracket_jet(b, self._degree_bound(b))

    def bracket_value(self, b: BracketTree) -> Vector:
        """f_b(0), with trailing X0 factors handled by Jacobian powers."""
        cached = self._value_cache.get(b)
        if cached is not None:
            return cached
        core, nu = trees.strip_trailing_zeros(b)
        value = self.bracket_jet(core, 0).value_at_zero()
        for _ in range(nu):
            value = self.h0_apply(value)
        return self._value_cache.setdefault(b, value)


def eval_bracket(sys: SystemDef, b: Union[BracketTree, HallElement, str]) -> Vector:
    """f_b(0), exact."""
    if isinstance(b, str):
        b = trees.parse_tree(b)
    if isinstance(b, HallElement):
        b = b.tree
    return sys.bracket_value(b)


def eval_lie(sys: SystemDef, a: LieElement) -> Vector:
    total = [Fraction(0)] * sys.dim
    for element, coeff in a.coeffs.items():
        v = sys.bracket_value(element.tree)
        for i in range(sys.dim):
            total[i] += coeff * v[i]
    return tuple(total)


# ---------------------------------------------------------------------------
# JSON system files

def field_from_json(dim: int, data: list) -> PolyVectorField:
    comps = []
    for entry in data:
        terms = {}
        for mono in entry:
            powers = tuple(int(p) for p in mono["powers"])
            if len(powers) != dim:
                raise ValueError("powers length != dim")
            terms[powers] = terms.get(powers, Fraction(0)) + Fraction(mono["coeff"])
        comps.append(SparsePoly(dim, terms))
    return PolyVectorField(dim, comps)


def field_to_json(f: PolyVectorField) -> list:
    return [[{"coeff": str(c), "powers": list(e)}
             for e, c in sorted(comp.terms.items())]
            for comp in f.components]


def system_from_json_dict(data: dict, name: str = "system") -> SystemDef:
    dim = int(data["dim"])
    return SystemDef(
        dim=dim,
        f0=field_from_json(dim, data["f0"]),
        f1=field_from_json(dim, data["f1"]),
        name=data.get("name", name),
    )


def system_to_json_dict(sys: SystemDef) -> dict:
    return {"name": sys.name, "dim": sys.dim,
            "f0": field_to_json(sys.f0), "f1": field_to_json(sys.f1)}


def load_system(path: str) -> SystemDef:
    with open(path) as fh:
        return system_from_json_dict(json.load(fh), name=path)
