"""Polynomial vector fields, symbolic brackets, and evaluation at the origin.

A :class:`PolyVectorField` stores one sparse multivariate polynomial per state
component.  The bracket is the exact Jacobian combination
[f, g] = (Dg) f - (Df) g, and :func:`eval_bracket` pushes a formal bracket
tree through the substitution homomorphism X0 -> f0, X1 -> f1 before
evaluating at 0.  Evaluations are memoized per system on canonical tree text;
trailing X0 brackets at the origin reduce to multiplication by the Jacobian
of f0 at 0 (valid because f0(0) = 0), which the span machinery exploits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import trees
from .hall import HallElement, LieElement
from .polynomials import SparsePoly
from .trees import BracketTree

Vector = tuple[Fraction, ...]


class PolyVectorField:
    """d polynomial components over d state variables."""

    __slots__ = ("dim", "components")

    def __init__(self, dim: int, components: Sequence[SparsePoly]):
        if len(components) != dim:
            raise ValueError("need one component per dimension")
        for c in components:
            if c.nvars != dim:
                raise ValueError("component variable count != dim")
        self.dim = dim
        self.components = tuple(components)

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

    def eval_float(self, point) -> list[float]:
        return [c.eval_float(point) for c in self.components]

    def jacobian_at_zero(self) -> list[list[Fraction]]:
        return [[self.components[i].partial(j).constant_term()
                 for j in range(self.dim)] for i in range(self.dim)]

    def directional(self, direction: "PolyVectorField") -> "PolyVectorField":
        """(D self) . direction, exact."""
        out = []
        for comp in self.components:
            acc = SparsePoly(self.dim)
            for j in range(self.dim):
                pj = comp.partial(j)
                if pj and direction.components[j]:
                    acc = acc + pj * direction.components[j]
            out.append(acc)
        return PolyVectorField(self.dim, out)


def vf_bracket(f: PolyVectorField, g: PolyVectorField) -> PolyVectorField:
    """[f, g] = (Dg) f - (Df) g."""
    f._check(g)
    return g.directional(f) - f.directional(g)


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
        self._value_cache: dict[BracketTree, Vector] = {}
        self._h0: Optional[list[list[Fraction]]] = None

    @property
    def h0(self) -> list[list[Fraction]]:
        if self._h0 is None:
            self._h0 = self.f0.jacobian_at_zero()
        return self._h0

    def h0_apply(self, v: Sequence[Fraction]) -> Vector:
        return tuple(sum((row[j] * v[j] for j in range(self.dim)),
                         Fraction(0)) for row in self.h0)

    def bracket_field(self, b: BracketTree) -> PolyVectorField:
        cached = self._field_cache.get(b)
        if cached is not None:
            return cached
        if b is trees.X0:
            out = self.f0
        elif b is trees.X1:
            out = self.f1
        else:
            left = self.bracket_field(b.left)
            right = self.bracket_field(b.right)
            if not left or not right:
                out = PolyVectorField.zero(self.dim)
            else:
                out = vf_bracket(left, right)
        return self._field_cache.setdefault(b, out)

    def bracket_value(self, b: BracketTree) -> Vector:
        """f_b(0), with trailing X0 factors handled by Jacobian powers."""
        cached = self._value_cache.get(b)
        if cached is not None:
            return cached
        core, nu = trees.strip_trailing_zeros(b)
        value = self.bracket_field(core).value_at_zero()
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
