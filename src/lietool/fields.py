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
computed so far, which serves every lower order.  At the origin a trailing
X0 factor is one multiplication by H0, the Jacobian of f0 at 0 (valid
because f0(0) = 0): f_{b0}(0) = H0 f_b(0).  `SystemDef.bracket_value` is the
one place that applies this rule, and it caches f_b(0) for every tree on a
chain b 0^nu, so the trailing-zero chains of the span machinery read their
vectors from that cache.

Most brackets of a polynomial system vanish, so a vanishing jet costs an
identity test: each system holds one zero jet and one zero value, and every
jet found to vanish is that jet.  A node whose left factor vanishes never
evaluates its right one, and f_b(0) of a vanishing jet costs no division
and no Jacobian power.  Every f_b(0) that vanishes is the shared zero value,
also when its jet does not.  Zero to order k says nothing about order k + 1,
so a zero jet is cached at its own order like any other; only the zero past
the degree bound holds at every order.

On a weighted-homogeneous (graded) system most bidegrees can only have zero
values, and `SystemDef.vanishes_at` names them from the system's weightings,
solved once; `bracket_value` returns the zero value for them before it
computes any jet.  Jets are never pruned this way: a parent bracket reads a
jet's higher-order terms.

The jets run on integers.  A system clears the denominators of its fields
once, f0 = F0 / D0 and f1 = F1 / D1 with integer fields F0, F1, and its jet
cache holds the integer numerators F_b built from them by the same bracket
recursion; since the bracket is bilinear, f_b = F_b / (D0^n0 D1^n1).  Only
the public values divide: `bracket_jet` and `bracket_field` return the
rational field, and f_b(0) and every `Vector` are tuples of `Fraction`.

For simulation each system generates one straight-line Python function per
classical RK4 step, :func:`rk4_step_function` (`SystemDef.rk4_step`), built
on first use.  It prints its terms with one printer, `_float_sum`, and
computes each power x_j^k once per stage through the power function it is
given (C `pow`, on floats or elementwise on arrays), so it steps one point
or, on numpy arrays, many points at once, with the same operations in the
same order either way.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, zip_longest
from typing import Optional, Sequence, Union

from . import trees
from .controls import _json_field
from .exact_linalg import ExactSpan, clear_denominators
from .hall import HallElement, LieElement, as_tree
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
        return cls(dim, [SparsePoly._make(dim, {}) for _ in range(dim)])

    @classmethod
    def constant(cls, dim: int, vector: Sequence) -> "PolyVectorField":
        return cls(dim, [SparsePoly.constant(dim, v) for v in vector])

    def __bool__(self) -> bool:
        return any(self.components)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyVectorField)
                and self.components == other.components)

    def scale(self, factor) -> "PolyVectorField":
        return PolyVectorField(self.dim, [c * factor for c in self.components])

    def _check(self, other: "PolyVectorField") -> None:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def value_at_zero(self) -> Vector:
        return tuple(Fraction(c.constant_term()) for c in self.components)

    def jacobian_at_zero(self) -> list[list[Fraction]]:
        return [[Fraction(self.components[i].partial(j).constant_term())
                 for j in range(self.dim)] for i in range(self.dim)]

    def degree(self) -> int:
        """The highest total degree of a component (0 for the zero field)."""
        return max((c.total_degree() for c in self.components), default=0)

    def truncated(self, order: int) -> "PolyVectorField":
        """The terms of total degree <= order."""
        return PolyVectorField(self.dim,
                               [c.truncated(order) for c in self.components])


def _float_sum(p: SparsePoly, power) -> str:
    """The term printer: p in floats as 0.0 + c*p*p + ... over its terms in
    the order `terms` holds them, each product running from the coefficient
    through the powers in variable order, where power(j, k) names x_j^k.

    A coefficient of 1.0 in front of a power is left out: 1.0*y is y bit
    for bit.  The leading 0.0 stays, so the sum is never -0.0.
    """
    terms = []
    for e, c in p.terms.items():
        factors = [power(j, k) for j, k in enumerate(e) if k]
        if not factors or float(c) != 1.0:
            factors.insert(0, repr(float(c)))
        terms.append("*".join(factors))
    return " + ".join(["0.0"] + terms)


def _power_names(point: str, powers: dict):
    """power(j, k) for `_float_sum` at the point whose coordinates are the
    locals point0, point1, ...: x_j^1 is the coordinate itself, as pow
    returns it, and each x_j^k with k >= 2 a local recorded in `powers`."""
    def power(j: int, k: int) -> str:
        return (f"{point}{j}" if k == 1
                else powers.setdefault((j, k), f"{point}{j}_{k}"))
    return power


# RK4's four stages: the point's local prefix, its control value, and how
# the point is reached from x (prefix a) along the previous stage's slope
_STAGES = (("a", "u0", None), ("b", "um", "half * ka"),
           ("c", "um", "half * kb"), ("d", "u1", "h * kc"))


def rk4_step_function(f0: PolyVectorField, f1: PolyVectorField):
    """One classical RK4 step of x' = f0(x) + u f1(x) as one generated
    straight-line function `step(u0, um, u1, x, h, P)`, returning the d
    coordinates of the state after a step of size h from x.

    u0, um and u1 are the control's values at the step's start, middle and
    end.  x, h and the control values are floats (one trajectory, P = pow)
    or arrays of one length (trials in lockstep, P = np.float_power), with
    the same operations in the same order either way.  Stage slope i is
    (f0_i) + uv * (f1_i), each a `_float_sum` at the stage's point, with
    each power computed once per stage; a component of f1 without terms
    adds no uv * (0.0), which is exact because the f0 sum is never -0.0
    and control values are finite.  The stages combine as
    x + h/6 * (k1 + 2 * k2 + 2 * k3 + k4).
    """
    f0._check(f1)
    d = f0.dim
    lines = ["def step(u0, um, u1, x, h, P):",
             f"    {''.join(f'a{j}, ' for j in range(d))}= x",
             "    half = h / 2"]
    for point, uv, reach in _STAGES:
        if reach:
            lines += [f"    {point}{j} = a{j} + {reach}{j}" for j in range(d)]
        powers: dict[tuple[int, int], str] = {}
        power = _power_names(point, powers)
        rows = [f"({_float_sum(a, power)}) + {uv} * ({_float_sum(b, power)})"
                if b else _float_sum(a, power)
                for a, b in zip(f0.components, f1.components)]
        lines += [f"    {local} = P({point}{j}, {k})"
                  for (j, k), local in powers.items()]
        lines += [f"    k{point}{j} = {row}" for j, row in enumerate(rows)]
    lines += ["    sixth = h / 6",
              "    return [" + ", ".join(
                  f"a{j} + sixth * (ka{j} + 2 * kb{j} + 2 * kc{j} + kd{j})"
                  for j in range(d)) + "]"]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["step"]


def jet_bracket(f: PolyVectorField, g: PolyVectorField,
                order: int) -> PolyVectorField:
    """[f, g] = (Dg) f - (Df) g without its terms of total degree above order.

    Exact up to `order` whenever f and g are exact up to order + 1.  The
    products run on exponents packed into one int each, `width` bits per
    variable (:func:`_packed`): no exponent a product forms exceeds
    order + 1 < 2**width, so no field carries into its neighbour and a
    monomial product is one integer addition.
    """
    f._check(g)
    if order < 0:
        return PolyVectorField.zero(f.dim)
    width = (order + 1).bit_length()
    f_terms = [_packed(c, order + 1, width) for c in f.components]
    g_terms = [_packed(c, order + 1, width) for c in g.components]
    f_rooms = [_by_room(t, order + 1) for t in f_terms]
    g_rooms = [_by_room(t, order + 1) for t in g_terms]
    out = []
    for fi, gi in zip(f_terms, g_terms):
        acc: defaultdict = defaultdict(int)
        _add_derivative(acc, gi, f_rooms, order, width, 1)
        _add_derivative(acc, fi, g_rooms, order, width, -1)
        out.append(SparsePoly._summed(f.dim, _unpacked(acc, f.dim, width)))
    return PolyVectorField(f.dim, out)


def _packed(p: SparsePoly, top: int, width: int) -> list:
    """The terms of p of total degree <= top as (degree, exponents, key, c),
    with exponent i in bits [i * width, (i + 1) * width) of key."""
    out = []
    for e, c in p.terms.items():
        degree = sum(e)
        if degree <= top:
            key = 0
            for k in reversed(e):
                key = (key << width) | k
            out.append((degree, e, key, c))
    return out


def _by_room(terms: list, top: int) -> list:
    """rooms[r]: the (key, c) pairs of the terms of degree <= r, r <= top."""
    rooms: list[list] = [[] for _ in range(top + 1)]
    for degree, _, key, c in terms:
        rooms[degree].append((key, c))
    for r in range(1, top + 1):
        rooms[r] = rooms[r - 1] + rooms[r]
    return rooms


def _add_derivative(acc: defaultdict, terms: list, direction: list,
                    order: int, width: int, sign: int) -> None:
    """acc += sign * (Dp) . direction, cut at total degree `order`.

    `terms` are p's packed terms and `direction[j]` the rooms of the j-th
    component, so no product of terms whose degrees sum past `order` is
    formed.
    """
    for degree, e, key, c in terms:
        room = order + 1 - degree
        for j, k in enumerate(e):
            if k:
                base = key - (1 << (j * width))
                scale = sign * k * c
                for key2, c2 in direction[j][room]:
                    acc[base + key2] += scale * c2


def _unpacked(acc: dict, dim: int, width: int) -> dict:
    """The nonzero packed terms of acc keyed by exponent tuples."""
    mask = (1 << width) - 1
    out = {}
    for key, c in acc.items():
        if c:
            e = []
            for _ in range(dim):
                e.append(key & mask)
                key >>= width
            out[tuple(e)] = c
    return out


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

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim {self.dim} is not a positive integer")
        if any(self.f0.value_at_zero()):
            raise ValueError("f0(0) must vanish")
        # normalize expected-table keys to canonical tree text
        self.expected_values = {
            trees.parse_tree(k).text: tuple(Fraction(x) for x in v)
            for k, v in self.expected_values.items()}
        # f0 = F0 / D0 and f1 = F1 / D1 with integer fields F0, F1; the jet
        # cache holds integer numerators F_b, f_b = F_b / (D0^n0 D1^n1)
        (f0_num, d0), (f1_num, d1) = map(_numerator_field, (self.f0, self.f1))
        self._leaf_numerators = (f0_num, f1_num)
        self._leaf_denominators = (d0, d1)
        self._field_cache: dict[BracketTree, PolyVectorField] = {}
        self._jet_order: dict[BracketTree, int] = {}
        self._value_cache: dict[BracketTree, Vector] = {}
        # every vanishing jet and value is one of these, tested by `is`
        self._zero_jet = PolyVectorField.zero(self.dim)
        self._zero_value: Vector = (Fraction(0),) * self.dim
        self._leaf_degrees = (self.f0.degree(), self.f1.degree())
        self._vanishing: dict[tuple[int, int], bool] = {}

    @functools.cached_property
    def rk4_step(self):
        """`step(u0, um, u1, x, h, P)`, one RK4 step of the system in
        floats, generated on first use (:func:`rk4_step_function`)."""
        return rk4_step_function(self.f0, self.f1)

    @functools.cached_property
    def _h0_rows(self) -> list[list[int]]:
        """The Jacobian J of F0 at 0, integer: the Jacobian of f0 at 0 is
        H0 = J / D0."""
        return [[int(c) for c in row]
                for row in self._leaf_numerators[0].jacobian_at_zero()]

    def h0_apply(self, v: Sequence[Fraction]) -> Vector:
        """H0 v, as J times the numerators of v over one denominator."""
        nums, den = clear_denominators(v)
        den *= self._leaf_denominators[0]
        return tuple(Fraction(sum(c * n for c, n in zip(row, nums)), den)
                     for row in self._h0_rows)

    @functools.cached_property
    def _gradings(self) -> list[tuple[int, ...]]:
        """A basis of the weightings (r_1..r_d, w0, w1) that grade the
        system, each scaled to integers: under each, every term of f0 has
        weight w0 and every term of f1 weight w1, where c x^e d_i has weight
        sum_j e_j r_j - r_i.

        Each term is one homogeneous linear equation in the d + 2 unknowns,
        solved exactly in one `ExactSpan`; the rows stop at rank d + 2,
        where only the zero weighting is left.  The rows of f0 and f1
        alternate, so a system without a grading gets there early.
        """
        n = self.dim + 2
        equations = ExactSpan(n)
        rows = zip_longest(_weight_rows(self.f0, n - 2),
                           _weight_rows(self.f1, n - 1))
        for row in chain.from_iterable(rows):
            if row is not None and equations.add(row) and equations.rank == n:
                return []
        return [tuple(clear_denominators(g)[0])
                for g in equations.null_space()]

    def vanishes_at(self, n1: int, n0: int) -> bool:
        """True when f_b(0) = 0 for every bracket b with n1 X1 and n0 X0
        factors, as the system's gradings prove; cached per bidegree.

        Take a weighting (r, w0, w1) of `_gradings`.  The weight of a term
        c x^e d_i is sum_j e_j r_j - r_i, and weights add under the bracket:
        a term of [f, g] = (Dg) f - (Df) g is x^(e - e_j) d_i from g times
        x^e' d_j from f, of weight (sum e r - r_i) + (sum e' r - r_j).  So
        by induction every term of f_b has weight n0 w0 + n1 w1.  The
        constant term at coordinate i has weight -r_i, so
        f_b(0)_i != 0 requires -r_i = n0 w0 + n1 w1.  This is linear in the
        weighting, so it holds under every weighting once it holds on the
        basis; a bidegree where no coordinate passes has f_b(0) = 0.  The
        rule is about values only: f_b itself need not vanish there.
        """
        key = (n1, n0)
        dead = self._vanishing.get(key)
        if dead is None:
            d = self.dim
            dead = self._vanishing[key] = not any(
                all(g[i] + n0 * g[d] + n1 * g[d + 1] == 0
                    for g in self._gradings)
                for i in range(d))
        return dead

    def _degree_bound(self, b: BracketTree) -> int:
        """A bound on deg f_b: deg f0 or deg f1 at a leaf, deg L + deg R - 1
        at a node (the bracket lowers the degree by one)."""
        d0, d1 = self._leaf_degrees
        return b.n0 * (d0 - 1) + b.n1 * (d1 - 1) + 1

    def _denominator(self, b: BracketTree) -> int:
        d0, d1 = self._leaf_denominators
        return d0 ** b.n0 * d1 ** b.n1

    def _numerator_jet(self, b: BracketTree, order: int) -> PolyVectorField:
        """F_b exact up to total degree `order`, possibly with higher terms.

        `_field_cache[b]` holds the highest-order jet computed so far for b
        (its order in `_jet_order[b]`) and serves every lower order as it
        is: a constant term or a `jet_bracket` to order k reads only the
        terms of degree <= k + 1.  A higher order is recomputed from the
        children's jets one order up.  The bracket is bilinear, so
        F_b = [F_left, F_right] on integers.

        A jet that vanishes is the system's one `_zero_jet`: past the degree
        bound, for a leaf with no terms up to `order`, when the left child's
        jet vanishes (the right child is then never evaluated) or the right
        one does, and when the bracket has no terms.  Like any jet it is
        cached at its own order only, since F_b may vanish to order k and
        not to order k + 1; only the degree-bound zero holds at every order.
        """
        order = min(order, self._degree_bound(b))
        if order < 0:
            return self._zero_jet
        if self._jet_order.get(b, -1) >= order:
            return self._field_cache[b]
        out = self._zero_jet
        if b.is_leaf:
            leaf = self._leaf_numerators[b is not trees.X0].truncated(order)
            if leaf:
                out = leaf
        else:
            left = self._numerator_jet(b.left, order + 1)
            if left is not self._zero_jet:
                right = self._numerator_jet(b.right, order + 1)
                if right is not self._zero_jet:
                    bracket = jet_bracket(left, right, order)
                    if bracket:
                        out = bracket
        self._field_cache[b] = out
        self._jet_order[b] = order
        return out

    def bracket_jet(self, b: BracketTree, order: int) -> PolyVectorField:
        """f_b without its terms of total degree above `order`."""
        jet = self._numerator_jet(b, order)
        if self._jet_order.get(b, -1) > order:
            jet = jet.truncated(order)
        den = self._denominator(b)
        return jet if den == 1 else jet.scale(Fraction(1, den))

    def bracket_field(self, b: BracketTree) -> PolyVectorField:
        """f_b in full: its jet at the degree bound."""
        return self.bracket_jet(b, self._degree_bound(b))

    def bracket_value(self, b: BracketTree) -> Vector:
        """f_b(0), exact.

        For b = c 0^nu, f_{c 0^k}(0) = H0 f_{c 0^(k-1)}(0) at the origin
        (f0(0) = 0), so trailing X0 factors are peeled off only down to the
        deepest tree whose value is cached, or down to the core c, whose
        value is its order-0 numerator jet over D0^n0 D1^n1.  H0 is then
        applied once per peeled factor, and every value on the way is
        cached.  The peel is a loop, so nu is not bounded by the stack.
        It also stops at a tree whose bidegree `vanishes_at`: that value is
        the shared zero, and no jet is computed for it.
        """
        cache = self._value_cache
        peeled = []
        value = cache.get(b)
        while (value is None and not self.vanishes_at(b.n1, b.n0)
               and not b.is_leaf and b.right is trees.X0):
            peeled.append(b)
            b = b.left
            value = cache.get(b)
        if value is None:
            value = self._zero_value
            jet = (self._zero_jet if self.vanishes_at(b.n1, b.n0)
                   else self._numerator_jet(b, 0))
            if jet is not self._zero_jet:
                den = self._denominator(b)
                value = self._shared_zero(tuple(
                    Fraction(c.constant_term(), den) for c in jet.components))
            value = cache.setdefault(b, value)
        for tree in reversed(peeled):
            if value is not self._zero_value:
                value = self._shared_zero(self.h0_apply(value))
            value = cache.setdefault(tree, value)
        return value

    def _shared_zero(self, value: Vector) -> Vector:
        """value, or the shared `_zero_value` when it vanishes."""
        return value if any(value) else self._zero_value


def _weight_rows(f: PolyVectorField, slot: int):
    """One row per term c x^e d_i of f: the coefficients of
    sum_j e_j r_j - r_i - w = 0 over the unknowns (r_1..r_d, w0, w1), with
    w at column `slot`."""
    for i, component in enumerate(f.components):
        for e in component.terms:
            row = [*e, 0, 0]
            row[i] -= 1
            row[slot] = -1
            yield row


def _numerator_field(f: PolyVectorField) -> tuple[PolyVectorField, int]:
    """(F, D) with f = F / D, F integer and D the lcm of the denominators."""
    numerators, den = clear_denominators(
        [c for comp in f.components for c in comp.terms.values()])
    it = iter(numerators)
    return PolyVectorField(f.dim, [
        SparsePoly._make(f.dim, {e: next(it) for e in comp.terms})
        for comp in f.components]), den


def eval_bracket(sys: SystemDef, b: Union[BracketTree, HallElement, str]) -> Vector:
    """f_b(0), exact."""
    return sys.bracket_value(as_tree(b))


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
            powers = tuple(_integer(p, "power", mono) for p in mono["powers"])
            if len(powers) != dim:
                raise ValueError("powers length != dim")
            terms[powers] = terms.get(powers, 0) + Fraction(mono["coeff"])
        comps.append(SparsePoly(dim, terms))
    return PolyVectorField(dim, comps)


def _integer(value, name: str, monomial=None) -> int:
    """`3`, `3.0` or `"3"` as the int 3; a bool or a non-integer is refused."""
    if type(value) is int:
        return value
    try:
        exact = None if isinstance(value, bool) else Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        exact = None
    if exact is None or exact.denominator != 1:
        where = "" if monomial is None else f" in monomial {monomial!r}"
        raise ValueError(f"{name} {value!r}{where} is not an integer")
    return int(exact)


def field_to_json(f: PolyVectorField) -> list:
    return [[{"coeff": str(c), "powers": list(e)}
             for e, c in sorted(comp.terms.items())]
            for comp in f.components]


def system_from_json_dict(data: dict, name: str = "system") -> SystemDef:
    if not isinstance(data, dict):
        raise ValueError("a system is a JSON object")
    dim = _integer(data["dim"], "dim")
    if dim < 1:      # refused before the fields are read against it
        raise ValueError(f"dim {dim} is not a positive integer")
    return SystemDef(
        dim=dim,
        f0=_json_field(data, "f0", lambda f: field_from_json(dim, f)),
        f1=_json_field(data, "f1", lambda f: field_from_json(dim, f)),
        name=data.get("name", name),
    )


def system_to_json_dict(sys: SystemDef) -> dict:
    return {"name": sys.name, "dim": sys.dim,
            "f0": field_to_json(sys.f0), "f1": field_to_json(sys.f1)}


def load_system(path: str) -> SystemDef:
    with open(path) as fh:
        return system_from_json_dict(json.load(fh), name=path)
