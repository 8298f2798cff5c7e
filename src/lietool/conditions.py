"""Span-membership checkers for controllability obstructions.

Every necessary condition implemented here has the shape

    f_target(0) in span { f_b(0) : b in a neutralizing family },

where the family is typically infinite (trailing-X0 chains, free germ
indices).  Truncation policy:

* trailing-X0 directions are exact: at the origin f_{b 0^nu}(0) = H0^nu
  f_b(0) with H0 the Jacobian of the drift field, and a Krylov chain that
  stalls once has stalled forever, so chains stop at the first stall (or
  nu = d-1) with nothing lost.  Each chain vector is `eval_bracket` of its
  tree, whose value cache applies H0 (`SystemDef.bracket_value`);
* germ enumeration is truncated at hard caps (defaults: family indices and
  interior-zero counts <= 12); the report's `stabilized` flag records whether
  the span was still growing near the caps, and a violated verdict downgrades
  to `inconclusive` when it was.

Verdicts carry re-checkable certificates: a rational combination of span
generators for `satisfied`, a separating component functional for
`violated`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

from . import trees
from .exact_linalg import ExactSpan
from .fields import SystemDef, Vector, eval_bracket
from .hall import InternalConsistencyError, basis_of_bidegree
from .trees import BracketTree, X0, X1


@dataclass(frozen=True)
class Caps:
    """Truncation parameters for infinite neutralizing families; frozen, so
    the checks below hold for the life of the object."""

    max_index: int = 12         # free family indices (j, k, l, m, mu)
    max_n0: int = 12            # interior zeros of enumerated germs
    max_layer_length: int = 15  # germ length guard for whole-layer sweeps
    max_screen_length: int = 9  # enumeration bound for the weight screen
    stability_window: Optional[int] = None  # default: state dimension

    def __post_init__(self):
        for name, least in (("max_index", 1), ("max_n0", 0),
                            ("max_layer_length", 1), ("max_screen_length", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"caps: {name} must be >= {least}, "
                                 f"got {getattr(self, name)}")
        if self.stability_window is not None and self.stability_window < 1:
            raise ValueError("caps: stability_window must be None or >= 1, "
                             f"got {self.stability_window}")

    def window(self, dim: int) -> int:
        return self.stability_window or dim


# ---------------------------------------------------------------------------
# family specifications

@dataclass(frozen=True)
class LayerFamily:
    """All basis elements with n1 in a given set (None = unbounded layers)."""

    n1_set: frozenset[int]


@dataclass(frozen=True)
class GermChain:
    """One germ with its full trailing-zero chain {germ 0^nu : nu >= 0}."""

    germ: BracketTree


@dataclass(frozen=True)
class IndexedChains:
    """Germ chains swept over one free index (e.g. P(1,l,0) for l >= 1)."""

    label: str
    germ_of_index: Callable[[int], BracketTree]
    start: int = 1


@dataclass(frozen=True)
class Fixed:
    """A single concrete element, no chain."""

    tree: BracketTree


Generator = Union[LayerFamily, GermChain, IndexedChains, Fixed]


@dataclass(frozen=True)
class FamilySpec:
    name: str
    generators: tuple[Generator, ...]
    exclude: frozenset[str] = frozenset()   # canonical tree texts


def family_s1() -> FamilySpec:
    return FamilySpec("S1", (GermChain(X1),))


def family_layers(n1_values: Iterable[int], name: str | None = None,
                  exclude: Iterable[str] = ()) -> FamilySpec:
    values = frozenset(n1_values)
    return FamilySpec(name or f"layers{sorted(values)}",
                      (LayerFamily(values),), frozenset(exclude))


def family_n2() -> FamilySpec:
    return FamilySpec("N2", (
        GermChain(X1),
        GermChain(trees.P(1, 1, 0)),
    ))


def family_n3() -> FamilySpec:
    return FamilySpec("N3", (
        GermChain(X1),
        IndexedChains("P(1,l,nu), l>=1", lambda l: trees.P(1, l, 0)),
        Fixed(trees.Q(1, 1, 1, 0)),
        GermChain(trees.Q(1, 1, 2, 0)),
        Fixed(trees.Q_flat(1, 0, 0)),
        Fixed(trees.Q_flat(1, 1, 0)),
        Fixed(trees.Q_flat(1, 2, 0)),
        GermChain(trees.R(1, 1, 1, 1, 0)),
        IndexedChains("Rs(1,1,1,mu,nu), mu>=0",
                      lambda mu: trees.R_sharp(1, 1, 1, mu, 0), start=0),
    ))


def family_pk(k: int) -> FamilySpec:
    """P(j,l,nu) with j < k <= anything: the cubic screen's P-part."""
    gens = []
    for j in range(1, k):
        gens.append(IndexedChains(
            f"P({j},l,nu), l>={j}",
            lambda l, j=j: trees.P(j, l, 0), start=j))
    return FamilySpec(f"P_{k}", tuple(gens))


# ---------------------------------------------------------------------------
# span computation

@dataclass
class SpanResult:
    """The family span in one `ExactSpan`, with the element behind each of
    its generators."""

    exact: ExactSpan
    generating_elements: list[BracketTree]
    stabilized: bool
    caps: Caps

    @property
    def basis_vectors(self) -> list[Vector]:
        return self.exact.generators

    @property
    def rank(self) -> int:
        return self.exact.rank


def _chain_vectors(sys: SystemDef, germ: BracketTree,
                   offer: Callable[[BracketTree, Vector], None]) -> None:
    """Offer the full trailing-zero chain of one germ (exact truncation)."""
    chain_span = ExactSpan(sys.dim)
    tree = germ
    for _ in range(sys.dim):
        value = eval_bracket(sys, tree)
        if value is sys._zero_value or not chain_span.add(value):
            break   # a zero or a Krylov stall is permanent
        offer(tree, value)
        tree = trees.node(tree, X0)


def neutral_span(sys: SystemDef, fam: FamilySpec,
                 caps: Caps | None = None) -> SpanResult:
    """Exact basis of span{f_b(0) : b in fam} under the truncation caps."""
    caps = caps or Caps()
    window = caps.window(sys.dim)
    span = ExactSpan(sys.dim)
    elements: list[BracketTree] = []
    stabilized = True

    def offer(tree: BracketTree, value: Vector) -> None:
        if tree.text not in fam.exclude and span.add(value):
            elements.append(tree)

    for gen in fam.generators:
        if isinstance(gen, Fixed):
            if gen.tree.text not in fam.exclude:
                offer(gen.tree, eval_bracket(sys, gen.tree))
        elif isinstance(gen, GermChain):
            _chain_vectors(sys, gen.germ, offer)
        elif isinstance(gen, IndexedChains):
            last_growth = gen.start - 1
            index = gen.start
            while index <= gen.start + caps.max_index - 1:
                before = span.rank
                _chain_vectors(sys, gen.germ_of_index(index), offer)
                if span.rank > before:
                    last_growth = index
                if index - last_growth >= window:
                    break
                index += 1
            else:
                if last_growth > gen.start + caps.max_index - 1 - window:
                    stabilized = False
        elif isinstance(gen, LayerFamily):
            if not gen.n1_set:
                continue
            last_growth = -1
            for budget in range(0, caps.max_n0 + 1):
                before = span.rank
                for n1 in sorted(gen.n1_set):
                    if n1 + budget > caps.max_layer_length:
                        continue
                    for element in basis_of_bidegree(n1, budget):
                        if element.tree.right is X0:
                            continue    # chains handle trailing zeros
                        if element.tree.text in fam.exclude:
                            continue
                        _chain_vectors(sys, element.tree, offer)
                if span.rank > before:
                    last_growth = budget
            if last_growth > caps.max_n0 - window:
                stabilized = False
        else:  # pragma: no cover
            raise TypeError(gen)
    return SpanResult(exact=span, generating_elements=elements,
                      stabilized=stabilized, caps=caps)


# ---------------------------------------------------------------------------
# reports and the component functional

@dataclass
class ConditionReport:
    condition: str
    system: str
    verdict: str                      # satisfied | violated | inconclusive
    target: BracketTree
    target_value: Vector
    span: SpanResult
    component: Optional[Vector] = None          # certifies violated
    combination: Optional[list[Fraction]] = None  # certifies satisfied
    detail: str = ""

    def summary(self) -> str:
        return (f"{self.condition} on {self.system}: {self.verdict} "
                f"(target {trees.display_form(self.target)}, rank "
                f"{self.span.rank}, stabilized={self.span.stabilized})")

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "system": self.system,
            "verdict": self.verdict,
            "target": trees.display_form(self.target),
            "target_value": [str(x) for x in self.target_value],
            "span_rank": self.span.rank,
            "span_generators": [trees.display_form(t)
                                for t in self.span.generating_elements],
            "span_vectors": [[str(x) for x in v]
                             for v in self.span.basis_vectors],
            "stabilized": self.span.stabilized,
            "caps": asdict(self.span.caps),
            "component": ([str(x) for x in self.component]
                          if self.component else None),
            "combination": ([str(x) for x in self.combination]
                            if self.combination else None),
            "detail": self.detail,
        }


class MembershipHoldsError(ValueError):
    """component_functional asked for a span member's separating form."""


def component_functional(sys: SystemDef, b, fam: FamilySpec,
                         caps: Caps | None = None) -> Vector:
    """A row vector P with P f_b(0) = 1 and the family span inside ker P.

    Deterministic: canonical null-space basis of the span, first vector with
    the fewest nonzero entries among those not annihilating the target.
    Both properties are re-checked exactly before P is returned.
    """
    target = eval_bracket(sys, b)
    span = neutral_span(sys, fam, caps)
    return _component_from_span(target, span)


def _component_from_span(target: Vector, span: SpanResult) -> Vector:
    candidates = []
    for n in span.exact.null_space():
        pairing = sum((x * t for x, t in zip(n, target)), Fraction(0))
        if pairing:
            nnz = sum(1 for x in n if x)
            candidates.append((nnz, n, pairing))
    if not candidates:
        raise MembershipHoldsError(
            "the target lies in the family span; no component exists")
    candidates.sort(key=lambda c: c[0])
    _, n, pairing = candidates[0]
    component = tuple(x / pairing for x in n)
    # the certificate is re-checked exactly: P f_b(0) = 1, P v = 0 on the span
    if (sum(p * t for p, t in zip(component, target)) != 1
            or any(sum(p * x for p, x in zip(component, v))
                   for v in span.basis_vectors)):
        raise InternalConsistencyError("separating functional failed "
                                       "re-verification")
    return component


def _run_check(sys: SystemDef, condition: str, target: BracketTree,
               fam: FamilySpec, caps: Caps | None, detail: str = "") -> ConditionReport:
    caps = caps or Caps()
    target_value = eval_bracket(sys, target)
    span = neutral_span(sys, fam, caps)
    if span.exact.contains(target_value):
        combination = span.exact.coordinates(target_value)
        if combination is None:
            raise InternalConsistencyError(
                "membership held but no exact combination was found")
        return ConditionReport(
            condition=condition, system=sys.name, verdict="satisfied",
            target=target, target_value=target_value, span=span,
            combination=combination, detail=detail)
    component = _component_from_span(target_value, span)
    verdict = "violated" if span.stabilized else "inconclusive"
    return ConditionReport(
        condition=condition, system=sys.name, verdict=verdict,
        target=target, target_value=target_value, span=span,
        component=component, detail=detail)


# ---------------------------------------------------------------------------
# the published necessary conditions

def check_sussmann_stefani(sys: SystemDef, k: int,
                           caps: Caps | None = None) -> ConditionReport:
    """Order-2k obstruction: ad_{X1}^{2k}(X0) against layers 1..2k-1."""
    if k < 1:
        raise ValueError("k >= 1")
    target = trees.ad(X1, 2 * k, X0)
    fam = family_layers(range(1, 2 * k), name=f"S[1,{2*k-1}]")
    return _run_check(sys, f"sussmann:{k}", target, fam, caps)


def pi_threshold(k: int, m: int) -> Union[int, float]:
    """Admissible-layer threshold: 1 + ceil((2k-2)/(m+1)); infinite at m=-1."""
    if k < 1 or m < -1:
        raise ValueError("need k >= 1 and m >= -1")
    if m == -1:
        return 1 if k == 1 else math.inf
    return 1 + math.ceil(Fraction(2 * k - 2, m + 1))


def _pi_layer_set(k: int, m: int, caps: Caps) -> tuple[set[int], str]:
    pi = pi_threshold(k, m)
    if pi is math.inf:
        top = min(caps.max_index, 7)
        note = f"pi=inf truncated to n1 <= {top}"
    else:
        top = int(pi)
        note = f"pi={top}"
    return set(range(1, top + 1)), note


def family_loose(k: int, m: int, caps: Caps | None = None) -> FamilySpec:
    """All layers 1..pi(k,m) except 2 (pi = inf is cut at the caps)."""
    layers, _ = _pi_layer_set(k, m, caps or Caps())
    return family_layers(layers - {2}, name=f"loose:{k},{m}")


def family_sextic() -> FamilySpec:
    """Every basis element with n1 <= 7 but the order-6 germ D."""
    return family_layers(range(1, 8), name="sextic", exclude={trees.D().text})


def _check_wk(sys: SystemDef, condition: str, k: int, m: int,
              fam: FamilySpec, caps: Caps) -> ConditionReport:
    """W_k against fam; at m = -1 the layer set is infinite and cut at the
    caps, so a violated verdict is only inconclusive."""
    _, note = _pi_layer_set(k, m, caps)
    report = _run_check(sys, condition, trees.W(k, 0), fam, caps, detail=note)
    if m == -1 and report.verdict == "violated":
        report.verdict = "inconclusive"
        report.detail += "; infinite layer set truncated at caps"
    return report


def check_wk_loose(sys: SystemDef, k: int, m: int,
                   caps: Caps | None = None) -> ConditionReport:
    """W_k against all layers 1..pi(k,m) except 2."""
    caps = caps or Caps()
    return _check_wk(sys, f"wk:{k},{m}", k, m, family_loose(k, m, caps), caps)


def check_wk_cubic_screen(sys: SystemDef, k: int, m: int,
                          caps: Caps | None = None) -> ConditionReport:
    """W_k against layer 1, the restricted cubic list, and layers 4..pi."""
    caps = caps or Caps()
    layers, _ = _pi_layer_set(k, m, caps)
    high_layers = {n for n in layers if n >= 4}
    gens: list[Generator] = [GermChain(X1)]
    gens.extend(family_pk(k).generators)
    if high_layers:
        gens.append(LayerFamily(frozenset(high_layers)))
    fam = FamilySpec(f"S1+P_{k}+S[4,pi] (m={m})", tuple(gens))
    return _check_wk(sys, f"wk-screen:{k},{m}", k, m, fam, caps)


def check_n2(sys: SystemDef, caps: Caps | None = None) -> ConditionReport:
    return _run_check(sys, "n2", trees.W(2, 0), family_n2(), caps)


def check_n3(sys: SystemDef, caps: Caps | None = None) -> ConditionReport:
    return _run_check(sys, "n3", trees.W(3, 0), family_n3(), caps)


def check_sextic(sys: SystemDef, caps: Caps | None = None) -> ConditionReport:
    """The order-6 germ D against every basis element with n1 <= 7 but D."""
    return _run_check(sys, "sextic", trees.D(), family_sextic(), caps)


# ---------------------------------------------------------------------------
# sufficiency-side screen: bracket weights

def default_pi1_member(b: BracketTree) -> bool:
    """The free generating set used for the order-6 limiting examples.

    Right-iterated brackets ad_{M2}^{i2} ad_{M1}^{i1} ad_{X1}^{i0} (X0),
    excluding i0 = 1 (any i1, i2) and (i0, i1) = (0, 1) (any i2).  This is
    the triple Lazard elimination of X1, then M1 = ad_{X1}(X0), then
    M2 = ad_{M1}(X0), so the set freely generates its Lie algebra and spans a
    complement of R X1 + R M1 + R M2.
    """
    i2 = i1 = i0 = 0
    m2, m1 = trees.M(2), trees.M(1)
    cur = b
    while not cur.is_leaf and cur.left == m2:
        i2 += 1
        cur = cur.right
    while not cur.is_leaf and cur.left == m1:
        i1 += 1
        cur = cur.right
    while not cur.is_leaf and cur.left is X1:
        i0 += 1
        cur = cur.right
    if cur is not X0:
        return False
    if i0 == 1:
        return False
    if i0 == 0 and i1 == 1:
        return False
    return True


class LayerUndeterminedError(ValueError):
    pass


def _greedy_layer(b: BracketTree) -> int:
    if default_pi1_member(b):
        return 1
    if b.is_leaf:
        raise LayerUndeterminedError(
            f"{trees.display_form(b)} is not decomposable over the generator "
            "set under the greedy rule")
    return _greedy_layer(b.left) + _greedy_layer(b.right)


def ag_weight(pi: Union[BracketTree, str],
              sigma: Fraction = Fraction(1)) -> tuple[int, Fraction]:
    """(layer k, weight |pi| - sigma k) for a bracket over the generator set
    of `default_pi1_member`."""
    if isinstance(pi, str):
        pi = trees.parse_tree(pi)
    sigma = Fraction(sigma)
    if not 0 <= sigma <= 1:
        raise ValueError("sigma must lie in [0, 1]")
    k = _greedy_layer(pi)
    return k, Fraction(pi.length) - sigma * k


@dataclass
class AgScreenEntry:
    tree: BracketTree
    layer: int
    weight: Fraction
    value: Vector
    compensated: Optional[bool]    # None when the span was empty/undetermined

    def line(self) -> str:
        status = {True: "compensated", False: "NOT compensated",
                  None: "trivial"}[self.compensated]
        return (f"{trees.display_form(self.tree)}: layer {self.layer}, "
                f"weight {self.weight}, {status}")


def ag_screen(sys: SystemDef,
              sigma: Fraction = Fraction(1), r: Fraction = Fraction(6),
              caps: Caps | None = None) -> list[AgScreenEntry]:
    """List type-(even n1, odd n0) brackets in odd layers with weight <= r and
    check each against the span of strictly smaller-weight brackets.

    The enumeration runs over basis elements within the caps whose greedy
    layer is determined; it reports obligations, it does not certify
    controllability.
    """
    caps = caps or Caps()
    sigma = Fraction(sigma)
    r = Fraction(r)
    max_len = caps.max_screen_length
    weighted: list[tuple[BracketTree, int, Fraction]] = []
    for p in range(0, max_len + 1):
        for q in range(0, max_len + 1 - p):
            for element in basis_of_bidegree(p, q):
                try:
                    k, w = ag_weight(element.tree, sigma)
                except LayerUndeterminedError:
                    continue
                if w <= r:
                    weighted.append((element.tree, k, w))
    # one span grown in weight order holds every bracket lighter than w
    weighted.sort(key=lambda item: item[2])
    span = ExactSpan(sys.dim)
    grown = 0
    entries = []
    for tree, k, w in weighted:
        if tree.n1 % 2 or tree.n0 % 2 == 0 or k % 2 == 0:
            continue
        value = eval_bracket(sys, tree)
        if not any(value):
            entries.append(AgScreenEntry(tree, k, w, value, None))
            continue
        while grown < len(weighted) and weighted[grown][2] < w:
            span.add(eval_bracket(sys, weighted[grown][0]))
            grown += 1
        entries.append(AgScreenEntry(
            tree, k, w, value, span.contains(value)))
    entries.sort(key=lambda e: (e.weight, e.tree.length, e.tree.text))
    return entries
