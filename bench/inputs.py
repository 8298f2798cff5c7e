"""Seeded input generators for the three workloads.

`generate(workload, seed)` returns a JSON-serializable spec: systems, controls
and trees as text, plus the job list.  It runs once per benchmark run, in the
parent process: rejecting degenerate inputs uses Hall enumeration and word
expansions, which would otherwise warm the caches that every pass must meet
cold.  Each pass decodes the spec in a fresh process.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from lietool import trees
from lietool.controls import PiecewisePolyControl, Poly, primitive
from lietool.exact_linalg import ExactSpan
from lietool.fields import (PolyVectorField, SystemDef, system_to_json_dict,
                            vf_bracket)
from lietool.hall import basis_of_bidegree, is_hall
from lietool.polynomials import SparsePoly
from lietool.words import expand_to_words

WORKLOADS = ("verdicts", "expansions", "scans")

# ---------------------------------------------------------------------------
# verdicts

# Acceptance criterion 6: (zoo name, params, condition, expected verdict).
CATALOG = [
    ("easy", {}, "sussmann:1", "violated"),
    ("w2_vs_q111", {}, "n2", "violated"),
    ("w2_vs_q111", {}, "wk:2,0", "violated"),
    ("jakubczyk", {}, "n2", "satisfied"),
    *[(name, params, "n3", "satisfied") for name, params in [
        ("w3_vs_q111", {}),
        ("w3_vs_p1l", {"l": 1}), ("w3_vs_p1l", {"l": 2, "nu": 1}),
        ("w3_vs_p1l", {"l": 3}),
        ("w3_vs_p1l_ge4", {"l": 4}), ("w3_vs_p1l_ge4", {"l": 5, "nu": 1}),
        ("w3_vs_q112", {}), ("w3_vs_q112", {"nu": 1}),
        ("w3_vs_r1111", {}), ("w3_vs_r1111", {"nu": 1}),
        ("w3_vs_rsharp", {}), ("w3_vs_rsharp", {"mu": 1, "nu": 1}),
        ("w3_vs_qb10", {}), ("w3_vs_qb11", {}), ("w3_vs_qb12", {}),
    ]],
    *[("wk_prototype", {"k": k, "p": p}, f"wk:{k},0", "violated")
      for k, p in [(2, 4), (2, 5), (3, 8)]],
    ("sextic", {"p": 7}, "sextic", "satisfied"),
    ("sextic", {"p": 8}, "sextic", "violated"),
    ("w3_vs_q111", {}, "ag:1,6", None),
]

# Dense random systems per run: (state dimension, caps for wk:2,0 or None to
# skip it).  wk:2,0 does not finish at the full caps on these systems.  Twenty
# 3-state n2 checks put the tail percentile inside one group of similar jobs;
# one 4-state n2 check (1.4-2.1 s) is the slowest job.
DENSE = [(3, {"max_n0": 2})] * 20 + [(4, None)]
FILL = 0.3


def _monomials(dim: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(dim), degree):
        e = [0] * dim
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _truncated(f: PolyVectorField, order: int) -> PolyVectorField:
    return PolyVectorField(f.dim, [
        SparsePoly(f.dim, {e: c for e, c in comp.terms.items()
                           if sum(e) <= order})
        for comp in f.components])


def origin_value(sys: SystemDef, tree: trees.BracketTree) -> tuple:
    """f_b(0) from Taylor jets truncated to the order each node needs.

    Independent of `SystemDef.bracket_field`: the bracket of two fields up to
    degree k+1 is exact up to degree k, so a node needed to order k asks its
    children for order k+1.
    """
    memo: dict = {}

    def field(b, order):
        key = (b.text, order)
        if key not in memo:
            if b.is_leaf:
                out = sys.f0 if b is trees.X0 else sys.f1
            else:
                out = vf_bracket(field(b.left, order + 1),
                                 field(b.right, order + 1))
            memo[key] = _truncated(out, order)
        return memo[key]

    return field(tree, 0).value_at_zero()


def krylov_span(sys: SystemDef) -> ExactSpan:
    """span{H0^k f1(0)}: the directions the linearization reaches."""
    span = ExactSpan(sys.dim)
    v = sys.f1.value_at_zero()
    while any(v) and span.add(v):
        v = sys.h0_apply(v)
    return span


def dense_system(rng: random.Random, dim: int, name: str) -> SystemDef:
    """Cubic drift, quadratic input, FILL of the monomials in each component.

    The linear part of f0 and the value f1(0) live on the first dim-1
    coordinates, so the linearization is not controllable; f1(0) != 0, and
    W(2,0) at 0 must leave the linearly reachable span, so that the n2 and
    wk:2,0 verdicts are decided by the nonlinear brackets.
    """
    r = dim - 1
    drift_monos = [m for deg in (1, 2, 3) for m in _monomials(dim, deg)]
    input_monos = [m for deg in (0, 1, 2) for m in _monomials(dim, deg)]
    coeffs = (-3, -2, -1, 1, 2, 3)
    while True:
        f0, f1 = [], []
        for i in range(dim):
            allowed = [m for m in drift_monos
                       if sum(m) > 1 or (i < r and m.index(1) < r)]
            picked = rng.sample(allowed, round(FILL * len(allowed)))
            f0.append(SparsePoly(dim, {m: rng.choice(coeffs) for m in picked}))
            allowed = [m for m in input_monos if sum(m) or i < r]
            picked = rng.sample(allowed, round(FILL * len(allowed)))
            terms = {m: rng.choice(coeffs) for m in picked}
            if i == 0:
                terms[(0,) * dim] = rng.choice(coeffs)
            f1.append(SparsePoly(dim, terms))
        sys = SystemDef(dim, PolyVectorField(dim, f0),
                        PolyVectorField(dim, f1), name=name)
        target = origin_value(sys, trees.W(2, 0))
        if any(target) and not krylov_span(sys).contains(target):
            return sys


def interleave(*streams: list) -> list:
    """Merge the streams so that each one's items are spread evenly over the
    result, in their own order.  A pass then samples every kind of job
    throughout its run time instead of in one stretch."""
    keyed = [((i + 0.5) / len(stream), k, i, item)
             for k, stream in enumerate(streams)
             for i, item in enumerate(stream)]
    return [item for *_, item in sorted(keyed, key=lambda x: x[:3])]


def _flat(groups: list[list]) -> list:
    return [job for group in groups for job in group]


def _verdicts(rng: random.Random) -> dict:
    catalog = [[{"kind": "check", "system": {"zoo": name, "params": params},
                 "condition": cond, "expect": expect}]
               for name, params, cond, expect in CATALOG]
    systems, dense = [], []
    for i, (dim, caps) in enumerate(DENSE):
        sys = dense_system(rng, dim, f"dense{dim}-{i}")
        systems.append(system_to_json_dict(sys))
        ref = {"dense": i}
        group = [
            {"kind": "check", "system": ref, "condition": "n2"},
            {"kind": "component", "system": ref, "condition": "n2"},
            {"kind": "check", "system": ref, "condition": "sussmann:1"},
        ]
        if caps is not None:
            group.append({"kind": "check", "system": ref,
                          "condition": "wk:2,0", "caps": caps})
        dense.append(group)
    return {"systems": systems, "jobs": _flat(interleave(catalog, dense))}


# ---------------------------------------------------------------------------
# expansions

# interaction_log cutoffs, one control each; formal_state/ordered_product
# cutoffs, one control each; decompose bidegrees with how many brackets each
# (the first at a bidegree builds its solver).  Warm solves are most of the
# jobs.  The median job falls in the middle of the warm solves at (5,6), and
# the tail percentile in the middle of the ordered products at cutoff 7, so
# that neither figure sits at a boundary between groups of unlike jobs.
ILOG_CUTOFFS = (6, 7, 8, 9, 10)
PRODUCT_CUTOFFS = (5, 6, 7, 7, 7, 7, 7)
DECOMPOSE_BIDEGREES = {(3, 4): 4, (4, 4): 8, (4, 5): 4, (5, 5): 8, (5, 6): 96,
                       (5, 7): 4}


def pc_control(rng: random.Random, pieces: int,
               horizon: Fraction = Fraction(1)) -> PiecewisePolyControl:
    """Piecewise-constant control on [0, horizon], breakpoints on the
    horizon/12 grid."""
    cuts = sorted(rng.sample(range(1, 12), pieces - 1))
    breakpoints = [Fraction(0), *(horizon * Fraction(c, 12) for c in cuts),
                   horizon]
    values = []
    while not any(values):
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(pieces)]
    return PiecewisePolyControl.piecewise_constant(breakpoints, values)


def exact_control(rng: random.Random) -> PiecewisePolyControl:
    """Three constant pieces on [0, 1] whose exact arithmetic has the same
    size for every seed: breakpoints at k/12 with k prime to 12, values
    +-1, 5 or 7 over the denominators 1, 2 and 3 in a random order.  The
    cost of an expansion to cutoff 10 then moves little with the seed."""
    cuts = sorted(rng.sample((1, 5, 7, 11), 2))
    breakpoints = [Fraction(0), *(Fraction(c, 12) for c in cuts), Fraction(1)]
    denominators = [1, 2, 3]
    rng.shuffle(denominators)
    values = [Fraction(rng.choice((-7, -5, -1, 1, 5, 7)), d)
              for d in denominators]
    return PiecewisePolyControl.piecewise_constant(breakpoints, values)


def splits(n1: int, n0: int) -> list[tuple[int, int]]:
    """Bidegrees (p, q) of a left factor a, with p >= 1, for which both a
    and the right factor b have Hall elements."""
    return [(p, q) for p in range(1, n1 + 1) for q in range(n0 + 1)
            if (p, q) != (n1, n0) and basis_of_bidegree(p, q)
            and basis_of_bidegree(n1 - p, n0 - q)]


PAIR_DRAWS = 50


def _needs_solve(tree: trees.BracketTree) -> bool:
    return not is_hall(tree) and bool(expand_to_words(tree, tree.length))


def bracket_pair(rng: random.Random, n1: int, n0: int,
                 split: tuple[int, int]) -> trees.BracketTree | None:
    """A bracket (a, b) of Hall elements at bidegree (n1, n0), with a at
    bidegree `split`, that decompose must actually solve: not itself Hall
    and not expanding to zero.  None when PAIR_DRAWS draws find none (on
    the splits where that happens no pair needs a solve)."""
    p, q = split
    left, right = basis_of_bidegree(p, q), basis_of_bidegree(n1 - p, n0 - q)
    for _ in range(PAIR_DRAWS):
        tree = trees.node(rng.choice(left).tree, rng.choice(right).tree)
        if _needs_solve(tree):
            return tree
    return None


def bracket_pairs(rng: random.Random, n1: int, n0: int,
                  count: int) -> list[trees.BracketTree]:
    """`count` bracket pairs with their left factors' bidegrees spread evenly
    over `splits` in a fixed order, the factors drawn at random.  A warm
    decomposition's cost depends mostly on the split, so a fixed mix of
    splits keeps the median job's cost from moving with the seed."""
    options = splits(n1, n0)
    out = []
    for k in range(count):
        i = k * len(options) // count
        tree = None
        while tree is None:
            tree = bracket_pair(rng, n1, n0, options[i % len(options)])
            i += 1
        out.append(tree)
    return out


def _expansions(rng: random.Random) -> dict:
    logs = []
    for cutoff in ILOG_CUTOFFS:
        u = exact_control(rng).to_json_dict()
        logs.append([{"kind": "interaction_log", "control": u,
                      "cutoff": cutoff}])
    for _ in range(2):
        u = exact_control(rng).to_json_dict()
        logs.append([{"kind": "magnus_log", "control": u, "cutoff": 8}])
    products = []
    for cutoff in PRODUCT_CUTOFFS:
        u = exact_control(rng).to_json_dict()
        products.append([
            {"kind": "formal_state", "control": u, "cutoff": cutoff},
            {"kind": "ordered_product", "control": u, "cutoff": cutoff}])
    for cutoff in (4, 4, 5):
        u = exact_control(rng).to_json_dict()
        products.append([{"kind": "cross_terms", "control": u,
                          "cutoff": cutoff}])
    decompositions = [[{"kind": "decompose", "tree": tree.text}]
                      for (n1, n0), count in DECOMPOSE_BIDEGREES.items()
                      for tree in bracket_pairs(rng, n1, n0, count)]
    return {"jobs": _flat(interleave(logs, products, decompositions))}


# ---------------------------------------------------------------------------
# scans

# The documented scans (README, acceptance criterion 9): seed 0, 200 trials.
SCANS = [("easy", "W(1,0)", "s1"), ("w2_vs_q111", "W(2,0)", "n2")]
SCAN_PARAMS = {"eps": 0.1, "C": 10.0, "beta": 1.5, "trials": 200, "seed": 0,
               "rho": 0.1, "t_max": 0.1}
# Enough simulations that the median job is one of them, and enough
# inequality controls that the tail percentile falls in the middle of the
# gated ones (u1(t) = 0), which cost more than the ungated ones.
INEQUALITY_CONTROLS = 14
UNGATED_CONTROLS = 2
SIMULATIONS = 26
SIMULATE_STEP = 1e-3      # the CLI's default step


def poly_control(rng: random.Random, pieces: int,
                 mean_zero: bool) -> PiecewisePolyControl:
    """Quadratic pieces with quarter-integer coefficients on [0, 1]; with
    mean_zero the control is shifted so that u1(1) = 0, which the gated
    inequality needs."""
    cuts = sorted(rng.sample(range(1, 12), pieces - 1))
    breakpoints = [Fraction(0), *(Fraction(c, 12) for c in cuts), Fraction(1)]
    polys = []
    for _ in range(pieces):
        coeffs = [Fraction(rng.randint(-4, 4), 4) for _ in range(3)]
        coeffs[2] = coeffs[2] or Fraction(1, 4)
        polys.append(Poly(coeffs))
    u = PiecewisePolyControl(breakpoints, polys)
    if mean_zero:
        shift = primitive(u, 1).end_value()
        u = u - PiecewisePolyControl.constant(shift, u.horizon)
    return u


def _scans(rng: random.Random) -> dict:
    scans = [{"kind": "drift_scan", "system": name, "bracket": bracket,
              "family": family, **SCAN_PARAMS}
             for name, bracket, family in SCANS]
    simulations = [{"kind": "simulate", "step": SIMULATE_STEP,
                    "control": pc_control(rng, rng.randint(1, 6),
                                          Fraction(1, 4)).to_json_dict()}
                   for _ in range(SIMULATIONS)]
    checks = [{"kind": "inequalities",
               "control": poly_control(
                   rng, 1 + i % 2,
                   mean_zero=i >= UNGATED_CONTROLS).to_json_dict()}
              for i in range(INEQUALITY_CONTROLS)]
    # acceptance criterion 8: (M, length cutoff, slope threshold)
    checks += [{"kind": "residual_slope", "M": M, "cutoff": cutoff,
                "threshold": threshold}
               for M, cutoff, threshold in ((1, 5, 1.8), (2, 6, 2.8))]
    return {"jobs": interleave(scans, simulations, checks)}


def generate(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    builder = {"verdicts": _verdicts, "expansions": _expansions,
               "scans": _scans}[workload]
    return {"workload": workload, "seed": seed, **builder(rng)}
