"""Benchmark jobs: the call a user makes, its traced replay, its output check.

Each job is one library call.  `run` makes it as a user would.  `replay`
makes the same call stage by stage through public functions, one span per
call, doing no evaluation, enumeration or solve that `run` skips; where a
stage boundary depends on intermediate results (where an indexed family
stops growing), the replay tracks them with the same public classes and
that bookkeeping shows up as trace overhead.  `check` raises `CheckFailed`
unless the output is exactly right, or right at the acceptance suite's
tolerances.
"""

from __future__ import annotations

import inspect
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from lietool import trees
from lietool.conditions import (Caps, Fixed, GermChain, IndexedChains,
                                LayerFamily, MembershipHoldsError, ag_screen,
                                check_n2, check_n3, check_sextic,
                                check_sussmann_stefani, check_wk_loose,
                                component_functional, family_layers,
                                family_n2, family_n3, family_s1, neutral_span,
                                pi_threshold)
from lietool.controls import PiecewisePolyControl, control_from_json_dict
from lietool.coord import check_inequalities, xi
from lietool.exact_linalg import ExactSpan, independent_rows, invert_square
from lietool.expansions import (EtaTable, cross_term_check, formal_state,
                                interaction_log, magnus_log, ordered_product)
from lietool.fields import eval_bracket, system_from_json_dict
from lietool.hall import (basis_of_bidegree, basis_up_to_length,
                          decompose, decompose_series, is_hall)
from lietool.simulate import (drift_scan, integrate, random_control_family,
                              residual_scaling_slope, worker_count, zm_state)
from lietool.words import (TensorSeries, expand_to_words, word_bidegree,
                           words_of_bidegree)
from lietool.zoo import zoo

from inputs import origin_value
from tracing import Tracer


class CheckFailed(Exception):
    """A job's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    replay: Callable[["Replay"], Any]
    check: Callable[[Any], None]


class Replay:
    """Per-pass replay state: the tracer and what this process has built."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.cells: set[tuple[int, int]] = set()
        self.solved: set[tuple[int, int]] = set()

    def span(self, name: str):
        return self.tracer.span(name)

    def count(self, name: str, n: float = 1) -> None:
        self.tracer.count(name, n)

    def enumerate(self, n1: int, n0: int):
        with self.span("hall.enumerate"):
            elements = basis_of_bidegree(n1, n0)
        if (n1, n0) not in self.cells:
            self.cells.add((n1, n0))
            self.count("hall.elements", len(elements))
        return elements

    def evaluate(self, sys, tree):
        with self.span("fields.eval"):
            value = eval_bracket(sys, tree)
        self.count("fields.evals")
        self.count("fields.zeros", not any(value))
        return value

    def decompose(self, call: Callable[[], Any], n1: int, n0: int):
        cold = (n1, n0) not in self.solved
        with self.span("hall.decompose_cold" if cold else "hall.decompose_warm"):
            out = call()
        self.solved.add((n1, n0))
        self.count("hall.bidegrees", cold)
        self.count("hall.decompose_calls")
        return out


def _default(function, name: str):
    return inspect.signature(function).parameters[name].default


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


# ---------------------------------------------------------------------------
# verdicts

def condition_parts(condition: str, caps: Caps):
    """(checker, target, family) for a CLI-style condition name."""
    name, _, arg = condition.partition(":")
    if name == "sussmann":
        k = int(arg)
        return (lambda s: check_sussmann_stefani(s, k, caps),
                trees.ad(trees.X1, 2 * k, trees.X0),
                family_layers(range(1, 2 * k)))
    if name == "n2":
        return (lambda s: check_n2(s, caps), trees.W(2, 0), family_n2())
    if name == "n3":
        return (lambda s: check_n3(s, caps), trees.W(3, 0), family_n3())
    if name == "wk":
        k, m = (int(x) for x in arg.split(","))
        pi = pi_threshold(k, m)
        top = min(caps.max_index, 7) if pi == math.inf else int(pi)
        return (lambda s: check_wk_loose(s, k, m, caps), trees.W(k, 0),
                family_layers(set(range(1, top + 1)) - {2}))
    if name == "sextic":
        return (lambda s: check_sextic(s, caps), trees.D(),
                family_layers(range(1, 8), exclude={trees.D().text}))
    raise ValueError(f"unknown condition {condition!r}")


def _cells(gen: LayerFamily, caps: Caps) -> list[tuple[int, int]]:
    """The (n1, n0) cells a layer sweep visits, in neutral_span's order."""
    return [(n1, budget) for budget in range(caps.max_n0 + 1)
            for n1 in sorted(gen.n1_set)
            if n1 + budget <= caps.max_layer_length]


def _layer_cells(fam, caps: Caps) -> list[tuple[int, int]]:
    return [cell for gen in fam.generators if isinstance(gen, LayerFamily)
            for cell in _cells(gen, caps)]


def _visit_family(rp: Replay, sys, fam, caps: Caps) -> tuple[int, int]:
    """Evaluate the germs `neutral_span` visits, in its order.

    Returns (rank, vectors offered).  The span is tracked here only to know
    where an indexed family stops; this mirrors neutral_span's stop rule.
    """
    span = ExactSpan(sys.dim)
    offered = 0
    window = caps.window(sys.dim)

    def add(tree, value):
        nonlocal offered
        if tree.text not in fam.exclude and any(value):
            offered += 1
            span.add(value)

    def chain(germ):
        value = rp.evaluate(sys, germ)
        steps = ExactSpan(sys.dim)
        tree = germ
        for _ in range(sys.dim):
            if not any(value) or not steps.add(value):
                break
            add(tree, value)
            value = sys.h0_apply(value)
            tree = trees.node(tree, trees.X0)

    for gen in fam.generators:
        if isinstance(gen, Fixed):
            if gen.tree.text not in fam.exclude:
                add(gen.tree, rp.evaluate(sys, gen.tree))
        elif isinstance(gen, GermChain):
            chain(gen.germ)
        elif isinstance(gen, IndexedChains):
            last_growth = gen.start - 1
            for index in range(gen.start, gen.start + caps.max_index):
                before = span.rank
                chain(gen.germ_of_index(index))
                if span.rank > before:
                    last_growth = index
                if index - last_growth >= window:
                    break
        else:
            for n1, budget in _cells(gen, caps):
                for element in basis_of_bidegree(n1, budget):
                    if (not element.trailing_zeros
                            and element.tree.text not in fam.exclude):
                        chain(element.tree)
    return span.rank, offered


def _max_field_terms(sys) -> int:
    fields = getattr(sys, "_field_cache", {}).values()
    return max((sum(len(c.terms) for c in f.components) for f in fields),
               default=0)


def check_report(sys, target, expect: str | None):
    def check(report) -> None:
        require(report.target == target, "wrong target")
        require(report.target_value == origin_value(sys, target),
                "target value disagrees with the jet evaluation")
        vectors = report.span.basis_vectors
        require(len(vectors) == len(report.span.generating_elements),
                "span vectors and generators differ in number")
        for tree, v in zip(report.span.generating_elements, vectors):
            require(eval_bracket(sys, tree) == v, "span vector is not f_b(0)")
        probe = ExactSpan(sys.dim)
        require(all(probe.add(v) for v in vectors),
                "span vectors are dependent")
        if report.verdict == "satisfied":
            c = report.combination
            require(c is not None and len(c) == len(vectors),
                    "satisfied without a combination")
            total = tuple(sum((ci * v[i] for ci, v in zip(c, vectors)),
                              Fraction(0)) for i in range(sys.dim))
            require(total == report.target_value,
                    "combination does not reproduce the target")
        else:
            p = report.component
            require(p is not None, "no separating component")
            require(_dot(p, report.target_value) == 1,
                    "component does not pair to 1 with the target")
            require(all(_dot(p, v) == 0 for v in vectors),
                    "component does not annihilate the span")
            require(report.span.stabilized == (report.verdict == "violated"),
                    f"{report.verdict} with stabilized={report.span.stabilized}")
        if expect is not None:
            require(report.verdict == expect,
                    f"verdict {report.verdict}, expected {expect}")
    return check


def check_job(label: str, sys, condition: str, caps: Caps,
              expect: str | None) -> Job:
    checker, target, fam = condition_parts(condition, caps)

    def replay(rp: Replay):
        for n1, n0 in _layer_cells(fam, caps):
            rp.enumerate(n1, n0)
        with rp.span("conditions.span"):
            rp.evaluate(sys, target)
            rank, offered = _visit_family(rp, sys, fam, caps)
        rp.tracer.maximum("fields.max_terms", _max_field_terms(sys))
        with rp.span("conditions.certify"):
            report = checker(sys)
        if report.span.rank != rank:
            raise RuntimeError(f"{label}: replay visited a different span")
        rp.count("conditions.rank", rank)
        rp.count("conditions.offered", offered)
        return report

    return Job(label, lambda: checker(sys), replay,
               check_report(sys, target, expect))


def component_job(label: str, sys, condition: str, caps: Caps) -> Job:
    """component_functional for a condition; a refusal is a correct answer
    exactly when the target lies in the family span."""
    _, target, fam = condition_parts(condition, caps)

    def call():
        try:
            return component_functional(sys, target, fam, caps)
        except MembershipHoldsError:
            return None

    def replay(rp: Replay):
        rp.evaluate(sys, target)
        with rp.span("conditions.component"):
            return call()

    def check(component) -> None:
        value = eval_bracket(sys, target)
        vectors = neutral_span(sys, fam, caps).basis_vectors
        if component is None:
            probe = ExactSpan(sys.dim)
            for v in vectors:
                probe.add(v)
            require(probe.contains(value), "refused although not in the span")
        else:
            require(_dot(component, value) == 1,
                    "component does not pair to 1 with the target")
            require(all(_dot(component, v) == 0 for v in vectors),
                    "component does not annihilate the span")

    return Job(label, call, replay, check)


def ag_job(label: str, sys, sigma: Fraction, r: Fraction) -> Job:
    caps = Caps()

    def call():
        return ag_screen(sys, sigma=sigma, r=r)

    def replay(rp: Replay):
        top = caps.max_screen_length
        for p in range(top + 1):
            for q in range(top + 1 - p):
                rp.enumerate(p, q)
        # which brackets the screen evaluates depends on the weights it
        # computes, so its evaluations stay inside this span
        with rp.span("conditions.certify"):
            return call()

    def check(entries) -> None:
        by_name = {trees.display_form(e.tree): e for e in entries}
        for e in entries:
            require(e.value == eval_bracket(sys, e.tree),
                    "screen value is not f_b(0)")
            require((e.compensated is None) == (not any(e.value)),
                    "zero bracket not reported as trivial")
        if sys.name == "w3_vs_q111":
            require(by_name["Q(1,1,1,0)"].compensated is False,
                    "Q(1,1,1,0) must be the uncompensated obligation")
            require(by_name["W(3,0)"].compensated is True,
                    "W(3,0) must be compensated")

    return Job(label, call, replay, check)


# ---------------------------------------------------------------------------
# expansions

def _eta_from_log(rp: Replay, log_series: TensorSeries, cutoff: int,
                  horizon: Fraction) -> EtaTable:
    rp.count("words.log_terms", len(log_series.coeffs))
    buckets: dict[tuple[int, int], dict] = {}
    for w, c in log_series.coeffs.items():
        if c:
            buckets.setdefault(word_bidegree(w), {})[w] = c
    table = EtaTable(cutoff=cutoff, horizon=horizon)
    for (p, q), coeffs in sorted(buckets.items()):
        part = TensorSeries(cutoff, coeffs)
        element = rp.decompose(lambda: decompose_series(part, p, q), p, q)
        table.values.update(element.coeffs)
    return table


def interaction_log_job(label: str, u, cutoff: int) -> Job:
    def replay(rp: Replay):
        with rp.span("expansions.formal_state"):
            state = formal_state(u, cutoff)
        with rp.span("words.exp"):
            factor = TensorSeries.from_word(
                (0,), cutoff, -Fraction(u.horizon)).exp()
        with rp.span("words.log"):
            log_series = (factor * state.series).log()
        if any(c and not word_bidegree(w)[0]
               for w, c in log_series.coeffs.items()):
            raise RuntimeError("factoring exp(t X0) left a pure-X0 term")
        return _eta_from_log(rp, log_series, cutoff, u.horizon)

    def check(eta) -> None:
        require(eta[trees.X0] == 0, "eta_X0 != 0")
        require(eta[trees.X1] == u.antiderivative().end_value(),
                "eta_X1 != u1(t)")
        require(all(e.length <= cutoff for e in eta.values),
                "eta element beyond the cutoff")

    return Job(label, lambda: interaction_log(u, cutoff), replay, check)


def magnus_log_job(label: str, u, cutoff: int) -> Job:
    def replay(rp: Replay):
        with rp.span("expansions.formal_state"):
            state = formal_state(u, cutoff)
        with rp.span("words.log"):
            log_series = state.series.log()
        return _eta_from_log(rp, log_series, cutoff, u.horizon)

    def check(zeta) -> None:
        require(zeta[trees.X0] == u.horizon, "zeta_X0 != t")
        require(zeta[trees.X1] == u.antiderivative().end_value(),
                "zeta_X1 != u1(t)")

    return Job(label, lambda: magnus_log(u, cutoff), replay, check)


def formal_state_job(label: str, u, cutoff: int) -> Job:
    def replay(rp: Replay):
        with rp.span("expansions.formal_state"):
            return formal_state(u, cutoff)

    def check(state) -> None:
        require(state.series == ordered_product(u, cutoff),
                "formal_state != ordered_product")

    return Job(label, lambda: formal_state(u, cutoff), replay, check)


def ordered_product_job(label: str, u, cutoff: int) -> Job:
    def replay(rp: Replay):
        for p in range(cutoff + 1):
            for q in range(cutoff + 1 - p):
                rp.enumerate(p, q)
        for element in basis_up_to_length(cutoff):
            with rp.span("coord.xi"):
                xi(element, u)
            rp.count("coord.xi_calls")
        with rp.span("expansions.ordered_product"):
            return ordered_product(u, cutoff)

    def check(series) -> None:
        require(series == formal_state(u, cutoff).series,
                "ordered_product != formal_state")

    return Job(label, lambda: ordered_product(u, cutoff), replay, check)


def cross_terms_job(label: str, u, cutoff: int) -> Job:
    def replay(rp: Replay):
        with rp.span("expansions.cross_term"):
            out = cross_term_check(u, cutoff)
        # the check builds the solvers of every bidegree up to the cutoff
        rp.solved.update((p, q) for p in range(1, cutoff + 1)
                         for q in range(cutoff + 1 - p))
        return out

    def check(reports) -> None:
        expected = sum(1 for e in basis_up_to_length(cutoff)
                       if e.tree is not trees.X0)
        require(len(reports) == expected, "cross-term report count")
        require(all(r.matched for r in reports), "cross-term mismatch")

    return Job(label, lambda: cross_term_check(u, cutoff), replay, check)


def check_decomposition(tree):
    def check(element) -> None:
        require(bool(element), "a nonzero bracket decomposed to 0")
        require(all(e.bidegree == tree.bidegree and is_hall(e.tree)
                    for e in element.coeffs),
                "decomposition leaves the tree's bidegree")
        require(element.expand_to_words(tree.length)
                == expand_to_words(tree, tree.length),
                "decomposition does not re-expand to the tree")
    return check


def decompose_job(label: str, tree) -> Job:
    def replay(rp: Replay):
        return rp.decompose(lambda: decompose(tree), tree.n1, tree.n0)

    return Job(label, lambda: decompose(tree), replay,
               check_decomposition(tree))


def probe_solvers(rp: Replay) -> None:
    """exact_linalg on the expansion matrix of each bidegree solved cold.

    Runs after the last job, so it adds nothing to the jobs' spans.
    """
    for n1, n0 in sorted(rp.solved):
        elements = basis_of_bidegree(n1, n0)
        if len(elements) < 2:
            continue
        words = words_of_bidegree(n1, n0)
        index = {w: i for i, w in enumerate(words)}
        columns = []
        for element in elements:
            col = [Fraction(0)] * len(words)
            for w, c in expand_to_words(element.tree, n1 + n0).coeffs.items():
                col[index[w]] = c
            columns.append(col)
        with rp.span("exact_linalg.rows"):
            rows = independent_rows(columns)
        square = [[col[i] for col in columns] for i in rows]
        with rp.span("exact_linalg.invert"):
            invert_square(square)
        rp.count("exact_linalg.matrix_words", len(words))


# ---------------------------------------------------------------------------
# scans

FAMILIES = {"s1": family_s1, "n2": family_n2, "n3": family_n3}


def drift_scan_job(label: str, sys, bracket: str, family: str,
                   params: dict) -> Job:
    tree = trees.parse_tree(bracket)
    fam = FAMILIES[family]()
    step = _default(drift_scan, "step")
    eps, C, beta = params["eps"], params["C"], params["beta"]

    def replay(rp: Replay):
        rp.evaluate(sys, tree)
        for gen in fam.generators:
            rp.evaluate(sys, gen.germ)
        with rp.span("conditions.component"):
            component = component_functional(sys, tree, fam)
        controls = random_control_family(params["seed"], params["trials"],
                                         params["rho"], params["t_max"])
        rp.count("simulate.trials", len(controls))
        rp.count("simulate.useful", sum(1 for u in controls if any(u.pieces)))
        comp = np.array([float(c) for c in component])

        def margin(u):
            with rp.span("simulate.integrate"):
                trajectory = integrate(sys, u, step)
            rp.count("simulate.rk4_steps", len(trajectory.times) - 1)
            x = trajectory.final_state
            with rp.span("coord.xi"):
                xi_val = float(xi(tree, u).exact)
            rp.count("coord.xi_calls")
            px = float(comp @ x)
            norm = float(np.linalg.norm(x))
            return (px - (1 - eps) * xi_val + C * norm ** beta,
                    px - (1 - eps) * xi_val + eps * norm)

        with ThreadPoolExecutor(max_workers=worker_count()) as pool:
            results = list(pool.map(margin, controls))
        margins = [m for m, _ in results]
        return SimpleNamespace(margins=margins,
                               weak_margins=[w for _, w in results],
                               passed=min(margins) >= 0)

    def check(report) -> None:
        require(len(report.margins) == params["trials"], "trial count")
        require(all(math.isfinite(m) for m in report.margins),
                "non-finite margin")
        require(report.passed == (min(report.margins) >= 0),
                "passed flag disagrees with the margins")
        require(report.passed, "documented scan no longer passes")

    return Job(label, lambda: drift_scan(sys, tree, fam, **params), replay,
               check)


def inequalities_job(label: str, u) -> Job:
    gated = u.antiderivative().end_value() == 0

    def replay(rp: Replay):
        with rp.span("coord.inequalities"):
            return check_inequalities(u)

    def check(results) -> None:
        for r in results:
            if r.name.startswith("quintic"):
                require(r.applicable == gated, "gate misapplied")
            if r.applicable:
                require(r.passed, r.line())

    return Job(label, lambda: check_inequalities(u), replay, check)


def simulate_job(label: str, sys, u, step: float) -> Job:
    """RK4 on `easy` (x1' = u, x2' = x1, x3' = x1^2 - x2^2 - x1^3 - 4 x1 x2):
    along the exact solution x1 = u1, x2 = u2 and x3 is an exact integral
    of piecewise polynomials, all of which RK4 integrates to rounding."""
    def exact_state():
        u1 = u.antiderivative()
        u2 = u1.antiderivative()
        rate = (u1.power(2) - u2.power(2) - u1.power(3)
                - (u1 * u2).scale(4))
        return np.array([float(u1.end_value()), float(u2.end_value()),
                         float(rate.integral())])

    def replay(rp: Replay):
        with rp.span("simulate.integrate"):
            trajectory = integrate(sys, u, step)
        rp.count("simulate.rk4_steps", len(trajectory.times) - 1)
        return trajectory

    def check(trajectory) -> None:
        require(abs(trajectory.times[-1] - float(u.horizon)) <= 1e-12,
                "trajectory stops short of the horizon")
        err = np.abs(trajectory.final_state - exact_state())
        require(bool(np.all(err <= 1e-12 * (1 + np.abs(exact_state())))),
                f"RK4 state off the exact solution by {err.max():.3g}")

    return Job(label, lambda: integrate(sys, u, step), replay, check)


# acceptance criterion 8's control
SCALING_BASE = PiecewisePolyControl.piecewise_constant(
    (0, Fraction(1, 60), Fraction(1, 30), Fraction(1, 15), Fraction(1, 10)),
    (Fraction(1, 5), Fraction(-1, 5), Fraction(-1, 20), Fraction(1, 20)))


def residual_slope_job(label: str, sys, M: int, cutoff: int,
                       threshold: float) -> Job:
    lambdas = _default(residual_scaling_slope, "lambdas")
    step = _default(residual_scaling_slope, "step")
    u = SCALING_BASE

    def replay(rp: Replay):
        residuals = []
        for lam in lambdas:
            scaled = u.scale(Fraction(lam).limit_denominator(10 ** 6))
            with rp.span("simulate.integrate"):
                trajectory = integrate(sys, scaled, step)
            rp.count("simulate.rk4_steps", len(trajectory.times) - 1)
            with rp.span("simulate.zm"):
                z = zm_state(sys, scaled, M, cutoff).value
            residuals.append(float(np.linalg.norm(trajectory.final_state - z)))
        return min(math.log(residuals[i] / residuals[i + 1])
                   / math.log(lambdas[i] / lambdas[i + 1])
                   for i in range(len(lambdas) - 1))

    def check(slope) -> None:
        require(slope >= threshold, f"slope {slope:.3f} < {threshold}")

    return Job(label, lambda: residual_scaling_slope(
        sys, u, M, length_cutoff=cutoff), replay, check)


# ---------------------------------------------------------------------------
# decoding a generated spec

def build_jobs(spec: dict, rp: Replay | None = None) -> list[Job]:
    """Decode a spec from `inputs.generate` into jobs (the pass's set-up)."""
    built: dict[str, Any] = {}

    def catalog(name: str, params: dict):
        key = json.dumps([name, params], sort_keys=True)
        if key not in built:
            if rp is None:
                built[key] = zoo(name, **params)
            else:
                with rp.span("zoo.build"):
                    built[key] = zoo(name, **params)
        return built[key]

    def system(ref: dict):
        if "zoo" in ref:
            return catalog(ref["zoo"], ref.get("params", {}))
        key = f"dense:{ref['dense']}"
        if key not in built:
            built[key] = system_from_json_dict(spec["systems"][ref["dense"]])
        return built[key]

    def control(data: dict):
        key = json.dumps(data, sort_keys=True)
        if key not in built:
            built[key] = control_from_json_dict(data)
        return built[key]

    jobs = []
    for i, j in enumerate(spec["jobs"]):
        kind = j["kind"]
        label = f"{i}:{kind}"
        if kind == "check" and j["condition"].startswith("ag:"):
            sigma, r = (Fraction(x) for x in j["condition"][3:].split(","))
            jobs.append(ag_job(label, system(j["system"]), sigma, r))
        elif kind == "check":
            jobs.append(check_job(label, system(j["system"]), j["condition"],
                                  Caps(**j.get("caps", {})), j.get("expect")))
        elif kind == "component":
            jobs.append(component_job(label, system(j["system"]),
                                      j["condition"], Caps(**j.get("caps", {}))))
        elif kind == "interaction_log":
            jobs.append(interaction_log_job(label, control(j["control"]),
                                            j["cutoff"]))
        elif kind == "magnus_log":
            jobs.append(magnus_log_job(label, control(j["control"]),
                                       j["cutoff"]))
        elif kind == "formal_state":
            jobs.append(formal_state_job(label, control(j["control"]),
                                         j["cutoff"]))
        elif kind == "ordered_product":
            jobs.append(ordered_product_job(label, control(j["control"]),
                                            j["cutoff"]))
        elif kind == "cross_terms":
            jobs.append(cross_terms_job(label, control(j["control"]),
                                        j["cutoff"]))
        elif kind == "decompose":
            jobs.append(decompose_job(label, trees.parse_tree(j["tree"])))
        elif kind == "drift_scan":
            params = {k: j[k] for k in ("eps", "C", "beta", "trials", "seed",
                                        "rho", "t_max")}
            jobs.append(drift_scan_job(label, catalog(j["system"], {}),
                                       j["bracket"], j["family"], params))
        elif kind == "simulate":
            jobs.append(simulate_job(label, catalog("easy", {}),
                                     control(j["control"]), j["step"]))
        elif kind == "inequalities":
            jobs.append(inequalities_job(label, control(j["control"])))
        elif kind == "residual_slope":
            jobs.append(residual_slope_job(label, catalog("easy", {}), j["M"],
                                           j["cutoff"], j["threshold"]))
        else:
            raise ValueError(f"unknown job kind {kind!r}")
    return jobs
