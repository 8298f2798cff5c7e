"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime and running at the stated tolerance.
"""

import math
import random
import time
from fractions import Fraction

from conftest import random_pc_control, random_poly_control, random_tree
from lietool import trees
from lietool.conditions import (ag_weight, check_n2, check_n3, check_sextic,
                                check_sussmann_stefani, check_wk_loose,
                                family_n2, family_s1)
from lietool.controls import PiecewisePolyControl, primitive
from lietool.coord import chen_coefficient, check_inequalities, xi, xi_closed_form
from lietool.expansions import formal_state, interaction_log, ordered_product
from lietool.fields import eval_bracket
from lietool.hall import basis_of_bidegree, basis_up_to_length, decompose
from lietool.simulate import (drift_scan, pure_counterexample_check,
                              residual_scaling_slope)
from lietool.trees import D, X0, X1, parse_tree
from lietool.words import all_words, expand_to_words
from lietool.zoo import zoo

from test_hall import expected_family_layers, witt


class _Criterion:
    def __init__(self, number: int, title: str, budget: float):
        self.number = number
        self.title = title
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.1f}s / "
              f"budget {self.budget:.0f}s) - {self.title}")
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its {self.budget:.0f}s budget")
        return False


def test_criterion_1_basis_correctness():
    with _Criterion(1, "basis layers match the named families and the "
                       "bidegree dimensions", 10):
        got = {e.tree.text
               for p in range(6) for q in range(7)
               for e in basis_of_bidegree(p, q)}
        assert got == expected_family_layers(5, 6)
        for p in range(6):
            for q in range(7):
                if p + q == 0:
                    continue
                assert len(basis_of_bidegree(p, q)) == witt(p, q), (p, q)


def test_criterion_2_decomposition_oracle():
    with _Criterion(2, "500 random decompositions re-expand exactly; "
                       "sixth-order coefficients anchored", 60):
        rng = random.Random(2024)
        for _ in range(500):
            tree = random_tree(rng, rng.randint(1, 8))
            element = decompose(tree)
            assert element.expand_to_words(tree.length) == \
                expand_to_words(tree, tree.length)
        d = D()
        anchored = decompose(parse_tree("(X1, (W(1,1), (X1,(X1,(X1,X0)))))"))
        assert anchored.coeffs.get(trees_hall(d)) == Fraction(-1)
        anchored = decompose(parse_tree("(X1, (W(1,0), P(1,1,1)))"))
        assert anchored.coeffs.get(trees_hall(d)) == Fraction(1)
        for a in basis_up_to_length(4):
            if a.n1 != 2:
                continue
            for b in basis_up_to_length(7):
                if b.n1 != 4 or a.n0 + b.n0 != 3:
                    continue
                pair = decompose(trees.node(a.tree, b.tree))
                assert pair.coeffs.get(trees_hall(d), 0) == 0


def trees_hall(tree):
    from lietool.hall import HallElement
    return HallElement.of(tree)


def test_criterion_3_expansion_identity():
    with _Criterion(3, "state = iterated integrals = ordered product at "
                       "degree 5; interaction log anchors", 60):
        rng = random.Random(77)
        for _ in range(20):
            u = random_pc_control(rng, pieces=3)
            state = formal_state(u, 5)
            for word in all_words(5):
                assert state.series[word] == chen_coefficient(word, u).exact
            assert ordered_product(u, 5) == state.series
            eta = interaction_log(u, 5)
            assert eta[X0] == 0
            assert eta[X1] == primitive(u, 1).end_value()


def test_criterion_4_xi_consistency():
    with _Criterion(4, "recursive and closed-form coordinates agree on "
                       "every element with n1 <= 5, length <= 8", 120):
        rng = random.Random(4242)
        elements = [e for p in range(1, 6) for q in range(0, 9 - p)
                    for e in basis_of_bidegree(p, q)]
        assert len(elements) == 65
        controls = [random_poly_control(rng, max_pieces=2, max_degree=2)
                    for _ in range(50)]
        for u in controls:
            for element in elements:
                assert xi(element, u).exact == \
                    xi_closed_form(element, u).exact, repr(element)


def test_criterion_5_zoo_regression():
    with _Criterion(5, "all stated bracket values match and the vanishing "
                       "claims hold to length 8", 60):
        instances = [
            zoo("easy"), zoo("no_zm_pure"), zoo("wk_prototype"),
            zoo("jakubczyk"), zoo("w2_vs_q111"), zoo("w2_vs_p11nu"),
            zoo("w3_vs_p1l"), zoo("w3_vs_p1l_ge4"), zoo("w3_vs_q112"),
            zoo("w3_vs_r1111"), zoo("w3_vs_rsharp"), zoo("w3_vs_q111"),
            zoo("w3_time"), zoo("sextic", p=7), zoo("sextic", p=8),
            zoo("w3_vs_qb10"), zoo("w3_vs_qb11"), zoo("w3_vs_qb12"),
            zoo("x22_x1k", k=3), zoo("x22_x1k", k=4), zoo("x22_x1k", k=5),
        ]
        elements = basis_up_to_length(8)
        for sys in instances:
            for text, want in sys.expected_values.items():
                assert eval_bracket(sys, text) == want, (sys.name, text)
            if not sys.zero_elsewhere:
                continue
            claimed = set(sys.expected_values)
            for element in elements:
                if element.tree.text in claimed:
                    continue
                if (sys.zero_elsewhere_max_n1 is not None
                        and element.n1 > sys.zero_elsewhere_max_n1):
                    continue
                assert not any(eval_bracket(sys, element.tree)), \
                    (sys.name, repr(element))


def test_criterion_6_condition_verdicts():
    with _Criterion(6, "checkers reproduce the published classification "
                       "table and the weight table", 120):
        assert check_sussmann_stefani(zoo("easy"), 1).verdict == "violated"
        assert check_n2(zoo("w2_vs_q111")).verdict == "violated"
        assert check_wk_loose(zoo("w2_vs_q111"), 2, 0).verdict == "violated"
        assert check_n2(zoo("jakubczyk")).verdict == "satisfied"
        n3_satisfied = [
            zoo("w3_vs_q111"),
            zoo("w3_vs_p1l", l=1), zoo("w3_vs_p1l", l=2, nu=1),
            zoo("w3_vs_p1l", l=3),
            zoo("w3_vs_p1l_ge4", l=4), zoo("w3_vs_p1l_ge4", l=5, nu=1),
            zoo("w3_vs_q112"), zoo("w3_vs_q112", nu=1),
            zoo("w3_vs_r1111"), zoo("w3_vs_r1111", nu=1),
            zoo("w3_vs_rsharp"), zoo("w3_vs_rsharp", mu=1, nu=1),
            zoo("w3_vs_qb10"), zoo("w3_vs_qb11"), zoo("w3_vs_qb12"),
        ]
        for sys in n3_satisfied:
            assert check_n3(sys).verdict == "satisfied", sys.name
        for k, p in [(2, 4), (2, 5), (3, 8)]:
            sys = zoo("wk_prototype", k=k, p=p)
            assert check_wk_loose(sys, k, 0).verdict == "violated", (k, p)
        assert check_sextic(zoo("sextic", p=7)).verdict == "satisfied"
        assert check_sextic(zoo("sextic", p=8)).verdict == "violated"
        assert ag_weight("W(3,0)")[1] == 6
        for l in (1, 2, 3, 4, 5):
            for nu in (0, 2):
                assert ag_weight(f"P(1,{l},{nu})")[1] in (3, 4, 5)
        for name in ("Q(1,1,2,0)", "Q(1,1,2,2)", "R(1,1,1,1,0)",
                     "R(1,1,1,1,2)", "Rs(1,1,1,0,0)", "Rs(1,1,1,1,2)"):
            assert ag_weight(name)[1] == 5


def _second_primitive_free(rng: random.Random) -> PiecewisePolyControl:
    """Random piecewise-constant control adjusted so u2(t) = 0 exactly."""
    pieces = rng.randint(2, 4)
    grid = 12
    cuts = sorted(rng.sample(range(1, grid), pieces - 1))
    breakpoints = [Fraction(0)]
    breakpoints += [Fraction(c, grid) for c in cuts]
    breakpoints.append(Fraction(1))
    values = [Fraction(rng.randint(-4, 4), 10) for _ in range(pieces)]

    def u2_end(last):
        u = PiecewisePolyControl.piecewise_constant(
            breakpoints, values[:-1] + [last])
        return primitive(u, 2).end_value()

    base = u2_end(Fraction(0))
    slope = u2_end(Fraction(1)) - base
    values[-1] = -base / slope
    u = PiecewisePolyControl.piecewise_constant(breakpoints, values)
    assert primitive(u, 2).end_value() == 0
    return u


def test_criterion_7_cross_terms_counterexample():
    with _Criterion(7, "quartic discrepancy identity within 1e-7 and "
                       "scaling slope 4 +- 0.1", 30):
        rng = random.Random(909)
        for _ in range(10):
            u = _second_primitive_free(rng)
            report = pure_counterexample_check(u, step=2e-3)
            assert report.passed, report.line()
        base = PiecewisePolyControl.piecewise_constant(
            (0, Fraction(1, 6), Fraction(1, 3), Fraction(2, 3), 1),
            (Fraction(1, 5), Fraction(-1, 5), Fraction(-1, 20),
             Fraction(1, 20)))
        values = []
        for lam in (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            rep = pure_counterexample_check(base.scale(lam), step=2e-3)
            values.append(rep.discrepancy[2])
        slopes = [math.log(values[i] / values[i + 1]) / math.log(2)
                  for i in range(3)]
        assert all(abs(s - 4) <= 0.1 for s in slopes), slopes


def test_criterion_8_representation_scaling():
    with _Criterion(8, "bracket-expansion residual scales at order M+1", 60):
        base = PiecewisePolyControl.piecewise_constant(
            (0, Fraction(1, 60), Fraction(1, 30), Fraction(1, 15),
             Fraction(1, 10)),
            (Fraction(1, 5), Fraction(-1, 5), Fraction(-1, 20),
             Fraction(1, 20)))
        assert residual_scaling_slope(zoo("easy"), base, 1,
                                      length_cutoff=5) >= 1.8
        assert residual_scaling_slope(zoo("easy"), base, 2,
                                      length_cutoff=6) >= 2.8


def test_criterion_9_drift_scans():
    with _Criterion(9, "drift margins stay nonnegative over 200 seeded "
                       "controls", 300):
        first = drift_scan(zoo("easy"), "W(1,0)", family_s1(),
                           eps=0.1, C=10.0, beta=1.5, trials=200, seed=0,
                           rho=0.1, t_max=0.1)
        print("  " + first.line())
        assert first.passed
        second = drift_scan(zoo("w2_vs_q111"), "W(2,0)", family_n2(),
                            eps=0.1, C=10.0, beta=1.5, trials=200, seed=0,
                            rho=0.1, t_max=0.1)
        print("  " + second.line())
        assert second.passed


def test_criterion_10_inequality_suite():
    with _Criterion(10, "constant-explicit inequalities hold on 100 random "
                        "controls, gated one included", 60):
        rng = random.Random(1001)
        gate_hits = 0
        for i in range(100):
            if i % 2:
                u = random_poly_control(rng, max_pieces=2, max_degree=2)
            else:
                # force u1(t) = 0 so the gated inequality actually runs; a
                # constant base becomes the zero control, on which no
                # inequality applies, so draw again
                u = PiecewisePolyControl.constant(0, 1)
                while not any(u.pieces):
                    base = random_poly_control(rng, max_pieces=2,
                                               max_degree=1)
                    shift = primitive(base, 1).end_value() / base.horizon
                    u = base - PiecewisePolyControl.constant(shift,
                                                             base.horizon)
            for result in check_inequalities(u):
                if result.applicable:
                    assert result.passed, result.line()
                    if result.name.startswith("quintic"):
                        gate_hits += 1
        assert gate_hits >= 50
