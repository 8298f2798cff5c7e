import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from lietool import cli, trees
from lietool.conditions import (Caps, LayerUndeterminedError,
                                MembershipHoldsError, ag_screen, ag_weight,
                                check_n2, check_n3, check_sextic,
                                check_sussmann_stefani, check_wk_cubic_screen,
                                check_wk_loose, component_functional,
                                default_pi1_member, family_layers, family_n2,
                                family_n3, family_s1, neutral_span,
                                pi_threshold)
from lietool.exact_linalg import ExactSpan
from lietool.fields import (PolyVectorField, SystemDef, eval_bracket,
                            system_from_json_dict)
from lietool.hall import InternalConsistencyError
from lietool.polynomials import SparsePoly
from lietool.zoo import zoo

DATA = Path(__file__).parent / "data"


def linear_system(dim: int = 3) -> SystemDef:
    """xdot = A x + u b: every iterated bracket of order >= 2 in u vanishes."""
    f0 = PolyVectorField(dim, [
        SparsePoly(dim, {tuple(1 if j == i - 1 else 0 for j in range(dim)):
                         Fraction(1)}) if i >= 1 else SparsePoly(dim)
        for i in range(dim)])
    f1 = PolyVectorField.constant(dim, [1] + [0] * (dim - 1))
    return SystemDef(dim=dim, f0=f0, f1=f1, name="linear-chain")


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class TestNeutralSpan:
    def test_s1_on_benchmark(self):
        span = neutral_span(zoo("easy"), family_s1())
        assert span.rank == 2 and span.stabilized
        vectors = {tuple(v) for v in span.basis_vectors}
        assert vectors == {(1, 0, 0), (0, 1, 0)}

    def test_empty_family_is_zero_subspace(self):
        span = neutral_span(zoo("easy"), family_layers((), name="empty"))
        assert span.rank == 0 and span.stabilized

    def test_n2_contains_cubic_direction(self):
        span = neutral_span(zoo("jakubczyk"), family_n2())
        assert any(v[2] for v in span.basis_vectors)

    def test_caps_validated(self):
        with pytest.raises(ValueError):
            neutral_span(zoo("easy"), family_s1(), Caps(max_index=0))


class TestChainVectors:
    def test_every_pinned_report_reads_the_value_cache(self):
        """Each span generator's vector is the very object `eval_bracket`
        returns for its tree, on every pinned catalog report."""
        pinned = json.loads((DATA / "catalog_verdicts.json").read_text())
        checks = {"n2": lambda s: check_n2(s), "n3": lambda s: check_n3(s),
                  "sextic": lambda s: check_sextic(s),
                  "sussmann:1": lambda s: check_sussmann_stefani(s, 1),
                  "wk:2,0": lambda s: check_wk_loose(s, 2, 0),
                  "wk:3,0": lambda s: check_wk_loose(s, 3, 0)}
        reports = 0
        for check in pinned["checks"]:
            if check["condition"].startswith("ag:"):
                continue
            spec = check["system"]
            if spec.startswith("dense:"):
                sys = system_from_json_dict(
                    pinned["dense_systems"][int(spec[len("dense:"):])])
            else:
                sys = cli._load_system(spec)
            report = checks[check["condition"]](sys)
            assert report.to_json_dict() == check["report"]
            span = report.span
            assert len(span.basis_vectors) == len(span.generating_elements)
            for tree, vector in zip(span.generating_elements,
                                    span.basis_vectors):
                assert vector is eval_bracket(sys, tree)
            reports += 1
        assert reports == 30


class TestCaps:
    @pytest.mark.parametrize("field, value", [
        ("max_index", 0), ("max_n0", -1), ("max_layer_length", 0),
        ("max_screen_length", 0), ("stability_window", 0),
        ("stability_window", -1)])
    def test_degenerate_cap_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            Caps(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("max_index", 1), ("max_n0", 0), ("max_layer_length", 1),
        ("max_screen_length", 1), ("stability_window", 1),
        ("stability_window", None)])
    def test_least_cap_is_accepted(self, field, value):
        assert getattr(Caps(**{field: value}), field) == value

    def test_caps_cannot_be_changed_past_the_checks(self):
        caps = Caps()
        with pytest.raises(AttributeError):
            caps.stability_window = -1

    def test_window_defaults_to_the_state_dimension(self):
        assert Caps().window(4) == 4
        assert Caps(stability_window=2).window(4) == 2


class TestSussmannStefani:
    def test_easy_violated(self):
        report = check_sussmann_stefani(zoo("easy"), 1)
        assert report.verdict == "violated"
        assert report.component == (0, 0, Fraction(1, 2))

    def test_jakubczyk_satisfied(self):
        # the order-2 square bracket vanishes, so 0 is in the span
        report = check_sussmann_stefani(zoo("jakubczyk"), 1)
        assert report.verdict == "satisfied"

    def test_linear_system_all_k(self):
        sys = linear_system()
        for k in (1, 2, 3):
            assert check_sussmann_stefani(sys, k).verdict == "satisfied"

    def test_k_validation(self):
        with pytest.raises(ValueError):
            check_sussmann_stefani(zoo("easy"), 0)


class TestPiThreshold:
    def test_listed_values(self):
        assert pi_threshold(2, 0) == 3
        assert pi_threshold(3, 0) == 5

    def test_first_order_always_one(self):
        for m in range(0, 6):
            assert pi_threshold(1, m) == 1

    def test_high_regularity_floor(self):
        # at m = 2k-3 the admissible set [1, pi] \ {2} collapses to {1}
        for k in range(2, 7):
            assert pi_threshold(k, 2 * k - 3) == 2

    def test_l_infinity_threshold(self):
        for k in range(1, 7):
            assert pi_threshold(k, 0) == 2 * k - 1

    def test_minus_one_conventions(self):
        assert pi_threshold(1, -1) == 1
        assert pi_threshold(2, -1) == math.inf


class TestWkLoose:
    def test_quartic_competitor_not_admissible(self):
        report = check_wk_loose(zoo("w2_vs_q111"), 2, 0)
        assert report.verdict == "violated"

    def test_cubic_competitor_admissible(self):
        report = check_wk_loose(zoo("jakubczyk"), 2, 0)
        assert report.verdict == "satisfied"

    def test_prototype_violated_above_threshold(self):
        for k, p in [(2, 4), (2, 5), (3, 8)]:
            report = check_wk_loose(zoo("wk_prototype", k=k, p=p), k, 0)
            assert report.verdict == "violated", (k, p)

    def test_prototype_odd_power_below_threshold_satisfied(self):
        # p = 3 <= 2k-1: the cubic bracket is an admissible neutralizer
        report = check_wk_loose(zoo("wk_prototype", k=2, p=3), 2, 0)
        assert report.verdict == "satisfied"

    def test_minus_one_never_returns_bare_violated(self):
        report = check_wk_loose(zoo("w2_vs_q111"), 2, -1)
        assert report.verdict in ("satisfied", "inconclusive")

    def test_minus_one_downgrades_both_checks(self):
        sys = zoo("wk_prototype", k=2, p=9)
        for check in (check_wk_loose, check_wk_cubic_screen):
            report = check(sys, 2, -1)
            assert report.verdict == "inconclusive", check.__name__
            assert "infinite layer set truncated at caps" in report.detail


class TestCubicScreen:
    def test_jakubczyk_satisfied_via_restricted_list(self):
        report = check_wk_cubic_screen(zoo("jakubczyk"), 2, 0)
        assert report.verdict == "satisfied"

    def test_quartic_screen_violated(self):
        report = check_wk_cubic_screen(zoo("w2_vs_q111"), 2, 0)
        assert report.verdict == "violated"

    def test_screen_not_weaker_than_loose_on_p33(self):
        # w3_time carries its cubic competitor at j = k = 3, outside the
        # restricted list, so the screen rejects what the loose check admits
        sys = zoo("w3_time")
        loose = check_wk_loose(sys, 3, 2)    # pi(3,2) = 3: layers {1,3}
        screen = check_wk_cubic_screen(sys, 3, 2)
        assert loose.verdict == "satisfied"
        assert screen.verdict == "violated"


class TestN2N3:
    def test_n2_verdicts(self):
        assert check_n2(zoo("w2_vs_q111")).verdict == "violated"
        assert check_n2(zoo("jakubczyk")).verdict == "satisfied"
        assert check_n2(zoo("w2_vs_p11nu", nu=2)).verdict == "satisfied"

    def test_n3_satisfied_catalog(self):
        satisfied = [
            zoo("w3_vs_q111"),
            zoo("w3_vs_p1l", l=1, nu=0), zoo("w3_vs_p1l", l=2, nu=1),
            zoo("w3_vs_p1l", l=3, nu=0),
            zoo("w3_vs_p1l_ge4", l=4, nu=0), zoo("w3_vs_p1l_ge4", l=5, nu=1),
            zoo("w3_vs_q112", nu=0), zoo("w3_vs_q112", nu=1),
            zoo("w3_vs_r1111", nu=0), zoo("w3_vs_r1111", nu=2),
            zoo("w3_vs_rsharp", mu=0, nu=0), zoo("w3_vs_rsharp", mu=2, nu=1),
            zoo("w3_vs_qb10"), zoo("w3_vs_qb11"), zoo("w3_vs_qb12"),
        ]
        for sys in satisfied:
            assert check_n3(sys).verdict == "satisfied", sys.name

    def test_n3_violated_on_time_dependent_example(self):
        assert check_n3(zoo("w3_time")).verdict == "violated"

    def test_certificates_reverify(self):
        rep = check_n3(zoo("w3_vs_q111"))
        combo = rep.combination
        total = [Fraction(0)] * rep.span.rank
        total = [sum(c * v[i] for c, v in zip(combo, rep.span.basis_vectors))
                 for i in range(4)]
        assert tuple(total) == rep.target_value
        rep2 = check_n2(zoo("w2_vs_q111"))
        dot = sum(p * t for p, t in zip(rep2.component, rep2.target_value))
        assert dot == 1
        for v in rep2.span.basis_vectors:
            assert sum(p * x for p, x in zip(rep2.component, v)) == 0


class TestSextic:
    def test_seven_satisfied(self):
        assert check_sextic(zoo("sextic", p=7)).verdict == "satisfied"

    def test_eight_violated(self):
        report = check_sextic(zoo("sextic", p=8))
        assert report.verdict == "violated"
        assert report.span.stabilized

    def test_zero_target_satisfied(self):
        assert check_sextic(zoo("easy")).verdict == "satisfied"


class TestMonotonicity:
    def test_enlarging_caps_never_flips_satisfied(self):
        small = Caps(max_index=4, max_n0=4)
        big = Caps(max_index=9, max_n0=9)
        for sys in (zoo("jakubczyk"), zoo("w3_vs_p1l", l=2, nu=1)):
            first = check_n3(sys, small).verdict
            second = check_n3(sys, big).verdict
            if first == "satisfied":
                assert second == "satisfied"


class TestComponentFunctional:
    def test_easy_square_bracket(self):
        comp = component_functional(zoo("easy"), "W(1,0)", family_s1())
        assert comp == (0, 0, Fraction(1, 2))

    def test_hyperplane_case(self):
        sys = zoo("w3_vs_q111")     # d = 4
        comp = component_functional(
            sys, "W(3,0)", family_layers((1,), name="S1"))
        assert comp == (0, 0, 0, Fraction(1, 2))

    def test_quartic_example(self):
        comp = component_functional(zoo("w2_vs_q111"), "W(2,0)", family_n2())
        assert comp == (0, 0, Fraction(1, 2))

    def test_membership_refusal(self):
        with pytest.raises(MembershipHoldsError):
            component_functional(zoo("jakubczyk"), "W(2,0)", family_n2())

    def test_a_bad_null_space_fails_the_recheck(self, monkeypatch):
        sys = zoo("w2_vs_q111")
        target = eval_bracket(sys, trees.W(2, 0))
        spanned = neutral_span(sys, family_n2()).basis_vectors[0]
        # pairs to nonzero with the target but not to zero with the span
        bad = next(v for v in (tuple(s + c * t for s, t in
                                     zip(spanned, target))
                               for c in (0, 1, 2, 3))
                   if dot(v, target) and dot(v, spanned))
        monkeypatch.setattr(ExactSpan, "null_space", lambda self: [bad])
        with pytest.raises(InternalConsistencyError):
            component_functional(sys, "W(2,0)", family_n2())
        with pytest.raises(InternalConsistencyError):
            check_n2(sys)


class TestAgWeights:
    def test_table(self):
        expected = {
            "W(3,0)": 6,
            "P(1,1,0)": 3, "P(1,1,4)": 3,
            "P(1,2,0)": 4, "P(1,2,2)": 4,
            "P(1,3,0)": 5, "P(1,4,0)": 5, "P(1,6,1)": 5,
            "Q(1,1,2,0)": 5, "Q(1,1,2,3)": 5,
            "R(1,1,1,1,0)": 5, "R(1,1,1,1,2)": 5,
            "Rs(1,1,1,0,0)": 5, "Rs(1,1,1,2,1)": 5,
        }
        for name, want in expected.items():
            _, omega = ag_weight(name)
            assert omega == want, name
        for name in ("P(1,1,0)", "P(1,2,0)", "P(1,3,0)", "P(1,4,0)"):
            assert ag_weight(name)[1] in (3, 4, 5)

    def test_weight_invariant_under_trailing_zeros(self):
        for nu in range(4):
            assert ag_weight(f"P(1,1,{nu})")[1] == 3

    def test_undetermined_layers(self):
        for bad in ("X1", "M(1)", "M(2)"):
            with pytest.raises(LayerUndeterminedError):
                ag_weight(bad)

    def test_membership_predicate(self):
        assert default_pi1_member(trees.X0)
        assert default_pi1_member(trees.W(3, 0))
        assert default_pi1_member(trees.P(1, 1, 0))
        assert not default_pi1_member(trees.M(1))
        assert not default_pi1_member(trees.M(2))
        assert not default_pi1_member(trees.X1)

    def test_sigma_range(self):
        with pytest.raises(ValueError):
            ag_weight("W(3,0)", sigma=Fraction(3, 2))


class TestAgScreen:
    def test_quartic_bad_bracket_flagged(self):
        entries = ag_screen(zoo("w3_vs_q111"), r=Fraction(6))
        by_name = {trees.display_form(e.tree): e for e in entries}
        # the quartic bracket is the uncompensated obligation; the square
        # order-6 one is covered by it in the smaller-weight span
        assert by_name["Q(1,1,1,0)"].compensated is False
        assert by_name["W(3,0)"].compensated is True

    def test_compensated_on_controllable_example(self):
        entries = ag_screen(zoo("w3_vs_p1l", l=2, nu=0), r=Fraction(6))
        by_name = {trees.display_form(e.tree): e for e in entries}
        w3 = by_name["W(3,0)"]
        assert w3.compensated is True
