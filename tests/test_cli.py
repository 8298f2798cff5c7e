import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lietool
from lietool import simulate
from lietool import conditions
from lietool.cli import (CONDITION_GRAMMAR, CONTROL_FORMAT_HINT,
                         FAMILY_GRAMMAR, ZOO_SPEC_FORM, _CONDITIONS, _FAMILIES,
                         _parse_family, main)
from lietool.conditions import Caps, family_loose, family_sextic
from lietool.coord import xi
from lietool.hall import LieElement
from lietool.trees import display_form, parse_tree, zeros, X1
from lietool.words import expand_to_words
from lietool.zoo import zoo

DATA = Path(__file__).parent / "data"
DECOMPOSE_7_7 = ("((X1,X0),((X0,(X0,X1)),(X0,((((X0,(X0,X1)),X1),X1),"
                 "((X1,X0),X1)))))")


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


def subprocess_env() -> dict:
    """The environment with this lietool's source first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(lietool.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def system_json(coeff) -> dict:
    """x' = coeff x^2 + u."""
    return {"dim": 1, "f0": [[{"coeff": coeff, "powers": [2]}]],
            "f1": [[{"coeff": "1", "powers": [0]}]]}


CAPS_LINE = ("caps: max_index=12 max_n0=12 max_layer_length=15 "
             "max_screen_length=9 stability_window=None")


def control_json(**fields) -> dict:
    """A one-piece control on [0, 1], with `fields` replaced."""
    return {"type": "piecewise_poly", "t": "1", "breakpoints": ["0", "1"],
            "pieces": [["1"]], **fields}


@pytest.fixture
def control_file(tmp_path):
    path = tmp_path / "control.json"
    path.write_text(json.dumps({
        "t": "1", "type": "piecewise_poly",
        "breakpoints": ["0", "1/2", "1"], "pieces": [["1"], ["-1"]]}))
    return str(path)


class TestBasis:
    def test_single_control_layer(self, run):
        code, out, _ = run("basis", "--n1", "1", "--n0", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].endswith("M(3)")
        _, out, _ = run("basis", "--n1", "2", "--n0", "2")
        assert "W(1,1)" in out

    def test_cumulative(self, run):
        code, out, _ = run("basis", "--n1", "1", "--n0", "2", "--cumulative")
        assert code == 0
        names = [line.split("\t")[-1] for line in out.strip().splitlines()]
        assert names == ["X1", "M(1)", "M(2)", "X0"]

    @pytest.mark.parametrize("flags", [("--n1", "-1", "--n0", "3"),
                                       ("--n1", "2", "--n0", "-1")])
    def test_negative_bidegree_is_usage_error(self, run, flags):
        code, out, err = run("basis", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: bidegree must be >= 0")

    def test_cumulative_5_5_is_pinned(self, run):
        code, out, _ = run("basis", "--n1", "5", "--n0", "5", "--cumulative")
        assert code == 0
        assert out == (DATA / "basis_5_5.txt").read_text()
        assert len(out.splitlines()) == 114


class TestDecompose:
    def test_output_format(self, run):
        code, out, _ = run("decompose", "--tree", "(M(1),W(1,0))")
        assert code == 0
        assert out.strip() == "1\tP(1,2,0)"

    def test_bidegree_7_7_is_pinned(self, run):
        # the first bidegree whose Lyndon-row inverse needs two p-adic
        # digits; the pinned lines re-expand to the tree's words
        tree = parse_tree(DECOMPOSE_7_7)
        code, out, _ = run("decompose", "--tree", DECOMPOSE_7_7)
        assert code == 0
        assert out == (DATA / "decompose_7_7.txt").read_text()
        element = LieElement()
        for line in out.splitlines():
            coeff, text = line.split("\t")
            element = element + LieElement.single(text, Fraction(coeff))
        assert element.expand_to_words(14) == expand_to_words(tree, 14)

    def test_syntax_error_is_usage_error(self, run):
        code, _, err = run("decompose", "--tree", "(X1,")
        assert code == 2
        assert "position" in err


class TestXi:
    def test_exact_value(self, run, control_file):
        code, out, _ = run("xi", "--bracket", "W(1,0)",
                           "--control", control_file)
        assert code == 0 and out.strip() == "1/24"

    def test_closed_form_agrees(self, run, control_file):
        _, out1, _ = run("xi", "--bracket", "W(1,0)",
                         "--control", control_file)
        _, out2, _ = run("xi", "--bracket", "W(1,0)",
                         "--control", control_file, "--closed-form")
        assert out1 == out2

    @staticmethod
    def samples_file(tmp_path, count):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({
            "type": "samples", "t": 1.0,
            "values": [i / (count - 1) for i in range(count)]}))
        return str(path)

    def test_closed_form_on_samples_is_usage_error(self, run, tmp_path):
        code, out, err = run("xi", "--bracket", "W(1,0)", "--control",
                             self.samples_file(tmp_path, 5), "--closed-form")
        assert (code, out) == (2, "")
        assert err == "error: --closed-form needs a piecewise_poly control\n"

    def test_even_sample_count_is_usage_error(self, run, tmp_path):
        code, out, err = run("xi", "--bracket", "X1", "--control",
                             self.samples_file(tmp_path, 6))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "got 6" in err
        assert "Traceback" not in err

    def test_too_deep_a_tree_is_usage_error(self, run, control_file):
        # the Hall test and the xi recursion recurse once per nesting level
        code, out, err = run("xi", "--bracket", "M(1200)",
                             "--control", control_file)
        assert (code, out) == (2, "")
        assert err == "error: the tree nests too deeply for this command\n"

    def test_odd_sample_count_estimates_the_error(self, run, tmp_path):
        # the trapezoid is exact on u(s) = s, on both grids
        code, out, _ = run("xi", "--bracket", "X1", "--control",
                           self.samples_file(tmp_path, 5))
        assert code == 0 and out == "0.5\terror_estimate=0.0\n"


class TestEval:
    def test_zoo_system(self, run):
        code, out, _ = run("eval", "--system", "zoo:easy",
                           "--bracket", "P(1,1,0)")
        assert code == 0 and out.strip() == "0\t0\t-6"

    def test_deep_tree_text(self, run):
        code, out, _ = run("eval", "--system", "zoo:easy",
                           "--bracket", zeros(X1, 3000).text)
        assert (code, out) == (0, "0\t0\t0\n")

    def test_parametric_zoo(self, run):
        code, out, _ = run("eval", "--system", "zoo:sextic:p=8",
                           "--bracket", "D")
        assert code == 0 and out.strip() == "0\t0\t0\t72"

    def test_rational_zoo_parameter(self, run):
        # ad_X1^5 X0 at 0 is -lam * 5! on the prototype
        code, out, _ = run("eval", "--system", "zoo:wk_prototype:lam=1/2",
                           "--bracket", "(X1,(X1,(X1,(X1,(X1,X0)))))")
        assert code == 0 and out.strip() == "0\t0\t-60"
        code, out, _ = run("check", "--system", "zoo:wk_prototype:lam=1/2",
                           "--condition", "n2")
        assert code == 0 and "wk_prototype(k=2,p=5,lam=1/2)" in out

    def test_system_file(self, run, tmp_path):
        from lietool.fields import system_to_json_dict
        from lietool.zoo import zoo
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(system_to_json_dict(zoo("jakubczyk"))))
        code, out, _ = run("eval", "--system", str(path),
                           "--bracket", "W(2,0)")
        assert code == 0 and out.strip() == "0\t0\t2"


class TestCheck:
    def test_documented_example(self, run):
        code, out, _ = run("check", "--system", "zoo:easy",
                           "--condition", "sussmann:1")
        assert code == 0
        assert "violated" in out

    def test_deep_sussmann_target(self, run):
        # the target ad(X1, 1200, X0) is displayed through the family matcher
        code, out, _ = run("check", "--system", "zoo:easy",
                           "--condition", "sussmann:600")
        assert code == 0, out

    def test_fail_on_violation(self, run):
        code, _, _ = run("check", "--system", "zoo:easy",
                         "--condition", "sussmann:1", "--fail-on-violation")
        assert code == 1

    def test_satisfied_exit_zero(self, run):
        code, out, _ = run("check", "--system", "zoo:jakubczyk",
                           "--condition", "n2", "--fail-on-violation")
        assert code == 0 and "satisfied" in out

    def test_json_round_trip(self, run):
        code, out, _ = run("check", "--system", "zoo:w2_vs_q111",
                           "--condition", "n2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "violated"
        assert payload["component"] == ["0", "0", "1/2"]
        assert payload["caps"] == {"max_index": 12, "max_n0": 12,
                                   "max_layer_length": 15,
                                   "max_screen_length": 9,
                                   "stability_window": None}

    def test_unknown_system_usage_error(self, run):
        code, _, err = run("check", "--system", "zoo:nope",
                           "--condition", "n2")
        assert code == 2
        assert "easy" in err      # the error lists available systems

    def test_unknown_condition_usage_error(self, run):
        code, _, err = run("check", "--system", "zoo:easy",
                           "--condition", "bogus")
        assert code == 2

    def test_ag_screen(self, run):
        code, out, _ = run("check", "--system", "zoo:w3_vs_q111",
                           "--condition", "ag:1,6")
        assert code == 0
        assert "NOT compensated" in out
        # the caps line is the one every condition prints; the screen is
        # bounded by max_screen_length
        assert out.splitlines()[0] == (
            "caps: max_index=12 max_n0=12 max_layer_length=15 "
            "max_screen_length=9 stability_window=None")
        assert "caps=(" not in out
        code, out, _ = run("check", "--system", "zoo:w3_vs_q111",
                           "--condition", "ag:1,6", "--cap-n0", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["caps"] == {"max_index": 12, "max_n0": 5,
                                   "max_layer_length": 15,
                                   "max_screen_length": 9,
                                   "stability_window": None}
        assert any(not e["compensated"] for e in payload["entries"])
        assert set(payload["entries"][0]) == {"bracket", "layer", "weight",
                                              "compensated"}


    # a token per condition name but ag, and the library call it names
    CHECKS = [
        ("sussmann:1", lambda s, caps: conditions.check_sussmann_stefani(
            s, 1, caps)),
        ("wk:3,1", lambda s, caps: conditions.check_wk_loose(s, 3, 1, caps)),
        ("wk-screen:3,1", lambda s, caps: conditions.check_wk_cubic_screen(
            s, 3, 1, caps)),
        ("n2", conditions.check_n2),
        ("n3", conditions.check_n3),
        ("sextic", conditions.check_sextic)]

    @pytest.mark.parametrize("token, check", CHECKS)
    def test_condition_names_run_their_checkers(self, run, token, check):
        report = check(zoo("w3_vs_q111"), Caps(max_index=12, max_n0=12))
        code, out, _ = run("check", "--system", "zoo:w3_vs_q111",
                           "--condition", token)
        assert code == 0
        detail = f"detail: {report.detail}\n" if report.detail else ""
        assert out == f"{CAPS_LINE}\n{report.summary()}\n{detail}"
        code, out, _ = run("check", "--system", "zoo:w3_vs_q111",
                           "--condition", token, "--json")
        assert code == 0
        assert out == json.dumps(report.to_json_dict(), indent=2) + "\n"

    def test_ag_runs_the_screen(self, run):
        caps = Caps(max_index=12, max_n0=12)
        entries = conditions.ag_screen(zoo("w3_vs_q111"), Fraction(1),
                                       Fraction(6), caps)
        code, out, _ = run("check", "--system", "zoo:w3_vs_q111",
                           "--condition", "ag:1,6")
        assert code == 0
        assert out.splitlines() == [
            CAPS_LINE, "ag screen on w3_vs_q111: sigma=1 r=6",
            *("  " + e.line() for e in entries)]
        code, out, _ = run("check", "--system", "zoo:w3_vs_q111",
                           "--condition", "ag:1,6", "--json")
        assert code == 0
        assert [(e["bracket"], e["weight"]) for e in json.loads(out)[
            "entries"]] == [(display_form(e.tree), str(e.weight))
                            for e in entries]

    def test_every_condition_name_is_tested(self):
        tested = {token.partition(":")[0] for token, _ in self.CHECKS}
        assert set(_CONDITIONS) == tested | {"ag"}

    def test_catalog_verdicts_are_pinned(self, run, tmp_path):
        """`check --json` on the benchmark catalog (the acceptance criterion
        6 list, sextic p=7/8 and ag:1,6 on w3_vs_q111) and n2 / sussmann:1
        on three seeded dense 3-state systems, against pinned reports."""
        pinned = json.loads((DATA / "catalog_verdicts.json").read_text())
        paths = []
        for i, system in enumerate(pinned["dense_systems"]):
            paths.append(tmp_path / f"dense{i}.json")
            paths[-1].write_text(json.dumps(system))
        assert len(pinned["checks"]) == 25 + 2 * len(paths) == 31
        for check in pinned["checks"]:
            spec = check["system"]
            if spec.startswith("dense:"):
                spec = str(paths[int(spec[len("dense:"):])])
            code, out, _ = run("check", "--system", spec,
                               "--condition", check["condition"], "--json")
            assert code == 0
            assert json.loads(out) == check["report"], \
                (check["system"], check["condition"])

    def test_rational_system_file_matches_the_zoo(self, run):
        # the one catalog system with a non-integer coefficient (1/2 in f0)
        path = str(DATA / "rational_system.json")
        assert '"1/2"' in (DATA / "rational_system.json").read_text()
        for condition in ("n2", "sussmann:1"):
            from_file = run("check", "--system", path,
                            "--condition", condition, "--json")
            from_zoo = run("check", "--system", "zoo:no_zm_pure",
                           "--condition", condition, "--json")
            assert from_file == from_zoo

    def test_rational_system_n2_report_is_pinned(self, run):
        code, out, _ = run("check", "--system",
                           str(DATA / "rational_system.json"),
                           "--condition", "n2", "--json")
        assert code == 0
        assert out == (DATA / "rational_system_n2.json").read_text()


class TestVerifyExpansions:
    def test_all_identities_pass(self, run):
        code, out, _ = run("verify-expansions", "--degree", "4",
                           "--trials", "3", "--seed", "5")
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("flag, value", [("--trials", "0"),
                                             ("--degree", "0"),
                                             ("--degree", "-1")])
    def test_checking_nothing_is_usage_error(self, run, flag, value):
        args = {"--degree": "3", "--trials": "2", flag: value}
        code, out, err = run("verify-expansions",
                             *(x for pair in args.items() for x in pair))
        assert code == 2
        assert flag in err and "pass" not in out and "FAIL" not in out


class TestSimulate:
    def test_csv_output(self, run, tmp_path, control_file):
        out_path = tmp_path / "traj.csv"
        code, out, _ = run("simulate", "--system", "zoo:easy",
                           "--control", control_file,
                           "--step", "0.01", "--csv", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "time,x1,x2,x3"
        assert len(lines) == 102

    def test_zero_step_is_usage_error(self, run, control_file):
        code, out, err = run("simulate", "--system", "zoo:easy",
                             "--control", control_file, "--step", "0")
        assert code == 2 and out == ""
        assert "step must be finite and > 0" in err

    def test_blow_up_exits_2_not_as_a_violation(self, run, tmp_path):
        path = tmp_path / "large.json"
        path.write_text(json.dumps({
            "t": "1", "type": "piecewise_poly",
            "breakpoints": ["0", "1"], "pieces": [["1000"]]}))
        code, out, err = run("simulate", "--system", "zoo:easy",
                             "--control", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: state norm ")
        assert "exceeded the blow-up guard" in err


class TestDriftScan:
    def test_blow_up_exits_2_not_as_a_violation(self, run):
        code, out, err = run("drift-scan", "--system", "zoo:easy",
                             "--bracket", "W(1,0)", "--family", "s1",
                             "--seed", "0", "--rho", "1000", "--t-max", "1",
                             "--trials", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: state norm ")
        assert "exceeded the blow-up guard" in err

    def test_blow_up_prints_only_the_error(self, tmp_path):
        # x1' = u, x2' = x1^2 + x2^9: the lockstep overflows float powers
        # before the guard reports the blow-up
        path = tmp_path / "nonic.json"
        path.write_text(json.dumps({
            "dim": 2, "f0": [[], [{"coeff": "1", "powers": [2, 0]},
                                  {"coeff": "1", "powers": [0, 9]}]],
            "f1": [[{"coeff": "1", "powers": [0, 0]}], []]}))
        proc = subprocess.run(
            [sys.executable, "-m", "lietool.cli", "drift-scan", "--system",
             str(path), "--bracket", "W(1,0)", "--family", "s1", "--trials",
             "20", "--seed", "0", "--rho", "50", "--t-max", "1"],
            capture_output=True, text=True, env=subprocess_env(), timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: state norm ")

    def test_refined_scan_note_in_the_json(self, run):
        code, out, _ = run("drift-scan", "--system", "zoo:w3_time",
                           "--bracket", "W(3,0)", "--family", "n3",
                           "--trials", "10", "--seed", "0", "--json")
        assert code == 0
        assert json.loads(out)["note"] \
            == "refined scan: rely on the weak-variant margin"

    def test_seeded_scan_is_byte_identical(self, run):
        args = ("drift-scan", "--system", "zoo:easy", "--bracket", "W(1,0)",
                "--family", "s1", "--trials", "8", "--seed", "9", "--json")
        code1, out1, _ = run(*args)
        code2, out2, _ = run(*args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["passed"] is True

    @pytest.mark.parametrize("system, bracket, family", [
        ("easy", "W(1,0)", "s1"), ("w2_vs_q111", "W(2,0)", "n2")])
    def test_readme_scan_is_pinned(self, run, monkeypatch, system, bracket,
                                   family):
        """The README scans against `tests/data/readme_scan_<system>*`, made
        with Fraction-coefficient controls: the `--json` output byte for
        byte, every margin and weak margin bit for bit, and the exact xi of
        every trial."""
        reports = []
        scan = simulate.drift_scan

        def recording(*args, **kwargs):
            reports.append(scan(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(simulate, "drift_scan", recording)
        code, out, _ = run("drift-scan", "--system", f"zoo:{system}",
                           "--bracket", bracket, "--family", family,
                           "--eps", "0.1", "--C", "10", "--beta", "1.5",
                           "--trials", "200", "--seed", "0", "--json")
        assert code == 0
        assert out == (DATA / f"readme_scan_{system}.json").read_text()
        pinned = json.loads(
            (DATA / f"readme_scan_{system}.trials.json").read_text())
        (report,) = reports
        assert [m.hex() for m in report.margins] == pinned["margins"]
        assert [m.hex() for m in report.weak_margins] \
            == pinned["weak_margins"]
        tree = parse_tree(bracket)
        assert [str(xi(tree, u).exact) for u in simulate.random_control_family(
            0, 200, report.rho, report.t_max)] == pinned["xi"]

    def test_refusal_message(self, run):
        code, out, _ = run("drift-scan", "--system", "zoo:jakubczyk",
                           "--bracket", "W(2,0)", "--family", "n2",
                           "--trials", "2", "--seed", "0")
        assert code == 0 and "refused" in out

    @pytest.mark.parametrize("trials", ["0", "-2", "x"])
    def test_trials_below_one_is_usage_error(self, run, trials):
        code, out, err = run("drift-scan", "--system", "zoo:easy",
                             "--bracket", "W(1,0)", "--family", "s1",
                             "--trials", trials, "--seed", "0")
        assert code == 2
        assert "--trials" in err and "pass" not in out

    @pytest.mark.parametrize("step", ["-1", "0", "nan", "inf"])
    def test_step_not_finite_and_positive_is_usage_error(self, run, step):
        code, out, err = run("drift-scan", "--system", "zoo:easy",
                             "--bracket", "W(1,0)", "--family", "s1",
                             "--trials", "2", "--seed", "0", "--step", step)
        assert code == 2 and out == ""
        assert "step must be finite and > 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--rho", "1e-4"), ("--t-max", "1e-4"), ("--rho", "inf"),
        ("--eps", "nan"), ("--beta", "nan"), ("--C", "inf"),
        ("--beta", "-1"), ("--beta", "0"), ("--beta", "-0.5")])
    def test_degenerate_scan_parameter_is_usage_error(self, run, flag, value):
        code, out, err = run("drift-scan", "--system", "zoo:easy",
                             "--bracket", "W(1,0)", "--family", "s1",
                             "--trials", "20", "--seed", "0", flag, value)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag[2:].replace('-', '_')} ")
        assert "Traceback" not in err

    def test_unknown_family(self, run):
        code, _, err = run("drift-scan", "--system", "zoo:easy",
                           "--bracket", "W(1,0)", "--family", "oops",
                           "--trials", "2", "--seed", "0")
        assert code == 2

    # a scan per family name that its family does not refuse
    SCANS = [
        ("easy", "W(1,0)", "s1", conditions.family_s1),
        ("w2_vs_q111", "W(2,0)", "n2", conditions.family_n2),
        ("w3_time", "W(3,0)", "n3", conditions.family_n3),
        ("w3_vs_q111", "W(3,0)", "loose:3,1", lambda: family_loose(3, 1)),
        ("sextic", "D", "sextic", family_sextic)]

    @pytest.mark.parametrize("system, bracket, family, build", SCANS)
    def test_family_names_build_their_families(self, run, system, bracket,
                                               family, build):
        report = simulate.drift_scan(zoo(system), bracket, build(),
                                     trials=20, seed=0)
        code, out, _ = run("drift-scan", "--system", f"zoo:{system}",
                           "--bracket", bracket, "--family", family,
                           "--trials", "20", "--seed", "0", "--json")
        assert code == 0
        assert out == json.dumps(report.to_json_dict(), indent=2) + "\n"

    def test_every_family_name_is_tested(self):
        assert set(_FAMILIES) == {scan[2].partition(":")[0]
                                  for scan in self.SCANS}

    def test_families_come_from_conditions(self):
        assert _parse_family("loose:3,2") == family_loose(3, 2)
        assert _parse_family("sextic") == family_sextic()


class TestZoo:
    def test_list(self, run):
        code, out, _ = run("zoo", "--list")
        assert code == 0
        assert "jakubczyk" in out.split()

    def test_dump(self, run):
        code, out, _ = run("zoo", "--name", "easy")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 3
        assert payload["expected_values"]["W(1,0)"] == ["0", "0", "2"]


def test_usage_error_on_missing_subcommand(run):
    code, _, _ = run()
    assert code == 2


class TestErrors:
    @pytest.mark.parametrize("dim, message", [
        (3.9, "dim 3.9 is not an integer"), (True, "dim True is not an integer"),
        (0, "dim 0 is not a positive integer")])
    def test_dim_not_a_positive_integer_is_usage_error(self, run, tmp_path,
                                                       dim, message):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"dim": dim, "f0": [], "f1": []}))
        code, out, err = run("check", "--system", str(path),
                             "--condition", "n2")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("option, payload", [
        pytest.param("--system", system_json(math.inf), id="coeff-inf"),
        pytest.param("--system", system_json([1]), id="coeff-list"),
        pytest.param("--system", system_json("1/0"), id="coeff-1/0"),
        pytest.param("--system", [1, 2], id="system-list"),
        pytest.param("--system", None, id="system-dir"),
        pytest.param("--control", [1, 2], id="control-list"),
        pytest.param("--control", control_json(pieces=[[{"a": 1}]]),
                     id="piece-dict"),
        pytest.param("--control", control_json(breakpoints=[], pieces=[]),
                     id="no-breakpoints"),
        pytest.param("--control", None, id="control-dir")])
    def test_malformed_input_file_is_usage_error(self, run, tmp_path, option,
                                                 payload):
        path = tmp_path / "input.json"
        if payload is None:
            path = tmp_path                     # a directory
        else:
            path.write_text(json.dumps(payload))    # inf as Infinity
        if option == "--system":
            argv = ("eval", "--system", str(path), "--bracket", "X1")
        else:
            argv = ("xi", "--bracket", "W(1,0)", "--control", str(path))
        code, out, err = run(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("option, payload, key", [
        ("--system", {"f0": [[]], "f1": [[]]}, "dim"),
        ("--system", {"dim": 1, "f1": [[]]}, "f0"),
        ("--system", {"dim": 1, "f0": [[]]}, "f1"),
        ("--system", {"dim": 1, "f0": [[{"coeff": "1"}]], "f1": [[]]},
         "powers"),
        ("--system", {"dim": 1, "f0": [[]], "f1": [[{"powers": [0]}]]},
         "coeff"),
        ("--control", control_json(pieces=None), "pieces"),
        ("--control", control_json(breakpoints=None), "breakpoints"),
        ("--control", {"type": "samples", "values": [0, 1, 2, 3, 4]}, "t"),
        ("--control", {"type": "samples", "t": 1.0}, "values")])
    def test_missing_key_is_named(self, run, tmp_path, option, payload, key):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(
            {k: v for k, v in payload.items() if v is not None}))
        if option == "--system":
            argv = ("eval", "--system", str(path), "--bracket", "X1")
        else:
            argv = ("xi", "--bracket", "W(1,0)", "--control", str(path))
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: missing {key!r}")
        assert "Traceback" not in err

    def test_control_hint_when_the_control_fails_to_load(self, run, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "piecewise_poly"}))
        code, _, err = run("xi", "--bracket", "W(1,0)", "--control", str(path))
        assert code == 2
        assert CONTROL_FORMAT_HINT in err

    def test_no_control_hint_for_other_errors(self, run):
        code, _, err = run("eval", "--system", "zoo:sextic:p=2",
                           "--bracket", "D")
        assert code == 2
        assert err.startswith("error:")
        assert CONTROL_FORMAT_HINT not in err

    @pytest.mark.parametrize("token", ["wk:2", "sussmann:x", "wk-screen:1,2,3",
                                       "ag:1", "ag:1/0,2", "n2:junk"])
    def test_malformed_condition_shows_the_grammar(self, run, token):
        code, _, err = run("check", "--system", "zoo:easy",
                           "--condition", token)
        assert code == 2
        assert CONDITION_GRAMMAR in err
        assert "unpack" not in err

    @pytest.mark.parametrize("option, token, refusal", [
        ("--condition", "n2:junk", "malformed condition"),
        ("--condition", "sextic:", "malformed condition"),
        ("--condition", "sussmann", "malformed condition"),
        ("--condition", "bogus:1", "unknown condition"),
        ("--family", "s1:1", "malformed family"),
        ("--family", "loose", "malformed family"),
        ("--family", "oops:1,2", "unknown family")])
    def test_a_known_name_with_wrong_indices_is_malformed(self, run, option,
                                                          token, refusal):
        if option == "--condition":
            argv = ("check", "--system", "zoo:easy", option, token)
        else:
            argv = ("drift-scan", "--system", "zoo:easy", "--bracket",
                    "W(1,0)", option, token, "--trials", "2", "--seed", "0")
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"{refusal} {token!r}; use ")

    @pytest.mark.parametrize("flag, value, named", [
        ("--cap-index", "0", "max_index"), ("--cap-n0", "-1", "max_n0")])
    def test_degenerate_cap_names_the_field(self, run, flag, value, named):
        code, out, err = run("check", "--system", "zoo:easy",
                             "--condition", "sussmann:1", flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error: caps:") and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec, named", [
        ("zoo:sextic:p=x", ["'p'", "'x'"]),
        ("zoo:sextic:q=3", ["'q'", "accepted: p"]),
        ("zoo:easy:p=3", ["'p'", "accepted: none"])])
    def test_bad_zoo_parameter_names_it_and_the_form(self, run, spec, named):
        code, _, err = run("eval", "--system", spec, "--bracket", "X1")
        assert code == 2
        assert ZOO_SPEC_FORM in err
        for text in named:
            assert text in err
        assert "int()" not in err

    def test_integer_zoo_parameter_refuses_a_rational(self, run):
        code, _, err = run("eval", "--system", "zoo:wk_prototype:p=1/2",
                           "--bracket", "X1")
        assert code == 2
        assert "'p' needs an integer, got '1/2'" in err
        assert ZOO_SPEC_FORM in err

    @pytest.mark.parametrize("token", ["loose:2", "loose:x,1", "loose:1,2,3"])
    def test_malformed_family_shows_the_grammar(self, run, token):
        code, _, err = run("drift-scan", "--system", "zoo:easy",
                           "--bracket", "W(1,0)", "--family", token,
                           "--trials", "2", "--seed", "0")
        assert code == 2
        assert FAMILY_GRAMMAR in err
        assert "unpack" not in err


def test_closed_output_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)      # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lietool.cli", "check", "--system",
             "zoo:w2_vs_q111", "--condition", "n2", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=subprocess_env(),
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141
