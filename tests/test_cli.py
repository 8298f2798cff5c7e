import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lietool
from lietool import simulate
from lietool.cli import (CONDITION_GRAMMAR, CONTROL_FORMAT_HINT,
                         FAMILY_GRAMMAR, ZOO_SPEC_FORM, _parse_family, main)
from lietool.conditions import family_loose, family_sextic
from lietool.coord import xi
from lietool.hall import LieElement
from lietool.trees import parse_tree
from lietool.words import expand_to_words

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

    def test_exact_flag_is_default(self, run):
        _, out1, _ = run("basis", "--n1", "2", "--n0", "2")
        _, out2, _ = run("basis", "--n1", "2", "--n0", "2", "--exact")
        assert out1 == out2
        assert "W(1,1)" in out1

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


class TestDriftScan:
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
    src = os.path.dirname(os.path.dirname(lietool.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)      # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lietool.cli", "check", "--system",
             "zoo:w2_vs_q111", "--condition", "n2", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141
