"""Tests of the benchmark itself: seeded inputs, output checks, replays.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import inputs  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from lietool import trees  # noqa: E402
from lietool.conditions import Caps  # noqa: E402
from lietool.fields import eval_bracket, system_from_json_dict  # noqa: E402
from lietool.hall import HallElement, is_hall  # noqa: E402
from lietool.simulate import drift_scan  # noqa: E402
from lietool.words import expand_to_words  # noqa: E402
from lietool.zoo import zoo  # noqa: E402


def replay_of(job):
    return job.replay(jobs.Replay(tracing.Tracer()))


# ---------------------------------------------------------------------------
# inputs

@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seed_determines_inputs(workload):
    first = json.dumps(inputs.generate(workload, 3))
    assert json.dumps(inputs.generate(workload, 3)) == first
    assert json.dumps(inputs.generate(workload, 4)) != first


def test_dense_systems_are_not_vacuous():
    spec = inputs.generate("verdicts", 5)
    assert len(spec["systems"]) == len(inputs.DENSE)
    for data in spec["systems"]:
        sys_ = system_from_json_dict(data)
        assert any(sys_.f1.value_at_zero())
        krylov = inputs.krylov_span(sys_)
        assert krylov.rank < sys_.dim
        target = inputs.origin_value(sys_, trees.W(2, 0))
        assert any(target) and not krylov.contains(target)


def test_jet_evaluation_matches_bracket_fields():
    rng = inputs.random.Random(7)
    dense = inputs.dense_system(rng, 3, "dense")
    for sys_ in (dense, zoo("easy"), zoo("w2_vs_q111"), zoo("sextic", p=8)):
        for text in ("X1", "M(2)", "W(1,0)", "W(2,0)", "P(1,1,0)", "D"):
            tree = trees.parse_tree(text)
            assert inputs.origin_value(sys_, tree) == eval_bracket(sys_, tree)


def test_bracket_pairs_need_a_solve():
    rng = inputs.random.Random(11)
    for n1, n0 in ((2, 3), (3, 4), (4, 4)):
        for tree in inputs.bracket_pairs(rng, n1, n0, 5):
            assert tree.bidegree == (n1, n0)
            assert not is_hall(tree)
            assert expand_to_words(tree, tree.length)


def test_bracket_pairs_spread_evenly_over_the_splits():
    for seed in (1, 2):
        pairs = inputs.bracket_pairs(inputs.random.Random(seed), 4, 4, 24)
        assert all(t.bidegree == (4, 4) and not is_hall(t) for t in pairs)
        mix = sorted(t.left.bidegree for t in pairs)
        if seed == 1:
            first = mix
        assert mix == first


def test_documented_scan_keeps_its_zero_controls():
    spec = inputs.generate("scans", 9)
    easy = next(j for j in spec["jobs"] if j["kind"] == "drift_scan"
                 and j["system"] == "easy")
    assert (easy["seed"], easy["trials"]) == (0, 200)
    job = jobs.build_jobs({"jobs": [easy]})[0]
    tracer = tracing.Tracer()
    job.replay(jobs.Replay(tracer))
    metrics = tracing.layer_metrics(tracer)
    assert metrics["simulate.useful_trials"] == 196 / 200


# ---------------------------------------------------------------------------
# output checks reject corrupted results

def test_check_rejects_flipped_verdicts():
    for name, condition, expect in (("w2_vs_q111", "n2", "violated"),
                                    ("jakubczyk", "n2", "satisfied")):
        sys_ = zoo(name)
        job = jobs.check_job("j", sys_, condition, Caps(), expect)
        report = job.run()
        job.check(report)
        report.verdict = "satisfied" if expect == "violated" else "violated"
        with pytest.raises(jobs.CheckFailed):
            job.check(report)
        unexpected = jobs.check_job("j", sys_, condition, Caps(), None)
        with pytest.raises(jobs.CheckFailed):
            unexpected.check(report)


def test_check_rejects_a_broken_certificate():
    sys_ = zoo("w2_vs_q111")
    job = jobs.check_job("j", sys_, "n2", Caps(), None)
    report = job.run()
    report.component = tuple(2 * x for x in report.component)
    with pytest.raises(jobs.CheckFailed):
        job.check(report)


def test_check_rejects_perturbed_eta():
    u = inputs.pc_control(inputs.random.Random(1), 3)
    job = jobs.interaction_log_job("j", u, 5)
    eta = job.run()
    job.check(eta)
    x1 = HallElement.of(trees.X1)
    eta.values[x1] = eta[x1] + 1
    with pytest.raises(jobs.CheckFailed):
        job.check(eta)


def test_check_rejects_decomposition_off_by_one():
    tree = inputs.bracket_pairs(inputs.random.Random(2), 3, 4, 1)[0]
    job = jobs.decompose_job("j", tree)
    element = job.run()
    job.check(element)
    some = next(iter(element.coeffs))
    element.coeffs[some] += 1
    with pytest.raises(jobs.CheckFailed):
        job.check(element)


def test_check_rejects_perturbed_expansions_and_states():
    u = inputs.pc_control(inputs.random.Random(3), 3)
    job = jobs.ordered_product_job("j", u, 5)
    series = job.run()
    job.check(series)
    series.coeffs[(1, 0)] = series.coeffs.get((1, 0), 0) + 1
    with pytest.raises(jobs.CheckFailed):
        job.check(series)

    step = inputs.SIMULATE_STEP
    u = inputs.pc_control(inputs.random.Random(4), 3, Fraction(1, 2))
    job = jobs.simulate_job("j", zoo("easy"), u, step)
    trajectory = job.run()
    job.check(trajectory)
    trajectory.states[-1][2] += 1e-9
    with pytest.raises(jobs.CheckFailed):
        job.check(trajectory)


def test_check_rejects_failed_scans():
    job = jobs.residual_slope_job("j", zoo("easy"), 1, 5, 1.8)
    with pytest.raises(jobs.CheckFailed):
        job.check(1.7)
    u = inputs.poly_control(inputs.random.Random(5), 2, mean_zero=True)
    job = jobs.inequalities_job("j", u)
    results = job.run()
    job.check(results)
    applicable = next(r for r in results if r.applicable)
    applicable.passed = False
    with pytest.raises(jobs.CheckFailed):
        job.check(results)


# ---------------------------------------------------------------------------
# replays do the same work as the calls

@pytest.mark.parametrize("name,params,condition", [
    ("easy", {}, "sussmann:1"), ("w2_vs_q111", {}, "wk:2,0"),
    ("w3_vs_p1l", {"l": 3}, "n3"), ("w3_vs_rsharp", {"mu": 1, "nu": 1}, "n3"),
    ("sextic", {"p": 8}, "sextic")])
def test_check_replay_matches_the_check(name, params, condition):
    job = jobs.check_job("j", zoo(name, **params), condition, Caps(), None)
    expected = job.run()
    job = jobs.check_job("j", zoo(name, **params), condition, Caps(), None)
    got = replay_of(job)     # raises if the replay visits another span
    assert got.to_json_dict() == expected.to_json_dict()


def test_expansion_replays_match_the_calls():
    u = inputs.pc_control(inputs.random.Random(6), 3)
    for make in (jobs.interaction_log_job, jobs.magnus_log_job):
        job = make("j", u, 6)
        assert replay_of(job).values == job.run().values


def test_scan_replays_match_the_calls():
    params = dict(inputs.SCAN_PARAMS, trials=6, seed=3)
    sys_ = zoo("w2_vs_q111")
    job = jobs.drift_scan_job("j", sys_, "W(2,0)", "n2", params)
    report = drift_scan(sys_, "W(2,0)", jobs.family_n2(), **params)
    got = replay_of(job)
    assert got.margins == report.margins
    assert got.weak_margins == report.weak_margins
    job = jobs.residual_slope_job("j", zoo("easy"), 1, 5, 1.8)
    assert replay_of(job) == job.run()


# ---------------------------------------------------------------------------
# the harness

def test_tail_percentile_leaves_ten_jobs_beyond():
    for n in (11, 16, 32, 49, 200):
        q = run.tail_percentile(n)
        values = list(range(n))
        beyond = sum(1 for v in values if v > run.percentile(values, q))
        assert beyond >= run.TAIL_BEYOND
        assert n - run.TAIL_BEYOND - 1 <= n * (q + 1) / 100


def test_probe_time_is_taken_off_the_latency():
    probe = calibration.Probe()
    probe.arm()
    start = calibration.time.perf_counter()
    while calibration.time.perf_counter() - start < 0.35:
        pass
    times, spent = probe.disarm()
    assert len(times) >= 3
    assert 0 < spent < 0.35
    assert all(t > 0 for t in times)


def test_summary_scales_each_job_by_its_own_gauges():
    ref = calibration.REFERENCE_S
    fast = {"setup_s": 0.2, "rss_mb": 40.0, "latencies": [1.0, 3.0],
            "gauge": [ref, ref, ref], "probes": [[], [ref] * 5]}
    # the machine at half speed during the second job only
    slow = {"setup_s": 0.3, "rss_mb": 41.0, "latencies": [1.0, 6.0],
            "gauge": [ref, ref, 2 * ref], "probes": [[], [2 * ref] * 5]}
    m = run.summarize([fast, slow, fast])
    assert m["wall_s"] == pytest.approx(4.0)
    assert m["job_p50_s"] == pytest.approx(2.0)
    assert m["setup_s"] == 0.2 and m["peak_rss_mb"] == 40.0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scans", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
