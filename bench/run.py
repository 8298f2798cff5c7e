"""lietool benchmark: seeded closed-loop workloads, one client, fresh process
per pass.

    python3 bench/run.py --workload verdicts|expansions|scans --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The inputs are generated once from the seed;
SETUP_PROBES worker processes stop after set-up, to sample set-up time; then
passes run one after another, each in a fresh worker process that runs
every job in order, cold, and checks every output.  Passes continue while
another one, as long as the longest so far, fits in --seconds (at least one;
with --trace 1 at least one untraced and one traced pass).  Job times are
reported at the reference speed of calibration.py.  The last line of output
is one JSON object with the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1); the lines before it say the same in words, with machine
information.
`python3 bench/run.py --all --seed N --seconds S` runs every workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(ROOT, "bench", "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEADLINE_S = 170          # a run must end within 180 s
SETUP_PROBES = 5          # set-up-only processes per run, besides the passes
TAIL_BEYOND = 10          # jobs beyond the tail percentile

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mb", "MB")]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND jobs beyond it."""
    return max(0, math.floor(100 * (n - TAIL_BEYOND) / n))


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """The thread pool runs at lietool's default size, capped at nproc."""
    env = dict(os.environ)
    env.pop("LIETOOL_THREADS", None)
    if min(4, os.cpu_count() or 1) > nproc():
        env["LIETOOL_THREADS"] = str(nproc())
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "lietool")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_info(seed: int, worker_count: int) -> dict:
    import numpy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": nproc(), "worker_count": worker_count,
            "git_commit": git_commit(), "source_digest": source_digest(),
            "seed": seed}


def run_pass(spec_text: str, trace: bool, deadline: float,
             trace_out: str | None = None, setup_only: bool = False) -> dict:
    cmd = [sys.executable, WORKER, "--spawned", repr(time.monotonic()),
           "--trace", str(int(trace))]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            env=worker_env())
    try:
        out, err = proc.communicate(spec_text,
                                    timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("a pass did not finish before the deadline")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def scaled_latencies(p: dict) -> list[float]:
    """A pass's job latencies at the reference speed: each scaled by the
    calibration loop's times just before, during and just after the job."""
    g = p["gauge"]
    return [t * calibration.scale(g[i], *p["probes"][i], g[i + 1])
            for i, t in enumerate(p["latencies"])]


def summarize(passes: list[dict], setups: list[dict] = ()) -> dict:
    """End-to-end metrics over the passes of a run, which all run the same
    jobs cold.  A job's latency is the median over the passes of its
    latency at the reference speed.  A pass's jobs run back to back, so
    wall_s, the first job's start to the last job's end, is the sum of the
    job latencies (the calibration loops between jobs left out).  Set-up,
    which does not slow down with the calibration loop and is not scaled,
    is the median over the passes and the set-up-only processes; memory is
    the median over the passes."""
    n = len(passes[0]["latencies"])
    q = tail_percentile(n)
    latencies = [statistics.median(job)
                 for job in zip(*(scaled_latencies(p) for p in passes))]
    return {
        "setup_s": statistics.median(p["setup_s"]
                                     for p in [*passes, *setups]),
        "wall_s": sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": percentile(latencies, q),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "_tail_q": q, "_jobs": n,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import inputs
    start = time.monotonic()
    deadline = start + DEADLINE_S
    spec = inputs.generate(workload, seed)
    generate_s = time.monotonic() - start
    spec_text = json.dumps(spec)
    os.makedirs(OUT_DIR, exist_ok=True)
    setups = [run_pass(spec_text, False, deadline, setup_only=True)
              for _ in range(SETUP_PROBES)]

    plain, traced, durations = [], [], []
    while True:
        want_trace = trace and len(traced) < len(plain)
        trace_out = (os.path.join(OUT_DIR, f"trace-{workload}-{seed}-"
                                  f"{len(traced)}.json") if want_trace else None)
        t0 = time.monotonic()
        result = run_pass(spec_text, want_trace, deadline, trace_out)
        durations.append(time.monotonic() - t0)
        (traced if want_trace else plain).append(result)
        if trace and not traced:
            continue
        if time.monotonic() - start + max(durations) > seconds:
            break

    attempted = sum(len(p["latencies"]) for p in plain + traced)
    failures = [f for p in plain + traced for f in p["failures"]]
    record = {
        "workload": workload, "generate_s": generate_s,
        "machine": machine_info(seed, plain[0]["worker_count"]),
        "passes": len(plain), "traced_passes": len(traced),
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:5],
        "metrics": summarize(plain, setups),
        "pass_latencies": [p["latencies"] for p in plain],
        "pass_gauges": [p["gauge"] for p in plain],
        "pass_probes": [p["probes"] for p in plain],
        "raw_setup_s": [p["setup_s"] for p in [*plain, *setups]],
    }
    if traced:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.wall_s"] = summarize(traced)["wall_s"]
        layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                      - record["metrics"]["wall_s"])
        record["layers"] = layers
    with open(os.path.join(OUT_DIR, f"result-{workload}-{seed}-"
                           f"trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict, trace: bool) -> dict:
    """Print the record in words; return the metrics object for the JSON."""
    import tracing
    m = record["metrics"]
    print(f"# {record['workload']}: machine {json.dumps(record['machine'])}")
    print(f"# {record['workload']}: {record['passes']} untraced + "
          f"{record['traced_passes']} traced passes, inputs generated in "
          f"{record['generate_s']:.3f} s")
    for name, unit in END_TO_END:
        extra = (f"  (p{m['_tail_q']} of {m['_jobs']} jobs per pass)"
                 if name == "job_tail_s" else "")
        print(f"{record['workload']} {name} = {m[name]:.6g} {unit}{extra}")
    frac = record["failed"] / record["attempted"]
    print(f"{record['workload']} failed_frac = {frac:.6g} ratio "
          f"({record['failed']} of {record['attempted']} jobs)")
    for f in record["failures"]:
        print(f"# FAILED {f['job']}: {f['error']}", file=sys.stderr)
    if not trace:
        return {name: {"value": m[name], "unit": unit}
                for name, unit in END_TO_END}
    layers = record["layers"]
    busy = sum(layers[name] for name in tracing.LAYER_TIMES) or 1.0
    shares = {name: layers[name] / busy for name in tracing.LAYER_TIMES}
    top = max(shares, key=shares.get)
    for name, unit, _ in tracing.PER_LAYER:
        share = f"  ({shares[name]:.1%} of layer time)" if name in shares else ""
        print(f"{record['workload']} {name} = {layers[name]:.6g} {unit}{share}")
    print(f"{record['workload']} largest layer share: {top} "
          f"({shares[top]:.1%})")
    return {name: {"value": layers[name], "unit": unit}
            for name, unit, _ in tracing.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lietool", "__init__.py")):
        print(f"bench: no lietool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import inputs
    if args.all:
        workloads = list(inputs.WORKLOADS)
    elif args.workload in inputs.WORKLOADS:
        workloads = [args.workload]
    else:
        parser.error(f"--workload must be one of {', '.join(inputs.WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        record = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace))
        attempted += record["attempted"]
        failed += record["failed"]
        metrics = report(record, bool(args.trace))
    if args.all:
        return 0 if failed == 0 else 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
