"""One pass of a workload in a fresh process, so lietool's caches start cold.

Reads the generated spec (JSON) on stdin, runs every job in order with the
calibration loop (calibration.py) timed before the first job and during and
after each one, checks every output after the last job, and prints one JSON
line with the pass's raw measurements.  With --setup-only it stops after
set-up and reports only set-up time.  Started by run.py; `--spawned` is the parent's
time.monotonic() when it started this process, so that set-up time counts
from process start.

    python3 bench/worker.py --spawned T --trace 0|1 [--trace-out PATH] < spec
    python3 bench/worker.py --spawned T --setup-only < spec
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import lietool  # noqa: E402  (import cost is part of set-up)

import calibration  # noqa: E402
import jobs as jobs_mod  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time")
    args = parser.parse_args()

    spec = json.load(sys.stdin)
    tracer = tracing.Tracer() if args.trace else None
    rp = jobs_mod.Replay(tracer) if tracer else None
    jobs = jobs_mod.build_jobs(spec, rp)
    setup_s = time.monotonic() - args.spawned

    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # gauge[i] and gauge[i + 1] are the calibration loop's times just before
    # and just after job i, probes[i] its times during job i (every
    # Probe.INTERVAL_S); the first run warms the loop up, untimed
    calibration.measure()
    gauge = [calibration.measure()]
    probe = calibration.Probe()
    outputs, latencies, probes, errors = [], [], [], []
    first = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = i
        probe.arm()
        start = time.perf_counter()
        try:
            out = job.replay(rp) if rp else job.run()
            error = None
        except Exception:
            out, error = None, traceback.format_exc(limit=3)
        end = time.perf_counter()
        times, spent = probe.disarm()
        latencies.append(end - start - spent)
        probes.append(times)
        gauge.append(calibration.measure())
        outputs.append(out)
        errors.append(error)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for job, out, error in zip(jobs, outputs, errors):
        if error is None:
            try:
                job.check(out)
            except jobs_mod.CheckFailed as exc:
                error = f"check failed: {exc}"
        if error is not None:
            failures.append({"job": job.label, "error": error})

    result = {"setup_s": setup_s, "latencies": latencies, "gauge": gauge,
              "probes": probes,
              "rss_mb": rss_mb, "failures": failures,
              "worker_count": lietool.simulate.worker_count()}
    if tracer:
        tracer.job = None
        jobs_mod.probe_solvers(rp)
        factors = [calibration.scale(gauge[i], *probes[i], gauge[i + 1])
                   for i in range(len(jobs))]

        def scale(span):
            # spans outside every job ran in set-up or after the last job
            if span["job"] is not None:
                return factors[span["job"]]
            return calibration.REFERENCE_S / (
                gauge[0] if span["start"] < first else gauge[-1])

        result["layers"] = tracing.layer_metrics(tracer, scale)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
