"""Spans and counters for the traced replay, and the per-layer metrics.

A span is one call from the benchmark into a lietool layer: name, start,
end, parent span and job id.  Spans are kept in memory and written out once
the pass ends.  A layer's time is the self time of its spans: duration minus
the part covered by child spans on the same thread.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager

# (name, unit, better) for every per-layer metric, in report order.  The
# per_layer list of BENCHMARK.json is this list.
PER_LAYER = [
    ("zoo.build_s", "s", "lower"),
    ("hall.enumerate_s", "s", "lower"),
    ("hall.elements", "count", "lower"),
    ("hall.decompose_cold_s", "s", "lower"),
    ("hall.bidegrees", "count", "lower"),
    ("hall.decompose_warm_s", "s", "lower"),
    ("hall.decompose_calls", "count", "lower"),
    ("exact_linalg.rows_s", "s", "lower"),
    ("exact_linalg.invert_s", "s", "lower"),
    ("exact_linalg.matrix_words", "count", "lower"),
    ("words.exp_s", "s", "lower"),
    ("words.log_s", "s", "lower"),
    ("words.log_terms", "count", "lower"),
    ("expansions.formal_state_s", "s", "lower"),
    ("expansions.ordered_product_s", "s", "lower"),
    ("expansions.cross_term_s", "s", "lower"),
    ("coord.xi_s", "s", "lower"),
    ("coord.xi_calls", "count", "lower"),
    ("coord.inequalities_s", "s", "lower"),
    ("fields.eval_s", "s", "lower"),
    ("fields.evals", "count", "lower"),
    ("fields.zero_frac", "ratio", "lower"),
    ("fields.max_terms", "count", "lower"),
    ("conditions.span_s", "s", "lower"),
    ("conditions.certify_s", "s", "lower"),
    ("conditions.growth_ratio", "ratio", "higher"),
    ("conditions.component_s", "s", "lower"),
    ("simulate.integrate_s", "s", "lower"),
    ("simulate.rk4_steps", "count", "lower"),
    ("simulate.zm_s", "s", "lower"),
    ("simulate.useful_trials", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Layer self times inside the jobs, for the share report.  zoo.build runs in
# set-up and exact_linalg.* after the last job, so neither is a job share.
LAYER_TIMES = [name for name, unit, _ in PER_LAYER if unit == "s"
               and not name.startswith(("trace.", "zoo.", "exact_linalg."))]


class Tracer:
    """In-memory span recorder, safe to use from the scan thread pool."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.job = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "job": self.job,
                    "thread": threading.get_ident()})

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, 0), value)

    def self_times(self, scale) -> dict[str, float]:
        """Total self time per span name, each span's scaled by
        `scale(span)`."""
        covered: dict[int, float] = {}
        threads = {s["id"]: s["thread"] for s in self.spans}
        for s in self.spans:
            parent = s["parent"]
            if parent is not None and threads.get(parent) == s["thread"]:
                covered[parent] = covered.get(parent, 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own * scale(s)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "maxima": self.maxima}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, scale=lambda span: 1.0) -> dict[str, float]:
    """Every per-layer metric except the trace.* ones, from one traced pass;
    span times are scaled by `scale(span)`."""
    times = tracer.self_times(scale)
    c = tracer.counts.get
    out = {name: times.get(name[:-2], 0.0)
           for name, unit, _ in PER_LAYER
           if unit == "s" and not name.startswith("trace.")}
    out.update({
        "hall.elements": c("hall.elements", 0),
        "hall.bidegrees": c("hall.bidegrees", 0),
        "hall.decompose_calls": c("hall.decompose_calls", 0),
        "exact_linalg.matrix_words": c("exact_linalg.matrix_words", 0),
        "words.log_terms": c("words.log_terms", 0),
        "coord.xi_calls": c("coord.xi_calls", 0),
        "fields.evals": c("fields.evals", 0),
        "fields.zero_frac": _ratio(c("fields.zeros", 0), c("fields.evals", 0)),
        "fields.max_terms": tracer.maxima.get("fields.max_terms", 0),
        "conditions.growth_ratio": _ratio(c("conditions.rank", 0),
                                          c("conditions.offered", 0)),
        "simulate.rk4_steps": c("simulate.rk4_steps", 0),
        "simulate.useful_trials": _ratio(c("simulate.useful", 0),
                                         c("simulate.trials", 0)),
    })
    return out
