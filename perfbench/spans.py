"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into gtseq's public functions by replacing
them, at run time, in the module namespaces where their callers look them up
(for example `gtseq.bench.mle_two`).  No gtseq source file is changed.  Each
span has an id (its index), a parent id (-1 at the top), a name and start and
end times in nanoseconds; self time is derived from them afterwards.

`numerics` (Fraction arithmetic) has no call boundary on the hot path, so its
cost shows up as self time of the estimators and series spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from array import array
from collections import Counter

# Span name -> [(module, attribute)] wrapped under that name.
LAYERS = {
    "config.load": [("gtseq.cli", "load_config")],
    "bench.run_mode": [("gtseq.cli", "run_mode")],
    "bench.render": [("gtseq.cli", "write_records")],
    "model": [
        ("gtseq.bench", "observed_pos_prob"),
        ("gtseq.bench", "pool_cell_probs"),
        ("gtseq.bench", "observed_cell_probs"),
        ("gtseq.estimators", "invert_cell_probs"),
    ],
    "plans.simulate": [("gtseq.bench", "simulate_imn_counts")],
    "plans.truncated_expectation": [("gtseq.verify", "truncated_expectation")],
    "estimators.scan": [
        ("gtseq.bench", "scan_properness"),
        ("gtseq.estimators", "scan_properness"),
    ],
    "series.build": [("gtseq.estimators", "estimator_series_two")],
    "series.coeff": [
        ("gtseq.estimators", "unbiased_exact"),
        ("gtseq.estimators", "unbiased_from_series"),
    ],
    "verify": [("gtseq.bench", "verify_one"), ("gtseq.bench", "verify_two")],
}
ESTIMATORS = (
    "unbiased_one", "unbiased_one_misclass", "mle_one",
    "unbiased_two", "unbiased_two_misclass", "mle_two",
)
for _fn in ESTIMATORS:
    LAYERS[f"estimators.{_fn}"] = [("gtseq.bench", _fn), ("gtseq.estimators", _fn)]
LAYERS["estimators.unbiased_one_misclass"].append(("gtseq.verify", "unbiased_one_misclass"))

# Durations whose metric name is spelled without the ".s" suffix.
SPELLED = {
    "config.load": "config.load_s",
    "bench.run_mode": "bench.run_mode_s",
    "bench.render": "bench.render_s",
}
# Counters kept by the per-layer hooks; maxima are kept as counters too.
COUNTERS = (
    "plans.simulate.replicates", "plans.truncated_expectation.points",
    "estimators.scan.violations", "series.build.max_order",
    "verify.checks", "verify.max_total", "verify.uncertified",
    "bench.rows", "bench.out_bytes",
)


class Tracer:
    """Spans kept in compact arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, module, attr: str, name: str, extra=None) -> None:
        fn = getattr(module, attr)
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        parent, names, start, end, stack = self.parent, self.name, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(index)
            start.append(0)
            end.append(0)
            stack.append(sid)
            start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if extra is not None:
                extra(fn, args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def install(self) -> None:
        """Wrap every function listed in LAYERS, with the counters each layer keeps."""

        def count(key, measure):
            return lambda fn, args, kwargs, result: self.counts.update({key: measure(result)})

        extras = {
            "bench.render": self._render,
            "plans.simulate": count("plans.simulate.replicates", len),
            "plans.truncated_expectation": count("plans.truncated_expectation.points", lambda r: r.n_points),
            "estimators.scan": count("estimators.scan.violations", len),
            "series.build": self._build,
            "verify": self._verify,
        }
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                self.wrap(importlib.import_module(module_name), attr, name, extras.get(name))

    def _render(self, fn, args, kwargs, result) -> None:
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        self.counts["bench.rows"] += len(bound["records"])
        path = bound["path"]
        if path not in (None, "-"):
            self.counts["bench.out_bytes"] += os.path.getsize(path)

    def _build(self, fn, args, kwargs, result) -> None:
        order = inspect.signature(fn).bind(*args, **kwargs).arguments["order"]
        self._raise_to("series.build.max_order", order)

    def _verify(self, fn, args, kwargs, result) -> None:
        rows = result if isinstance(result, list) else [result]
        self.counts["verify.checks"] += len(rows)
        self.counts["verify.uncertified"] += sum(not row.certified for row in rows)
        self._raise_to("verify.max_total", max(row.max_total for row in rows))

    def _raise_to(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], value)

    def summary(self) -> dict[str, float]:
        """Per-layer calls, inclusive seconds, counters and self time derived from spans."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child_ns = [0] * n
        child_calls: Counter = Counter()
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += duration[i]
                child_calls[self.name[p]] += 1
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(n):
            calls[self.name[i]] += 1
            total_ns[self.name[i]] += duration[i]
            self_ns[self.name[i]] += duration[i] - child_ns[i]
        index = {name: i for i, name in enumerate(self.names)}.__getitem__

        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[index(name)]
            out[SPELLED.get(name, f"{name}.s")] = total_ns[index(name)] / 1e9
        for key in COUNTERS:
            out[key] = self.counts[key]
        out["estimators.scan.points"] = child_calls[index("estimators.scan")]
        out["bench.self_s"] = self_ns[index("bench.run_mode")] / 1e9
        replicates = out["plans.simulate.replicates"]
        out["bench.unique_frac"] = out["estimators.mle_two.calls"] / replicates if replicates else 0.0
        out["trace.spans"] = n
        return out

    def write(self, path: str, origin_ns: int) -> None:
        """Write every span as [id, parent, name index, start_ns, end_ns], times from origin_ns."""
        spans = [
            [i, self.parent[i], self.name[i], self.start[i] - origin_ns, self.end[i] - origin_ns]
            for i in range(len(self.start))
        ]
        doc = {"names": self.names, "fields": ["id", "parent", "name", "start_ns", "end_ns"], "spans": spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
