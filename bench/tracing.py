"""Span tracing around se2fusion's public functions, from outside the library.

A traced round replaces each function listed in LAYERS with a wrapper that
records a span (name, start, end, parent, trace id) and, for some functions,
counts taken from the call's arguments or result. Spans are kept in memory and
written out at the end of the run. A span's self time is its duration minus
the time its child spans cover, so the self times of all spans under one root
add up to the root's duration.

Names that `se2fusion.cli` imports with `from .x import y` are wrapped where
cli looks them up (the cli module's globals), not where they are defined.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import se2fusion
from se2fusion import cli, dataset, smoother

# Relative decrease of the error, per accepted Gauss-Newton step, below which
# the step only confirmed convergence.
USEFUL_DECREASE = 1e-6


def _solve_report(args, report):
    history = report.error_history
    useful = sum(1 for a, b in zip(history, history[1:]) if a > 0.0 and (a - b) / a >= USEFUL_DECREASE)
    return {
        "smoother.update_calls": 1,
        "smoother.iterations": report.iterations,
        "accepted_steps": len(history) - 1,
        "useful_steps": useful,
    }


def _one(metric):
    return lambda args, result: {metric: 1}


def _len_of_result(metric):
    return lambda args, result: {metric: len(result)}


def _len_of_first_arg(metric):
    return lambda args, result: {metric: len(args[0])}


# (owner, attribute, span name, counts) for every wrapped function. The span
# name's layer (the part before the dot) groups self times into TIME_METRICS.
LAYERS = (
    (smoother.Smoother, "update", "smoother.update", _solve_report),
    (smoother.Smoother, "add_factor", "smoother.add_factor", None),
    (smoother.Smoother, "marginal_sigma", "smoother.marginal", _one("smoother.marginal_calls")),
    (smoother.Smoother, "add_variable", "smoother.other", None),
    (smoother.Smoother, "pose_estimate", "smoother.other", None),
    (smoother.Smoother, "estimate", "smoother.other", None),
    (cli, "main", "cli.command", None),
    (cli, "cmd_simulate", "cli.command", None),
    (cli, "cmd_fuse", "cli.command", None),
    (cli, "cmd_evaluate", "cli.command", None),
    (cli, "cmd_stream", "cli.stream", None),
    (cli.FusionDriver, "set_prior", "cli.driver", None),
    (cli.FusionDriver, "add_odometry", "cli.driver", None),
    (cli.FusionDriver, "add_measurement", "cli.driver", None),
    (cli.FusionDriver, "estimate_record", "cli.driver", None),
    (cli.FusionDriver, "online_record", "cli.driver", None),
    (cli.FusionDriver, "fuse_report", "cli.driver", None),
    (cli, "accumulate", "odometry.accumulate", _len_of_first_arg("odometry.samples_folded")),
    (cli, "generate", "simulate.generate", None),
    (se2fusion, "generate", "simulate.generate", None),
    (cli, "read_trajectory_csv", "dataset.read", _len_of_result("dataset.rows_read")),
    (cli, "read_odometry_csv", "dataset.read", _len_of_result("dataset.rows_read")),
    (cli, "write_trajectory_csv", "dataset.write", _len_of_first_arg("dataset.rows_written")),
    (cli, "write_odometry_csv", "dataset.write", _len_of_first_arg("dataset.rows_written")),
    (cli, "compute_errors", "dataset.evaluate", None),
    (cli, "associate", "dataset.evaluate", _len_of_result("dataset.pairs_associated")),
    (dataset, "associate", "dataset.evaluate", _len_of_result("dataset.pairs_associated")),
)

# Self time per span name (harness roots count as "bench"); together these
# add up to trace.wall_ms.
TIME_METRICS = {
    "smoother.update": "smoother.update_ms",
    "smoother.add_factor": "smoother.add_factor_ms",
    "smoother.marginal": "smoother.marginal_ms",
    "smoother.other": "smoother.other_ms",
    "cli.stream": "cli.stream_self_ms",
    "cli.driver": "cli.driver_self_ms",
    "cli.command": "cli.command_self_ms",
    "odometry.accumulate": "odometry.accumulate_ms",
    "simulate.generate": "simulate.generate_ms",
    "dataset.read": "dataset.read_ms",
    "dataset.write": "dataset.write_ms",
    "dataset.evaluate": "dataset.evaluate_ms",
    "bench": "bench.self_ms",
}
COUNT_METRICS = (
    "smoother.update_calls",
    "smoother.iterations",
    "smoother.marginal_calls",
    "odometry.samples_folded",
    "dataset.rows_read",
    "dataset.rows_written",
    "dataset.pairs_associated",
    "trace.spans",
)


def per_layer_units() -> dict[str, str]:
    units = {m: "ms" for m in TIME_METRICS.values()}
    units.update({m: "count" for m in COUNT_METRICS})
    units.update({"smoother.useful_iter_ratio": "ratio", "trace.overhead_pct": "%", "trace.wall_ms": "ms"})
    return units


class Tracer:
    """In-memory span recorder; install() wraps LAYERS, remove() restores them."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, trace id]
        self.spans: list[list] = []
        self.counts: dict[int, dict] = {}
        self.trace_id = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, func, name, count):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trace_id]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                counts[idx] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, count in LAYERS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def root(self, name: str, trace_id):
        """A harness span that the spans recorded inside it nest under."""
        self.trace_id = trace_id
        self._stack.append(len(self.spans))
        rec = [name, 0.0, 0.0, -1, trace_id]
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self, lo: int, hi: int) -> list[float]:
        """Self time in seconds of spans lo..hi-1, which must hold whole subtrees."""
        own = [s[2] - s[1] for s in self.spans[lo:hi]]
        for s in self.spans[lo:hi]:
            if s[3] >= lo:
                own[s[3] - lo] -= s[2] - s[1]
        return own

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "trace_id"], "spans": self.spans}, fh)


def metrics(tracer: Tracer, setup: tuple[int, int], rounds: list[list[tuple[int, int]]], overhead_pct: float) -> dict:
    """Per-layer figures for one set-up plus one round, the round averaged over the traced ones.

    setup, and each traced unit of each round, is a [first, end) span index
    range that starts with a root span.
    """
    sums = defaultdict(float)

    def add(lo: int, hi: int, weight: float) -> None:
        sums["trace.wall_ms"] += weight * (tracer.spans[lo][2] - tracer.spans[lo][1]) * 1e3
        sums["trace.spans"] += weight * (hi - lo)
        for i, own in enumerate(tracer.self_times(lo, hi), start=lo):
            name = tracer.spans[i][0]
            sums[TIME_METRICS["bench" if name.startswith("bench.") else name]] += weight * own * 1e3
            for key, value in tracer.counts.get(i, {}).items():
                sums[key] += weight * value

    add(*setup, 1.0)
    for units in rounds:
        for lo, hi in units:
            add(lo, hi, 1.0 / len(rounds))
    out = {m: sums[m] for m in (*TIME_METRICS.values(), *COUNT_METRICS)}
    accepted = sums["accepted_steps"]
    out["smoother.useful_iter_ratio"] = sums["useful_steps"] / accepted if accepted else 0.0
    out["trace.overhead_pct"] = overhead_pct
    out["trace.wall_ms"] = sums["trace.wall_ms"]
    return out


def self_times_add_up(values: dict) -> bool:
    """True when the per-layer self times account for the traced wall time."""
    total = sum(values[m] for m in TIME_METRICS.values())
    return abs(total - values["trace.wall_ms"]) <= 1e-6 * max(values["trace.wall_ms"], 1.0)
