"""se2fusion benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload chain-stream --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from a checkout: the package is imported from src/ next to this
directory, and run outputs go to .bench_out/. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones
from a run whose rounds alternate between untraced and traced. --small
shrinks every input so that a run with all its checks takes seconds; its
figures are not reference numbers. The exit code is 0 when every check
passed, 1 when one failed and 2 when the package or an argument is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Only the standard library is imported up here: setup_s times the package
# import, numpy and scipy included, so they are imported after it.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("chain-stream", "loop-graphs", "file-sessions")

# Input builds timed per run; setup_s reports their median plus the import.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_s": "1/s",
    "frame_p50_ms": "ms",
    "frame_p99_ms": "ms",
    "fused_rmse_m": "m",
    "online_rmse_m": "m",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0, help="timed work per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _import_package() -> float:
    """Import se2fusion from this checkout's src/; returns the seconds it took."""
    if not (SRC / "se2fusion" / "__init__.py").is_file():
        raise FileNotFoundError(f"no se2fusion package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import se2fusion
    import se2fusion.cli  # noqa: F401  (the stream and file workflows)

    elapsed = time.perf_counter() - t0
    if Path(se2fusion.__file__).resolve().parent != SRC / "se2fusion":
        raise FileNotFoundError(f"se2fusion imported from {se2fusion.__file__}, not {SRC}")
    return elapsed


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _end_to_end(workload, seed: int, seconds: float, import_s: float, out_dir: Path):
    import workloads

    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(seed, out_dir)
        builds.append(time.perf_counter() - t0)
    rounds, problems = [], []
    timed = 0.0
    while not rounds or timed < seconds:
        r = workloads.run_round(workload, inputs)
        rounds.append(r)
        timed += r.wall_s
        problems.extend(workload.check(inputs, r))
    units = [u for r in rounds for u in r.units]
    # Per-unit figures are summarised by their quartile on the slow side: the
    # 2 vCPU host this was tuned on runs in a common slow state with bursts up
    # to 1.6x faster that last a few units, and the slow quartile reads the
    # common state where the median flips between the two.
    metrics = {
        "setup_s": import_s + statistics.median(builds),
        "frames_per_s": _percentile([u.frames / u.wall_s for u in units], 25),
        "frame_p50_ms": _percentile([statistics.median(u.latencies_ms) for u in units if u.latencies_ms], 75),
        "frame_p99_ms": _percentile([ms for u in units for ms in u.latencies_ms], 99),
        "fused_rmse_m": _pooled_rmse([r.fused_sq for r in rounds]),
        "online_rmse_m": _pooled_rmse([r.online_sq for r in rounds]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return rounds, problems, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def _pooled_rmse(parts) -> float:
    import numpy as np

    if any(p is None for p in parts):
        return float("nan")
    return float(np.sqrt(np.mean(np.concatenate(parts))))


def _per_layer(workload, seed: int, seconds: float, out_dir: Path, trace_path: Path):
    """Each unit runs untraced and traced back to back, in alternating order.

    Per-layer figures come from the traced runs, and the tracing overhead is
    the median over units of traced time over untraced time.
    """
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("bench.setup", "setup"):
            inputs = workload.setup(seed, out_dir)
    finally:
        tracer.remove()
    setup_range = (0, len(tracer.spans))
    rounds, problems, traced_ranges, ratios = [], [], [], []
    timed = 0.0
    while not rounds or timed < seconds:
        done = {False: [], True: []}
        ranges = []
        for i in range(len(inputs)):
            for traced in (False, True) if (i + len(traced_ranges)) % 2 == 0 else (True, False):
                if traced:
                    first = len(tracer.spans)
                    tracer.install()
                    try:
                        with tracer.root("bench.unit", f"round-{len(traced_ranges)}-unit-{i}"):
                            done[True].append(workload.run_unit(inputs, i, tracer))
                    finally:
                        tracer.remove()
                    ranges.append((first, len(tracer.spans)))
                else:
                    done[False].append(workload.run_unit(inputs, i, None))
            ratios.append(done[True][-1][0].wall_s / done[False][-1][0].wall_s)
        traced_ranges.append(ranges)
        for pairs in done.values():
            r = workloads.gather(workload, inputs, pairs)
            rounds.append(r)
            timed += r.wall_s
            problems.extend(workload.check(inputs, r))
    overhead = (statistics.median(ratios) - 1.0) * 100.0
    values = tracing.metrics(tracer, setup_range, traced_ranges, overhead)
    if not tracing.self_times_add_up(values):
        problems.append("per-layer self times do not add up to the traced wall time")
    tracer.dump(trace_path)
    units = tracing.per_layer_units()
    return rounds, problems, {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def run_one(args) -> int:
    try:
        import_s = _import_package()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.small)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = OUT / f"{tag}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            rounds, problems, metrics = _per_layer(workload, args.seed, args.seconds, out_dir, OUT / f"trace-{tag}.json")
        else:
            rounds, problems, metrics = _end_to_end(workload, args.seed, args.seconds, import_s, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:14s} rounds={len(rounds)} attempted={result['attempted']} failed={result['failed']}")
    units = [
        {"frames": u.frames, "wall_s": u.wall_s, "p50_ms": statistics.median(u.latencies_ms) if u.latencies_ms else None}
        for r in rounds
        for u in r.units
    ]
    (OUT / f"result-{tag}.json").write_text(json.dumps({**result, "problems": problems, "units": units}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.small:
            cmd.append("--small")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines() or ["no result"]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
