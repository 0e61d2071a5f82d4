"""In-process A/B of the smoother: a base revision's se2fusion against the working tree's, frame by frame.

    python3 tools/ab.py --base HEAD~1
    python3 tools/ab.py --base HEAD --repeat 3

`git archive REF src/se2fusion` is unpacked into a temporary directory and
loaded as a second top-level package beside the working tree's se2fusion.
Both sides run the same units, each input rebuilt with the side's own classes
(Smoother.add_factor dispatches on isinstance):

- chains: 8 default simulated sessions of 600 frames (simulator seeds
  16-23), fed through each side's cli.FusionDriver, as the stream and fuse
  commands do;
- loop graphs: the 12 graphs of bench/run.py's loop-graphs workload for seed
  1, built frame by frame through the Smoother API with a marginal_sigma and
  pose_estimate read per frame, then solved in one batch;
- file-sessions: the 48 sessions of 100-300 frames of bench/run.py's
  file-sessions workload for seed 1 (simulator seeds 48-95), fed through the
  driver as the chains are; the CSV round trip of the bench's simulate and
  fuse commands is lossless, so these are the fuse command's inputs.

Base and head run each unit in lockstep, one step each: the set-up, then one
frame at a time, then on loop graphs the batch solve. Which side goes first
alternates from one step to the next, so that a drift of the host's speed
falls on both sides alike, and a side's unit wall is the sum of its own step
times; the end record read after the last step is not timed. Per frame the
tool compares, bit for bit, the SolveReport's error_history, iterations,
factorizations, bordered, stop_reason and mode, the newest pose's estimate
and, on loop graphs, its marginal_sigma; per unit the final estimate, and the
batch estimate on loop graphs or the newest pose's marginal_sigma on the
others. It prints the first frame that differs, the largest absolute and
relative difference of each field whose values have one shape on both sides,
each side's totals over one run of the units (iterations, factorizations,
bordered frames and frames that raised GaugeError), and the paired ratio of
unit wall times, head over base: median, quartiles and the units where head
was faster. On chains and file-sessions it also gives the bench's
frame_p50_ms, the 75th percentile over units of each unit's median update()
duration_ms, head over base. Both sides first run one unit untimed. --repeat
runs every unit that many times on each side; --small shrinks the inputs to
two 60-frame chains and the bench's small loop graphs and file sessions. The
exit code is 0 when every frame is equal, 1 when one differs and 2 when REF
is not a revision.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import itertools
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import se2fusion  # noqa: E402
from workloads import FileSessions, LoopGraphs  # noqa: E402

# the units: CHAINS chains of N_FRAMES frames from simulator seed FIRST_SEED
# on, and the loop-graphs graphs and file-sessions sessions of bench seed
# GRAPH_SEED
CHAINS, FIRST_SEED, N_FRAMES, GRAPH_SEED = 8, 16, 600, 1

_names = itertools.count()


def load_package(path: Path):
    """The se2fusion package whose files are in path, imported under a name of its own."""
    name = f"_ab_se2fusion_{next(_names)}"
    spec = importlib.util.spec_from_file_location(name, path / "__init__.py", submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def chain_inputs(seed: int, n_frames: int):
    """A default simulated session as plain numbers: prior, odometry and fixes."""
    sim = se2fusion.generate(se2fusion.SimConfig(seed=seed, n_frames=n_frames))
    odometry = [(o.timestamp, o.delta.as_tuple()) for o in sim.odometry]
    return sim.prior.as_tuple(), odometry, [(ts, pose.as_tuple()) for ts, pose in sim.measurements]


def _spec(factor) -> tuple:
    """A factor as plain numbers: its class name, keys, constant pose and sigmas."""
    if isinstance(factor, se2fusion.BetweenFactor):
        value = factor.relative
    else:
        value = factor.prior if isinstance(factor, se2fusion.PriorFactor) else factor.measured
    return type(factor).__name__, factor.keys(), value.as_tuple(), factor.noise.sigmas()


def graph_inputs(seed: int, small: bool):
    """The loop-graphs workload's graphs for seed, as per-frame lists of _spec."""
    return [[[_spec(f) for f in step] for step in g.steps] for g in LoopGraphs(small).setup(seed, None)]


def _report(report) -> dict:
    fields = ("error_history", "iterations", "factorizations", "bordered", "stop_reason", "mode")
    return {name: getattr(report, name) for name in fields}


def run_chain(pkg, inputs):
    """One chain on the side pkg, a step to each yield: the set-up, then one frame each; returns the per-frame records, the end record and the update() durations in ms."""
    prior, odometry, fixes = inputs
    driver = pkg.cli._driver_from_config(pkg.cli.RunConfig())
    driver.set_prior(pkg.Pose2(*prior))
    for ts, delta in odometry:
        driver.add_odometry(pkg.OdometrySample(ts, pkg.Pose2(*delta)))
    frames, durations = [], []
    yield
    for ts, fix in fixes:
        report = driver.add_measurement(ts, pkg.Pose2(*fix))
        frames.append(_report(report) | {"pose": driver.online[-1].as_tuple()})
        durations.append(report.duration_ms)
        yield
    sm = driver.smoother
    end = {"final": [p.as_tuple() for p in sm.estimate().values()], "sigma": sm.marginal_sigma(len(fixes) - 1)}
    return frames, end, durations


def run_graph(pkg, steps):
    """One loop graph on the side pkg, as the bench runs it, a step to each yield: the set-up, one frame each, then the batch solve; returns the per-frame records, the end record and None for durations, as the bench times a whole frame here."""

    def build(spec):
        kind, keys, value, sigmas = spec
        return getattr(pkg, kind)(*keys, pkg.Pose2(*value), pkg.DiagonalNoise(*sigmas))

    sm = pkg.Smoother()
    frames = []
    yield
    for k, specs in enumerate(steps):
        sm.add_variable()
        for spec in specs:
            sm.add_factor(build(spec))
        try:
            report = sm.update()
        except pkg.GaugeError:
            frames.append({"error": "GaugeError"})
        else:
            frames.append(_report(report) | {"sigma": sm.marginal_sigma(k), "pose": sm.pose_estimate(k).as_tuple()})
        yield
    batch = pkg.Smoother()
    for _ in steps:
        batch.add_variable()
    for spec in (spec for specs in steps for spec in specs):
        batch.add_factor(build(spec))
    try:
        batch.update()
        batch_estimate = [p.as_tuple() for p in batch.estimate().values()]
    except pkg.GaugeError:
        batch_estimate = None
    yield
    return frames, {"final": [p.as_tuple() for p in sm.estimate().values()], "batch": batch_estimate}, None


def lockstep(runs: dict, turn: int = 0) -> dict:
    """Each side's (wall seconds, then what its run returned), stepping the runs, generators such as run_chain's, one step each in turn.

    turn counts the turns before the first: the first of runs goes first in
    an even turn, the other in an odd one. A side's wall is the sum of its
    step times.
    """
    walls, out = dict.fromkeys(runs, 0.0), {}
    while len(out) < len(runs):
        sides = list(runs) if turn % 2 == 0 else list(runs)[::-1]
        for side in (s for s in sides if s not in out):
            t0 = time.perf_counter()
            try:
                next(runs[side])
            except StopIteration as stop:
                out[side] = (walls[side],) + stop.value
                continue
            walls[side] += time.perf_counter() - t0
        turn += 1
    return out


def _difference(a, b) -> tuple[float, float]:
    """(0, 0) when a and b are the same bit for bit, their largest absolute and relative difference when numbers of one shape, else (inf, inf)."""
    if isinstance(a, (str, bool)) or isinstance(b, (str, bool)) or a is None or b is None:
        return (0.0, 0.0) if a == b else (np.inf, np.inf)
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape:
        return np.inf, np.inf
    if a.tobytes() == b.tobytes():
        return 0.0, 0.0
    d, scale = np.abs(a - b), np.maximum(np.abs(a), np.abs(b))
    relative = np.divide(d, scale, out=np.zeros_like(d), where=scale > 0)
    # a difference in the sign of a zero alone counts as the smallest one
    return float(np.max(d, initial=0.0)) or np.finfo(float).tiny, float(np.max(relative, initial=0.0))


def _totals(frames: list) -> dict:
    """The iterations, factorizations and bordered frames among frames, and the frames that raised GaugeError."""
    return {
        "iterations": sum(f.get("iterations", 0) for f in frames),
        "factorizations": sum(f.get("factorizations", 0) for f in frames),
        "bordered": sum(f.get("bordered", False) for f in frames),
        "gauge_errors": sum("error" in f for f in frames),
    }


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def compare(base, head, run, units: list, repeat: int = 1) -> dict:
    """Run every unit on both sides in lockstep, repeat times; the differences and the wall and frame_p50_ms ratios."""
    first, largest = None, {}
    ratios, frames = [], 0
    # each side's median update() duration of every unit run that gives durations
    medians = {"base": [], "head": []}
    # each side's frames of the first run of the units, for the totals
    first_run = {"base": [], "head": []}
    # an untimed run of each side first, so that no unit pays for first calls
    lockstep({"base": run(base, units[0]), "head": run(head, units[0])})
    for r in range(repeat):
        for u, inputs in enumerate(units):
            gc.collect()
            # the side that goes first alternates from unit to unit too
            out = lockstep({"base": run(base, inputs), "head": run(head, inputs)}, len(ratios))
            (base_wall, base_frames, base_end, _), (head_wall, head_frames, head_end, _) = out["base"], out["head"]
            ratios.append(head_wall / base_wall)
            for side, (*_, durations) in out.items():
                if durations:
                    medians[side].append(float(np.median(durations)))
            frames += len(head_frames)
            if r == 0:
                first_run["base"] += base_frames
                first_run["head"] += head_frames
            records = list(enumerate(zip(base_frames, head_frames))) + [("end", (base_end, head_end))]
            if len(base_frames) != len(head_frames):
                records.append(("count", ({"frames": len(base_frames)}, {"frames": len(head_frames)})))
            for frame, (b, h) in records:
                for name in sorted(set(b) | set(h)):
                    d, relative = _difference(b.get(name), h.get(name))
                    if d and first is None:
                        first = {"unit": u, "repeat": r, "frame": frame, "field": name, "base": b.get(name), "head": h.get(name)}
                    if 0.0 < d < np.inf:
                        big = largest.setdefault(name, {"difference": 0.0, "relative": 0.0})
                        if d > big["difference"]:
                            big.update(unit=u, frame=frame, difference=d)
                        big["relative"] = max(big["relative"], relative)
    wins = sum(x < 1.0 for x in ratios)
    # the bench's frame_p50_ms: the 75th percentile over units of the unit medians
    p50 = {side: np.percentile(m, 75) if m else None for side, m in medians.items()}
    return {
        "units": len(ratios),
        "frames": frames,
        "equal": first is None,
        "first_difference": first,
        "largest_difference": largest,
        "totals": {side: _totals(side_frames) for side, side_frames in first_run.items()},
        "wall_ratio": _quartiles(ratios) | {"wins": wins, "n": len(ratios)},
        "frame_p50_ratio": None if p50["head"] is None else float(p50["head"] / p50["base"]),
    }


def run_ab(base_dir: Path, repeat: int = 1, small: bool = False) -> dict:
    """compare() on chains, loop graphs and file sessions for the package in base_dir against the working tree's."""
    base, head = load_package(Path(base_dir)), se2fusion
    importlib.import_module("se2fusion.cli")
    chains, n_frames = (2, 60) if small else (CHAINS, N_FRAMES)
    chain_units = [chain_inputs(FIRST_SEED + i, n_frames) for i in range(chains)]
    with tempfile.TemporaryDirectory() as tmp:
        sessions = FileSessions(small).setup(GRAPH_SEED, Path(tmp))
    session_units = [chain_inputs(s.seed, s.n_frames) for s in sessions]
    return {
        "chains": compare(base, head, run_chain, chain_units, repeat),
        "loop-graphs": compare(base, head, run_graph, graph_inputs(GRAPH_SEED, small), repeat),
        "file-sessions": compare(base, head, run_chain, session_units, repeat),
    }


def _print(results: dict) -> None:
    for name, r in results.items():
        w = r["wall_ratio"]
        verdict = "every frame bitwise equal" if r["equal"] else "DIFFERS"
        print(f"{name}: {r['units']} units, {r['frames']} frames, {verdict}")
        if not r["equal"]:
            f = r["first_difference"]
            print(f"  first difference: unit {f['unit']} frame {f['frame']} {f['field']}: base {f['base']!r}, head {f['head']!r}")
            for field, big in r["largest_difference"].items():
                print(
                    f"  largest difference in {field}: {big['difference']:.3g} (unit {big['unit']} frame {big['frame']}),"
                    f" relative {big['relative']:.3g}"
                )
        for name in r["totals"]["base"]:
            print(f"  {name} base/head: {r['totals']['base'][name]}/{r['totals']['head'][name]}")
        print(f"  wall head/base: median {w['median']:.3f} (quartiles {w['q1']:.3f}-{w['q3']:.3f}), head faster in {w['wins']}/{w['n']}")
        if r["frame_p50_ratio"] is not None:
            print(f"  frame_p50_ms head/base: {r['frame_p50_ratio']:.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision whose src/se2fusion is the base")
    ap.add_argument("--repeat", type=int, default=1, help="runs of every unit on each side (default 1)")
    ap.add_argument("--small", action="store_true", help="two 60-frame chains and the bench's small loop graphs and file sessions")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src/se2fusion"], capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode().strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(tmp)
        results = run_ab(Path(tmp) / "src" / "se2fusion", args.repeat, args.small)
    _print(results)
    return 0 if all(r["equal"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
