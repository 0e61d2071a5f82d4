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
  pose_estimate read per frame, then solved in one batch.

Base and head alternate which goes first from one unit to the next. Per frame
the tool compares, bit for bit, the SolveReport's error_history, iterations,
factorizations, bordered, stop_reason and mode, the newest pose's estimate
and, on loop graphs, its marginal_sigma; per unit the final estimate, and the
batch estimate on loop graphs or the newest pose's marginal_sigma on chains.
It prints the first frame that differs, the largest difference of each field
whose values have one shape on both sides, and the paired ratio of unit wall
times, head over base: median, quartiles and the units where head was
faster. Both sides first run one unit untimed. --repeat runs every unit that
many times on each side; --small shrinks the inputs to two 60-frame chains
and the bench's small loop graphs. The exit code is 0 when every frame is
equal, 1 when one differs and 2 when REF is not a revision.
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
from workloads import LoopGraphs  # noqa: E402

# the units: CHAINS chains of N_FRAMES frames from simulator seed FIRST_SEED
# on, and the loop-graphs graphs of bench seed GRAPH_SEED
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
    """Wall seconds, per-frame records and the end record of one chain on the side pkg."""
    prior, odometry, fixes = inputs
    t0 = time.perf_counter()
    driver = pkg.cli._driver_from_config(pkg.cli.RunConfig())
    driver.set_prior(pkg.Pose2(*prior))
    for ts, delta in odometry:
        driver.add_odometry(pkg.OdometrySample(ts, pkg.Pose2(*delta)))
    frames = []
    for ts, fix in fixes:
        report = driver.add_measurement(ts, pkg.Pose2(*fix))
        frames.append(_report(report) | {"pose": driver.online[-1].as_tuple()})
    wall = time.perf_counter() - t0
    sm = driver.smoother
    end = {"final": [p.as_tuple() for p in sm.estimate().values()], "sigma": sm.marginal_sigma(len(fixes) - 1)}
    return wall, frames, end


def run_graph(pkg, steps):
    """Wall seconds, per-frame records and the end record of one loop graph on the side pkg, as the bench runs it."""

    def build(spec):
        kind, keys, value, sigmas = spec
        return getattr(pkg, kind)(*keys, pkg.Pose2(*value), pkg.DiagonalNoise(*sigmas))

    t0 = time.perf_counter()
    sm = pkg.Smoother()
    frames = []
    for k, specs in enumerate(steps):
        sm.add_variable()
        for spec in specs:
            sm.add_factor(build(spec))
        try:
            report = sm.update()
        except pkg.GaugeError:
            frames.append({"error": "GaugeError"})
            continue
        frames.append(_report(report) | {"sigma": sm.marginal_sigma(k), "pose": sm.pose_estimate(k).as_tuple()})
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
    wall = time.perf_counter() - t0
    return wall, frames, {"final": [p.as_tuple() for p in sm.estimate().values()], "batch": batch_estimate}


def _difference(a, b) -> float:
    """0 when a and b are the same bit for bit, their largest absolute difference when numbers of one shape, else inf."""
    if isinstance(a, (str, bool)) or isinstance(b, (str, bool)) or a is None or b is None:
        return 0.0 if a == b else np.inf
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape:
        return np.inf
    if a.tobytes() == b.tobytes():
        return 0.0
    # a difference in the sign of a zero alone counts as the smallest one
    return float(np.max(np.abs(a - b), initial=0.0)) or np.finfo(float).tiny


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def compare(base, head, run, units: list, repeat: int = 1) -> dict:
    """Run every unit on both sides, repeat times, alternating which goes first; the differences and the wall ratios."""
    first, largest = None, {}
    ratios, frames = [], 0
    # an untimed run of each side first, so that no unit pays for first calls
    for pkg in (base, head):
        run(pkg, units[0])
    for r in range(repeat):
        for u, inputs in enumerate(units):
            out = {}
            for side in ("base", "head") if len(ratios) % 2 == 0 else ("head", "base"):
                gc.collect()
                out[side] = run(base if side == "base" else head, inputs)
            (base_wall, base_frames, base_end), (head_wall, head_frames, head_end) = out["base"], out["head"]
            ratios.append(head_wall / base_wall)
            frames += len(head_frames)
            records = list(enumerate(zip(base_frames, head_frames))) + [("end", (base_end, head_end))]
            if len(base_frames) != len(head_frames):
                records.append(("count", ({"frames": len(base_frames)}, {"frames": len(head_frames)})))
            for frame, (b, h) in records:
                for name in sorted(set(b) | set(h)):
                    d = _difference(b.get(name), h.get(name))
                    if d and first is None:
                        first = {"unit": u, "repeat": r, "frame": frame, "field": name, "base": b.get(name), "head": h.get(name)}
                    if d < np.inf and d > largest.get(name, {"difference": 0.0})["difference"]:
                        largest[name] = {"unit": u, "frame": frame, "difference": d}
    wins = sum(x < 1.0 for x in ratios)
    return {
        "units": len(ratios),
        "frames": frames,
        "equal": first is None,
        "first_difference": first,
        "largest_difference": largest,
        "wall_ratio": _quartiles(ratios) | {"wins": wins, "n": len(ratios)},
    }


def run_ab(base_dir: Path, repeat: int = 1, small: bool = False) -> dict:
    """compare() on chains and loop graphs for the package in base_dir against the working tree's."""
    base, head = load_package(Path(base_dir)), se2fusion
    importlib.import_module("se2fusion.cli")
    chains, n_frames = (2, 60) if small else (CHAINS, N_FRAMES)
    chain_units = [chain_inputs(FIRST_SEED + i, n_frames) for i in range(chains)]
    return {
        "chains": compare(base, head, run_chain, chain_units, repeat),
        "loop-graphs": compare(base, head, run_graph, graph_inputs(GRAPH_SEED, small), repeat),
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
                print(f"  largest difference in {field}: {big['difference']:.3g} (unit {big['unit']} frame {big['frame']})")
        print(f"  wall head/base: median {w['median']:.3f} (quartiles {w['q1']:.3f}-{w['q3']:.3f}), head faster in {w['wins']}/{w['n']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision whose src/se2fusion is the base")
    ap.add_argument("--repeat", type=int, default=1, help="runs of every unit on each side (default 1)")
    ap.add_argument("--small", action="store_true", help="two 60-frame chains and the bench's small loop graphs")
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
