"""The three workloads: streamed chains, loop-closure graphs and file sessions.

Each workload builds its inputs from the seed in setup(): a fixed list of
units (a streamed session, a graph, a file session). run_unit() runs one unit
and times it on its own, so that a run can report medians over units;
finish() gathers a round's unit outputs and check() checks them. A run
repeats whole rounds of the same inputs, so a round's work and counts do not
depend on how fast the machine is. All load is closed loop from this one process: the
next frame is sent only when the previous one is answered.

Accuracy differs a lot from one trajectory to the next (the translation RMSE
of single 1000-frame sessions spans 0.8-2.0 m over 40 seeds), so every
workload pools its RMSEs over twelve or more units of its round.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import se2fusion
from se2fusion import (
    BetweenFactor,
    DiagonalNoise,
    GaugeError,
    MEASUREMENT_DEFAULT,
    MeasurementFactor,
    ODOMETRY_DEFAULT,
    PRIOR_DEFAULT,
    Pose2,
    PriorFactor,
    SimConfig,
    Smoother,
    cli,
)

import checks


@dataclass
class Unit:
    """One timed unit of a round: frames done, its wall time and per-frame latencies."""

    frames: int
    wall_s: float
    latencies_ms: list[float]


@dataclass
class RoundResult:
    """What one round did, as the harness saw it."""

    attempted: int
    failed: int
    fused_sq: np.ndarray | None = None
    online_sq: np.ndarray | None = None
    outputs: dict = field(default_factory=dict)
    units: list[Unit] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(u.wall_s for u in self.units)


def gather(workload, inputs, done: list[tuple[Unit, object]]) -> RoundResult:
    """A round's result from what run_unit returned for each unit, in order."""
    result = workload.finish(inputs, [out for _, out in done])
    result.units = [unit for unit, _ in done]
    return result


def run_round(workload, inputs) -> RoundResult:
    """Every unit of the inputs once, in order, untraced."""
    return gather(workload, inputs, [workload.run_unit(inputs, i, None) for i in range(len(inputs))])


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def _pose_array(poses) -> np.ndarray:
    return np.array([p.as_tuple() for p in poses], dtype=float).reshape(-1, 3)


def _concat(parts) -> np.ndarray | None:
    return None if any(p is None for p in parts) else np.concatenate(parts)


# ---- chain-stream -----------------------------------------------------------


class _LineSource:
    """stdin for the stream command: hands over one line at a time and stamps each MEAS."""

    def __init__(self, lines, meas, trace_ids, tracer):
        self.lines = lines
        self.meas = meas
        self.trace_ids = trace_ids
        self.tracer = tracer
        self.pos = 0
        self.stamps = [0.0] * len(lines)

    def __iter__(self):
        return self

    def __next__(self) -> str:
        i = self.pos
        if i >= len(self.lines):
            raise StopIteration
        if self.tracer is not None:
            self.tracer.trace_id = self.trace_ids[i]
        self.pos = i + 1
        if self.meas[i]:
            self.stamps[i] = time.perf_counter()
        return self.lines[i]


class _Sink:
    """stdout for the stream command: stamps each write with the line it answers."""

    def __init__(self, source: _LineSource):
        self.source = source
        self.writes: list[tuple[float, int, str]] = []

    def write(self, text: str) -> int:
        self.writes.append((time.perf_counter(), self.source.pos - 1, text))
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class StreamSession:
    lines: list[str]
    meas: list[bool]
    trace_ids: list[str]
    frame_ts: np.ndarray
    truth: np.ndarray
    measured: np.ndarray
    sim: se2fusion.SimOutput


class ChainStream:
    """Default-config sessions, each fed line by line through `se2fusion stream`."""

    name = "chain-stream"

    def __init__(self, small: bool):
        self.n_sessions = 2 if small else 16
        self.n_frames = 120 if small else 600

    def setup(self, seed: int, out_dir: Path) -> list[StreamSession]:
        first = seed * self.n_sessions
        return [self._session(first + i, i) for i in range(self.n_sessions)]

    def _session(self, sim_seed: int, index: int) -> StreamSession:
        sim = se2fusion.generate(SimConfig(seed=sim_seed, n_frames=self.n_frames))
        p = sim.prior
        lines = [f"PRIOR {_fmt(p.x)} {_fmt(p.y)} {_fmt(p.theta)}\n"]
        trace_ids = [f"s{index}-frame-0"]
        odo = sim.odometry
        j = 0
        for k, (ts, m) in enumerate(sim.measurements):
            while j < len(odo) and odo[j].timestamp <= ts:
                d = odo[j].delta
                lines.append(f"ODOM {_fmt(odo[j].timestamp)} {_fmt(d.x)} {_fmt(d.y)} {_fmt(d.theta)}\n")
                trace_ids.append(f"s{index}-frame-{k}")
                j += 1
            lines.append(f"MEAS {_fmt(ts)} {_fmt(m.x)} {_fmt(m.y)} {_fmt(m.theta)}\n")
            trace_ids.append(f"s{index}-frame-{k}")
        lines.append("FLUSH\n")
        trace_ids.append(f"s{index}-flush")
        return StreamSession(
            lines=lines,
            meas=[line.startswith("MEAS") for line in lines],
            trace_ids=trace_ids,
            frame_ts=np.array(sim.ground_truth.timestamps()),
            truth=_pose_array(sim.ground_truth.poses()),
            measured=_pose_array(sim.measurements.poses()),
            sim=sim,
        )

    def run_unit(self, sessions: list[StreamSession], i: int, tracer) -> tuple[Unit, dict]:
        return _stream(sessions[i], tracer)

    def finish(self, sessions: list[StreamSession], outs: list[dict]) -> RoundResult:
        fused, online = [], []
        for s, out in zip(sessions, outs):
            n = len(s.frame_ts)
            ok = len(out["online"]) == n and len(out["final"]) == n
            fused.append(checks.translation_sq_errors(_est_array(out["final"]), s.truth) if ok else None)
            online.append(checks.translation_sq_errors(_est_array(out["online"]), s.truth) if ok else None)
        return RoundResult(
            attempted=sum(len(s.lines) for s in sessions),
            failed=sum(len(out["errors"]) for out in outs),
            fused_sq=_concat(fused),
            online_sq=_concat(online),
            outputs={"sessions": outs},
        )

    def check(self, sessions: list[StreamSession], result: RoundResult) -> list[str]:
        bad = []
        for i, (s, o) in enumerate(zip(sessions, result.outputs["sessions"])):
            bad.extend(f"session {i}: {p}" for p in _stream_problems(s, o))
        return bad


def _stream(s: StreamSession, tracer) -> tuple[Unit, dict]:
    """One session through the stream command; EST lines split by the line they answer."""
    source = _LineSource(s.lines, s.meas, s.trace_ids, tracer)
    sink = _Sink(source)
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = source, sink
    try:
        t0 = time.perf_counter()
        code = cli.main(["stream"])
        wall = time.perf_counter() - t0
    finally:
        sys.stdin, sys.stdout = saved
    online, final, errors, latencies = [], [], [], []
    flush_at = len(s.lines) - 1
    for stamp, line_idx, text in sink.writes:
        if text.startswith("ERR"):
            errors.append(text.strip())
        elif line_idx == flush_at:
            final.append(text.split())
        elif s.meas[line_idx]:
            online.append(text.split())
            latencies.append((stamp - source.stamps[line_idx]) * 1e3)
    unit = Unit(frames=len(s.frame_ts), wall_s=wall, latencies_ms=latencies)
    return unit, {"code": code, "online": online, "final": final, "errors": errors}


def _stream_problems(s: StreamSession, o: dict) -> list[str]:
    bad = []
    if o["code"] != 0:
        bad.append(f"stream exited {o['code']}")
    for label, lines in (("MEAS answers", o["online"]), ("FLUSH", o["final"])):
        problem = _est_lines_problem(lines, s.frame_ts)
        if problem:
            bad.append(f"{label}: {problem}")
    if bad:
        return bad
    final = _est_array(o["final"])
    raw = checks.rmse(checks.translation_sq_errors(s.measured, s.truth))
    fused = checks.rmse(checks.translation_sq_errors(final, s.truth))
    if not fused <= 0.5 * raw:
        bad.append(f"fused RMSE {fused:.4g} m is not at most half the raw-fix RMSE {raw:.4g} m")
    n = len(s.frame_ts)
    h, g = checks.normal_equations(n, _chain_factors(s.sim), {k: Pose2(*final[k]) for k in range(n)})
    step = checks.newton_step(h, g)
    if not step <= checks.MAX_NEWTON_STEP:
        bad.append(f"Newton step {step:.3g} at the final estimate exceeds {checks.MAX_NEWTON_STEP}")
    return bad


def _est_array(lines) -> np.ndarray:
    return np.array([[float(v) for v in parts[3:6]] for parts in lines]).reshape(-1, 3)


def _est_lines_problem(lines, frame_ts: np.ndarray) -> str | None:
    """Why a list of split EST lines is not one finite pose per frame, keys 0..n-1."""
    if len(lines) != len(frame_ts):
        return f"{len(lines)} EST lines for {len(frame_ts)} frames"
    for k, parts in enumerate(lines):
        if len(parts) != 6 or parts[0] != "EST":
            return f"malformed line {' '.join(parts)!r}"
        if int(parts[2]) != k:
            return f"key {parts[2]} where {k} was due"
        values = [float(v) for v in (parts[1], *parts[3:])]
        if not all(math.isfinite(v) for v in values):
            return f"non-finite values for key {k}"
        if values[0] != frame_ts[k]:
            return f"timestamp {values[0]} for key {k}, sent {frame_ts[k]}"
    return None


def _chain_factors(sim: se2fusion.SimOutput) -> list:
    """The factors the stream builds for this session, rebuilt from the simulator output."""
    factors = [PriorFactor(0, sim.prior, PRIOR_DEFAULT)]
    odo = sim.odometry
    j = 0
    for k, (ts, m) in enumerate(sim.measurements):
        rel = Pose2.identity()
        while j < len(odo) and odo[j].timestamp <= ts:
            if k > 0:
                rel = rel.compose(odo[j].delta)
            j += 1
        if k > 0:
            factors.append(BetweenFactor(k - 1, k, rel, ODOMETRY_DEFAULT))
        factors.append(MeasurementFactor(k, m, MEASUREMENT_DEFAULT))
    return factors


# ---- loop-graphs ------------------------------------------------------------


@dataclass
class Graph:
    truth: np.ndarray
    steps: list[list]

    @property
    def factors(self) -> list:
        return [f for step in self.steps for f in step]


class LoopGraphs:
    """Random pose graphs with loop closures, built frame by frame through the Smoother API.

    Graph sizes and noise levels are spread evenly over fixed ranges, the
    same for every seed; the seed draws the trajectories, the noise and the
    loop closures.
    """

    name = "loop-graphs"

    def __init__(self, small: bool):
        self.n_graphs = 3 if small else 12
        self.size_range = (40, 60) if small else (150, 300)

    def setup(self, seed: int, out_dir: Path) -> list[Graph]:
        rng = _rng(seed, 2)
        lo, hi = self.size_range
        return [_random_graph(rng, int(round(lo + (hi - lo) * f)), f) for f in np.linspace(0.0, 1.0, self.n_graphs)]

    def run_unit(self, graphs: list[Graph], gi: int, tracer) -> tuple[Unit, dict]:
        graph = graphs[gi]
        latencies, online = [], []
        failed = 0
        sigma = None
        clock = time.perf_counter
        t0 = clock()
        sm = Smoother()
        for k, factors in enumerate(graph.steps):
            if tracer is not None:
                tracer.trace_id = f"graph-{gi}-frame-{k}"
            start = clock()
            sm.add_variable()
            for f in factors:
                sm.add_factor(f)
            try:
                sm.update()
            except GaugeError:
                failed += 1
                continue
            sigma = sm.marginal_sigma(k)
            pose = sm.pose_estimate(k)
            latencies.append((clock() - start) * 1e3)
            online.append(pose.as_tuple())
        final = _pose_array(sm.estimate().values())
        if tracer is not None:
            tracer.trace_id = f"graph-{gi}-batch"
        batch = Smoother()
        for _ in graph.steps:
            batch.add_variable()
        for f in graph.factors:
            batch.add_factor(f)
        try:
            batch.update()
            batch_estimate = _pose_array(batch.estimate().values())
        except GaugeError:
            failed += 1
            batch_estimate = None
        unit = Unit(frames=len(graph.steps), wall_s=clock() - t0, latencies_ms=latencies)
        return unit, {"final": final, "batch": batch_estimate, "sigma": sigma, "online": online, "failed": failed}

    def finish(self, graphs: list[Graph], outs: list[dict]) -> RoundResult:
        out = RoundResult(
            # every frame, then the batch solve
            attempted=sum(len(g.steps) + 1 for g in graphs),
            failed=sum(o["failed"] for o in outs),
            outputs={"finals": [o["final"] for o in outs], "batches": [o["batch"] for o in outs],
                     "sigmas": [o["sigma"] for o in outs]},
        )
        if out.failed == 0:
            truth = np.vstack([g.truth for g in graphs])
            out.online_sq = checks.translation_sq_errors(np.array([p for o in outs for p in o["online"]]), truth)
            out.fused_sq = checks.translation_sq_errors(np.vstack(out.outputs["finals"]), truth)
        return out

    def check(self, graphs: list[Graph], result: RoundResult) -> list[str]:
        bad = []
        o = result.outputs
        for gi, graph in enumerate(graphs):
            n = len(graph.steps)
            final, batch = o["finals"][gi], o["batches"][gi]
            if final.shape != (n, 3) or not np.all(np.isfinite(final)):
                bad.append(f"graph {gi}: final estimate is not {n} finite poses")
                continue
            if batch is not None:
                diff = checks.max_pose_diff(final, batch)
                if not diff <= checks.BATCH_TOLERANCE:
                    bad.append(f"graph {gi}: incremental and batch differ by {diff:.3g}")
            h, g = checks.normal_equations(n, graph.factors, {k: Pose2(*final[k]) for k in range(n)})
            step = checks.newton_step(h, g)
            if not step <= checks.MAX_NEWTON_STEP:
                bad.append(f"graph {gi}: Newton step {step:.3g} at the final estimate")
            want = checks.dense_sigmas(h, n - 1)
            got = o["sigmas"][gi]
            if got is not None and not all(checks.close(a, b, checks.SIGMA_TOLERANCE) for a, b in zip(got, want)):
                bad.append(f"graph {gi}: marginal_sigma {got} but dense H gives {tuple(want)}")
        return bad


def _random_graph(rng: np.random.Generator, n: int, level: float) -> Graph:
    """A noisy chain with a prior, odometry, 80% absolute fixes and loop closures over >= 15 poses.

    level in [0, 1] sets the sigmas: fixes and loop closures 0.01-0.05,
    odometry 0.002-0.008 (m and rad alike).
    """
    truth = [Pose2(0.0, 0.0, 0.0)]
    for _ in range(1, n):
        step = Pose2(rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2), rng.uniform(-0.25, 0.25))
        truth.append(truth[-1].compose(step))
    s = 0.01 + 0.04 * level
    meas_noise = DiagonalNoise(s, s, s)
    s = 0.002 + 0.006 * level
    odo_noise = DiagonalNoise(s, s, s)

    def noisy(p: Pose2, sig: DiagonalNoise) -> Pose2:
        dx, dy, dth = rng.normal(0.0, sig.sigmas())
        return Pose2(p.x + dx, p.y + dy, p.theta + dth)

    steps = []
    for k in range(n):
        if k == 0:
            factors = [PriorFactor(0, noisy(truth[0], meas_noise), meas_noise)]
        else:
            factors = [BetweenFactor(k - 1, k, noisy(truth[k - 1].between(truth[k]), odo_noise), odo_noise)]
        if rng.random() < 0.8:
            factors.append(MeasurementFactor(k, noisy(truth[k], meas_noise), meas_noise))
        if k >= 20 and rng.random() < 0.1:
            j = int(rng.integers(0, k - 15, endpoint=True))
            factors.append(BetweenFactor(j, k, noisy(truth[j].between(truth[k]), meas_noise), meas_noise))
        steps.append(factors)
    return Graph(truth=_pose_array(truth), steps=steps)


# ---- file-sessions ----------------------------------------------------------


@dataclass
class Session:
    seed: int
    n_frames: int
    dir: Path


class FileSessions:
    """Short sessions through the documented file workflow: simulate, fuse, evaluate.

    Session lengths are spread evenly over a fixed range, the same for every
    seed, in an order the seed shuffles; the seed also picks the consecutive
    simulator seeds.
    """

    name = "file-sessions"

    def __init__(self, small: bool):
        self.n_sessions = 2 if small else 48
        self.size_range = (30, 50) if small else (100, 300)

    def setup(self, seed: int, out_dir: Path) -> list[Session]:
        lo, hi = self.size_range
        sizes = np.round(np.linspace(lo, hi, self.n_sessions)).astype(int)
        _rng(seed, 3).shuffle(sizes)
        first = seed * self.n_sessions
        sessions = [Session(first + i, int(n), out_dir / f"session-{i}") for i, n in enumerate(sizes)]
        for s in sessions:
            s.dir.mkdir(parents=True, exist_ok=True)
        return sessions

    def run_unit(self, sessions: list[Session], i: int, tracer) -> tuple[Unit, list[int]]:
        s = sessions[i]
        if tracer is not None:
            tracer.trace_id = f"session-{i}"
        d = s.dir
        t0 = time.perf_counter()
        codes = [
            cli.main(["simulate", "--seed", str(s.seed), "--n-frames", str(s.n_frames), "--out-dir", str(d)]),
            cli.main(
                [
                    "fuse",
                    "--odometry", str(d / "odometry.csv"),
                    "--measurements", str(d / "measurements.csv"),
                    "--prior", str(d / "prior.json"),
                    "--out-dir", str(d),
                ]
            ),
            cli.main(
                [
                    "evaluate",
                    "--estimate", str(d / "estimate.csv"),
                    "--truth", str(d / "ground_truth.csv"),
                    "--baseline", str(d / "measurements.csv"),
                    "--out", str(d / "evaluation.json"),
                ]
            ),
        ]
        unit = Unit(frames=s.n_frames, wall_s=time.perf_counter() - t0, latencies_ms=[])
        if codes == [0, 0, 0]:
            unit.latencies_ms = json.loads((d / "fuse_report.json").read_text())["latencies_ms"]
        return unit, codes

    def finish(self, sessions: list[Session], outs: list[list[int]]) -> RoundResult:
        codes = [c for unit_codes in outs for c in unit_codes]
        failed = sum(1 for c in codes if c != 0)
        out = RoundResult(attempted=len(codes), failed=failed, outputs={"codes": codes})
        if failed:
            return out
        # read before the next round overwrites the files
        records = [_read_session(s) for s in sessions]
        out.outputs["sessions"] = records
        out.fused_sq = _concat([r["fused_sq"] for r in records])
        out.online_sq = _concat([r["online_sq"] for r in records])
        return out

    def check(self, sessions: list[Session], result: RoundResult) -> list[str]:
        o = result.outputs
        if result.failed:
            return [f"exit codes {o['codes']}"]
        bad = []
        for i, rec in enumerate(o["sessions"]):
            bad.extend(f"session {i}: {p}" for p in _session_problems(rec))
        return bad


def _read_session(s: Session) -> dict:
    d = s.dir
    truth = checks.read_csv(d / "ground_truth.csv")
    rec = {
        "n_frames": s.n_frames,
        "estimate": checks.read_csv(d / "estimate.csv"),
        "online": checks.read_csv(d / "online.csv"),
        "measurements": checks.read_csv(d / "measurements.csv"),
        "truth": truth,
        "evaluation": json.loads((d / "evaluation.json").read_text()),
        "fused_sq": None,
        "online_sq": None,
    }
    if rec["estimate"].shape == truth.shape and rec["online"].shape == truth.shape:
        rec["fused_sq"] = checks.translation_sq_errors(*checks.paired(rec["estimate"], truth))
        rec["online_sq"] = checks.translation_sq_errors(*checks.paired(rec["online"], truth))
    return rec


def _session_problems(rec: dict) -> list[str]:
    """Disagreements between one session's files and the harness's own recomputation."""
    est, truth, meas, ev = rec["estimate"], rec["truth"], rec["measurements"], rec["evaluation"]
    if len(est) != rec["n_frames"]:
        return [f"estimate.csv has {len(est)} rows for {rec['n_frames']} frames"]
    bad = []
    try:
        fused_sq = checks.translation_sq_errors(*checks.paired(est, truth))
        raw_sq = checks.translation_sq_errors(*checks.paired(meas, truth))
    except ValueError as exc:
        return [str(exc)]
    fused, raw = checks.rmse(fused_sq), checks.rmse(raw_sq)
    rot = {}
    for label, traj in (("estimate", est), ("baseline", meas)):
        d = checks.wrap_angle(traj[:, 3] - truth[:, 3])
        rot[label] = math.degrees(math.sqrt(float(np.mean(d * d))))
    for key, want in (
        ("rmse_translation_m", fused),
        ("baseline_rmse_translation_m", raw),
        ("rmse_rotation_deg", rot["estimate"]),
        ("baseline_rmse_rotation_deg", rot["baseline"]),
    ):
        if not checks.close(ev[key], want, checks.RMSE_TOLERANCE):
            bad.append(f"evaluation.json {key}={ev[key]!r}, recomputed {want!r}")
    if not fused < raw:
        bad.append(f"fused RMSE {fused:.4g} m is not below the raw RMSE {raw:.4g} m")
    return bad


WORKLOADS = {w.name: w for w in (ChainStream, LoopGraphs, FileSessions)}
