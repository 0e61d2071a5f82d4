"""Command-line pipeline: simulate, fuse, evaluate, stream, pipeline.

Exit codes: 0 success, 1 validation or optimization errors, 2 I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .dataset import (
    DEFAULT_MAX_DT,
    ErrorReport,
    TrajectoryRecord,
    _fmt,
    associate,  # not called here; kept for code that wraps cli's names, as bench/tracing.py does
    compute_errors,
    read_odometry_csv,
    read_trajectory_csv,
    write_odometry_csv,
    write_trajectory_csv,
)
from .errors import ValidationError
from .factors import BetweenFactor, MeasurementFactor, PriorFactor
from .geometry import Pose2
from .noise import DiagonalNoise, MEASUREMENT_DEFAULT, ODOMETRY_DEFAULT, PRIOR_DEFAULT
from .odometry import OdometrySample, accumulate
from .simulate import SimConfig, generate
from .smoother import GaugeError, Smoother, SolveReport


def _option(default, group: str, metavar: str | None = None, build: Callable | None = None):
    """A RunConfig field, and how a flag or a --config key sets it.

    group names the commands that take the flag. A metavar with commas makes
    the value a tuple of that many floats; a scalar has the type of its
    default. A None default allows null. build makes the value the program
    uses from a given one, and raises ValueError for one out of range.
    """
    arity = metavar.count(",") + 1 if metavar else 1
    kind = float if arity > 1 else type(default)
    meta = dict(group=group, kind=kind, arity=arity, metavar=metavar, build=build)
    return field(default=default, metadata=meta)


def _sigmas(noise: DiagonalNoise, group: str):
    return _option(noise.sigmas(), group, "SX,SY,STHETA", DiagonalNoise)


def _non_negative(n: int) -> int:
    if n < 0:
        raise ValueError(f"must be >= 0, got {n}")
    return n


@dataclass
class RunConfig:
    """Resolved settings: defaults, then --config JSON, then flags.

    Each field declares its option once; the config-file coercion, the flags
    and each command's flag set are built from these declarations.
    """

    seed: int = _option(0, "sim")
    n_frames: int = _option(SimConfig.n_frames, "sim")
    odom_rate_multiplier: int = _option(SimConfig.odom_rate_multiplier, "sim")
    extent: tuple[float, float] = _option(SimConfig.extent, "sim", "W,H")
    mean_speed: float = _option(SimConfig.mean_speed, "sim")
    measurement_noise: tuple[float, float, float] = _sigmas(SimConfig.measurement_noise, "sim")
    odometry_step_noise: tuple[float, float, float] = _sigmas(SimConfig.odometry_step_noise, "sim")
    outlier_rate: float = _option(SimConfig.outlier_rate, "sim")
    outlier_sigma_scale: float = _option(SimConfig.outlier_sigma_scale, "sim")
    bad_prior_offset: tuple[float, float, float] | None = _option(SimConfig.bad_prior_offset, "sim", "X,Y,THETA", Pose2)
    measurement_sigmas: tuple[float, float, float] = _sigmas(MEASUREMENT_DEFAULT, "fuse")
    odometry_sigmas: tuple[float, float, float] = _sigmas(ODOMETRY_DEFAULT, "fuse")
    prior_sigmas: tuple[float, float, float] = _sigmas(PRIOR_DEFAULT, "fuse")
    skip_first: int = _option(0, "evaluate", build=_non_negative)
    out_dir: str = _option(".", "out")


_FIELDS = {f.name: f for f in fields(RunConfig)}

# The JSON types a config value may have, and their description, per kind
_JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}


def _is_json_kind(value, kind) -> bool:
    # bool is an int subclass, but true is not a number
    return not isinstance(value, bool) and isinstance(value, _JSON_KINDS[kind][0])


def _from_json(key: str, value):
    f = _FIELDS[key]
    kind, arity = f.metadata["kind"], f.metadata["arity"]
    if value is None and f.default is None:
        return None
    items = value if arity > 1 and isinstance(value, list) else [value]
    if len(items) != arity or not all(_is_json_kind(x, kind) for x in items):
        what = f"a list of {arity} numbers" if arity > 1 else _JSON_KINDS[kind][1]
        raise ValidationError(f"config key {key!r} must be {what}, got {value!r}")
    try:
        return tuple(map(float, items)) if arity > 1 else kind(value)
    except OverflowError:
        raise ValidationError(f"config key {key!r} is too large for a float") from None


def _flag_type(f):
    """The argparse type of f's flag: its kind, or comma-separated floats for a tuple."""
    arity, metavar = f.metadata["arity"], f.metadata["metavar"]

    # argparse reports a ValueError here as "invalid floats value"
    def floats(text: str) -> tuple[float, ...]:
        parts = text.split(",")
        if len(parts) != arity:
            raise argparse.ArgumentTypeError(f"expected {metavar}, got {text!r}")
        return tuple(map(float, parts))

    return floats if arity > 1 else f.metadata["kind"]


def _built(name: str, value):
    """value of option name, made by its build if it has one; a ValueError there names the option."""
    build = _FIELDS[name].metadata["build"]
    if build is None or value is None:
        return value
    try:
        return build(*value) if isinstance(value, tuple) else build(value)
    except ValueError as exc:
        raise ValidationError(f"{name}: {exc}") from None


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None


def _write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    config_path = getattr(args, "config", None)
    if config_path:
        data = _load_json(config_path)
        if not isinstance(data, dict):
            raise ValidationError(f"{config_path}: config must be a JSON object")
        unknown = sorted(set(data) - set(_FIELDS))
        if unknown:
            raise ValidationError(f"{config_path}: unknown config keys: {', '.join(unknown)}")
        for key, value in data.items():
            setattr(cfg, key, _from_json(key, value))
    for name in _FIELDS:
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
        # rejects a value out of range before any command starts work
        _built(name, getattr(cfg, name))
    return cfg


def _sim_config(cfg: RunConfig) -> SimConfig:
    # the sim options are SimConfig's fields, under the same names
    sim = [name for name, f in _FIELDS.items() if f.metadata["group"] == "sim"]
    return SimConfig(**{name: _built(name, getattr(cfg, name)) for name in sim})


def _read_prior_json(path) -> Pose2:
    data = _load_json(path)
    if not isinstance(data, dict) or set(data) != {"x", "y", "theta"}:
        raise ValidationError(f"{path}: prior file must be an object with keys x, y, theta")
    if not all(_is_json_kind(v, float) for v in data.values()):
        raise ValidationError(f"{path}: prior x, y and theta must be numbers, got {data!r}")
    # a JSON integer too large for a float overflows
    try:
        return Pose2(float(data["x"]), float(data["y"]), float(data["theta"]))
    except (OverflowError, ValueError) as exc:
        raise ValidationError(f"{path}: invalid prior pose: {exc}") from None


class FusionDriver:
    """Feeds odometry and measurement frames into a growing smoother.

    One instance backs both the file-based fuse command and the stream
    protocol, so the two modes produce identical estimates on identical data.
    """

    def __init__(
        self,
        odometry_noise: DiagonalNoise,
        measurement_noise: DiagonalNoise,
        prior_noise: DiagonalNoise,
    ):
        self.smoother = Smoother()
        self._odometry_noise = odometry_noise
        self._measurement_noise = measurement_noise
        self._prior_noise = prior_noise
        self._pending: list[OdometrySample] = []
        self._pending_head = 0
        self._prior: Pose2 | None = None
        self._last_odo_ts: float | None = None
        self.frame_ts: list[float] = []
        self.online: list[Pose2] = []
        self.reports: list[SolveReport] = []

    def set_prior(self, pose: Pose2) -> None:
        if self.frame_ts:
            raise ValidationError("prior must be set before the first measurement")
        self._prior = pose

    def add_odometry(self, sample: OdometrySample) -> None:
        if self._last_odo_ts is not None and sample.timestamp < self._last_odo_ts:
            raise ValidationError(
                f"odometry timestamps decrease: {sample.timestamp} after {self._last_odo_ts}"
            )
        self._last_odo_ts = sample.timestamp
        self._pending.append(sample)

    def add_measurement(self, timestamp: float, pose: Pose2) -> SolveReport:
        """Add a frame and re-solve. On any failure the driver and smoother stay as they were."""
        # Pose2 is finite by construction
        if not math.isfinite(timestamp):
            raise ValidationError(f"measurement timestamp must be finite, got {timestamp}")
        t_prev = self.frame_ts[-1] if self.frame_ts else None
        if t_prev is not None and timestamp <= t_prev:
            raise ValidationError(f"measurement timestamps must increase: {timestamp} after {t_prev}")
        sm = self.smoother
        mark = sm.checkpoint()
        # the queue moves past the odometry this frame folds only once the frame is accepted
        end = self._pending_head
        try:
            if t_prev is None:
                key = sm.add_variable(initial_guess=self._prior if self._prior is not None else pose)
                if self._prior is not None:
                    sm.add_factor(PriorFactor(key, self._prior, self._prior_noise))
            else:
                while end < len(self._pending) and self._pending[end].timestamp <= timestamp:
                    end += 1
                window = self._pending[self._pending_head : end]
                edge = accumulate(window, t_prev, timestamp, self._odometry_noise)
                key = sm.add_variable()
                sm.add_factor(BetweenFactor(key - 1, key, edge.relative, edge.noise))
            sm.add_factor(MeasurementFactor(key, pose, self._measurement_noise))
            report = sm.update()
            online = sm.pose_estimate(key)
        except BaseException:
            sm.truncate(mark)
            raise
        self._pending_head = end
        if end == len(self._pending):
            self._pending.clear()
            self._pending_head = 0
        self.frame_ts.append(timestamp)
        self.online.append(online)
        self.reports.append(report)
        return report

    def estimate_record(self) -> TrajectoryRecord:
        est = self.smoother.estimate()
        return TrajectoryRecord(tuple((ts, est[k]) for k, ts in enumerate(self.frame_ts)))

    def online_record(self) -> TrajectoryRecord:
        return TrajectoryRecord(tuple(zip(self.frame_ts, self.online)))

    def fuse_report(self) -> dict:
        latencies = [r.duration_ms for r in self.reports]
        return {
            "n_frames": len(self.reports),
            "iterations": [r.iterations for r in self.reports],
            "factorizations": [r.factorizations for r in self.reports],
            "bordered": [r.bordered for r in self.reports],
            "latencies_ms": latencies,
            "mean_update_ms": sum(latencies) / len(latencies) if latencies else None,
            "max_update_ms": max(latencies) if latencies else None,
            "total_duration_ms": sum(latencies),
            "converged_all": all(r.converged for r in self.reports),
            "final_error": self.reports[-1].final_error if self.reports else None,
        }


def _driver_from_config(cfg: RunConfig) -> FusionDriver:
    return FusionDriver(
        odometry_noise=DiagonalNoise(*cfg.odometry_sigmas),
        measurement_noise=DiagonalNoise(*cfg.measurement_sigmas),
        prior_noise=DiagonalNoise(*cfg.prior_sigmas),
    )


def _fuse(cfg: RunConfig, prior: Pose2 | None, samples, measurements, out_dir: Path) -> FusionDriver:
    """Fuse the samples and frames, and write the estimate, online poses and report to out_dir."""
    driver = _driver_from_config(cfg)
    if prior is not None:
        driver.set_prior(prior)
    for sample in samples:
        driver.add_odometry(sample)
    try:
        for ts, pose in measurements:
            driver.add_measurement(ts, pose)
    except GaugeError as exc:
        raise GaugeError(f"fusion failed at frame {len(driver.frame_ts)}: {exc}") from None
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(driver.estimate_record(), out_dir / "estimate.csv")
    write_trajectory_csv(driver.online_record(), out_dir / "online.csv")
    _write_json(driver.fuse_report(), out_dir / "fuse_report.json")
    return driver


def _write_simulation(sim, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(sim.ground_truth, out_dir / "ground_truth.csv")
    write_trajectory_csv(sim.measurements, out_dir / "measurements.csv")
    write_odometry_csv(sim.odometry, out_dir / "odometry.csv")
    _write_json({"x": sim.prior.x, "y": sim.prior.y, "theta": sim.prior.theta}, out_dir / "prior.json")


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    _write_simulation(generate(_sim_config(cfg)), Path(cfg.out_dir))
    return 0


def cmd_fuse(args) -> int:
    cfg = _resolve_config(args)
    samples = read_odometry_csv(args.odometry)
    measurements = read_trajectory_csv(args.measurements)
    if len(measurements) == 0:
        raise ValidationError(f"{args.measurements}: no measurement poses")
    prior = _read_prior_json(args.prior) if args.prior else None
    _fuse(cfg, prior, samples, measurements, Path(cfg.out_dir))
    return 0


def _skip_first(record: TrajectoryRecord, n: int) -> TrajectoryRecord:
    _built("skip_first", n)
    if n == 0:
        return record
    if n >= len(record):
        raise ValidationError(f"skip_first={n} drops every pose ({len(record)} available)")
    return TrajectoryRecord(record.records[n:])


def _evaluation_report(
    estimate: TrajectoryRecord,
    truth: TrajectoryRecord,
    baseline: TrajectoryRecord | None,
    skip_first: int,
    max_dt: float,
) -> tuple[dict, ErrorReport]:
    """The evaluation JSON, and the estimate's ErrorReport, which per-pose rows reuse."""
    report = compute_errors(_skip_first(estimate, skip_first), truth, max_dt)
    out = {
        "rmse_translation_m": report.rmse_translation,
        "rmse_rotation_deg": report.rmse_rotation,
        "n_poses": report.n_poses,
    }
    if baseline is not None:
        base = compute_errors(_skip_first(baseline, skip_first), truth, max_dt)
        out["baseline_rmse_translation_m"] = base.rmse_translation
        out["baseline_rmse_rotation_deg"] = base.rmse_rotation
        ratio_t = report.rmse_translation / base.rmse_translation if base.rmse_translation >= 1e-9 else None
        ratio_r = report.rmse_rotation / base.rmse_rotation if base.rmse_rotation >= 1e-9 else None
        out["ratio_translation"] = ratio_t
        out["ratio_rotation"] = ratio_r
        out["improvement_ratio"] = (
            f"{ratio_t:.3f}/{ratio_r:.3f}" if ratio_t is not None and ratio_r is not None else None
        )
    return out, report


def cmd_evaluate(args) -> int:
    estimate = read_trajectory_csv(args.estimate)
    truth = read_trajectory_csv(args.truth)
    baseline = read_trajectory_csv(args.baseline) if args.baseline else None
    out, report = _evaluation_report(estimate, truth, baseline, args.skip_first, args.max_dt)
    if args.per_pose:
        est = _skip_first(estimate, args.skip_first)
        with open(args.per_pose, "w", newline="") as fh:
            fh.write("timestamp,translation_error_m,rotation_error_deg\n")
            for (i, _j), te, re in zip(report.pairs, report.translation_errors, report.rotation_errors_deg):
                fh.write(f"{_fmt(est[i][0])},{_fmt(te)},{_fmt(re)}\n")
    if args.out:
        _write_json(out, args.out)
    else:
        print(json.dumps(out, indent=2, sort_keys=True))
    return 0


# The numbers each stream command other than FLUSH takes
_STREAM_ARGS = {"ODOM": "ts dx dy dtheta", "MEAS": "ts x y theta", "PRIOR": "x y theta"}


def cmd_stream(args) -> int:
    driver = _driver_from_config(_resolve_config(args))
    stdout = sys.stdout

    def emit(text: str) -> None:
        stdout.write(text + "\n")
        stdout.flush()

    def emit_pose(ts: float, key: int, pose: Pose2) -> None:
        emit(f"EST {_fmt(ts)} {key} {_fmt(pose.x)} {_fmt(pose.y)} {_fmt(pose.theta)}")

    for lineno, raw in enumerate(sys.stdin, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "FLUSH":
                for key, (ts, pose) in enumerate(driver.estimate_record() if driver.frame_ts else ()):
                    emit_pose(ts, key, pose)
                continue
            if tag not in _STREAM_ARGS:
                raise ValidationError(f"unknown command {tag!r}")
            if len(parts) != len(_STREAM_ARGS[tag].split()) + 1:
                raise ValidationError(f"{tag} needs {_STREAM_ARGS[tag]}")
            v = [float(p) for p in parts[1:]]
            if tag == "ODOM":
                driver.add_odometry(OdometrySample(timestamp=v[0], delta=Pose2(*v[1:])))
            elif tag == "MEAS":
                driver.add_measurement(v[0], Pose2(*v[1:]))
                emit_pose(v[0], len(driver.frame_ts) - 1, driver.online[-1])
            else:
                driver.set_prior(Pose2(*v))
        except (ValueError, GaugeError) as exc:
            emit(f"ERR {lineno} {exc}")
    return 0


def _pipeline_single(cfg: RunConfig, out_dir: Path) -> dict:
    sim = generate(_sim_config(cfg))
    _write_simulation(sim, out_dir)

    driver = _fuse(cfg, sim.prior, sim.odometry, sim.measurements, out_dir)

    evaluation, _ = _evaluation_report(
        driver.estimate_record(),
        sim.ground_truth,
        sim.measurements,
        cfg.skip_first,
        DEFAULT_MAX_DT,
    )
    _write_json(evaluation, out_dir / "evaluation.json")

    fuse_report = driver.fuse_report()
    return {
        "seed": cfg.seed,
        "n_frames": cfg.n_frames,
        "raw_rmse_translation_m": evaluation["baseline_rmse_translation_m"],
        "raw_rmse_rotation_deg": evaluation["baseline_rmse_rotation_deg"],
        "fused_rmse_translation_m": evaluation["rmse_translation_m"],
        "fused_rmse_rotation_deg": evaluation["rmse_rotation_deg"],
        "ratio_translation": evaluation["ratio_translation"],
        "ratio_rotation": evaluation["ratio_rotation"],
        "improvement_ratio": evaluation["improvement_ratio"],
        "mean_update_ms": fuse_report["mean_update_ms"],
        "max_update_ms": fuse_report["max_update_ms"],
    }


def cmd_pipeline(args) -> int:
    cfg = _resolve_config(args)
    if args.seeds < 1:
        raise ValidationError(f"--seeds must be >= 1, got {args.seeds}")
    out_dir = Path(cfg.out_dir)
    if args.seeds == 1:
        summary = _pipeline_single(cfg, out_dir)
    else:
        seeds = range(cfg.seed, cfg.seed + args.seeds)
        runs = [_pipeline_single(replace(cfg, seed=seed), out_dir / f"seed_{seed}") for seed in seeds]
        ratios_t = [r["ratio_translation"] for r in runs if r["ratio_translation"] is not None]
        ratios_r = [r["ratio_rotation"] for r in runs if r["ratio_rotation"] is not None]
        summary = {
            "runs": runs,
            "median_ratio_translation": statistics.median(ratios_t) if ratios_t else None,
            "median_ratio_rotation": statistics.median(ratios_r) if ratios_r else None,
        }
    _write_json(summary, out_dir / "summary.json")
    return 0


def _add_config_flags(p: argparse.ArgumentParser, *groups: str) -> None:
    """--config, then a flag for each RunConfig field of the given groups, in field order."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    for name, f in _FIELDS.items():
        if f.metadata["group"] in groups:
            p.add_argument(f"--{name.replace('_', '-')}", type=_flag_type(f), metavar=f.metadata["metavar"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="se2fusion",
        description="Fuse noisy absolute-pose measurements with odometry on SE(2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_config_flags(p, "sim", "out")

    p = sub.add_parser("fuse", help="fuse odometry and measurement files")
    p.add_argument("--odometry", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument("--prior", help="prior pose JSON ({x, y, theta})")
    _add_config_flags(p, "fuse", "out")

    p = sub.add_parser("evaluate", help="compare an estimate against ground truth")
    p.add_argument("--estimate", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--baseline", help="raw measurement file for improvement ratios")
    p.add_argument("--skip-first", type=int, default=0, metavar="N")
    p.add_argument("--max-dt", type=float, default=DEFAULT_MAX_DT)
    p.add_argument("--per-pose", metavar="PATH", help="write per-pose errors to this CSV")
    p.add_argument("--out", metavar="PATH", help="write the report JSON here instead of stdout")

    p = sub.add_parser("stream", help="line-protocol fusion on stdin/stdout")
    _add_config_flags(p, "fuse")

    p = sub.add_parser("pipeline", help="simulate, fuse, and evaluate in one run")
    _add_config_flags(p, "sim", "fuse", "evaluate", "out")
    p.add_argument("--seeds", type=int, default=1, metavar="N", help="run N consecutive seeds")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first call only."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        # looked up on each call, so a cmd_* replaced since the parser was
        # built, as a tracer does, is the one called
        return globals()[f"cmd_{args.command}"](args)
    except (ValidationError, GaugeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
