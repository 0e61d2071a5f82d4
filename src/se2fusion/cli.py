"""Command-line pipeline: simulate, fuse, evaluate, stream, pipeline.

Exit codes: 0 success, 1 validation or optimization errors, 2 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .dataset import (
    DEFAULT_MAX_DT,
    ODOMETRY_DELTA_HEADER,
    TrajectoryRecord,
    associate,
    compute_errors,
    read_odometry_csv,
    read_trajectory_csv,
    write_trajectory_csv,
)
from .errors import ValidationError
from .factors import BetweenFactor, MeasurementFactor, PriorFactor
from .geometry import Pose2
from .noise import DiagonalNoise, MEASUREMENT_DEFAULT, ODOMETRY_DEFAULT, PRIOR_DEFAULT
from .odometry import OdometrySample, accumulate
from .simulate import SimConfig, generate, raw_measurement_rmse
from .smoother import GaugeError, Smoother, SolveReport


@dataclass
class RunConfig:
    """Resolved settings: defaults, then --config JSON, then flags."""

    seed: int = 0
    n_frames: int = 1000
    odom_rate_multiplier: int = 5
    extent: tuple[float, float] = (300.0, 150.0)
    mean_speed: float = 1.0
    measurement_noise: tuple[float, float, float] = MEASUREMENT_DEFAULT.sigmas()
    odometry_step_noise: tuple[float, float, float] = ODOMETRY_DEFAULT.sigmas()
    outlier_rate: float = 0.05
    outlier_sigma_scale: float = 4.0
    bad_prior_offset: tuple[float, float, float] | None = None
    measurement_sigmas: tuple[float, float, float] = MEASUREMENT_DEFAULT.sigmas()
    odometry_sigmas: tuple[float, float, float] = ODOMETRY_DEFAULT.sigmas()
    prior_sigmas: tuple[float, float, float] = PRIOR_DEFAULT.sigmas()
    skip_first: int = 0
    out_dir: str = "."


def _coerce_int(key: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"config key {key!r} must be an integer, got {v!r}")
    return v


def _coerce_float(key: str, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"config key {key!r} must be a number, got {v!r}")
    return float(v)


def _coerce_tuple(n: int):
    def coerce(key: str, v):
        if not isinstance(v, (list, tuple)) or len(v) != n:
            raise ValidationError(f"config key {key!r} must be a list of {n} numbers, got {v!r}")
        return tuple(_coerce_float(key, x) for x in v)

    return coerce


def _coerce_optional_tuple3(key: str, v):
    if v is None:
        return None
    return _coerce_tuple(3)(key, v)


def _coerce_str(key: str, v) -> str:
    if not isinstance(v, str):
        raise ValidationError(f"config key {key!r} must be a string, got {v!r}")
    return v


_CONFIG_COERCE = {
    "seed": _coerce_int,
    "n_frames": _coerce_int,
    "odom_rate_multiplier": _coerce_int,
    "extent": _coerce_tuple(2),
    "mean_speed": _coerce_float,
    "measurement_noise": _coerce_tuple(3),
    "odometry_step_noise": _coerce_tuple(3),
    "outlier_rate": _coerce_float,
    "outlier_sigma_scale": _coerce_float,
    "bad_prior_offset": _coerce_optional_tuple3,
    "measurement_sigmas": _coerce_tuple(3),
    "odometry_sigmas": _coerce_tuple(3),
    "prior_sigmas": _coerce_tuple(3),
    "skip_first": _coerce_int,
    "out_dir": _coerce_str,
}


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,theta, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three numbers, got {text!r}") from None


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected width,height, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers, got {text!r}") from None


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
        unknown = sorted(set(data) - set(_CONFIG_COERCE))
        if unknown:
            raise ValidationError(f"{config_path}: unknown config keys: {', '.join(unknown)}")
        for key, value in data.items():
            setattr(cfg, key, _CONFIG_COERCE[key](key, value))
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    if cfg.skip_first < 0:
        raise ValidationError(f"skip_first must be >= 0, got {cfg.skip_first}")
    return cfg


def _sim_config(cfg: RunConfig) -> SimConfig:
    offset = None
    if cfg.bad_prior_offset is not None:
        offset = Pose2(*cfg.bad_prior_offset)
    return SimConfig(
        seed=cfg.seed,
        n_frames=cfg.n_frames,
        odom_rate_multiplier=cfg.odom_rate_multiplier,
        extent=cfg.extent,
        mean_speed=cfg.mean_speed,
        measurement_noise=DiagonalNoise(*cfg.measurement_noise),
        odometry_step_noise=DiagonalNoise(*cfg.odometry_step_noise),
        outlier_rate=cfg.outlier_rate,
        outlier_sigma_scale=cfg.outlier_sigma_scale,
        bad_prior_offset=offset,
    )


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_odometry_csv(samples, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(ODOMETRY_DELTA_HEADER) + "\n")
        for s in samples:
            d = s.delta
            fh.write(f"{_fmt(s.timestamp)},{_fmt(d.x)},{_fmt(d.y)},{_fmt(d.theta)}\n")


def _read_prior_json(path) -> Pose2:
    data = _load_json(path)
    if not isinstance(data, dict) or set(data) != {"x", "y", "theta"}:
        raise ValidationError(f"{path}: prior file must be an object with keys x, y, theta")
    try:
        return Pose2(float(data["x"]), float(data["y"]), float(data["theta"]))
    except (TypeError, ValueError) as exc:
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

    def _consume(self, t_end: float) -> list[OdometrySample]:
        start = self._pending_head
        while self._pending_head < len(self._pending) and self._pending[self._pending_head].timestamp <= t_end:
            self._pending_head += 1
        window = self._pending[start : self._pending_head]
        if self._pending_head == len(self._pending):
            self._pending = []
            self._pending_head = 0
        return window

    def add_measurement(self, timestamp: float, pose: Pose2) -> SolveReport:
        # Pose2 is finite by construction
        if not math.isfinite(timestamp):
            raise ValidationError(f"measurement timestamp must be finite, got {timestamp}")
        sm = self.smoother
        if not self.frame_ts:
            key = sm.add_variable(initial_guess=self._prior if self._prior is not None else pose)
            if self._prior is not None:
                sm.add_factor(PriorFactor(key, self._prior, self._prior_noise))
        else:
            t_prev = self.frame_ts[-1]
            if timestamp <= t_prev:
                raise ValidationError(
                    f"measurement timestamps must increase: {timestamp} after {t_prev}"
                )
            edge = accumulate(self._consume(timestamp), t_prev, timestamp, self._odometry_noise)
            key = sm.add_variable()
            sm.add_factor(BetweenFactor(key - 1, key, edge.relative, edge.noise))
        sm.add_factor(MeasurementFactor(key, pose, self._measurement_noise))
        report = sm.update()
        self.frame_ts.append(timestamp)
        self.online.append(sm.pose_estimate(key))
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


def _run_fusion(driver: FusionDriver, samples, measurements: TrajectoryRecord) -> None:
    for sample in samples:
        driver.add_odometry(sample)
    for ts, pose in measurements:
        driver.add_measurement(ts, pose)


def _write_fusion_outputs(driver: FusionDriver, out_dir: Path) -> None:
    write_trajectory_csv(driver.estimate_record(), out_dir / "estimate.csv")
    write_trajectory_csv(driver.online_record(), out_dir / "online.csv")
    _write_json(driver.fuse_report(), out_dir / "fuse_report.json")


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    out = generate(_sim_config(cfg))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out.ground_truth, out_dir / "ground_truth.csv")
    write_trajectory_csv(out.measurements, out_dir / "measurements.csv")
    write_odometry_csv(out.odometry, out_dir / "odometry.csv")
    _write_json({"x": out.prior.x, "y": out.prior.y, "theta": out.prior.theta}, out_dir / "prior.json")
    return 0


def cmd_fuse(args) -> int:
    cfg = _resolve_config(args)
    samples = read_odometry_csv(args.odometry)
    measurements = read_trajectory_csv(args.measurements)
    if len(measurements) == 0:
        raise ValidationError(f"{args.measurements}: no measurement poses")
    driver = _driver_from_config(cfg)
    if args.prior:
        driver.set_prior(_read_prior_json(args.prior))
    try:
        _run_fusion(driver, samples, measurements)
    except GaugeError as exc:
        raise GaugeError(f"fusion failed at frame {len(driver.frame_ts)}: {exc}") from None
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_fusion_outputs(driver, out_dir)
    return 0


def _evaluation_report(
    estimate: TrajectoryRecord,
    truth: TrajectoryRecord,
    baseline: TrajectoryRecord | None,
    skip_first: int,
    max_dt: float,
) -> dict:
    def skipped(record: TrajectoryRecord) -> TrajectoryRecord:
        if skip_first == 0:
            return record
        if skip_first >= len(record):
            raise ValidationError(f"skip_first={skip_first} drops every pose ({len(record)} available)")
        return TrajectoryRecord(record.records[skip_first:])

    report = compute_errors(skipped(estimate), truth, max_dt)
    out = {
        "rmse_translation_m": report.rmse_translation,
        "rmse_rotation_deg": report.rmse_rotation,
        "n_poses": report.n_poses,
    }
    if baseline is not None:
        base = compute_errors(skipped(baseline), truth, max_dt)
        out["baseline_rmse_translation_m"] = base.rmse_translation
        out["baseline_rmse_rotation_deg"] = base.rmse_rotation
        ratio_t = report.rmse_translation / base.rmse_translation if base.rmse_translation >= 1e-9 else None
        ratio_r = report.rmse_rotation / base.rmse_rotation if base.rmse_rotation >= 1e-9 else None
        out["ratio_translation"] = ratio_t
        out["ratio_rotation"] = ratio_r
        out["improvement_ratio"] = (
            f"{ratio_t:.3f}/{ratio_r:.3f}" if ratio_t is not None and ratio_r is not None else None
        )
    return out


def cmd_evaluate(args) -> int:
    estimate = read_trajectory_csv(args.estimate)
    truth = read_trajectory_csv(args.truth)
    baseline = read_trajectory_csv(args.baseline) if args.baseline else None
    skip_first = args.skip_first if args.skip_first is not None else 0
    out = _evaluation_report(estimate, truth, baseline, skip_first, args.max_dt)
    if args.per_pose:
        est = estimate if skip_first == 0 else TrajectoryRecord(estimate.records[skip_first:])
        report = compute_errors(est, truth, args.max_dt)
        pairs = associate(est, truth, args.max_dt)
        with open(args.per_pose, "w", newline="") as fh:
            fh.write("timestamp,translation_error_m,rotation_error_deg\n")
            for (i, _j), te, re in zip(pairs, report.translation_errors, report.rotation_errors_deg):
                fh.write(f"{_fmt(est[i][0])},{_fmt(te)},{_fmt(re)}\n")
    if args.out:
        _write_json(out, args.out)
    else:
        print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_stream(args) -> int:
    cfg = _resolve_config(args)
    driver = _driver_from_config(cfg)
    stdin = sys.stdin
    stdout = sys.stdout

    def emit(text: str) -> None:
        stdout.write(text + "\n")
        stdout.flush()

    def emit_pose(ts: float, key: int, pose: Pose2) -> None:
        emit(f"EST {_fmt(ts)} {key} {_fmt(pose.x)} {_fmt(pose.y)} {_fmt(pose.theta)}")

    for lineno, raw in enumerate(stdin, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "ODOM":
                if len(parts) != 5:
                    raise ValidationError("ODOM needs ts dx dy dtheta")
                ts, dx, dy, dth = (float(p) for p in parts[1:])
                driver.add_odometry(OdometrySample(timestamp=ts, delta=Pose2(dx, dy, dth)))
            elif tag == "MEAS":
                if len(parts) != 5:
                    raise ValidationError("MEAS needs ts x y theta")
                ts, x, y, th = (float(p) for p in parts[1:])
                driver.add_measurement(ts, Pose2(x, y, th))
                key = len(driver.frame_ts) - 1
                emit_pose(ts, key, driver.online[-1])
            elif tag == "PRIOR":
                if len(parts) != 4:
                    raise ValidationError("PRIOR needs x y theta")
                x, y, th = (float(p) for p in parts[1:])
                driver.set_prior(Pose2(x, y, th))
            elif tag == "FLUSH":
                if driver.frame_ts:
                    est = driver.estimate_record()
                    for key, (ts, pose) in enumerate(est):
                        emit_pose(ts, key, pose)
            else:
                raise ValidationError(f"unknown command {tag!r}")
        except (ValidationError, ValueError, GaugeError) as exc:
            emit(f"ERR {lineno} {exc}")
    return 0


def _pipeline_single(cfg: RunConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    sim = generate(_sim_config(cfg))
    write_trajectory_csv(sim.ground_truth, out_dir / "ground_truth.csv")
    write_trajectory_csv(sim.measurements, out_dir / "measurements.csv")
    write_odometry_csv(sim.odometry, out_dir / "odometry.csv")
    _write_json({"x": sim.prior.x, "y": sim.prior.y, "theta": sim.prior.theta}, out_dir / "prior.json")

    driver = _driver_from_config(cfg)
    driver.set_prior(sim.prior)
    try:
        _run_fusion(driver, sim.odometry, sim.measurements)
    except GaugeError as exc:
        raise GaugeError(f"fusion failed at frame {len(driver.frame_ts)}: {exc}") from None
    _write_fusion_outputs(driver, out_dir)

    evaluation = _evaluation_report(
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
    n_seeds = args.seeds if args.seeds is not None else 1
    if n_seeds < 1:
        raise ValidationError(f"--seeds must be >= 1, got {n_seeds}")
    out_dir = Path(cfg.out_dir)
    if n_seeds == 1:
        summary = _pipeline_single(cfg, out_dir)
    else:
        runs = []
        for seed in range(cfg.seed, cfg.seed + n_seeds):
            runs.append(_pipeline_single(replace(cfg, seed=seed), out_dir / f"seed_{seed}"))
        ratios_t = [r["ratio_translation"] for r in runs if r["ratio_translation"] is not None]
        ratios_r = [r["ratio_rotation"] for r in runs if r["ratio_rotation"] is not None]
        summary = {
            "runs": runs,
            "median_ratio_translation": statistics.median(ratios_t) if ratios_t else None,
            "median_ratio_rotation": statistics.median(ratios_r) if ratios_r else None,
        }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(summary, out_dir / "summary.json")
    return 0


def _add_config_flags(p: argparse.ArgumentParser, *names: str) -> None:
    flag_specs = {
        "seed": dict(type=int),
        "n_frames": dict(type=int),
        "odom_rate_multiplier": dict(type=int),
        "extent": dict(type=_parse_pair, metavar="W,H"),
        "mean_speed": dict(type=float),
        "measurement_noise": dict(type=_parse_triple, metavar="SX,SY,STHETA"),
        "odometry_step_noise": dict(type=_parse_triple, metavar="SX,SY,STHETA"),
        "outlier_rate": dict(type=float),
        "outlier_sigma_scale": dict(type=float),
        "bad_prior_offset": dict(type=_parse_triple, metavar="X,Y,THETA"),
        "measurement_sigmas": dict(type=_parse_triple, metavar="SX,SY,STHETA"),
        "odometry_sigmas": dict(type=_parse_triple, metavar="SX,SY,STHETA"),
        "prior_sigmas": dict(type=_parse_triple, metavar="SX,SY,STHETA"),
        "skip_first": dict(type=int),
        "out_dir": dict(type=str),
    }
    p.add_argument("--config", help="JSON config file; flags override its values")
    for name in names:
        p.add_argument(f"--{name.replace('_', '-')}", default=None, **flag_specs[name])


_SIM_FLAGS = (
    "seed",
    "n_frames",
    "odom_rate_multiplier",
    "extent",
    "mean_speed",
    "measurement_noise",
    "odometry_step_noise",
    "outlier_rate",
    "outlier_sigma_scale",
    "bad_prior_offset",
)
_FUSE_FLAGS = ("measurement_sigmas", "odometry_sigmas", "prior_sigmas")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="se2fusion",
        description="Fuse noisy absolute-pose measurements with odometry on SE(2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_config_flags(p, *_SIM_FLAGS, "out_dir")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fuse", help="fuse odometry and measurement files")
    p.add_argument("--odometry", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument("--prior", help="prior pose JSON ({x, y, theta})")
    _add_config_flags(p, *_FUSE_FLAGS, "out_dir")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("evaluate", help="compare an estimate against ground truth")
    p.add_argument("--estimate", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--baseline", help="raw measurement file for improvement ratios")
    p.add_argument("--skip-first", type=int, default=None, metavar="N")
    p.add_argument("--max-dt", type=float, default=DEFAULT_MAX_DT)
    p.add_argument("--per-pose", metavar="PATH", help="write per-pose errors to this CSV")
    p.add_argument("--out", metavar="PATH", help="write the report JSON here instead of stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stream", help="line-protocol fusion on stdin/stdout")
    _add_config_flags(p, *_FUSE_FLAGS)
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("pipeline", help="simulate, fuse, and evaluate in one run")
    _add_config_flags(p, *_SIM_FLAGS, *_FUSE_FLAGS, "skip_first", "out_dir")
    p.add_argument("--seeds", type=int, default=None, metavar="N", help="run N consecutive seeds")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GaugeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
