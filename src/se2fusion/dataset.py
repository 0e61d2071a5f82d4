"""Trajectory CSV formats, timestamp association, and RMSE metrics.

Trajectory files carry a `timestamp,x,y,theta` header and one pose per row,
theta in radians. Odometry files carry either `timestamp,dx,dy,dtheta`
(body-frame increments) or the absolute `timestamp,x,y,theta` form, which is
converted to increments on read. Floats are written with 17 significant
digits so a write/read roundtrip is lossless.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError
from .geometry import Pose2, normalize_angle
from .odometry import OdometrySample

TRAJECTORY_HEADER = ("timestamp", "x", "y", "theta")
ODOMETRY_DELTA_HEADER = ("timestamp", "dx", "dy", "dtheta")

DEFAULT_MAX_DT = 0.05


@dataclass(frozen=True)
class TrajectoryRecord:
    """Timestamped poses with strictly increasing timestamps."""

    records: tuple[tuple[float, Pose2], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        prev = None
        for ts, _pose in self.records:
            if not math.isfinite(ts):
                raise ValidationError(f"timestamp must be finite, got {ts!r}")
            if prev is not None and ts <= prev:
                raise ValidationError(f"timestamps must be strictly increasing: {ts} after {prev}")
            prev = ts

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx: int) -> tuple[float, Pose2]:
        return self.records[idx]

    def timestamps(self) -> list[float]:
        return [ts for ts, _ in self.records]

    def poses(self) -> list[Pose2]:
        return [pose for _, pose in self.records]


@dataclass(frozen=True)
class ErrorReport:
    """Per-pose and aggregate trajectory errors against a reference."""

    rmse_translation: float
    rmse_rotation: float
    translation_errors: tuple[float, ...]
    rotation_errors_deg: tuple[float, ...]
    n_poses: int
    # (estimate index, reference index) of each pose the errors are over
    pairs: tuple[tuple[int, int], ...]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_trajectory_csv(record: TrajectoryRecord, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_HEADER)
        for ts, pose in record:
            writer.writerow((_fmt(ts), _fmt(pose.x), _fmt(pose.y), _fmt(pose.theta)))


def _read_rows(path, expected_fields: int):
    """Yield (line_number, fields) after the header, validating field counts."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != expected_fields:
                raise FormatError(lineno, f"expected {expected_fields} fields, got {len(row)}")
            yield lineno, row


def _parse_floats(lineno: int, fields) -> list[float]:
    """The fields as floats; FormatError for one that is not a finite number."""
    out = []
    for raw in fields:
        try:
            out.append(float(raw))
        except ValueError:
            raise FormatError(lineno, f"not a number: {raw!r}") from None
        if not math.isfinite(out[-1]):
            raise FormatError(lineno, f"not finite: {raw!r}")
    return out


def read_trajectory_csv(path) -> TrajectoryRecord:
    records = []
    saw_header = False
    for lineno, row in _read_rows(path, 4):
        if not saw_header:
            if tuple(f.strip() for f in row) != TRAJECTORY_HEADER:
                raise FormatError(lineno, f"expected header {','.join(TRAJECTORY_HEADER)}")
            saw_header = True
            continue
        ts, x, y, theta = _parse_floats(lineno, row)
        records.append((ts, Pose2(x, y, theta)))
    return TrajectoryRecord(tuple(records))


def read_odometry_csv(path) -> list[OdometrySample]:
    """Read an odometry stream, converting absolute poses to increments if needed."""
    header = None
    rows = []
    for lineno, row in _read_rows(path, 4):
        if header is None:
            header = tuple(f.strip() for f in row)
            if header not in (ODOMETRY_DELTA_HEADER, TRAJECTORY_HEADER):
                raise FormatError(
                    lineno,
                    "expected header "
                    f"{','.join(ODOMETRY_DELTA_HEADER)} or {','.join(TRAJECTORY_HEADER)}",
                )
            continue
        rows.append((lineno, _parse_floats(lineno, row)))
    if header is None:
        return []
    samples: list[OdometrySample] = []
    prev_ts = None
    prev_pose = None
    for lineno, (ts, a, b, c) in rows:
        if prev_ts is not None and ts < prev_ts:
            raise ValidationError(f"line {lineno}: odometry timestamps decrease: {ts} after {prev_ts}")
        pose = Pose2(a, b, c)
        if header == ODOMETRY_DELTA_HEADER:
            samples.append(OdometrySample(timestamp=ts, delta=pose))
        else:
            if prev_pose is not None:
                samples.append(OdometrySample(timestamp=ts, delta=prev_pose.between(pose)))
            prev_pose = pose
        prev_ts = ts
    return samples


def write_odometry_csv(samples, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(ODOMETRY_DELTA_HEADER) + "\n")
        for s in samples:
            d = s.delta
            fh.write(f"{_fmt(s.timestamp)},{_fmt(d.x)},{_fmt(d.y)},{_fmt(d.theta)}\n")


def associate(a: TrajectoryRecord, b: TrajectoryRecord, max_dt: float = DEFAULT_MAX_DT) -> list[tuple[int, int]]:
    """Greedy nearest-timestamp matching; each index used at most once.

    Candidate pairs within max_dt are taken closest-first (ties broken by
    index), and the winners are returned sorted by the index into `a`.
    """
    if max_dt < 0.0 or not math.isfinite(max_dt):
        raise ValidationError(f"max_dt must be finite and non-negative, got {max_dt}")
    ta = np.asarray(a.timestamps())
    tb = np.asarray(b.timestamps())
    if len(ta) == 0 or len(tb) == 0:
        return []
    lo = np.searchsorted(tb, ta - max_dt, side="left")
    hi = np.searchsorted(tb, ta + max_dt, side="right")
    candidates = []
    for i in range(len(ta)):
        for j in range(lo[i], hi[i]):
            candidates.append((abs(ta[i] - tb[j]), i, j))
    candidates.sort()
    used_a = set()
    used_b = set()
    pairs = []
    for _dt, i, j in candidates:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        pairs.append((i, j))
    pairs.sort()
    return pairs


def compute_errors(
    estimate: TrajectoryRecord, truth: TrajectoryRecord, max_dt: float = DEFAULT_MAX_DT
) -> ErrorReport:
    """Per-pose translation (m) and wrapped heading (deg) errors over associated pairs."""
    pairs = associate(estimate, truth, max_dt)
    if not pairs:
        raise ValidationError("no associated pose pairs within max_dt")
    trans = []
    rot = []
    for i, j in pairs:
        pe = estimate[i][1]
        pt = truth[j][1]
        trans.append(math.hypot(pe.x - pt.x, pe.y - pt.y))
        rot.append(abs(normalize_angle(pe.theta - pt.theta)) * 180.0 / math.pi)
    n = len(pairs)
    return ErrorReport(
        rmse_translation=math.sqrt(sum(e * e for e in trans) / n),
        rmse_rotation=math.sqrt(sum(e * e for e in rot) / n),
        translation_errors=tuple(trans),
        rotation_errors_deg=tuple(rot),
        n_poses=n,
        pairs=tuple(pairs),
    )
