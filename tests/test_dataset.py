"""CSV roundtrips, format errors with line numbers, association, metrics."""

import math

import pytest

from se2fusion import (
    FormatError,
    Pose2,
    TrajectoryRecord,
    ValidationError,
    associate,
    compute_errors,
    read_odometry_csv,
    read_trajectory_csv,
    write_trajectory_csv,
)
from support import make_rng, pose_diff, random_pose


def _record(rows):
    return TrajectoryRecord(tuple((ts, Pose2(x, y, th)) for ts, x, y, th in rows))


def test_roundtrip_is_lossless(tmp_path):
    rng = make_rng(11)
    records = tuple((0.1 * i, random_pose(rng, span=1e3)) for i in range(200))
    rec = TrajectoryRecord(records)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(rec, path)
    back = read_trajectory_csv(path)
    assert back.records == rec.records


def test_header_only_and_empty_files(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    assert read_trajectory_csv(p).records == ()
    assert read_odometry_csv(p) == []
    p.write_text("timestamp,x,y,theta\n")
    assert read_trajectory_csv(p).records == ()
    p.write_text("timestamp,dx,dy,dtheta\n")
    assert read_odometry_csv(p) == []


def test_bad_header_reports_line_one(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,x,y,heading\n0,0,0,0\n")
    with pytest.raises(FormatError) as exc:
        read_trajectory_csv(p)
    assert exc.value.line == 1
    with pytest.raises(FormatError):
        read_odometry_csv(p)


def test_wrong_field_count_reports_line(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("timestamp,x,y,theta\n0,1,2,3\n0.1,1,2\n")
    with pytest.raises(FormatError) as exc:
        read_trajectory_csv(p)
    assert exc.value.line == 3
    assert "got 3" in str(exc.value)


def test_non_numeric_reports_line(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("timestamp,x,y,theta\n0,1,2,3\n0.1,one,2,3\n")
    with pytest.raises(FormatError) as exc:
        read_trajectory_csv(p)
    assert exc.value.line == 3
    assert "one" in str(exc.value)


def test_non_finite_pose_reports_line(tmp_path):
    p = tmp_path / "inf.csv"
    p.write_text("timestamp,x,y,theta\n0,inf,2,3\n")
    with pytest.raises(FormatError) as exc:
        read_trajectory_csv(p)
    assert exc.value.line == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_timestamp_reports_line(tmp_path, bad):
    p = tmp_path / "ts.csv"
    for header in ("timestamp,x,y,theta", "timestamp,dx,dy,dtheta"):
        # on the first data row, where no earlier timestamp compares with it,
        # and on a later one
        for rows, line in (([f"{bad},0,0,0", "0.1,1,0,0"], 2), (["0,0,0,0", "0.1,1,0,0", f"{bad},2,0,0"], 4)):
            p.write_text("\n".join([header] + rows) + "\n")
            readers = [read_odometry_csv] + ([read_trajectory_csv] if header == "timestamp,x,y,theta" else [])
            for read in readers:
                with pytest.raises(FormatError) as exc:
                    read(p)
                assert exc.value.line == line
                assert bad in str(exc.value)


def test_decreasing_timestamps_rejected(tmp_path):
    p = tmp_path / "dec.csv"
    p.write_text("timestamp,x,y,theta\n0.2,0,0,0\n0.1,1,0,0\n")
    with pytest.raises(ValidationError):
        read_trajectory_csv(p)
    p.write_text("timestamp,dx,dy,dtheta\n0.2,0,0,0\n0.1,1,0,0\n")
    with pytest.raises(ValidationError) as exc:
        read_odometry_csv(p)
    assert "line 3" in str(exc.value)


def test_blank_lines_skipped(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text("timestamp,x,y,theta\n\n0,1,2,0.5\n\n")
    rec = read_trajectory_csv(p)
    assert len(rec) == 1
    assert rec[0] == (0.0, Pose2(1, 2, 0.5))


def test_odometry_delta_form(tmp_path):
    p = tmp_path / "odo.csv"
    p.write_text("timestamp,dx,dy,dtheta\n0.1,1,0,0\n0.2,0,1,0.5\n")
    samples = read_odometry_csv(p)
    assert [s.timestamp for s in samples] == [0.1, 0.2]
    assert samples[0].delta == Pose2(1, 0, 0)
    assert samples[1].delta == Pose2(0, 1, 0.5)


def test_odometry_absolute_form_converts(tmp_path):
    p = tmp_path / "odo_abs.csv"
    rows = [(0.0, Pose2(0, 0, 0)), (0.1, Pose2(1, 0, 0)), (0.2, Pose2(1, 1, math.pi / 2))]
    lines = ["timestamp,x,y,theta"]
    for ts, pose in rows:
        lines.append(f"{ts},{pose.x},{pose.y},{pose.theta}")
    p.write_text("\n".join(lines) + "\n")
    samples = read_odometry_csv(p)
    # n absolute rows produce n-1 increments stamped at the later row
    assert [s.timestamp for s in samples] == [0.1, 0.2]
    assert pose_diff(samples[0].delta, Pose2(1, 0, 0)) < 1e-12
    assert pose_diff(samples[1].delta, Pose2(0, 1, math.pi / 2)) < 1e-12


def test_associate_identity():
    rec = _record([(0.1 * i, float(i), 0.0, 0.0) for i in range(20)])
    assert associate(rec, rec) == [(i, i) for i in range(20)]


def test_associate_disjoint():
    a = _record([(0.0, 0, 0, 0), (1.0, 0, 0, 0)])
    b = _record([(10.0, 0, 0, 0)])
    assert associate(a, b) == []
    assert associate(a, TrajectoryRecord()) == []


def test_associate_prefers_nearest():
    a = _record([(1.00, 0, 0, 0)])
    b = _record([(0.96, 0, 0, 0), (1.01, 0, 0, 0)])
    assert associate(a, b, max_dt=0.05) == [(0, 1)]


def test_associate_boundary_inclusive():
    a = _record([(1.00, 0, 0, 0)])
    b = _record([(1.05, 0, 0, 0)])
    assert associate(a, b, max_dt=0.05) == [(0, 0)]
    assert associate(a, b, max_dt=0.04) == []


def test_associate_rejects_bad_max_dt():
    rec = _record([(0.0, 0, 0, 0)])
    with pytest.raises(ValidationError):
        associate(rec, rec, max_dt=-0.1)
    with pytest.raises(ValidationError):
        associate(rec, rec, max_dt=float("nan"))


def _brute_force_greedy(ta, tb, max_dt):
    cands = sorted(
        (abs(x - y), i, j)
        for i, x in enumerate(ta)
        for j, y in enumerate(tb)
        if abs(x - y) <= max_dt
    )
    used_a, used_b, pairs = set(), set(), []
    for _d, i, j in cands:
        if i not in used_a and j not in used_b:
            used_a.add(i)
            used_b.add(j)
            pairs.append((i, j))
    return sorted(pairs)


def test_associate_matches_brute_force():
    rng = make_rng(17)
    for _ in range(200):
        na, nb = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        ta = sorted(set(float(t) for t in rng.uniform(0, 10, na)))
        tb = sorted(set(float(t) for t in rng.uniform(0, 10, nb)))
        a = _record([(t, 0, 0, 0) for t in ta])
        b = _record([(t, 0, 0, 0) for t in tb])
        max_dt = float(rng.uniform(0.01, 0.5))
        assert associate(a, b, max_dt) == _brute_force_greedy(ta, tb, max_dt)


def test_errors_zero_for_identical():
    rec = _record([(0.0, 1, 2, 0.3), (0.1, 2, 3, 0.4)])
    report = compute_errors(rec, rec)
    assert report.rmse_translation == 0.0
    assert report.rmse_rotation == 0.0
    assert report.n_poses == 2


def test_errors_constant_offset():
    truth = _record([(0.1 * i, float(i), 0.0, 0.0) for i in range(10)])
    est = _record([(0.1 * i, float(i) + 3.0, 0.0, 0.0) for i in range(10)])
    report = compute_errors(est, truth)
    assert abs(report.rmse_translation - 3.0) < 1e-12
    assert report.translation_errors == (3.0,) * 10


def test_errors_rotation_rms_in_degrees():
    truth = _record([(0.0, 0, 0, 0.0), (0.1, 0, 0, 0.0)])
    est = _record([(0.0, 0, 0, 0.0), (0.1, 0, 0, math.pi / 2)])
    report = compute_errors(est, truth)
    # rms of (0, 90) degrees
    assert abs(report.rmse_rotation - 90.0 / math.sqrt(2)) < 1e-9
    assert report.rotation_errors_deg[1] == pytest.approx(90.0)


def test_errors_wrap_heading():
    truth = _record([(0.0, 0, 0, math.pi - 0.01)])
    est = _record([(0.0, 0, 0, -math.pi + 0.01)])
    report = compute_errors(est, truth)
    assert abs(report.rmse_rotation - 0.02 * 180.0 / math.pi) < 1e-9


def test_errors_require_overlap():
    a = _record([(0.0, 0, 0, 0)])
    b = _record([(5.0, 0, 0, 0)])
    with pytest.raises(ValidationError):
        compute_errors(a, b)


def test_errors_shift_invariant_to_common_offset():
    rng = make_rng(19)
    rows = [(0.1 * i, random_pose(rng)) for i in range(30)]
    truth = TrajectoryRecord(tuple(rows))
    shifted = TrajectoryRecord(tuple((ts + 1000.0, p) for ts, p in rows))
    report = compute_errors(shifted, shifted)
    assert report.rmse_translation == 0.0
    base = compute_errors(truth, truth)
    assert base.n_poses == report.n_poses
