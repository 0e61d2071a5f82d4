"""End-to-end command tests driven through main(argv)."""

import io
import json
import math
import sys
from dataclasses import fields, replace

import pytest

from se2fusion import Pose2, read_trajectory_csv
from se2fusion.cli import RunConfig, _resolve_config, build_parser
from se2fusion.cli import main as cli_main
from support import pose_diff

SIM_FILES = ("ground_truth.csv", "measurements.csv", "odometry.csv", "prior.json")


def run(*argv):
    return cli_main([str(a) for a in argv])


def simulate(out_dir, *extra):
    code = run("simulate", "--out-dir", out_dir, *extra)
    assert code == 0
    return out_dir


# ---- simulate ----------------------------------------------------------------


def test_simulate_writes_dataset(tmp_path):
    simulate(tmp_path, "--seed", 5, "--n-frames", 60)
    for name in SIM_FILES:
        assert (tmp_path / name).exists()
    gt = read_trajectory_csv(tmp_path / "ground_truth.csv")
    ms = read_trajectory_csv(tmp_path / "measurements.csv")
    assert len(gt) == 60 and len(ms) == 60
    prior = json.loads((tmp_path / "prior.json").read_text())
    assert set(prior) == {"x", "y", "theta"}
    first = gt[0][1]
    assert prior["x"] == first.x and prior["y"] == first.y and prior["theta"] == first.theta


def test_simulate_rerun_is_byte_identical(tmp_path):
    a = simulate(tmp_path / "a", "--seed", 9, "--n-frames", 50)
    b = simulate(tmp_path / "b", "--seed", 9, "--n-frames", 50)
    for name in SIM_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_seed_changes_output(tmp_path):
    a = simulate(tmp_path / "a", "--seed", 1, "--n-frames", 50)
    b = simulate(tmp_path / "b", "--seed", 2, "--n-frames", 50)
    assert (a / "measurements.csv").read_bytes() != (b / "measurements.csv").read_bytes()


# ---- fuse --------------------------------------------------------------------


def fuse(data_dir, out_dir, *extra):
    code = run(
        "fuse",
        "--odometry", data_dir / "odometry.csv",
        "--measurements", data_dir / "measurements.csv",
        "--prior", data_dir / "prior.json",
        "--out-dir", out_dir,
        *extra,
    )
    assert code == 0
    return out_dir


def test_fuse_writes_outputs(tmp_path):
    data = simulate(tmp_path / "data", "--seed", 3, "--n-frames", 40)
    out = fuse(data, tmp_path / "out")
    assert (out / "estimate.csv").exists()
    assert (out / "online.csv").exists()
    report = json.loads((out / "fuse_report.json").read_text())
    assert report["n_frames"] == 40
    assert report["converged_all"] is True
    assert len(report["latencies_ms"]) == 40
    assert report["max_update_ms"] >= report["mean_update_ms"] > 0.0
    est = read_trajectory_csv(out / "estimate.csv")
    online = read_trajectory_csv(out / "online.csv")
    assert len(est) == len(online) == 40
    # the newest pose of each incremental solve is the online pose
    assert est[-1] == online[-1]


def test_fuse_near_noiseless_recovers_truth(tmp_path):
    data = simulate(
        tmp_path / "data",
        "--seed", 8,
        "--n-frames", 50,
        "--measurement-noise", "1e-12,1e-12,1e-12",
        "--odometry-step-noise", "1e-12,1e-12,1e-12",
        "--outlier-rate", "0",
    )
    out = fuse(data, tmp_path / "out")
    gt = read_trajectory_csv(data / "ground_truth.csv")
    est = read_trajectory_csv(out / "estimate.csv")
    worst = max(pose_diff(e, g) for (_, e), (_, g) in zip(est, gt))
    assert worst < 1e-6


def test_fuse_single_frame_closed_form(tmp_path):
    (tmp_path / "measurements.csv").write_text("timestamp,x,y,theta\n0,2,0,0\n")
    (tmp_path / "odometry.csv").write_text("timestamp,dx,dy,dtheta\n")
    (tmp_path / "prior.json").write_text('{"x": 0.0, "y": 0.0, "theta": 0.0}\n')
    out = fuse(
        tmp_path, tmp_path / "out",
        "--measurement-sigmas", "1,1,1",
        "--prior-sigmas", "1,1,1",
    )
    est = read_trajectory_csv(out / "estimate.csv")
    assert len(est) == 1
    assert pose_diff(est[0][1], Pose2(1.0, 0.0, 0.0)) < 1e-9


def test_fuse_smooths_noise(tmp_path):
    data = simulate(tmp_path / "data", "--seed", 12, "--n-frames", 120)
    out = fuse(data, tmp_path / "out")
    gt = read_trajectory_csv(data / "ground_truth.csv")
    est = read_trajectory_csv(out / "estimate.csv")
    raw = read_trajectory_csv(data / "measurements.csv")

    def rmse(rec):
        return math.sqrt(
            sum((p.x - g.x) ** 2 + (p.y - g.y) ** 2 for (_, p), (_, g) in zip(rec, gt)) / len(gt)
        )

    assert rmse(est) < 0.5 * rmse(raw)


def test_fuse_rejects_empty_measurements(tmp_path):
    (tmp_path / "measurements.csv").write_text("timestamp,x,y,theta\n")
    (tmp_path / "odometry.csv").write_text("timestamp,dx,dy,dtheta\n")
    code = run(
        "fuse",
        "--odometry", tmp_path / "odometry.csv",
        "--measurements", tmp_path / "measurements.csv",
        "--out-dir", tmp_path / "out",
    )
    assert code == 1


# ---- evaluate ----------------------------------------------------------------


def _write_traj(path, rows):
    lines = ["timestamp,x,y,theta"]
    for ts, x, y, th in rows:
        lines.append(f"{ts},{x},{y},{th}")
    path.write_text("\n".join(lines) + "\n")


def test_evaluate_identical_is_zero(tmp_path, capsys):
    p = tmp_path / "t.csv"
    _write_traj(p, [(0.0, 1, 2, 0.3), (0.1, 2, 2, 0.4)])
    assert run("evaluate", "--estimate", p, "--truth", p) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rmse_translation_m"] == 0.0
    assert report["rmse_rotation_deg"] == 0.0
    assert report["n_poses"] == 2


def test_evaluate_constant_offset(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    est = tmp_path / "est.csv"
    _write_traj(truth, [(0.1 * i, i, 0, 0) for i in range(10)])
    _write_traj(est, [(0.1 * i, i + 3.0, 0, 0) for i in range(10)])
    assert run("evaluate", "--estimate", est, "--truth", truth) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["rmse_translation_m"] - 3.0) < 1e-12


def test_evaluate_ratios_and_out_file(tmp_path):
    truth = tmp_path / "truth.csv"
    est = tmp_path / "est.csv"
    base = tmp_path / "base.csv"
    deg = math.pi / 180.0
    _write_traj(truth, [(0.0, 0, 0, 0)])
    _write_traj(est, [(0.0, 8.99, 0, 2.30 * deg)])
    _write_traj(base, [(0.0, 12.32, 0, 2.50 * deg)])
    out = tmp_path / "report.json"
    code = run(
        "evaluate", "--estimate", est, "--truth", truth, "--baseline", base, "--out", out
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert abs(report["ratio_translation"] - 8.99 / 12.32) < 1e-12
    assert abs(report["ratio_rotation"] - 0.92) < 1e-12
    assert report["improvement_ratio"] == "0.730/0.920"
    assert abs(report["baseline_rmse_translation_m"] - 12.32) < 1e-12


def test_evaluate_skip_first(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    est = tmp_path / "est.csv"
    _write_traj(truth, [(0.0, 0, 0, 0), (0.1, 1, 0, 0), (0.2, 2, 0, 0)])
    _write_traj(est, [(0.0, 99, 0, 0), (0.1, 1, 0, 0), (0.2, 2, 0, 0)])
    assert run("evaluate", "--estimate", est, "--truth", truth, "--skip-first", 1) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rmse_translation_m"] == 0.0
    assert report["n_poses"] == 2
    # dropping everything is an error
    assert run("evaluate", "--estimate", est, "--truth", truth, "--skip-first", 3) == 1


def test_evaluate_per_pose_csv(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    est = tmp_path / "est.csv"
    _write_traj(truth, [(0.0, 0, 0, 0), (0.1, 1, 0, 0)])
    _write_traj(est, [(0.0, 1.0, 0, 0), (0.1, 3.0, 0, 0)])
    per = tmp_path / "per.csv"
    assert run("evaluate", "--estimate", est, "--truth", truth, "--per-pose", per) == 0
    capsys.readouterr()
    lines = per.read_text().splitlines()
    assert lines[0] == "timestamp,translation_error_m,rotation_error_deg"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == 1.0
    assert float(lines[2].split(",")[1]) == 2.0


def test_evaluate_per_pose_associates_each_pair_once(tmp_path, capsys, monkeypatch):
    from se2fusion import cli, dataset

    real = dataset.associate
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    # compute_errors looks associate up in dataset, and cli imports it by name
    monkeypatch.setattr(dataset, "associate", counted)
    monkeypatch.setattr(cli, "associate", counted)
    truth, est, base, per = (tmp_path / f"{name}.csv" for name in ("truth", "est", "base", "per"))
    for path in (truth, est, base):
        _write_traj(path, [(0.1 * i, float(i), 0, 0) for i in range(8)])
    argv = ["--estimate", est, "--truth", truth, "--baseline", base, "--skip-first", 2, "--per-pose", per]
    assert run("evaluate", *argv) == 0
    capsys.readouterr()
    # one for the estimate and one for the baseline
    assert len(calls) == 2
    assert len(per.read_text().splitlines()) == 7


# ---- stream ------------------------------------------------------------------


def run_stream(monkeypatch, capsys, lines, *extra):
    text = "".join(line + "\n" for line in lines)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = run("stream", *extra)
    assert code == 0
    return capsys.readouterr().out.splitlines()


def test_stream_echoes_single_measurement(monkeypatch, capsys):
    out = run_stream(monkeypatch, capsys, ["MEAS 0.0 1.5 -2.0 0.25"])
    assert len(out) == 1
    tag, ts, key, x, y, th = out[0].split()
    assert tag == "EST" and key == "0"
    assert float(ts) == 0.0
    assert pose_diff(Pose2(float(x), float(y), float(th)), Pose2(1.5, -2.0, 0.25)) < 1e-9


def test_stream_prior_pulls_estimate(monkeypatch, capsys):
    out = run_stream(
        monkeypatch,
        capsys,
        ["PRIOR 0 0 0", "MEAS 0.0 2 0 0"],
        "--prior-sigmas", "1,1,1",
        "--measurement-sigmas", "1,1,1",
    )
    _tag, _ts, _key, x, _y, _th = out[0].split()
    assert abs(float(x) - 1.0) < 1e-9


def test_stream_errors_keep_going(monkeypatch, capsys):
    out = run_stream(
        monkeypatch,
        capsys,
        [
            "BOGUS 1 2 3",
            "MEAS 0.0 1 0 0",
            "PRIOR 0 0 0",
            "ODOM not a number here",
            "MEAS 0.1 2 0 0",
        ],
    )
    assert out[0].startswith("ERR 1 ")
    assert out[1].startswith("EST 0 0 ")
    # prior after the first measurement is rejected
    assert out[2].startswith("ERR 3 ")
    assert out[3].startswith("ERR 4 ")
    assert out[4].startswith("EST ")
    assert len(out) == 5


def test_stream_flush_matches_fuse(monkeypatch, capsys, tmp_path):
    data = simulate(tmp_path / "data", "--seed", 17, "--n-frames", 30)
    out_dir = fuse(data, tmp_path / "out")
    est = read_trajectory_csv(out_dir / "estimate.csv")
    online = read_trajectory_csv(out_dir / "online.csv")

    odo_rows = (data / "odometry.csv").read_text().splitlines()[1:]
    meas_rows = (data / "measurements.csv").read_text().splitlines()[1:]
    prior = json.loads((data / "prior.json").read_text())
    lines = [f"PRIOR {prior['x']:.17g} {prior['y']:.17g} {prior['theta']:.17g}"]
    oi = 0
    for row in meas_rows:
        ts = float(row.split(",")[0])
        while oi < len(odo_rows) and float(odo_rows[oi].split(",")[0]) <= ts:
            lines.append("ODOM " + " ".join(odo_rows[oi].split(",")))
            oi += 1
        lines.append("MEAS " + " ".join(row.split(",")))
    lines.append("FLUSH")

    out = run_stream(monkeypatch, capsys, lines)
    assert not any(line.startswith("ERR") for line in out)
    est_lines = [l for l in out[: len(meas_rows)]]
    flush_lines = out[len(meas_rows) :]
    assert len(flush_lines) == len(est)

    def parse(line):
        _tag, ts, key, x, y, th = line.split()
        return int(key), float(ts), Pose2(float(x), float(y), float(th))

    for line, (ts, pose) in zip(est_lines, online):
        _key, lts, lpose = parse(line)
        assert lts == ts
        assert pose_diff(lpose, pose) < 1e-9
    for line, (ts, pose) in zip(flush_lines, est):
        _key, lts, lpose = parse(line)
        assert lts == ts
        assert pose_diff(lpose, pose) < 1e-9


@pytest.mark.parametrize("bad", ["MEAS nan 0 0 0", "MEAS inf 0 0 0"])
def test_stream_rejects_non_finite_timestamp_and_keeps_going(monkeypatch, capsys, bad):
    out = run_stream(monkeypatch, capsys, ["PRIOR 0 0 0", bad, "MEAS 0.1 1 0 0"])
    assert len(out) == 2
    assert out[0].startswith("ERR 2 ")
    tag, ts, key, *_ = out[1].split()
    assert (tag, float(ts), key) == ("EST", 0.1, "0")


def test_stream_rejected_fix_leaves_state_unchanged(monkeypatch, capsys):
    lines = ["PRIOR 0 0 0", "MEAS 0 0 0 0", "ODOM 0.05 1 0 0"]
    lines += ["MEAS 0.1 1e300 1e300 0", "MEAS 0.2 1 0 0", "FLUSH"]
    out = run_stream(monkeypatch, capsys, lines)
    assert out[1].startswith("ERR 4 ")
    tag, ts, key, *_ = out[2].split()
    assert (tag, float(ts), key) == ("EST", 0.2, "1")
    # the odometry the rejected fix consumed goes to the next one
    assert out[:1] + out[2:] == run_stream(monkeypatch, capsys, lines[:3] + lines[4:])


def test_stream_flush_without_frames_is_silent(monkeypatch, capsys):
    out = run_stream(monkeypatch, capsys, ["FLUSH"])
    assert out == []


# ---- pipeline ----------------------------------------------------------------


def test_pipeline_single_seed(tmp_path):
    code = run("pipeline", "--seed", 7, "--n-frames", 80, "--out-dir", tmp_path)
    assert code == 0
    for name in SIM_FILES + ("estimate.csv", "online.csv", "fuse_report.json", "evaluation.json", "summary.json"):
        assert (tmp_path / name).exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["seed"] == 7
    assert summary["n_frames"] == 80
    assert summary["ratio_translation"] < 1.0
    assert summary["fused_rmse_translation_m"] < summary["raw_rmse_translation_m"]
    assert "/" in summary["improvement_ratio"]
    evaluation = json.loads((tmp_path / "evaluation.json").read_text())
    assert evaluation["rmse_translation_m"] == summary["fused_rmse_translation_m"]


def test_pipeline_multi_seed(tmp_path):
    code = run("pipeline", "--seed", 2, "--seeds", 3, "--n-frames", 60, "--out-dir", tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [r["seed"] for r in summary["runs"]] == [2, 3, 4]
    assert 0.0 < summary["median_ratio_translation"] < 1.0
    assert summary["median_ratio_rotation"] is not None
    for seed in (2, 3, 4):
        assert (tmp_path / f"seed_{seed}" / "evaluation.json").exists()


def test_pipeline_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "n_frames": 50, "out_dir": str(tmp_path / "cfgdir")}))
    code = run("pipeline", "--config", cfg, "--seed", 5)
    assert code == 0
    summary = json.loads((tmp_path / "cfgdir" / "summary.json").read_text())
    assert summary["seed"] == 5
    assert summary["n_frames"] == 50


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sede": 3}))
    assert run("simulate", "--config", cfg, "--out-dir", tmp_path) == 1


def test_config_rejects_bad_types(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_frames": "many"}))
    assert run("simulate", "--config", cfg, "--out-dir", tmp_path) == 1
    cfg.write_text("not json at all")
    assert run("simulate", "--config", cfg, "--out-dir", tmp_path) == 1
    for bad in ({"odometry_sigmas": [1, 1, 0]}, {"extent": [1.0]}, {"seed": True}, {"bad_prior_offset": 1.0}):
        cfg.write_text(json.dumps(bad))
        assert run("pipeline", "--config", cfg, "--out-dir", tmp_path) == 1
    err = capsys.readouterr().err
    assert "error: odometry_sigmas: " in err and "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()


def _flag_text(value):
    return ",".join(map(repr, value)) if isinstance(value, tuple) else str(value)


def _other_value(f):
    """A value for RunConfig field f other than its default."""
    if f.default is None:
        return (0.5, -1.0, 0.25)
    if isinstance(f.default, tuple):
        return tuple(x + 0.25 for x in f.default)
    return "elsewhere" if isinstance(f.default, str) else f.default + 3


@pytest.mark.parametrize("f", fields(RunConfig), ids=lambda f: f.name)
def test_flag_and_config_key_resolve_alike(tmp_path, f):
    value = _other_value(f)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({f.name: list(value) if isinstance(value, tuple) else value}))
    flag = f"--{f.name.replace('_', '-')}"
    by_flag = _resolve_config(build_parser().parse_args(["pipeline", flag, _flag_text(value)]))
    by_key = _resolve_config(build_parser().parse_args(["pipeline", "--config", str(cfg)]))
    assert by_flag == replace(RunConfig(), **{f.name: value}) != RunConfig()
    # repr tells 3 from 3.0
    assert repr(by_key) == repr(by_flag)


def test_config_null_offset_is_the_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bad_prior_offset": None, "extent": [300, 150]}))
    resolved = _resolve_config(build_parser().parse_args(["pipeline", "--config", str(cfg)]))
    assert repr(resolved) == repr(RunConfig())


# ---- exit codes --------------------------------------------------------------


def test_missing_file_is_io_error(tmp_path):
    code = run(
        "fuse",
        "--odometry", tmp_path / "nope.csv",
        "--measurements", tmp_path / "nope2.csv",
        "--out-dir", tmp_path,
    )
    assert code == 2
    assert run("evaluate", "--estimate", tmp_path / "a.csv", "--truth", tmp_path / "b.csv") == 2


def test_bad_flag_value_is_usage_error(capsys):
    assert run("simulate", "--seed", "abc") == 1
    assert run("nonsense") == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    capsys.readouterr()


def test_invalid_sim_parameters_fail_cleanly(tmp_path, monkeypatch, capsys):
    assert run("simulate", "--n-frames", 1, "--out-dir", tmp_path) == 1
    assert run("simulate", "--outlier-rate", "1.5", "--out-dir", tmp_path) == 1
    assert run("simulate", "--measurement-noise", "0,1,1", "--out-dir", tmp_path) == 1
    assert run("simulate", "--bad-prior-offset", "nan,0,0", "--out-dir", tmp_path) == 1
    data = simulate(tmp_path / "data", "--n-frames", 20)
    code = run(
        "fuse",
        "--odometry", data / "odometry.csv",
        "--measurements", data / "measurements.csv",
        "--measurement-sigmas", "0,1,1",
        "--out-dir", tmp_path / "out",
    )
    assert code == 1
    monkeypatch.setattr(sys, "stdin", io.StringIO("MEAS 0 0 0 0\n"))
    assert run("stream", "--prior-sigmas", "1,-1,1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: ") == 6 and "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_negative_skip_first_rejected(tmp_path):
    code = run("pipeline", "--n-frames", 50, "--skip-first", -1, "--out-dir", tmp_path)
    assert code == 1
    traj = tmp_path / "t.csv"
    _write_traj(traj, [(0.1 * i, i, 0, 0) for i in range(20)])
    assert run("evaluate", "--estimate", traj, "--truth", traj, "--skip-first", -1) == 1
