"""Tests of the benchmark itself, on its small-size inputs.

    python3 -m pytest -q bench/test_bench.py

Each output check is shown to pass on the program's real output and to fail
on a deliberately perturbed copy of it.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = run.NAMES


def _run(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170
    )


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_run_is_correct_and_prints_every_metric(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", trace, "--small")
    assert proc.returncode == 0, proc.stdout
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    units = run.END_TO_END_UNITS if trace == "0" else tracing.per_layer_units()
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for m in result["metrics"].values():
        assert np.isfinite(m["value"])
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain-stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---- each check fails on a perturbed output ---------------------------------


@pytest.fixture(scope="module")
def chain():
    w = workloads.ChainStream(small=True)
    inputs = w.setup(5, None)
    return w, inputs, workloads.run_round(w, inputs)


def _moved(lines, keys, dx):
    """Copy of split EST lines with x of the poses at keys (an index or a slice) moved by dx."""
    out = [list(parts) for parts in lines]
    for parts in out[keys] if isinstance(keys, slice) else [out[keys]]:
        parts[3] = repr(float(parts[3]) + dx)
    return out


def test_chain_checks_pass_on_real_output(chain):
    w, inputs, result = chain
    assert w.check(inputs, result) == []


def test_chain_check_catches_a_moved_final_pose(chain):
    w, inputs, result = chain
    bad = copy.deepcopy(result)
    bad.outputs["sessions"][1]["final"] = _moved(result.outputs["sessions"][1]["final"], 60, 0.1)
    assert any("Newton step" in p for p in w.check(inputs, bad))


def test_chain_check_catches_a_missing_or_misnumbered_answer(chain):
    w, inputs, result = chain
    bad = copy.deepcopy(result)
    del bad.outputs["sessions"][0]["online"][7]
    assert any("EST lines" in p for p in w.check(inputs, bad))
    bad = copy.deepcopy(result)
    bad.outputs["sessions"][0]["online"][7][2] = "8"
    assert any("key 8" in p for p in w.check(inputs, bad))
    bad = copy.deepcopy(result)
    bad.outputs["sessions"][1]["final"][3][4] = "nan"
    assert any("non-finite" in p for p in w.check(inputs, bad))
    bad = copy.deepcopy(result)
    bad.outputs["sessions"][1]["code"] = 1
    assert any("exited 1" in p for p in w.check(inputs, bad))


def test_chain_check_catches_a_fused_rmse_that_is_not_half_the_raw(chain):
    w, inputs, result = chain
    bad = copy.deepcopy(result)
    raw = checks.rmse(checks.translation_sq_errors(inputs[0].measured, inputs[0].truth))
    bad.outputs["sessions"][0]["final"] = _moved(result.outputs["sessions"][0]["final"], slice(None), raw)
    assert any("session 0: fused RMSE" in p for p in w.check(inputs, bad))


@pytest.fixture(scope="module")
def loops():
    w = workloads.LoopGraphs(small=True)
    graphs = w.setup(5, None)
    return w, graphs, workloads.run_round(w, graphs)


def test_loop_checks_pass_on_real_output(loops):
    w, graphs, result = loops
    assert w.check(graphs, result) == []


def test_loop_check_catches_a_moved_pose(loops):
    w, graphs, result = loops
    bad = copy.deepcopy(result)
    bad.outputs["finals"][1][10, 0] += 0.1
    problems = w.check(graphs, bad)
    assert any("graph 1: incremental and batch" in p for p in problems)
    assert any("graph 1: Newton step" in p for p in problems)


def test_loop_check_catches_a_scaled_sigma(loops):
    w, graphs, result = loops
    bad = copy.deepcopy(result)
    sx, sy, st = bad.outputs["sigmas"][2]
    bad.outputs["sigmas"][2] = (sx, sy * 1.1, st)
    assert [p for p in w.check(graphs, bad) if "marginal_sigma" in p]


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    w = workloads.FileSessions(small=True)
    s = w.setup(5, tmp_path_factory.mktemp("sessions"))
    return w, s, workloads.run_round(w, s)


def test_session_checks_pass_on_real_output(sessions):
    w, s, result = sessions
    assert w.check(s, result) == []


def test_session_check_catches_an_rmse_that_does_not_match_the_files(sessions):
    w, s, result = sessions
    bad = copy.deepcopy(result)
    bad.outputs["sessions"][0]["evaluation"]["rmse_translation_m"] *= 1.0 + 1e-6
    assert any("rmse_translation_m" in p for p in w.check(s, bad))
    bad = copy.deepcopy(result)
    bad.outputs["sessions"][1]["estimate"][5, 1] += 0.1
    assert any("session 1: evaluation.json rmse_translation_m" in p for p in w.check(s, bad))


def test_session_check_catches_a_missing_row_and_a_worse_fusion(sessions):
    w, s, result = sessions
    bad = copy.deepcopy(result)
    bad.outputs["sessions"][0]["estimate"] = bad.outputs["sessions"][0]["estimate"][:-1]
    assert any("rows" in p for p in w.check(s, bad))
    bad = copy.deepcopy(result)
    rec = bad.outputs["sessions"][1]
    rec["estimate"][:, 1:3] += 100.0
    rec["evaluation"]["rmse_translation_m"] = checks.rmse(
        checks.translation_sq_errors(*checks.paired(rec["estimate"], rec["truth"]))
    )
    assert any("not below the raw RMSE" in p for p in w.check(s, bad))


def test_session_check_reports_a_failed_command(sessions):
    w, s, result = sessions
    bad = copy.deepcopy(result)
    bad.failed = 1
    bad.outputs["codes"][1] = 1
    assert w.check(s, bad)


def test_self_time_check_catches_time_left_out():
    values = {m: 1.0 for m in tracing.TIME_METRICS.values()}
    values["trace.wall_ms"] = float(len(tracing.TIME_METRICS))
    assert tracing.self_times_add_up(values)
    values["trace.wall_ms"] += 0.5
    assert not tracing.self_times_add_up(values)


def test_self_times_partition_nested_spans():
    t = tracing.Tracer()
    t.spans.extend(
        [
            ["bench.round", 0.0, 10.0, -1, "r"],
            ["cli.driver", 1.0, 6.0, 0, "f"],
            ["smoother.update", 2.0, 5.0, 1, "f"],
            ["smoother.add_factor", 7.0, 8.0, 0, "f"],
        ]
    )
    assert t.self_times(0, 4) == [4.0, 2.0, 3.0, 1.0]
