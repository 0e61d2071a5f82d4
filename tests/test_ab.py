"""tools/ab.py, the in-process A/B: the same code compares equal, and a changed copy shows where it first differs."""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402

PACKAGE = ROOT / "src" / "se2fusion"


def test_the_working_tree_against_itself_is_bitwise_equal():
    results = ab.run_ab(PACKAGE, small=True)
    assert set(results) == {"chains", "loop-graphs", "file-sessions"}
    for name, r in results.items():
        assert r["equal"], r["first_difference"]
        assert r["largest_difference"] == {}
        assert r["totals"]["base"] == r["totals"]["head"]
        assert r["totals"]["head"]["iterations"] > 0 and r["totals"]["head"]["gauge_errors"] == 0
        assert r["units"] > 0 and r["frames"] > 0
        ratio = r["wall_ratio"]
        assert ratio["q1"] <= ratio["median"] <= ratio["q3"] and 0 <= ratio["wins"] <= ratio["n"] == r["units"]
        # the bench's frame_p50_ms statistic, of update() durations, which loop graphs' frames do not give
        assert (r["frame_p50_ratio"] is None) == (name == "loop-graphs")
        assert name == "loop-graphs" or r["frame_p50_ratio"] > 0.0


def test_a_copy_with_another_tolerance_reports_its_first_differing_frame(tmp_path):
    copy = tmp_path / "se2fusion"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = copy / "smoother.py"
    text = source.read_text()
    assert text.count("\n_RELATIVE_TOLERANCE = 1e-9\n") == 1
    source.write_text(text.replace("\n_RELATIVE_TOLERANCE = 1e-9\n", "\n_RELATIVE_TOLERANCE = 1e-6\n"))
    results = ab.run_ab(copy, small=True)
    for r in results.values():
        assert not r["equal"]
        first = r["first_difference"]
        # a frame of the first unit, not only the unit's end
        assert (first["unit"], first["repeat"]) == (0, 0) and isinstance(first["frame"], int)
        assert first["base"] != first["head"]
        # the estimates differ by a number, not only in shape
        assert r["largest_difference"]["final"]["difference"] > 0.0
        assert 0.0 < r["largest_difference"]["final"]["relative"] < 1.0
