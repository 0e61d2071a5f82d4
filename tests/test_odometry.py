"""Windowed accumulation of incremental odometry into single edges."""

import math

import pytest

from se2fusion import (
    AccumulatedEdge,
    ODOMETRY_DEFAULT,
    OdometrySample,
    Pose2,
    ValidationError,
    accumulate,
)
from support import make_rng, pose_diff, random_pose

N_CASES = 1000


def _samples(deltas, t0=0.0, dt=0.1):
    return [OdometrySample(t0 + (i + 1) * dt, d) for i, d in enumerate(deltas)]


def test_straight_line_folds():
    samples = _samples([Pose2(1, 0, 0), Pose2(1, 0, 0)])
    edge = accumulate(samples, 0.0, 0.2, ODOMETRY_DEFAULT)
    assert pose_diff(edge.relative, Pose2(2, 0, 0)) < 1e-15
    assert edge.t_start == 0.0 and edge.t_end == 0.2
    assert edge.noise is ODOMETRY_DEFAULT


def test_turn_then_advance():
    samples = _samples([Pose2(1, 0, math.pi / 2), Pose2(1, 0, 0)])
    edge = accumulate(samples, 0.0, 0.2, ODOMETRY_DEFAULT)
    assert pose_diff(edge.relative, Pose2(1, 1, math.pi / 2)) < 1e-15


def test_empty_window_gives_identity():
    edge = accumulate([], 0.0, 1.0, ODOMETRY_DEFAULT)
    assert edge.relative == Pose2.identity()
    samples = _samples([Pose2(1, 0, 0)])
    edge = accumulate(samples, 5.0, 6.0, ODOMETRY_DEFAULT)
    assert edge.relative == Pose2.identity()


def test_window_is_half_open():
    samples = [
        OdometrySample(1.0, Pose2(1, 0, 0)),
        OdometrySample(2.0, Pose2(0, 1, 0)),
        OdometrySample(3.0, Pose2(0, 0, 0.5)),
    ]
    # sample at t_start excluded, sample at t_end included
    edge = accumulate(samples, 1.0, 2.0, ODOMETRY_DEFAULT)
    assert pose_diff(edge.relative, Pose2(0, 1, 0)) < 1e-15
    edge = accumulate(samples, 0.0, 1.0, ODOMETRY_DEFAULT)
    assert pose_diff(edge.relative, Pose2(1, 0, 0)) < 1e-15


def test_split_window_composes():
    rng = make_rng(101)
    for _ in range(N_CASES):
        n = int(rng.integers(2, 12))
        deltas = [random_pose(rng, span=1.0) for _ in range(n)]
        samples = _samples(deltas)
        cut = float(rng.integers(1, n)) * 0.1
        whole = accumulate(samples, 0.0, n * 0.1, ODOMETRY_DEFAULT).relative
        left = accumulate(samples, 0.0, cut, ODOMETRY_DEFAULT).relative
        right = accumulate(samples, cut, n * 0.1, ODOMETRY_DEFAULT).relative
        assert pose_diff(left.compose(right), whole) < 1e-12


def test_dead_reckoning_reconstructs_path():
    rng = make_rng(103)
    pose = random_pose(rng)
    deltas = [random_pose(rng, span=0.5) for _ in range(50)]
    samples = _samples(deltas)
    expected = pose
    for d in deltas:
        expected = expected.compose(d)
    edge = accumulate(samples, 0.0, 5.0, ODOMETRY_DEFAULT)
    assert pose_diff(pose.compose(edge.relative), expected) < 1e-12


def test_unsorted_samples_rejected():
    samples = [OdometrySample(2.0, Pose2(1, 0, 0)), OdometrySample(1.0, Pose2(1, 0, 0))]
    with pytest.raises(ValidationError):
        accumulate(samples, 0.0, 3.0, ODOMETRY_DEFAULT)


def test_bad_window_rejected():
    with pytest.raises(ValidationError):
        accumulate([], 1.0, 1.0, ODOMETRY_DEFAULT)
    with pytest.raises(ValidationError):
        accumulate([], 2.0, 1.0, ODOMETRY_DEFAULT)


def test_sample_validation():
    with pytest.raises(ValidationError):
        OdometrySample(float("nan"), Pose2(0, 0, 0))
    with pytest.raises(ValidationError):
        OdometrySample(float("inf"), Pose2(0, 0, 0))


def test_edge_validation():
    with pytest.raises(ValidationError):
        AccumulatedEdge(2.0, 1.0, Pose2(0, 0, 0), ODOMETRY_DEFAULT)
    with pytest.raises(ValidationError):
        AccumulatedEdge(1.0, 1.0, Pose2(0, 0, 0), ODOMETRY_DEFAULT)
    edge = AccumulatedEdge(1.0, 2.0, Pose2(1, 2, 0.5), ODOMETRY_DEFAULT)
    assert edge.t_start == 1.0 and edge.t_end == 2.0


def test_fold_that_overflows_raises_validation_error():
    samples = _samples([Pose2(1e308, 0.0, 0.0)] * 2)
    with pytest.raises(ValidationError):
        accumulate(samples, 0.0, 1.0, ODOMETRY_DEFAULT)
