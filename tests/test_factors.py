"""Residual conventions, analytic vs finite-difference jacobians, the total error, gauge rules."""

import math

import numpy as np
import pytest

from se2fusion import (
    BetweenFactor,
    DiagonalNoise,
    MeasurementFactor,
    Pose2,
    PriorFactor,
    Smoother,
)
from se2fusion.kernels import SERIES_ANGLE, _half_cot, _row_terms, _v_dlog
from support import jacobian_rel_error, make_rng, random_pose

UNIT = DiagonalNoise(1.0, 1.0, 1.0)


def test_measurement_residual_examples():
    f = MeasurementFactor(0, Pose2(1, 2, 0.3), UNIT)
    assert f.residual({0: Pose2(1, 2, 0.3)}).as_tuple() == (0.0, 0.0, 0.0)
    f = MeasurementFactor(0, Pose2(0, 0, 0), UNIT)
    assert f.residual({0: Pose2(1, 0, 0)}).as_tuple() == (1.0, 0.0, 0.0)


def test_between_residual_example():
    f = BetweenFactor(0, 1, Pose2(1, 0, 0), UNIT)
    r = f.residual({0: Pose2(0, 0, math.pi / 2), 1: Pose2(0, 1, math.pi / 2)})
    assert max(abs(c) for c in r.as_tuple()) < 1e-15


def test_prior_residual_satisfied_and_offset():
    p = Pose2(2.0, -1.0, 0.4)
    f = PriorFactor(0, p, UNIT)
    assert max(abs(c) for c in f.residual({0: p}).as_tuple()) == 0.0
    r = f.residual({0: p.compose(Pose2(0.5, 0, 0))})
    assert max(abs(r.vx - 0.5), abs(r.vy), abs(r.omega)) < 1e-15


def test_residual_zero_iff_satisfied():
    rng = make_rng(47)
    for _ in range(200):
        a = random_pose(rng)
        b = random_pose(rng)
        assert max(abs(c) for c in PriorFactor(0, a, UNIT).residual({0: a}).as_tuple()) < 1e-15
        assert max(abs(c) for c in MeasurementFactor(0, a, UNIT).residual({0: a}).as_tuple()) < 1e-15
        rel = a.between(b)
        btw = BetweenFactor(0, 1, rel, UNIT)
        assert max(abs(c) for c in btw.residual({0: a, 1: b}).as_tuple()) < 1e-12
        # a perturbed state must leave a nonzero residual
        nudged = {0: a, 1: b.compose(Pose2(0.01, 0, 0))}
        assert max(abs(c) for c in btw.residual(nudged).as_tuple()) > 1e-4


def test_missing_key_raises():
    f = MeasurementFactor(3, Pose2(0, 0, 0), UNIT)
    with pytest.raises(KeyError, match="3"):
        f.residual({})
    btw = BetweenFactor(0, 5, Pose2(1, 0, 0), UNIT)
    with pytest.raises(KeyError, match="5"):
        btw.residual({0: Pose2(0, 0, 0)})


def test_prior_jacobian_identity_at_satisfied_point():
    p = Pose2(1.5, -2.0, 0.9)
    f = PriorFactor(0, p, UNIT)
    np.testing.assert_array_equal(np.asarray(f.jacobians({0: p})[0]), np.eye(3))


def test_jacobians_match_finite_differences():
    rng = make_rng(53)
    worst = 0.0
    for _ in range(100):
        noise = DiagonalNoise(*rng.uniform(0.5, 2.0, size=3))
        x0 = random_pose(rng)
        x1 = random_pose(rng)
        cases = [
            (PriorFactor(0, random_pose(rng), noise), {0: x0}),
            (MeasurementFactor(0, random_pose(rng), noise), {0: x0}),
            (BetweenFactor(0, 1, random_pose(rng), noise), {0: x0, 1: x1}),
        ]
        for factor, values in cases:
            worst = max(worst, jacobian_rel_error(factor, values))
    assert worst <= 1e-5


def test_between_rejects_self_edge():
    with pytest.raises(ValueError):
        BetweenFactor(2, 2, Pose2(1, 0, 0), UNIT)


def test_jacobians_match_finite_differences_in_the_series_branch():
    # factor errors whose rotation falls in _row_terms's |theta| < SERIES_ANGLE
    # series branch, which random poses almost never reach, with long
    # translations so that an error in the series' coefficient shows
    rng = make_rng(54)
    worst = 0.0
    for theta in (9e-5, 5e-5, 1e-5, -1e-5, -5e-5, -9e-5):
        for _ in range(10):
            noise = DiagonalNoise(*rng.uniform(0.5, 2.0, size=3))
            error = Pose2(*rng.uniform(-100.0, 100.0, size=2), theta)
            x0 = random_pose(rng)
            x1 = random_pose(rng)
            cases = [
                (PriorFactor(0, x0.compose(error.inverse()), noise), {0: x0}),
                (MeasurementFactor(0, x0.compose(error.inverse()), noise), {0: x0}),
                (BetweenFactor(0, 1, x0.between(x1).compose(error.inverse()), noise), {0: x0, 1: x1}),
            ]
            for factor, values in cases:
                assert abs(abs(factor.residual(values).omega) - abs(theta)) < 1e-9
                worst = max(worst, jacobian_rel_error(factor, values))
    assert worst <= 1e-8


def test_scalar_and_vectorized_dlog_agree_around_the_series_bound():
    # the scalar kernel, which jacobians() and the bordered step run, against
    # the vectorized one of full passes, for rotations on both sides of
    # SERIES_ANGLE: a kernel whose series bound differs from the other's
    # takes the closed form where it cancels, and misses by 1e-11 or more
    rng = make_rng(55)
    magnitudes = np.concatenate([np.geomspace(1e-6, 1e-3, 150), SERIES_ANGLE * np.array([0.999, 1.0, 1.001])])
    worst = 0.0
    for theta in np.concatenate([magnitudes, -magnitudes]):
        z = np.array([[*rng.uniform(-100.0, 100.0, size=2), theta]])
        # the identity as the constant pose leaves z as the factor error
        _, got, _ = _row_terms((0.0, 0.0, 0.0, 1.0, 0.0), z[0].tolist())
        want = np.array(_v_dlog(z, _half_cot(z[:, 2]))).ravel()
        worst = max(worst, float(np.max(np.abs(np.array(got) - want)) / np.max(np.abs(want))))
    assert worst <= 1e-13


def test_total_error_examples():
    # the error update() starts from is the sum of the whitened squares
    meas = Pose2(0.0, 0.0, 0.0)
    for start, want in ((meas, 0.0), (Pose2(3.0, 4.0, 0.0), 12.5)):
        s = Smoother()
        k = s.add_variable(start)
        s.add_factor(MeasurementFactor(k, meas, UNIT))
        assert s.update().initial_error == want


def _whitened_dense_system(factors, values, n_vars):
    h = np.zeros((3 * n_vars, 3 * n_vars))
    for f in factors:
        w = 1.0 / np.array(f.noise.sigmas())
        jac = f.jacobians(values)
        for ka, ja in jac.items():
            jaw = np.asarray(ja) * w[:, None]
            for kb, jb in jac.items():
                jbw = np.asarray(jb) * w[:, None]
                h[3 * ka : 3 * ka + 3, 3 * kb : 3 * kb + 3] += jaw.T @ jbw
    return h


def _start_error(n, factors, values):
    """The total error of factors at values, as update() computes it."""
    s = Smoother()
    for k in range(n):
        s.add_variable(values[k])
    for f in factors:
        s.add_factor(f)
    return s.update().initial_error


def test_total_error_matches_naive_summation_and_reorder():
    rng = make_rng(59)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        values = {k: random_pose(rng) for k in range(n)}
        factors = [MeasurementFactor(0, random_pose(rng), DiagonalNoise(*rng.uniform(0.2, 3.0, 3)))]
        for k in range(1, n):
            factors.append(BetweenFactor(k - 1, k, random_pose(rng), DiagonalNoise(*rng.uniform(0.2, 3.0, 3))))
            if rng.random() < 0.5:
                factors.append(MeasurementFactor(k, random_pose(rng), DiagonalNoise(*rng.uniform(0.2, 3.0, 3))))
        manual = 0.5 * sum(f.noise.mahalanobis_sq(f.residual(values)) for f in factors)
        total = _start_error(n, factors, values)
        assert math.isclose(total, manual, rel_tol=1e-12)

        order = list(range(len(factors)))
        rng.shuffle(order)
        assert math.isclose(_start_error(n, [factors[i] for i in order], values), total, rel_tol=1e-12)


def test_gauge_property_singular_without_unary_factor():
    rng = make_rng(61)
    values = {k: random_pose(rng) for k in range(4)}
    between_only = [BetweenFactor(k - 1, k, random_pose(rng), UNIT) for k in range(1, 4)]
    h = _whitened_dense_system(between_only, values, 4)
    assert np.linalg.matrix_rank(h) < 12
    with_prior = between_only + [PriorFactor(0, random_pose(rng), UNIT)]
    h2 = _whitened_dense_system(with_prior, values, 4)
    assert np.linalg.matrix_rank(h2) == 12
    np.linalg.cholesky(h2 + 0.0)
