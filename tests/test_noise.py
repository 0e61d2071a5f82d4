import math

import pytest

from se2fusion import DiagonalNoise, MEASUREMENT_DEFAULT, ODOMETRY_DEFAULT, PRIOR_DEFAULT, Twist2
from support import make_rng, random_twist


def test_shipped_defaults():
    assert ODOMETRY_DEFAULT.sigmas() == (0.024, 0.021, 0.056)
    assert MEASUREMENT_DEFAULT.sigmas() == (15.621, 10.359, 0.086)
    assert PRIOR_DEFAULT.sigmas() == MEASUREMENT_DEFAULT.sigmas()


def test_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            DiagonalNoise(bad, 1.0, 1.0)
        with pytest.raises(ValueError):
            DiagonalNoise(1.0, bad, 1.0)
        with pytest.raises(ValueError):
            DiagonalNoise(1.0, 1.0, bad)


def test_whiten_examples():
    assert DiagonalNoise(1, 1, 1).whiten(Twist2(0.5, -2, 0.1)).as_tuple() == (0.5, -2.0, 0.1)
    assert DiagonalNoise(2, 4, 0.5).whiten(Twist2(2, 4, 0.5)).as_tuple() == (1.0, 1.0, 1.0)
    w = MEASUREMENT_DEFAULT.whiten(Twist2(15.621, 0, 0))
    assert w.as_tuple() == (1.0, 0.0, 0.0)


def test_mahalanobis_examples():
    unit = DiagonalNoise(1, 1, 1)
    assert unit.mahalanobis_sq(Twist2(0, 0, 0)) == 0.0
    assert unit.mahalanobis_sq(Twist2(3, 4, 0)) == 25.0
    assert DiagonalNoise(2, 1, 1).mahalanobis_sq(Twist2(2, 0, 0)) == 1.0


def test_mahalanobis_is_squared_whitened_norm():
    rng = make_rng(41)
    for _ in range(500):
        n = DiagonalNoise(*rng.uniform(0.1, 5.0, size=3))
        r = random_twist(rng)
        w = n.whiten(r)
        assert n.mahalanobis_sq(r) == w.vx**2 + w.vy**2 + w.omega**2
        assert n.mahalanobis_sq(r) >= 0.0


def test_sigma_scaling_law():
    rng = make_rng(43)
    for k in (2.0, 10.0):
        for _ in range(200):
            sig = rng.uniform(0.1, 5.0, size=3)
            r = random_twist(rng)
            base = DiagonalNoise(*sig).mahalanobis_sq(r)
            scaled = DiagonalNoise(*(k * sig)).mahalanobis_sq(r)
            assert math.isclose(scaled, base / k**2, rel_tol=1e-12)
