"""Factor types for SE(2) pose graphs, and the Jacobian kernels the smoother runs.

Residuals live in the tangent space: for an expected pose E and an actual
pose A the residual is log(E^-1 * A), so a satisfied factor has residual
zero and angle wrap is handled by the group operations. Jacobians are taken
with respect to right perturbations X * exp(delta) of each involved pose
(Sola et al., "A micro Lie theory for state estimation in robotics", 2018).

The derivative of the log has two implementations, both with the series
branch below SERIES_ANGLE. _row_terms computes one factor row in Python
floats: every factor's jacobians() and the smoother's bordered first step
run it. _half_cot, _v_dlog and _v_chain_from compute it vectorized over
factors, for the smoother's full passes. residual() stays on geometry.py's
group operations: central finite differences of it test _row_terms
(criterion 4 and test_factors.py), and the smoother's assembled normal
equations are tested against those built from jacobians()
(test_linearize_matches_factor_jacobians).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .geometry import Pose2, Twist2, normalize_angle
from .noise import DiagonalNoise

VariableKey = int

# Below this rotation magnitude log's A and the derivative of the log take
# their Taylor forms, to avoid 0/0.
SERIES_ANGLE = 1e-4


def _lookup(values: Mapping[int, Pose2], key: int) -> Pose2:
    try:
        return values[key]
    except (KeyError, IndexError):
        raise KeyError(f"no value for variable {key}") from None


def _half_cot(th: np.ndarray) -> np.ndarray:
    """A = (th/2) cot(th/2); log's translation is [[A, th/2], [-th/2, A]] t."""
    small = np.abs(th) < SERIES_ANGLE
    safe = np.where(small, 1.0, 0.5 * th)
    return np.where(small, 1.0 - th * th / 12.0, safe / np.tan(safe))


def _v_dlog(z: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized derivative of log(z * exp(delta)) at delta = 0, given A of z.

    The derivative is [[p, q, e], [-q, p, f], [0, 0, 1]]: its translation
    block is the log's [[A, th/2], [-th/2, A]] times the rotation of z, which
    is again a scaled rotation, so only (p, q, e, f) are returned.
    """
    th = z[:, 2]
    half = 0.5 * th
    small = np.abs(th) < SERIES_ANGLE
    da = np.where(small, -th / 6.0, (a * (1.0 - a) - half * half) / np.where(small, 1.0, th))
    return a, -half, da * z[:, 0] + 0.5 * z[:, 1], da * z[:, 1] - 0.5 * z[:, 0]


def _v_chain_from(jt: tuple, actual: np.ndarray) -> tuple:
    """(p, q, e, f) of jt @ Ad(actual^-1); a between factor's J_from is its negative."""
    p, q, e, f = jt
    c = np.cos(actual[:, 2])
    s = np.sin(actual[:, 2])
    # translation of actual^-1
    ix = -(c * actual[:, 0] + s * actual[:, 1])
    iy = s * actual[:, 0] - c * actual[:, 1]
    return p * c - q * s, p * s + q * c, p * iy - q * ix + e, f - q * iy - p * ix


def _const(pose: Pose2) -> tuple:
    """(x, y, theta, cos theta, sin theta) of a factor's constant pose, as the smoother stores it."""
    # np.cos of one value equals the vectorized result bit for bit
    return pose.as_tuple() + (np.cos(pose.theta), np.sin(pose.theta))


def _row_terms(const: tuple, pose, from_pose=None) -> tuple:
    """r = log(z), J and, for a between factor, J_from of one factor row, in Python floats.

    const is the row's _const; pose the (x, y, theta) of the key measured or
    the to key, and from_pose that of a between factor's from key. z is
    const^-1 pose, or const^-1 from_pose^-1 pose. J and J_from are given as
    (p, q, e, f): J = [[p, q, e], [-q, p, f], [0, 0, 1]], and J_from the same
    with -1 in the corner. The scalar form of _v_dlog and _v_chain_from.
    """
    ax, ay, at = pose
    if from_pose is not None:
        fx, fy, ft = from_pose
        c, s = math.cos(ft), math.sin(ft)
        dx, dy = ax - fx, ay - fy
        ax, ay, at = c * dx + s * dy, c * dy - s * dx, normalize_angle(at - ft)
    mx, my, mt, c, s = const
    dx, dy = ax - mx, ay - my
    z0, z1, z2 = c * dx + s * dy, c * dy - s * dx, normalize_angle(at - mt)
    half = 0.5 * z2
    small = abs(z2) < SERIES_ANGLE
    a = 1.0 - z2 * z2 / 12.0 if small else half / math.tan(half)
    da = -z2 / 6.0 if small else (a * (1.0 - a) - half * half) / z2
    r = (a * z0 + half * z1, a * z1 - half * z0, z2)
    p, q, e, f = a, -half, da * z0 + 0.5 * z1, da * z1 - 0.5 * z0
    if from_pose is None:
        return r, (p, q, e, f), None
    # the negative of _v_chain_from's
    c, s = math.cos(at), math.sin(at)
    ix, iy = -(c * ax + s * ay), s * ax - c * ay
    return r, (p, q, e, f), (q * s - p * c, -(p * s + q * c), q * ix - p * iy - e, q * iy + p * ix - f)


def _matrix(j: tuple, corner: float = 1.0) -> np.ndarray:
    """The 3x3 Jacobian that (p, q, e, f) stands for."""
    p, q, e, f = j
    return np.array([[p, q, e], [-q, p, f], [0.0, 0.0, corner]])


@dataclass(frozen=True)
class PriorFactor:
    """Pins one pose to a fixed value."""

    key: VariableKey
    prior: Pose2
    noise: DiagonalNoise

    def keys(self) -> tuple[VariableKey, ...]:
        return (self.key,)

    def residual(self, values: Mapping[int, Pose2]) -> Twist2:
        return self.prior.between(_lookup(values, self.key)).log()

    def jacobians(self, values: Mapping[int, Pose2]) -> dict[VariableKey, np.ndarray]:
        return {self.key: _matrix(_row_terms(_const(self.prior), _lookup(values, self.key).as_tuple())[1])}


@dataclass(frozen=True)
class MeasurementFactor:
    """Unary absolute-pose observation of one variable."""

    key: VariableKey
    measured: Pose2
    noise: DiagonalNoise

    def keys(self) -> tuple[VariableKey, ...]:
        return (self.key,)

    def residual(self, values: Mapping[int, Pose2]) -> Twist2:
        return self.measured.between(_lookup(values, self.key)).log()

    def jacobians(self, values: Mapping[int, Pose2]) -> dict[VariableKey, np.ndarray]:
        return {self.key: _matrix(_row_terms(_const(self.measured), _lookup(values, self.key).as_tuple())[1])}


@dataclass(frozen=True)
class BetweenFactor:
    """Relative-pose constraint between two variables."""

    key_from: VariableKey
    key_to: VariableKey
    relative: Pose2
    noise: DiagonalNoise

    def __post_init__(self) -> None:
        if self.key_from == self.key_to:
            raise ValueError(f"between factor must join two distinct variables, got {self.key_from}")

    def keys(self) -> tuple[VariableKey, ...]:
        return (self.key_from, self.key_to)

    def residual(self, values: Mapping[int, Pose2]) -> Twist2:
        actual = _lookup(values, self.key_from).between(_lookup(values, self.key_to))
        return self.relative.between(actual).log()

    def jacobians(self, values: Mapping[int, Pose2]) -> dict[VariableKey, np.ndarray]:
        x_from, x_to = (_lookup(values, k).as_tuple() for k in self.keys())
        _, j, j_from = _row_terms(_const(self.relative), x_to, x_from)
        return {self.key_to: _matrix(j), self.key_from: _matrix(j_from, -1.0)}


Factor = Union[PriorFactor, MeasurementFactor, BetweenFactor]
