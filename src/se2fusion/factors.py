"""Factor types for SE(2) pose graphs, and the Jacobian kernels the smoother runs.

Residuals live in the tangent space: for an expected pose E and an actual
pose A the residual is log(E^-1 * A), so a satisfied factor has residual
zero and angle wrap is handled by the group operations. Jacobians are taken
with respect to right perturbations X * exp(delta) of each involved pose
(Sola et al., "A micro Lie theory for state estimation in robotics", 2018).

The derivative of the log is implemented once, vectorized over factors:
_half_cot, _v_dlog and _v_chain_from. The smoother linearizes the whole
graph with them, and each factor's jacobians() runs them on one-row arrays.
residual() stays scalar, on geometry.py's group operations; central finite
differences of it are the independent reference these Jacobians are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .geometry import Pose2, Twist2
from .noise import DiagonalNoise

VariableKey = int


def _lookup(values: Mapping[int, Pose2], key: int) -> Pose2:
    try:
        return values[key]
    except (KeyError, IndexError):
        raise KeyError(f"no value for variable {key}") from None


def _half_cot(th: np.ndarray) -> np.ndarray:
    """A = (th/2) cot(th/2); log's translation is [[A, th/2], [-th/2, A]] t."""
    small = np.abs(th) < 1e-4
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
    small = np.abs(th) < 1e-4
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


def _dlog(z: Pose2) -> tuple:
    """_v_dlog of the single pose error z."""
    zs = np.array([z.as_tuple()])
    return _v_dlog(zs, _half_cot(zs[:, 2]))


def _matrix(j: tuple) -> np.ndarray:
    """The 3x3 Jacobian that the one-row (p, q, e, f) stands for."""
    p, q, e, f = (float(v[0]) for v in j)
    return np.array([[p, q, e], [-q, p, f], [0.0, 0.0, 1.0]])


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
        return {self.key: _matrix(_dlog(self.prior.between(_lookup(values, self.key))))}


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
        return {self.key: _matrix(_dlog(self.measured.between(_lookup(values, self.key))))}


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
        actual = _lookup(values, self.key_from).between(_lookup(values, self.key_to))
        jt = _dlog(self.relative.between(actual))
        jf = _v_chain_from(jt, np.array([actual.as_tuple()]))
        return {self.key_to: _matrix(jt), self.key_from: -_matrix(jf)}


Factor = Union[PriorFactor, MeasurementFactor, BetweenFactor]
