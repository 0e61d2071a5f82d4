"""Factor types for SE(2) pose graphs.

Residuals live in the tangent space: for an expected pose E and an actual
pose A the residual is log(E^-1 * A), so a satisfied factor has residual
zero and angle wrap is handled by the group operations. Jacobians are taken
with respect to right perturbations X * exp(delta) of each involved pose
(Sola et al., "A micro Lie theory for state estimation in robotics", 2018),
with kernels.py's scalar kernel, _row_terms; residual() stays on
geometry.py's group operations, the finite-difference reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .geometry import Pose2, Twist2
from .kernels import _const, _row_terms
from .noise import DiagonalNoise

VariableKey = int


def _lookup(values: Mapping[int, Pose2], key: int) -> Pose2:
    try:
        return values[key]
    except (KeyError, IndexError):
        raise KeyError(f"no value for variable {key}") from None


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
