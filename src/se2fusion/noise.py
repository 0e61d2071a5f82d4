"""Diagonal Gaussian noise models on the SE(2) tangent space."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Twist2


@dataclass(frozen=True)
class DiagonalNoise:
    """Per-axis standard deviations for an (x, y, theta) residual."""

    sigma_x: float
    sigma_y: float
    sigma_theta: float

    def __post_init__(self) -> None:
        for s in (self.sigma_x, self.sigma_y, self.sigma_theta):
            if not (math.isfinite(s) and s > 0.0):
                raise ValueError(f"sigmas must be finite and positive, got {s!r}")

    def sigmas(self) -> tuple[float, float, float]:
        return (self.sigma_x, self.sigma_y, self.sigma_theta)

    def whiten(self, r: Twist2) -> Twist2:
        """Scale each residual component by its inverse sigma."""
        return Twist2(r.vx / self.sigma_x, r.vy / self.sigma_y, r.omega / self.sigma_theta)

    def mahalanobis_sq(self, r: Twist2) -> float:
        w = self.whiten(r)
        return w.vx * w.vx + w.vy * w.vy + w.omega * w.omega


# Default sigmas for one accumulated wheel-odometry edge (m, m, rad).
ODOMETRY_DEFAULT = DiagonalNoise(0.024, 0.021, 0.056)

# Default sigmas for one absolute pose fix from the scene-coordinate
# regression front end (m, m, rad).
MEASUREMENT_DEFAULT = DiagonalNoise(15.621, 10.359, 0.086)

# Default sigmas for the anchoring prior on the first pose. The prior pose
# comes from the same front end as the fixes, so it carries the same
# uncertainty; a much tighter prior would let a corrupted initial fix pin the
# whole trajectory.
PRIOR_DEFAULT = MEASUREMENT_DEFAULT
