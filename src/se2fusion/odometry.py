"""Compression of high-rate odometry into one relative edge per frame interval."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .geometry import Pose2
from .noise import DiagonalNoise


@dataclass(frozen=True)
class OdometrySample:
    """One body-frame increment since the previous sample."""

    timestamp: float
    delta: Pose2

    def __post_init__(self):
        if not math.isfinite(self.timestamp):
            raise ValidationError(f"timestamp must be finite, got {self.timestamp!r}")


@dataclass(frozen=True)
class AccumulatedEdge:
    t_start: float
    t_end: float
    relative: Pose2
    noise: DiagonalNoise

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValidationError(
                f"edge window must have t_start < t_end, got [{self.t_start}, {self.t_end}]"
            )


def accumulate(
    samples: list[OdometrySample],
    t_start: float,
    t_end: float,
    edge_noise: DiagonalNoise,
) -> AccumulatedEdge:
    """Fold the samples with t_start < timestamp <= t_end into one edge.

    The window is half-open so that consecutive windows partition a stream
    without double counting. An empty window yields an identity edge. The
    noise model is the fixed per-edge one supplied by the caller, not a
    per-sample propagation.
    """
    if not t_start < t_end:
        raise ValidationError(f"accumulate window must have t_start < t_end, got [{t_start}, {t_end}]")
    relative = Pose2.identity()
    prev = None
    for sample in samples:
        if prev is not None and sample.timestamp < prev:
            raise ValidationError(
                f"odometry samples out of order: {sample.timestamp} after {prev}"
            )
        prev = sample.timestamp
        if t_start < sample.timestamp <= t_end:
            try:
                relative = relative.compose(sample.delta)
            except ValueError:
                raise ValidationError(f"odometry folded up to {sample.timestamp} overflows") from None
    return AccumulatedEdge(t_start=t_start, t_end=t_end, relative=relative, noise=edge_noise)
