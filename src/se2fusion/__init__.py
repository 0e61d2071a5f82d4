"""Incremental SE(2) pose-graph fusion of absolute pose fixes and odometry."""

from .geometry import Pose2, Twist2, normalize_angle
from .noise import DiagonalNoise, MEASUREMENT_DEFAULT, ODOMETRY_DEFAULT, PRIOR_DEFAULT
from .factors import BetweenFactor, MeasurementFactor, PriorFactor
from .smoother import GaugeError, Smoother, SmootherSettings, SolveReport
from .odometry import AccumulatedEdge, OdometrySample, accumulate
from .simulate import SimConfig, SimOutput, generate, raw_measurement_rmse
from .dataset import (
    ErrorReport,
    TrajectoryRecord,
    associate,
    compute_errors,
    read_odometry_csv,
    read_trajectory_csv,
    write_trajectory_csv,
)
from .errors import FormatError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "AccumulatedEdge",
    "BetweenFactor",
    "DiagonalNoise",
    "ErrorReport",
    "FormatError",
    "GaugeError",
    "MEASUREMENT_DEFAULT",
    "MeasurementFactor",
    "ODOMETRY_DEFAULT",
    "OdometrySample",
    "PRIOR_DEFAULT",
    "Pose2",
    "PriorFactor",
    "SimConfig",
    "SimOutput",
    "Smoother",
    "SmootherSettings",
    "SolveReport",
    "TrajectoryRecord",
    "Twist2",
    "ValidationError",
    "accumulate",
    "associate",
    "compute_errors",
    "generate",
    "normalize_angle",
    "raw_measurement_rmse",
    "read_odometry_csv",
    "read_trajectory_csv",
    "write_trajectory_csv",
]
