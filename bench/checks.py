"""Output checks computed apart from the smoother.

The normal equations here are built factor by factor from the scalar
`residual()` and `jacobians()` of `se2fusion.factors`, never from the
vectorized kernels in `se2fusion.smoother`. RMSEs are recomputed with numpy
from the truth and the CSV files the program wrote.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# Largest Newton step (m or rad, any coordinate) accepted at a final
# estimate. Converged estimates sit below 1e-6; one pose moved by 0.1 m gives
# a step of the same order as the move.
MAX_NEWTON_STEP = 1e-4
# Incremental and batch solves of one graph must agree this closely.
BATCH_TOLERANCE = 1e-6
# Relative agreement of marginal_sigma with sqrt(diag(H^-1)).
SIGMA_TOLERANCE = 1e-6
# Relative agreement of an RMSE in evaluation.json with its recomputation.
RMSE_TOLERANCE = 1e-9


def wrap_angle(a):
    return (np.asarray(a) + np.pi) % (2.0 * np.pi) - np.pi


def normal_equations(n_vars: int, factors, values):
    """Whitened H = J^T W^2 J (sparse) and g = J^T W^2 r from each factor's scalar code."""
    rows, cols, data = [], [], []
    g = np.zeros(3 * n_vars)
    for f in factors:
        w = 1.0 / np.array(f.noise.sigmas())
        rw = np.array(f.residual(values).as_tuple()) * w
        jac = [(k, np.asarray(j) * w[:, None]) for k, j in f.jacobians(values).items()]
        for ka, ja in jac:
            g[3 * ka : 3 * ka + 3] += ja.T @ rw
            for kb, jb in jac:
                rows.append(3 * ka + _BLOCK_ROWS)
                cols.append(3 * kb + _BLOCK_COLS)
                data.append((ja.T @ jb).ravel())
    h = scipy.sparse.csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(3 * n_vars, 3 * n_vars)
    )
    return h, g


_BLOCK_ROWS = np.repeat(np.arange(3), 3)
_BLOCK_COLS = np.tile(np.arange(3), 3)


def newton_step(h, g) -> float:
    """Largest coordinate of the Gauss-Newton step H^-1 g; ~0 at an optimum."""
    return float(np.max(np.abs(scipy.sparse.linalg.spsolve(h, g))))


def dense_sigmas(h, key: int) -> np.ndarray:
    """sqrt(diag(H^-1)) of one variable, solved with the dense H."""
    rhs = np.zeros((h.shape[0], 3))
    rhs[3 * key : 3 * key + 3] = np.eye(3)
    sol = np.linalg.solve(h.toarray(), rhs)
    return np.sqrt(np.diag(sol[3 * key : 3 * key + 3]))


def max_pose_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest coordinate difference between two (n, 3) pose arrays, angles wrapped."""
    d = np.abs(a - b)
    d[:, 2] = np.abs(wrap_angle(a[:, 2] - b[:, 2]))
    return float(np.max(d))


def translation_sq_errors(est: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Squared translation errors of poses already paired row by row."""
    return (est[:, 0] - truth[:, 0]) ** 2 + (est[:, 1] - truth[:, 1]) ** 2


def rmse(sq_errors: np.ndarray) -> float:
    return math.sqrt(float(np.mean(sq_errors)))


def read_csv(path) -> np.ndarray:
    """Rows of a timestamp,x,y,theta file as an (n, 4) array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def paired(est: np.ndarray, truth: np.ndarray, max_dt: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """Pair two trajectories sampled at the same frames; raises if they are not."""
    if est.shape != truth.shape or np.any(np.abs(est[:, 0] - truth[:, 0]) > max_dt):
        raise ValueError("trajectories do not share their frames")
    return est[:, 1:], truth[:, 1:]


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)
