"""SE(2) row kernels: each factor row's pose error, its log and its Jacobians, and the normal-equation entries they give.

Every factor Jacobian has a scaled-rotation translation block, so it is
given as (p, q, e, f), and each normal-equation entry is a short closed
form (_info_sym, _info_block, _jt_times).

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

import numpy as np

from .geometry import SMALL_ANGLE, Pose2, normalize_angle

# Below this rotation magnitude log's A and the derivative of the log take
# their Taylor forms, to avoid 0/0.
SERIES_ANGLE = 1e-4
_TWO_PI = 2.0 * np.pi


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


def _wrap(a: np.ndarray) -> np.ndarray:
    # maps onto (-pi, pi]; angles already there come back unchanged
    return a + _TWO_PI * np.floor((np.pi - a) / _TWO_PI)


def _v_coeffs(th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    small = np.abs(th) < SMALL_ANGLE
    safe = np.where(small, 1.0, th)
    t2 = th * th
    h = np.sin(0.5 * th)
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(th) / safe)
    b = np.where(small, 0.5 * th - th * t2 / 24.0, 2.0 * h * h / safe)
    return a, b


def _v_log(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized log, and its coefficient A for _v_dlog to reuse."""
    half = 0.5 * p[:, 2]
    a = _half_cot(p[:, 2])
    out = np.empty_like(p)
    out[:, 0] = a * p[:, 0] + half * p[:, 1]
    out[:, 1] = a * p[:, 1] - half * p[:, 0]
    out[:, 2] = p[:, 2]
    return out, a


def _v_between(a: np.ndarray, b: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows of a^-1 b, given c and s, the cosine and sine of a's angles."""
    dx = b[:, 0] - a[:, 0]
    dy = b[:, 1] - a[:, 1]
    out = np.empty_like(b)
    out[:, 0] = c * dx + s * dy
    out[:, 1] = -s * dx + c * dy
    out[:, 2] = _wrap(b[:, 2] - a[:, 2])
    return out


def _retract(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows of x exp(v)."""
    a, b = _v_coeffs(v[:, 2])
    tx = a * v[:, 0] - b * v[:, 1]
    ty = b * v[:, 0] + a * v[:, 1]
    c = np.cos(x[:, 2])
    s = np.sin(x[:, 2])
    out = np.empty_like(x)
    out[:, 0] = x[:, 0] + c * tx - s * ty
    out[:, 1] = x[:, 1] + s * tx + c * ty
    out[:, 2] = _wrap(x[:, 2] + _wrap(v[:, 2]))
    return out


def _info_sym(info: np.ndarray, j: tuple) -> list[np.ndarray]:
    """Upper-triangle entries of J^T diag(info) J for J given as (p, q, e, f)."""
    p, q, e, f = j
    u0, u1 = info[:, 0], info[:, 1]
    p0, q0, e0 = u0 * p, u0 * q, u0 * e
    p1, q1, f1 = u1 * p, u1 * q, u1 * f
    return [
        p0 * p + q1 * q,
        (p0 - p1) * q,
        p0 * e - q1 * f,
        q0 * q + p1 * p,
        q0 * e + p1 * f,
        e0 * e + f1 * f + info[:, 2],
    ]


def _info_block(info: np.ndarray, ja: tuple, jb: tuple) -> list[np.ndarray]:
    """Row-major entries of Ja^T diag(info) Jb for Jacobians given as (p, q, e, f)."""
    pa, qa, ea, fa = ja
    pb, qb, eb, fb = jb
    u0, u1 = info[:, 0], info[:, 1]
    p0, q0, e0 = u0 * pa, u0 * qa, u0 * ea
    p1, q1, f1 = u1 * pa, u1 * qa, u1 * fa
    return [
        p0 * pb + q1 * qb,
        p0 * qb - q1 * pb,
        p0 * eb - q1 * fb,
        q0 * pb - p1 * qb,
        q0 * qb + p1 * pb,
        q0 * eb + p1 * fb,
        e0 * pb - f1 * qb,
        e0 * qb + f1 * pb,
        e0 * eb + f1 * fb + info[:, 2],
    ]


def _jt_times(j: tuple, v: np.ndarray) -> list[np.ndarray]:
    """Entries of J^T v for J given as (p, q, e, f)."""
    p, q, e, f = j
    v0, v1 = v[:, 0], v[:, 1]
    return [p * v0 - q * v1, q * v0 + p * v1, e * v0 + f * v1 + v[:, 2]]


def _jacobians(terms) -> tuple:
    """(p, q, e, f) of every factor's J at the point terms came from, and of the between factors' -J_from.

    A between factor's J is that of its to key, which, like the J of a
    unary factor, is dlog of its pose error.
    """
    z, _, a, _, actual = terms
    j = _v_dlog(z, a)
    return j, _v_chain_from(tuple(x[len(z) - len(actual) :] for x in j), actual)


def _frame_system(x: list, un_keys: list, un: list, bt_keys: list, bt: list):
    """Error, g and the dense H of a few factors on the poses x, in Python floats.

    The scalar form of _evaluate, _jacobians, _gradient and _linearize, on
    _row_terms, for the two or so factors of one new frame: on
    arrays that short, numpy's cost per call would outweigh the arithmetic
    several times over. Keys index x, whose rows are poses.
    """
    # each factor's row, J's keys, and the poses _row_terms compares
    factors = [(row, (k,), x[k], None) for k, row in zip(un_keys, un)]
    factors += [(row, (b, a), x[b], x[a]) for (a, b), row in zip(bt_keys, bt)]
    jac, res, info = [], [], []
    for row, keys, pose, from_pose in factors:
        r, *js = _row_terms(row[:5], pose, from_pose)
        res += r
        info += row[5:]
        rows = [[0.0] * (3 * len(x)) for _ in range(3)]
        jac += rows
        # J of the key measured or the to key, then J_from
        for k, (p, q, e, f), corner in zip(keys, js, (1.0, -1.0)):
            rows[0][3 * k : 3 * k + 3] = p, q, e
            rows[1][3 * k : 3 * k + 3] = -q, p, f
            rows[2][3 * k + 2] = corner
    j, r, w = np.array(jac).reshape(len(res), 3 * len(x)), np.array(res), np.array(info)
    jw = j.T * w
    return 0.5 * float(np.dot(r * r, w)), jw @ r, jw @ j
