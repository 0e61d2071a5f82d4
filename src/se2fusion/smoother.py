"""Incremental SE(2) pose-graph smoother.

update() runs damped Gauss-Newton on the full graph, warm-started from the
current estimate, so after every update the result matches a from-scratch
batch solve of the same factors. Linearization is vectorized over factors,
with factors.py's kernels; every factor Jacobian has a scaled-rotation
translation block, so each normal-equation entry is a short closed form. The
index pattern that scatters the entries into H and g is a function of the
factor keys. H is solved with a banded Cholesky when every between factor
joins nearby keys, the streaming chain, and with a sparse symmetric-mode LU
otherwise, whose relax=1 and panel_size=1 cost less at pose-graph sizes.

Sparse mode keeps its factor across steps and takes chord, or
simplified-Newton, steps (Kelley, Iterative Methods for Linear and Nonlinear
Equations, 1995, ch. 5) while their predicted decrease falls geometrically,
as its factorization dominates the solve. Banded mode's factor is cheap, so
it takes a chord step only to confirm convergence, never with the first
step's factor, which is the furthest from H at the optimum.

A chain frame, one pose appended with odometry from the pose before and a
fix, changes only the last rows of the banded factor (Kaess, Ranganathan
and Dellaert, iSAM, IEEE T-RO 2008). So the next update takes its first
step with the last full band factor bordered by the new pose (Golub and Van
Loan, Matrix Computations, 4.3): a 6x6 Cholesky of the old factors' part of
the trailing block plus the new factors' H, which _frame_system computes in
Python floats with factors.py's _row_terms. Any other change of the graph,
or a bordered step that fails, takes the full first step.

The graph and the estimate are one immutable snapshot, a _Graph, and what
is derived from it, the index pattern, the band factor and what marginal
reads reuse, lives on the same _Graph, so no cache needs a check (Driscoll,
Sarnak, Sleator and Tarjan, Making Data Structures Persistent, JCSS 1989).
checkpoint() returns the snapshot in O(1), and truncate() puts any mark back.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import ValidationError
from .factors import (
    BetweenFactor,
    Factor,
    MeasurementFactor,
    PriorFactor,
    _const,
    _half_cot,
    _row_terms,
    _v_chain_from,
    _v_dlog,
)
from .geometry import SMALL_ANGLE, Pose2

_TWO_PI = 2.0 * np.pi

# Half-bandwidth above which the normal equations go to the sparse solver.
_BAND_LIMIT = 48
# That of a chain, whose between factors join each key to the next: the
# band the bordered step extends, and the entries of a 6x6 factor in it.
_CHAIN_BAND = 5
_TAIL_I, _TAIL_J = np.tril_indices(6)

# update() takes at most _MAX_ITERATIONS steps, each halved at most
# _MAX_STEP_HALVINGS times to find a decrease. It converges at an error of
# at most _ABSOLUTE_TOLERANCE, or with a step whose predicted decrease, the
# Newton decrement -g^T delta / 2 (Boyd and Vandenberghe, Convex
# Optimization, 2004, 9.5.1), is at most _RELATIVE_TOLERANCE times the error
# (_converges): it ends after that step, or at the step's start when its
# line search finds no decrease. A step that predicts more and finds none
# ends it unconverged, as do _MAX_ITERATIONS steps.
_MAX_ITERATIONS = 100
_RELATIVE_TOLERANCE = 1e-9
_ABSOLUTE_TOLERANCE = 1e-12
_MAX_STEP_HALVINGS = 10

# Sparse mode's chord steps (see above): the largest ratio of a chord step's
# predicted decrease to the step before's, and the factor on the bound of
# _converges that a chord step must meet.
_CHORD_RATE = 0.1
_CHORD_STOP = 1e-2

# In-block offsets, in row-major order: the upper triangle of a 3x3 block,
# and all 9 entries.
_UI = np.array([0, 0, 0, 1, 1, 2])
_UJ = np.array([0, 1, 2, 1, 2, 2])
_CI = np.repeat(np.arange(3), 3)
_CJ = np.tile(np.arange(3), 3)
_G3 = np.arange(3)

# The H entries _linearize emits per factor, one column each: the key its
# row lies at (0: the key measured or a between factor's from key, 1: the
# to key), the row's offset in that key's block, then the same for the
# column. The to side of a factor (_info_sym) fills the upper triangle of
# its key's diagonal block; the from side (_info_sym, then _info_block)
# fills that of the from key, then H_from,to.
_TO_ENTRIES = np.array([[0] * 6, _UI, [0] * 6, _UJ])
_FROM_ENTRIES = np.array([[0] * 15, np.r_[_UI, _CI], [0] * 6 + [1] * 9, np.r_[_UJ, _CJ]])
# Those of the entries above that lie off the diagonal. Sparse mode stores
# the full matrix, so it emits them a second time, mirrored.
_TO_MIRROR = [1, 2, 4]
_FROM_MIRROR = _TO_MIRROR + list(range(6, 15))


def _mirrored(entries: np.ndarray, which: list[int]) -> np.ndarray:
    """entries, then those at which again with row and column swapped."""
    return np.hstack([entries, entries[[2, 3, 0, 1]][:, which]])


# The entries of the to side (unary factors, then the between factors' to
# keys) and of the from side in sparse mode.
_SPARSE_ENTRIES = (_mirrored(_TO_ENTRIES, _TO_MIRROR), _mirrored(_FROM_ENTRIES, _FROM_MIRROR))
# The blocks each side fills in sparse mode, each as the code 2 r + c of the
# keys its rows and columns lie at (numbered as in the entries above), and
# the block of each entry, as an index into those codes.
_BLOCKS = [np.unique(2 * e[0] + e[2], return_inverse=True) for e in _SPARSE_ENTRIES]


class GaugeError(RuntimeError):
    """No factor pins an absolute pose, or the normal equations are singular or not finite."""


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one update() call."""

    iterations: int
    initial_error: float
    final_error: float
    duration_ms: float
    error_history: tuple[float, ...] = ()
    factorizations: int = 0
    # abs_tol or decrement (see _converges) when the solve converged,
    # no_descent or max_iterations when it did not
    stop_reason: str = ""
    # whether the first step used the previous update's band factor,
    # bordered by the new pose; factorizations counts only full ones
    bordered: bool = False
    # banded or sparse
    mode: str = ""

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("abs_tol", "decrement")


def _converges(pred: float, err: float, sparse_chord: bool = False) -> bool:
    """update()'s one convergence test, of a step from error err that predicts a decrease pred."""
    return math.isfinite(pred) and pred <= (_CHORD_STOP if sparse_chord else 1.0) * _RELATIVE_TOLERANCE * err


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
    factors.py's _row_terms, for the two or so factors of one new frame: on
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


def _is_key(key, n: int) -> bool:
    """Whether key is an integer, not a bool, in [0, n)."""
    return isinstance(key, (int, np.integer)) and not isinstance(key, bool) and 0 <= key < n


class _Graph(NamedTuple):
    """The graph and the estimate at one moment, and what was derived from them. Nothing writes into its arrays.

    x holds every variable's value; pending, in key order, the keys added
    without one, which update() gives one; the first n_solved have an
    estimate. un holds the priors and measurements, whose math is the same,
    and bt the between factors: a row each of (x, y, theta, cos theta,
    sin theta) and 1 / sigma^2. un_keys holds the key measured, and bt_keys
    the from and the to keys as two rows. base is the graph that additions
    alone built this one from, the last that update() committed or the
    empty one, and None for those two.

    The rest is derived, dropped by an addition and all set by update() on
    the graph it commits: the _pattern, err at the estimate, band, its last
    full band factor, and for marginals the estimate's residual terms or
    their solve, which _marginal_solve puts in their place.
    """

    x: np.ndarray = np.zeros((0, 3))
    pending: tuple[int, ...] = ()
    n_solved: int = 0
    un_keys: np.ndarray = np.zeros(0, np.intp)
    un: np.ndarray = np.zeros((0, 8))
    bt_keys: np.ndarray = np.zeros((2, 0), np.intp)
    bt: np.ndarray = np.zeros((0, 8))
    base: _Graph | None = None
    pattern: dict | None = None
    err: float | None = None
    band: np.ndarray | None = None
    terms: tuple | None = None
    solve: Callable | None = None

    def added(self, **fields) -> _Graph:
        """This graph with fields replaced by an addition, and nothing derived from it (the fields after base)."""
        return _Graph(*self[:7], base=self if self.base is None else self.base)._replace(**fields)


def _band_solve(cb: np.ndarray):
    """The solve of L L^T, a function from a right-hand side to the solution, given the lower band cb of L."""
    # the factor is finite, and so is rhs whenever the system was
    return lambda rhs: scipy.linalg.lapack.dpbtrs(cb, rhs, lower=1)[0]


class Smoother:
    """Growing pose graph with per-call batch re-solve semantics."""

    def __init__(self):
        self._graph = _Graph()

    # ---- graph construction -------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._graph.x)

    def add_variable(self, initial_guess: Pose2 | None = None) -> int:
        g = self._graph
        key = len(g.x)
        if initial_guess is not None:
            row, pending = initial_guess.as_tuple(), g.pending
        else:
            row, pending = (0.0, 0.0, 0.0), g.pending + (key,)
        self._graph = g.added(x=np.concatenate([g.x, [row]]), pending=pending)
        return key

    def add_factor(self, factor: Factor) -> None:
        g = self._graph
        for key in factor.keys():
            if not _is_key(key, len(g.x)):
                raise KeyError(f"factor references unknown variable {key}")
        squares = [s * s for s in factor.noise.sigmas()]
        # a sigma below ~1e-154 leaves 1 / sigma^2 no finite value
        if min(squares) == 0.0 or not math.isfinite(1.0 / min(squares)):
            raise ValidationError(f"noise sigmas {factor.noise.sigmas()} are too small to invert")
        info = tuple(1.0 / q for q in squares)
        if isinstance(factor, (PriorFactor, MeasurementFactor)):
            value = factor.prior if isinstance(factor, PriorFactor) else factor.measured
        elif isinstance(factor, BetweenFactor):
            value = factor.relative
        else:
            raise TypeError(f"unsupported factor type {type(factor).__name__}")
        row = [_const(value) + info]
        keys = np.array(factor.keys(), np.intp)
        if isinstance(factor, BetweenFactor):
            self._graph = g.added(bt_keys=np.column_stack([g.bt_keys, keys]), bt=np.concatenate([g.bt, row]))
        else:
            self._graph = g.added(un_keys=np.concatenate([g.un_keys, keys]), un=np.concatenate([g.un, row]))

    def checkpoint(self) -> _Graph:
        """A mark of the graph and the estimate, for truncate() to return to."""
        return self._graph

    def truncate(self, mark: _Graph) -> None:
        """Return the graph and the estimate to those of mark, whichever checkpoint() of this smoother gave it."""
        self._graph = mark

    # ---- estimates ----------------------------------------------------------

    def estimate(self) -> dict[int, Pose2]:
        g = self._graph
        if g.n_solved == 0:
            raise RuntimeError("estimate requested before the first update")
        return {k: Pose2(*g.x[k].tolist()) for k in range(g.n_solved)}

    def pose_estimate(self, key: int) -> Pose2:
        g = self._graph
        if g.n_solved == 0:
            raise RuntimeError("estimate requested before the first update")
        if not _is_key(key, g.n_solved):
            raise KeyError(f"variable {key} has no estimate yet")
        return Pose2(*g.x[key].tolist())

    # ---- solving ------------------------------------------------------------

    def _activate_pending(self, X: np.ndarray) -> None:
        """Start values in X for the pending keys, in key order.

        A key follows its first between factor from a key with a value, else
        copies the previous key's value, else stays at the origin.
        """
        g = self._graph
        bt_from, bt_to = g.bt_keys
        # each pending key's first between factor into it, from one pass over
        # the rows into the first pending key or a later one: built from the
        # last row back, the dict keeps each key's first
        rows = np.flatnonzero(bt_to >= g.pending[0])[::-1]
        first_row = dict(zip(bt_to[rows].tolist(), rows.tolist()))
        waiting = set(g.pending)
        for key in g.pending:
            row = first_row.get(key)
            if row is not None and bt_from[row] not in waiting:
                base = Pose2(*X[bt_from[row]].tolist())
                X[key] = base.compose(Pose2(*g.bt[row, :3].tolist())).as_tuple()
            elif key > 0 and key - 1 not in waiting:
                X[key] = X[key - 1]
            waiting.discard(key)

    def _pattern(self) -> dict:
        """Solver mode and where each H and g entry of _linearize goes.

        A function of the factor keys and the number of variables, built in one
        pass unless the graph holds one, as update() commits it with its graph.
        _linearize emits the entries of the to side, then those of the from
        side, each entry-major: entry i of every factor, then entry i + 1.
        Banded mode places H entry (r, c) at (max, min) of the lower band,
        stored column after column. Sparse mode stores the full matrix in CSC
        form: the dense 3x3 blocks of the key pairs that share a factor, sorted
        by col << 32 | row key. Column 3b + j starts after the 9 before[b]
        entries of the blocks left of block column b and holds 3 per_col[b], so
        entry (i, j) of the block at slot s of that order lies at
        6 before[b] + 3 s + 3 per_col[b] j + i.
        """
        g = self._graph
        if g.pattern is not None:
            return g.pattern
        dim = 3 * len(g.x)
        bt_from, bt_to = g.bt_keys
        max_span = int(np.abs(bt_to - bt_from).max(initial=0))
        u = min(3 * max_span + 2, max(dim - 1, 0))
        mode = "banded" if u <= _BAND_LIMIT else "sparse"
        # the key measured or the to key of each factor, then the from keys
        side_keys = (np.concatenate([g.un_keys, bt_to]), bt_from)
        p = {"mode": mode, "u": u, "dim": dim}
        if mode == "banded":
            # entry (i, j) of key k's diagonal block lies at 3 (u + 1) k + i u + j;
            # entry (i, j) of H_from,to at 3 (lo u + hi) + i u + j, with i and j
            # swapped when the between factor runs backward
            lo, hi = np.minimum(bt_from, bt_to), np.maximum(bt_from, bt_to)
            cross = 3 * (lo * u + hi) + np.where(bt_from < bt_to, (_CI * u + _CJ)[:, None], (_CJ * u + _CI)[:, None])
            diag = [3 * (u + 1) * k + (_UI * u + _UJ)[:, None] for k in side_keys]
            p["h_idx"] = np.concatenate([h.ravel() for h in diag + [cross]])
            p["h_size"] = dim * (u + 1)
        else:
            # one row per factor: the key measured or the to key; the from and the to key
            keys = [side_keys[0][:, None], np.column_stack([bt_from, bt_to])]
            blocks = [(k[:, c % 2] << 32) | k[:, c // 2] for (c, _), k in zip(_BLOCKS, keys)]
            csc, slot = np.unique(np.concatenate([b.ravel() for b in blocks]), return_inverse=True)
            col = csc >> 32
            per_col = np.bincount(col, minlength=len(g.x))
            before = np.cumsum(per_col) - per_col
            # the place of entry (i, j) of the block at slot s, at 9 s + 3 i + j
            at = ((6 * before[col] + 3 * np.arange(len(csc)))[:, None] + 3 * per_col[col, None] * _CJ + _CI).ravel()
            splits = zip(_BLOCKS, _SPARSE_ENTRIES, blocks, np.split(slot, [blocks[0].size]))
            places = [at[9 * s.reshape(b.shape)[:, which] + (3 * e[1] + e[3])] for (_, which), e, b, s in splits]
            indices = np.empty(9 * len(csc), np.int32)
            indices[at] = (3 * (csc[:, None] & 0xFFFFFFFF) + _CI).ravel()
            p.update(
                # 32-bit indices spare scipy a scan to downcast them
                indices=indices,
                indptr=np.append(9 * before[:, None] + 3 * per_col[:, None] * _G3, 9 * len(csc)).astype(np.int32),
                h_size=9 * len(csc),
                h_idx=np.concatenate([h.T.ravel() for h in places]),
            )
        # g: the rows of the block of the key measured or the to key, then of the from key
        p["g_rows"] = np.concatenate([(3 * k + _G3[:, None]).ravel() for k in side_keys])
        # every factor's constant pose with its cosine and sine, and its info,
        # in the order of the terms _evaluate gives
        p["consts"] = (np.concatenate([g.un[:, :5], g.bt[:, :5]]), np.concatenate([g.un[:, 5:], g.bt[:, 5:]]))
        return p

    def _evaluate(self, X: np.ndarray, pattern: dict):
        """Total error at X and the per-factor terms the linearization reuses, given the graph's _pattern.

        The terms are (z, r, A, info) of every factor, the unary ones first,
        then the between factors' relative pose X_from^-1 X_to. z is the
        factor's pose error, r = log(z), A its _half_cot and info 1 / sigma^2.
        """
        vals, info = pattern["consts"]
        g = self._graph
        bt_from, bt_to = g.bt_keys
        x_from = X[bt_from]
        actual = _v_between(x_from, X[bt_to], np.cos(x_from[:, 2]), np.sin(x_from[:, 2]))
        # the unary factors' measured poses, then the between factors' relative ones
        z = _v_between(vals, np.concatenate([X[g.un_keys], actual]), vals[:, 3], vals[:, 4])
        r, a = _v_log(z)
        return 0.5 * float(np.vdot(r * r, info)), (z, r, a, info, actual)

    @staticmethod
    def _gradient(terms, jac: tuple, pattern: dict) -> np.ndarray:
        """g = J^T W r at the point terms came from, given its _jacobians.

        Raises GaugeError when an entry is not finite.
        """
        z, r, _, info, actual = terms
        j, jf = jac
        v = info * r
        # J_from = -jf: negating v negates the product
        weights = np.concatenate(_jt_times(j, v) + _jt_times(jf, -v[len(z) - len(actual) :]))
        g = np.bincount(pattern["g_rows"], weights=weights, minlength=pattern["dim"])
        if not np.isfinite(g).all():
            raise GaugeError("normal equations are not finite")
        return g

    @staticmethod
    def _linearize(terms, jac: tuple, pattern: dict):
        """The whitened H = J^T W J at the point terms came from, given its _jacobians.

        It holds the lower band of H in banded mode and is a CSC matrix in
        sparse mode. Raises GaugeError when an entry is not finite, so that
        neither LAPACK nor SuperLU sees one.
        """
        z, _, _, info, actual = terms
        j, jf = jac
        s = len(z) - len(actual)
        to = _info_sym(info, j)
        # J_from = -jf: negating info negates the product
        fr = _info_sym(info[s:], jf) + _info_block(-info[s:], jf, tuple(x[s:] for x in j))
        if pattern["mode"] == "sparse":
            to += [to[i] for i in _TO_MIRROR]
            fr += [fr[i] for i in _FROM_MIRROR]
        h = np.bincount(pattern["h_idx"], weights=np.concatenate(to + fr), minlength=pattern["h_size"])
        if not np.isfinite(h).all():
            raise GaugeError("normal equations are not finite")
        dim = pattern["dim"]
        if pattern["mode"] == "banded":
            return h.reshape(dim, pattern["u"] + 1).T
        return scipy.sparse.csc_matrix((h, pattern["indices"], pattern["indptr"]), shape=(dim, dim))

    @staticmethod
    def _factorize(system, pattern: dict):
        """The solve of system, a function from a right-hand side to the solution, and in banded mode its factor.

        The factor is the lower band of L, where L L^T = system; sparse mode gives None.
        """
        if pattern["mode"] == "banded":
            # LAPACK's banded Cholesky, without scipy's checking wrappers;
            # system is a fresh array that no caller reads again
            cb, info = scipy.linalg.lapack.dpbtrf(system, lower=1, overwrite_ab=1)
            if info != 0:
                raise GaugeError(f"normal equations are not positive definite: pbtrf info {info}")
            return _band_solve(cb), cb
        try:
            # relax=1, panel_size=1: no supernode relaxation and single-column
            # panels, which cut gstrf's fixed cost at pose-graph sizes
            lu = scipy.sparse.linalg.splu(
                system,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                relax=1,
                panel_size=1,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise GaugeError(f"normal equations are singular: {exc}") from None
        return lu.solve, None

    def _line_search(self, X: np.ndarray, err: float, delta: np.ndarray, pattern: dict):
        """(trial, error, terms) at the first of X exp(delta), X exp(delta / 2), ... whose error is at most err.

        None when _MAX_STEP_HALVINGS halvings find none.
        """
        alpha = 1.0
        for _ in range(_MAX_STEP_HALVINGS + 1):
            trial = _retract(X, alpha * delta.reshape(-1, 3))
            trial_err, trial_terms = self._evaluate(trial, pattern)
            if trial_err <= err:
                return trial, trial_err, trial_terms
            alpha *= 0.5
        return None

    def _bordered_factor(self, X: np.ndarray, pattern: dict):
        """(err, g, band) at X: the base graph's band factor bordered by the newest pose; None where that is not exact.

        err is the error at X, g the new factors' gradient and band the
        factor of H with the old factors taken where the base's factor was
        and the new ones at X. It needs a base with a band factor, and
        additions of one pose, and factors on it and the pose before, in a
        chain's band. None also when the bordered matrix is not positive
        definite.
        """
        g = self._graph
        base = g.base
        # additions alone keep the base's rows and its estimate, with every
        # pending key a new one
        if base is None or base.band is None or len(g.x) != len(base.x) + 1:
            return None
        if pattern["u"] != _CHAIN_BAND or len(base.band) != _CHAIN_BAND + 1:
            return None
        # the trailing block: the old last pose k and the new pose
        k = len(base.x) - 1
        nu, nb = len(base.un_keys), len(base.bt)
        # the new factors alone, keyed from k
        un_keys = [key - k for key in g.un_keys[nu:].tolist()]
        bt_keys = [(a - k, b - k) for a, b in g.bt_keys[:, nb:].T.tolist()]
        if min(un_keys + [key for pair in bt_keys for key in pair], default=0) < 0:
            return None
        x = X[k:].tolist()
        tail_err, g_tail, h_tail = _frame_system(x, un_keys, g.un[nu:].tolist(), bt_keys, g.bt[nb:].tolist())
        # the old factors' error at X is the base's, and their gradient
        # about zero, as its update converged
        err = base.err + tail_err
        if not _ABSOLUTE_TOLERANCE < err < math.inf:
            return None
        # the old factors' part of the trailing block, whose columns before it
        # they leave as they were: L_kk L_kk^T of the base factor's last
        # diagonal block (Golub and Van Loan, Matrix Computations, 4.3)
        l_kk = np.zeros((3, 3))
        l_kk[_UJ, _UI] = base.band[_UJ - _UI, 3 * k + _UI]
        h_tail[:3, :3] += l_kk @ l_kk.T
        l_tail, info = scipy.linalg.lapack.dpotrf(h_tail, lower=1)
        if info != 0:
            return None
        cb = np.zeros((_CHAIN_BAND + 1, 6))
        cb[_TAIL_I - _TAIL_J, _TAIL_J] = l_tail[_TAIL_I, _TAIL_J]
        g_new = np.zeros(pattern["dim"])
        g_new[3 * k :] = g_tail
        # column-major, as LAPACK stores a band
        return err, g_new, np.concatenate([base.band.T[: 3 * k], cb.T]).T

    def _bordered_step(self, X: np.ndarray, pattern: dict):
        """The first step from X with the _bordered_factor: (err, solve, pred, step), or None without one or a descent.

        pred is the step's predicted decrease, and step what the line search accepted.
        """
        start = self._bordered_factor(X, pattern)
        if start is None:
            return None
        err, g, band = start
        solve = _band_solve(band)
        delta = solve(-g)
        step = self._line_search(X, err, delta, pattern) if np.isfinite(delta).all() else None
        if step is None:
            return None
        return err, solve, -0.5 * float(g @ delta), step

    # overflow shows up as a non-finite error or system, which raise GaugeError
    @np.errstate(all="ignore")
    def update(self) -> SolveReport:
        """Solve the whole graph from the current estimate; on any error, change nothing."""
        t0 = time.perf_counter()
        graph = self._graph
        if len(graph.x) == 0:
            raise GaugeError("cannot update an empty graph")
        if len(graph.un_keys) == 0:
            raise GaugeError("graph has no prior or measurement factor to fix the gauge")
        pattern = self._pattern()
        sparse = pattern["mode"] == "sparse"
        X = graph.x.copy()
        if graph.pending:
            self._activate_pending(X)
        start = None if sparse else self._bordered_step(X, pattern)
        bordered = start is not None
        if bordered:
            err, solve, pred, step = start
        else:
            err, terms = self._evaluate(X, pattern)
            if not math.isfinite(err):
                raise GaugeError(f"factor error at the start point is not finite: {err}")
            solve = step = None
        history = [err]
        factorizations = 0
        # the last full factor, in banded mode
        band = None
        stop_reason = "abs_tol" if err <= _ABSOLUTE_TOLERANCE else "max_iterations"
        if err > _ABSOLUTE_TOLERANCE:
            # every pass accepts one step, or ends the loop; the bordered
            # step, if any, is the first pass's
            for _ in range(_MAX_ITERATIONS):
                if step is None:
                    jac = _jacobians(terms)
                    g = self._gradient(terms, jac, pattern)
                    # a chord step, with the factor of an earlier point: in
                    # sparse mode while its predicted decrease falls
                    # geometrically, in banded mode only when it would end the
                    # solve, and never with the first step's factor
                    if solve is not None and (sparse or len(history) > 2):
                        delta = solve(-g)
                        pred = -0.5 * float(g @ delta)
                        chord = math.isfinite(pred) and pred <= _CHORD_RATE * last_pred if sparse else _converges(pred, err)
                        if chord:
                            step = self._line_search(X, err, delta, pattern)
                if step is None:
                    # a Gauss-Newton step; g is still at X, as no step was accepted since
                    chord = False
                    solve, band = self._factorize(self._linearize(terms, jac, pattern), pattern)
                    factorizations += 1
                    delta = solve(-g)
                    if not np.all(np.isfinite(delta)):
                        raise GaugeError("normal equations produced a non-finite step")
                    pred = -0.5 * float(g @ delta)
                    step = self._line_search(X, err, delta, pattern)
                # the bordered step's prediction left the old factors out
                done = _converges(pred, err, sparse and chord) and len(history) > bordered
                if step is None:
                    stop_reason = "decrement" if done else "no_descent"
                    break
                X, err, terms = step
                step = None
                last_pred = pred
                history.append(err)
                if err <= _ABSOLUTE_TOLERANCE or done:
                    stop_reason = "abs_tol" if err <= _ABSOLUTE_TOLERANCE else "decrement"
                    break
        if solve is None:
            # only a factorization shows that the normal equations are
            # regular, which a variable that no factor touches makes them not
            solve, band = self._factorize(self._linearize(terms, _jacobians(terms), pattern), pattern)
            factorizations += 1
        iterations = len(history) - 1
        # every derived field, none inherited: band is a full factor only, and
        # for marginals the solve only if no step, bordered or not, moved the
        # estimate since it was factorized, else the estimate's residual terms
        terms, solve = (None, solve) if iterations == 0 else (terms, None)
        self._graph = graph._replace(
            x=X, pending=(), n_solved=len(X), base=None, pattern=pattern, err=err, band=band, terms=terms, solve=solve
        )
        return SolveReport(
            iterations=iterations,
            initial_error=history[0],
            final_error=err,
            duration_ms=(time.perf_counter() - t0) * 1e3,
            error_history=tuple(history),
            factorizations=factorizations,
            stop_reason=stop_reason,
            bordered=bordered,
            mode=pattern["mode"],
        )

    # ---- marginals ----------------------------------------------------------

    @np.errstate(all="ignore")
    def _marginal_solve(self):
        """The solve of H at the estimate, which the current graph then holds.

        update() leaves on the graph it commits the estimate's residual
        terms, which the first marginal read factorizes in place of
        evaluating them again, or, when no step moved the estimate, its solve.
        """
        g = self._graph
        if g.solve is None:
            pattern = self._pattern()
            terms = g.terms if g.terms is not None else self._evaluate(g.x, pattern)[1]
            solve, _ = self._factorize(self._linearize(terms, _jacobians(terms), pattern), pattern)
            self._graph = g = g._replace(terms=None, solve=solve)
        return g.solve

    def marginal_sigma(self, key: int) -> tuple[float, float, float]:
        """Sigmas of the tangent-space marginal at the current estimate."""
        g = self._graph
        if g.n_solved == 0:
            raise RuntimeError("marginals requested before the first update")
        if not _is_key(key, g.n_solved):
            raise KeyError(f"variable {key} has no estimate yet")
        if len(g.x) != g.n_solved:
            raise RuntimeError("marginals requested with pending variables; call update() first")
        solve = self._marginal_solve()
        rhs = np.zeros((3 * self.num_variables, 3))
        rhs[3 * key, 0] = 1.0
        rhs[3 * key + 1, 1] = 1.0
        rhs[3 * key + 2, 2] = 1.0
        sol = solve(rhs)
        var = np.array([sol[3 * key + i, i] for i in range(3)])
        if not np.all(np.isfinite(var)) or np.any(var <= 0.0):
            raise GaugeError("marginal covariance is not positive definite")
        return (math.sqrt(var[0]), math.sqrt(var[1]), math.sqrt(var[2]))
