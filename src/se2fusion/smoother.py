"""Incremental SE(2) pose-graph smoother.

update() runs damped Gauss-Newton on the full graph, warm-started from the
current estimate, so after every update the result matches a from-scratch
batch solve of the same factors. Linearization is vectorized over factors,
with kernels.py's row kernels, and pattern.py's index pattern, a function of
the factor keys, scatters the entries into H and g. H is solved with a
banded Cholesky when every between factor joins nearby keys, the streaming
chain, and with a sparse symmetric-mode LU otherwise, whose relax=1 and
panel_size=1 cost less at pose-graph sizes.

Sparse mode keeps its factor across steps and takes chord, or
simplified-Newton, steps (Kelley, Iterative Methods for Linear and Nonlinear
Equations, 1995, ch. 5) while their predicted decrease falls geometrically,
as its factorization dominates the solve. Banded mode's factor is cheap, so
it takes a chord step only to confirm convergence, never with the first
step's factor, which is the furthest from H at the optimum.

An update that adds one pose to a graph that holds a factor of its H starts
from that base (_bordered_start): err is the base's error plus the new
factors', g the new factors' gradient, as the base converged, and the first
step's factor the held one bordered by the new pose, with the new factors' H
on the old keys S they touch and the new pose from _frame_system (Python
floats, kernels.py's _row_terms). A bordered step that finds no decrease
starts the pass again from an evaluation. A chain frame changes only the
last rows of the band factor (Kaess, Ranganathan and Dellaert, iSAM, IEEE
T-RO 2008), so banded mode extends it by a 6x6 Cholesky of the trailing
block (Golub and Van Loan, Matrix Computations, 4.3). Sparse mode borders an
exact solve, whichever mode left it: the new pose by a 3x3 Schur complement,
the rank-3|S| change on S by the Sherman-Morrison-Woodbury form (Hager,
Updating the Inverse of a Matrix, SIAM Review 1989). A marginal read, or an
update that took no step, leaves the solve of H at the estimate and its
factor; bordered, they give a Newton step, which may end the solve, so the
read's factorization is the frame's only one. The band factor an update
leaves is H's before its last step, so a step from it never ends the solve.
Any other change takes the full first step.

The graph and the estimate are one immutable snapshot, a _Graph, and what
is derived from it, the index pattern, the held factor and what marginal
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
from .factors import BetweenFactor, Factor, MeasurementFactor, PriorFactor
from .geometry import Pose2
from .kernels import _const, _frame_system, _info_block, _info_sym, _jacobians, _jt_times, _retract, _v_between, _v_log
from .pattern import _FROM_MIRROR, _TO_MIRROR, _UI, _UJ, build

# The half-bandwidth of a chain, whose between factors join each key to the
# next: the band the bordered step extends, and the entries of a 6x6 factor
# in it.
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
    # whether the first pass took its step from what the base held, its band
    # factor or its solve, bordered by the new pose (see _bordered_start);
    # factorizations counts only full ones
    bordered: bool = False
    # banded or sparse
    mode: str = ""

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("abs_tol", "decrement")


def _converges(pred: float, err: float, scale: float = 1.0) -> bool:
    """update()'s one convergence test, of a step from error err that predicts a decrease pred, with its bound scaled by scale."""
    return math.isfinite(pred) and pred <= scale * _RELATIVE_TOLERANCE * err


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
    the graph it commits: the _pattern, err at the estimate, factor, what
    its last full factorization leaves (see _factorize), for marginals the
    estimate's residual terms or their solve, which _marginal_solve puts in
    their place, with its factor, and columns, the last marginal read's key
    and its columns of H^-1, which _bordered_start reuses.
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
    factor: np.ndarray | None = None
    terms: tuple | None = None
    solve: Callable | None = None
    columns: tuple | None = None

    def added(self, **fields) -> _Graph:
        """This graph with fields replaced by an addition, and nothing derived from it (the fields after base)."""
        return _Graph(*self[:7], base=self if self.base is None else self.base)._replace(**fields)


def _band_solve(cb: np.ndarray):
    """The solve of L L^T, a function from a right-hand side to the solution, given the lower band cb of L."""
    # the factor is finite, and so is rhs whenever the system was
    return lambda rhs: scipy.linalg.lapack.dpbtrs(cb, rhs, lower=1)[0]


def _bordered_band(band: np.ndarray, h: np.ndarray) -> np.ndarray | None:
    """A chain's lower band factor band bordered by a new pose; None where that is not positive definite.

    h is the new factors' H on band's last pose k and the new pose. The old
    factors' part of the trailing block, whose columns before it they leave
    as they were, is L_kk L_kk^T of band's last diagonal block (Golub and Van
    Loan, Matrix Computations, 4.3).
    """
    k = band.shape[1] // 3 - 1
    tail = h.copy()
    l_kk = np.zeros((3, 3))
    l_kk[_UJ, _UI] = band[_UJ - _UI, 3 * k + _UI]
    tail[:3, :3] += l_kk @ l_kk.T
    l_tail, info = scipy.linalg.lapack.dpotrf(tail, lower=1)
    if info != 0:
        return None
    cb = np.zeros((_CHAIN_BAND + 1, 6))
    cb[_TAIL_I - _TAIL_J, _TAIL_J] = l_tail[_TAIL_I, _TAIL_J]
    # column-major, as LAPACK stores a band
    return np.concatenate([band.T[: 3 * k], cb.T]).T


def _woodbury_solve(solve_a: Callable, n: int, rows: np.ndarray, h: np.ndarray, z: np.ndarray | None = None):
    """The solve of [[A + E11, E12], [E21, E22]] from solve_a, A's, of size n; None where E22 or the capacitance is singular.

    E is h, the new factors' H on the old keys S and the new pose, last,
    and rows lists the rows of A that S's keys hold. Eliminating the new
    pose leaves A + U C U^T, with C = E11 - E12 E22^-1 E21 and U those
    columns of the identity, whose inverse is A^-1 - Z (I + C U^T Z)^-1 C Z^T,
    Z = A^-1 U (Hager 1989): one solve of A per solve, and one with a column
    per row of S, unless z gives Z. E22 is singular when no factor pins the
    new pose.
    """
    s = len(rows)
    try:
        e22_inv = np.linalg.inv(h[s:, s:])
        f = h[:s, s:] @ e22_inv
        c = h[:s, :s] - f @ h[s:, :s]
        if z is None:
            unit = np.zeros((n, s))
            unit[rows, np.arange(s)] = 1.0
            z = solve_a(unit)
        kc = np.linalg.solve(np.eye(s) + c @ z[rows], c)
    except np.linalg.LinAlgError:
        return None
    e21 = h[s:, :s]

    def solve(rhs):
        b = rhs[:n].copy()
        b[rows] -= f @ rhs[n:]
        y = solve_a(b)
        y -= z @ (kc @ y[rows])
        return np.concatenate([y, e22_inv @ (rhs[n:] - e21 @ y[rows])])

    return solve


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
                try:
                    X[key] = base.compose(Pose2(*g.bt[row, :3].tolist())).as_tuple()
                except ValueError:
                    raise GaugeError(f"the start value of variable {key} overflows") from None
            elif key > 0 and key - 1 not in waiting:
                X[key] = X[key - 1]
            waiting.discard(key)

    def _pattern(self) -> dict:
        """The graph's index pattern: the one it holds, as update() commits it with its graph, else pattern.py's build of it."""
        g = self._graph
        return g.pattern if g.pattern is not None else build(g)

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
        """The solve of system, a function from a right-hand side to the solution, and what a later update reuses.

        That is the lower band of L, where L L^T = system, in banded mode,
        and the key elimination order in sparse mode: the pattern's when it
        is held, else the one SuperLU chose, each key where its first column
        went.
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
                permc_spec="NATURAL" if pattern["held"] else "MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                relax=1,
                panel_size=1,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise GaugeError(f"normal equations are singular: {exc}") from None
        dof, order = pattern["dof"], pattern["order"]
        if not pattern["held"]:
            # perm_c[i] is the step at which column i is eliminated
            order = order[np.argsort(lu.perm_c.reshape(-1, 3).min(axis=1))]

        def solve(rhs):
            out = np.empty_like(rhs)
            out[dof] = lu.solve(rhs[dof])
            return out

        return solve, order

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

    def _bordered_start(self, X: np.ndarray, pattern: dict):
        """(err, g, solve) at X from the base graph's factor bordered by the newest pose (see above), or None.

        It needs a base that holds a band factor in banded mode, and the
        solve of its H at its estimate, whichever mode left it, in sparse
        mode, and additions of one pose and of factors on it and the old
        keys S, which in banded mode are at most the pose before. The old
        factors' error at X is then the base's, and their gradient about
        zero, as its update converged: err adds the new factors' error to
        base.err, and g is theirs. None also where err is not above
        _ABSOLUTE_TOLERANCE, or the bordered matrix is singular.
        """
        graph = self._graph
        base = graph.base
        banded = pattern["mode"] == "banded"
        held = None if base is None else base.factor if banded else base.solve
        # additions alone keep the base's rows and its estimate, with every
        # pending key a new one
        if held is None or len(graph.x) != len(base.x) + 1:
            return None
        n, nu, nb = len(base.x), len(base.un_keys), len(base.bt)
        un_keys, bt_keys = graph.un_keys[nu:].tolist(), graph.bt_keys[:, nb:].T.tolist()
        # S, then the new pose, and the new factors keyed by place in it; a
        # chain's band is bordered on the pose before and the new pose
        keys = sorted(set(un_keys + sum(bt_keys, [n - 1, n] if banded else [n])))
        if banded and (keys[0] < n - 1 or pattern["u"] != _CHAIN_BAND or len(held) != _CHAIN_BAND + 1):
            return None
        place = {k: i for i, k in enumerate(keys)}
        un_keys = [place[k] for k in un_keys]
        bt_keys = [(place[a], place[b]) for a, b in bt_keys]
        tail_err, g_tail, h = _frame_system(
            X.take(keys, 0).tolist(), un_keys, graph.un[nu:].tolist(), bt_keys, graph.bt[nb:].tolist()
        )
        err = base.err + tail_err
        if not _ABSOLUTE_TOLERANCE < err < math.inf:
            return None
        rows = [3 * k + i for k in keys for i in range(3)]
        g = np.zeros(pattern["dim"])
        g[rows] = g_tail
        if banded:
            band = _bordered_band(held, h)
            solve = None if band is None else _band_solve(band)
        else:
            # the last marginal read's columns are Z when S is its key
            z = base.columns[1] if base.columns is not None and keys[:-1] == [base.columns[0]] else None
            solve = _woodbury_solve(held, 3 * n, np.array(rows[:-3]), h, z)
        return None if solve is None else (err, g, solve)

    # overflow shows up as a non-finite error or system, which raise GaugeError
    @np.errstate(all="ignore")
    def update(self) -> SolveReport:
        """Solve the whole graph from the current estimate; on any error, change nothing.

        Each pass takes its step from the first source that gives a finite
        step and a line search result: on the first, the _bordered_start,
        which stands in for the evaluation of X; else the held solve (a chord
        step), then a fresh factorization (Newton). A bordered step that finds
        no decrease starts the pass again from an evaluation, and a Newton
        step that finds none ends the solve.
        """
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
        start = self._bordered_start(X, pattern)
        history, factorizations, bordered, done, stuck = [], 0, False, False, False
        # the solve of the last step taken, and the chord source it gives
        solve, chord = None, []
        # what the graph keeps of the last factorization (see _factorize); a
        # held elimination order is known before one runs
        factor = pattern["order"] if pattern.get("held") else None
        while True:
            if not history:
                if start is not None:
                    (err, g, lent), terms = start, None
                else:
                    err, terms = self._evaluate(X, pattern)
                    if not math.isfinite(err):
                        raise GaugeError(f"factor error at the start point is not finite: {err}")
                    g = None
                history.append(err)
            if err <= _ABSOLUTE_TOLERANCE or done or stuck or len(history) > _MAX_ITERATIONS:
                break
            if g is None:
                jac = _jacobians(terms)
                g = self._gradient(terms, jac, pattern)
            # the pass's sources, each (its solve, the bound a chord step's
            # predicted decrease must meet, the factor on _converges's bound
            # when its step may end the solve): the bordered solve, whose step
            # is a Newton step when the base holds a solve, H's at its
            # estimate, but not from the band factor an update left; else the
            # chord, then a Newton step, with a fresh factorization
            sources = [(lent, None, None if graph.base.solve is None else 1.0)] if terms is None else chord + [(None, None, 1.0)]
            for take, bound, scale in sources:
                if take is None:
                    take, factor = self._factorize(self._linearize(terms, jac, pattern), pattern)
                    factorizations += 1
                delta = take(-g)
                pred = -0.5 * float(g @ delta)
                step = None
                # a finite pred, which a chord step's bound asks for, needs a finite delta
                if np.isfinite(delta).all() if bound is None else math.isfinite(pred) and pred <= bound:
                    step = self._line_search(X, err, delta, pattern)
                    done = scale is not None and _converges(pred, err, scale)
                    if step is not None:
                        break
            if step is not None:
                # the step's solve gives a chord step: in sparse mode while its
                # predicted decrease falls geometrically, in banded mode when
                # it would end the solve, and never with banded mode's first
                # factor, the furthest from H at the optimum
                keep = sparse or len(history) > 1
                bordered, solve = bordered or terms is None, take
                X, err, terms = step
                bound = _CHORD_RATE * pred if sparse else _RELATIVE_TOLERANCE * err
                g, chord = None, [(take, bound, _CHORD_STOP if sparse else 1.0)] if keep else []
                history.append(err)
            elif terms is None:
                # done is kept: a bordered step from a held solve, a Newton
                # step, that predicted convergence ends the pass again at X
                history, start = [], None
            elif np.isfinite(delta).all():
                solve, stuck = take, True
            else:
                raise GaugeError("normal equations produced a non-finite step")
        stop_reason = (
            "abs_tol" if err <= _ABSOLUTE_TOLERANCE else "decrement" if done else "no_descent" if stuck else "max_iterations"
        )
        if solve is None:
            # only a factorization shows that the normal equations are
            # regular, which a variable that no factor touches makes them not
            solve, factor = self._factorize(self._linearize(terms, _jacobians(terms), pattern), pattern)
            factorizations += 1
        iterations = len(history) - 1
        # every derived field, none inherited: factor is a full
        # factorization's only, and for marginals the solve of a
        # factorization only if no step moved the estimate since, else the
        # estimate's residual terms
        terms, solve = (None, solve) if iterations == 0 and not bordered else (terms, None)
        self._graph = _Graph(X, (), len(X), *graph[3:7], pattern=pattern, err=err, factor=factor, terms=terms, solve=solve)
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
            solve, factor = self._factorize(self._linearize(terms, _jacobians(terms), pattern), pattern)
            self._graph = g = g._replace(terms=None, solve=solve, factor=factor)
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
        self._graph = self._graph._replace(columns=(key, sol))
        return (math.sqrt(var[0]), math.sqrt(var[1]), math.sqrt(var[2]))
