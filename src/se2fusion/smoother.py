"""Incremental SE(2) pose-graph smoother.

update() runs damped Gauss-Newton on the full graph, warm-started from the
current estimate, so after every update the result matches a from-scratch
batch solve of the same factors. Linearization is vectorized over factors,
with the Jacobian kernels of factors.py. Every factor Jacobian has a
scaled-rotation translation block, so each normal-equation entry is a short
closed form on per-factor arrays. The whitened normal equations are solved
with a banded Cholesky when every between factor joins nearby keys (the
streaming chain case), falling back to a sparse symmetric-mode LU for
general graphs.

The index pattern that scatters those entries into H and g is a function
of the factor keys, built in one pass whenever a variable or factor is
added. H is block-sparse, one dense 3x3 block per pair of keys that share a
factor, so sparse mode sorts one key per block, not one per entry, and
places every entry in closed form from its block's slot.

SuperLU runs with relax=1 and panel_size=1: at pose-graph sizes, a few
hundred to a few thousand unknowns, supernode relaxation and wide panels
cost more than they save. On a 900-unknown loop graph that cut the
factorization to 0.55x its time with the defaults, with the same fill.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import ValidationError
from .factors import BetweenFactor, Factor, MeasurementFactor, PriorFactor, _half_cot, _v_chain_from, _v_dlog
from .geometry import Pose2

_TWO_PI = 2.0 * np.pi

# Half-bandwidth above which the normal equations go to the sparse solver.
_BAND_LIMIT = 48

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
# keys) and of the from side, per solver mode.
_ENTRIES = {
    "banded": (_TO_ENTRIES, _FROM_ENTRIES),
    "sparse": (_mirrored(_TO_ENTRIES, _TO_MIRROR), _mirrored(_FROM_ENTRIES, _FROM_MIRROR)),
}
# The blocks each side fills in sparse mode, each as the code 2 r + c of the
# keys its rows and columns lie at (numbered as in the entries above), and
# the block of each entry, as an index into those codes.
_BLOCKS = [np.unique(2 * e[0] + e[2], return_inverse=True) for e in _ENTRIES["sparse"]]


class GaugeError(RuntimeError):
    """No factor pins an absolute pose, or the normal equations are singular or not finite."""


@dataclass(frozen=True)
class SmootherSettings:
    max_iterations: int = 100
    relative_tolerance: float = 1e-9
    absolute_tolerance: float = 1e-12
    max_step_halvings: int = 10

    def __post_init__(self) -> None:
        for name in ("max_iterations", "max_step_halvings"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ValidationError(f"{name} must be an integer >= 0, got {v!r}")
        for name in ("relative_tolerance", "absolute_tolerance"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one update() call."""

    iterations: int
    initial_error: float
    final_error: float
    converged: bool
    duration_ms: float
    error_history: tuple[float, ...] = ()


def _wrap(a: np.ndarray) -> np.ndarray:
    # maps onto (-pi, pi]; angles already there come back unchanged
    return a + _TWO_PI * np.floor((np.pi - a) / _TWO_PI)


def _v_coeffs(th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    small = np.abs(th) < 1e-6
    safe = np.where(small, 1.0, th)
    t2 = th * th
    h = np.sin(0.5 * th)
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(th) / safe)
    b = np.where(small, 0.5 * th - th * t2 / 24.0, 2.0 * h * h / safe)
    return a, b


def _v_exp(v: np.ndarray) -> np.ndarray:
    a, b = _v_coeffs(v[:, 2])
    out = np.empty_like(v)
    out[:, 0] = a * v[:, 0] - b * v[:, 1]
    out[:, 1] = b * v[:, 0] + a * v[:, 1]
    out[:, 2] = _wrap(v[:, 2])
    return out


def _v_log(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized log, and its coefficient A for _v_dlog to reuse."""
    half = 0.5 * p[:, 2]
    a = _half_cot(p[:, 2])
    out = np.empty_like(p)
    out[:, 0] = a * p[:, 0] + half * p[:, 1]
    out[:, 1] = a * p[:, 1] - half * p[:, 0]
    out[:, 2] = p[:, 2]
    return out, a


def _v_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c = np.cos(a[:, 2])
    s = np.sin(a[:, 2])
    dx = b[:, 0] - a[:, 0]
    dy = b[:, 1] - a[:, 1]
    out = np.empty_like(a)
    out[:, 0] = c * dx + s * dy
    out[:, 1] = -s * dx + c * dy
    out[:, 2] = _wrap(b[:, 2] - a[:, 2])
    return out


def _v_compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c = np.cos(a[:, 2])
    s = np.sin(a[:, 2])
    out = np.empty_like(a)
    out[:, 0] = a[:, 0] + c * b[:, 0] - s * b[:, 1]
    out[:, 1] = a[:, 1] + s * b[:, 0] + c * b[:, 1]
    out[:, 2] = _wrap(a[:, 2] + b[:, 2])
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


def _is_key(key, n: int) -> bool:
    """Whether key is an integer, not a bool, in [0, n)."""
    return isinstance(key, (int, np.integer)) and not isinstance(key, bool) and 0 <= key < n


class _Store:
    """Append-only array with amortized doubling.

    Appended rows wait in a list and are copied into the array in one go
    when it is next read, which keeps a single append cheap.
    """

    def __init__(self, width: int | None = None, dtype=np.float64):
        self.a = np.zeros((16,) if width is None else (16, width), dtype=dtype)
        self.n = 0
        self._tail: list = []

    def __len__(self) -> int:
        return self.n + len(self._tail)

    def append(self, row) -> None:
        self._tail.append(row)

    def truncate(self, n: int) -> None:
        """Keep the first n rows."""
        self.view()
        self.n = n

    def view(self) -> np.ndarray:
        if self._tail:
            tail, self._tail = self._tail, []
            need = self.n + len(tail)
            if need > len(self.a):
                cap = len(self.a)
                while cap < need:
                    cap *= 2
                grown = np.zeros((cap,) + self.a.shape[1:], dtype=self.a.dtype)
                grown[: self.n] = self.a[: self.n]
                self.a = grown
            self.a[self.n : need] = tail
            self.n = need
        return self.a[: self.n]


class Smoother:
    """Growing pose graph with per-call batch re-solve semantics."""

    def __init__(self, settings: SmootherSettings | None = None):
        self.settings = settings or SmootherSettings()
        self._n_solved = 0
        self._x = _Store(width=3)
        # the keys added without a value, which update() gives one
        self._pending: list[int] = []
        # each key's first between factor into it, as a row of the _bt stores
        self._first_between_to: dict[int, int] = {}
        # unary store holds priors and measurements together; the residual
        # and jacobian math is identical for both. *_info holds 1 / sigma^2.
        self._un_keys = _Store(dtype=np.intp)
        self._un_vals = _Store(width=3)
        self._un_info = _Store(width=3)
        self._bt_from = _Store(dtype=np.intp)
        self._bt_to = _Store(dtype=np.intp)
        self._bt_rel = _Store(width=3)
        self._bt_info = _Store(width=3)
        self._pattern_cache: dict | None = None
        # bumped by every change to the graph or the estimate
        self._version = 0
        # (version, residual terms, solve) at the estimate
        self._marginal_cache: tuple | None = None

    # ---- graph construction -------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._x)

    def add_variable(self, initial_guess: Pose2 | None = None) -> int:
        key = len(self._x)
        if initial_guess is not None:
            self._x.append(initial_guess.as_tuple())
        else:
            self._x.append((0.0, 0.0, 0.0))
            self._pending.append(key)
        self._version += 1
        return key

    def add_factor(self, factor: Factor) -> None:
        for key in factor.keys():
            if not _is_key(key, len(self._x)):
                raise KeyError(f"factor references unknown variable {key}")
        sx, sy, st = factor.noise.sigmas()
        info = (1.0 / (sx * sx), 1.0 / (sy * sy), 1.0 / (st * st))
        if isinstance(factor, (PriorFactor, MeasurementFactor)):
            value = factor.prior if isinstance(factor, PriorFactor) else factor.measured
            self._un_keys.append(factor.key)
            self._un_vals.append(value.as_tuple())
            self._un_info.append(info)
        elif isinstance(factor, BetweenFactor):
            f, t = factor.key_from, factor.key_to
            self._first_between_to.setdefault(t, len(self._bt_from))
            self._bt_from.append(f)
            self._bt_to.append(t)
            self._bt_rel.append(factor.relative.as_tuple())
            self._bt_info.append(info)
        else:
            raise TypeError(f"unsupported factor type {type(factor).__name__}")
        self._version += 1

    def checkpoint(self) -> tuple:
        """A mark of the graph and the estimate, for truncate() to return to."""
        sizes = (len(self._un_keys), len(self._bt_from))
        return sizes + (self._x.view().copy(), tuple(self._pending), self._n_solved)

    def truncate(self, mark: tuple) -> None:
        """Drop every variable and factor added since checkpoint() gave mark, and any estimate since.

        The stores only grow, so this shortens them and restores the estimate.
        """
        n_un, n_bt, x, pending, self._n_solved = mark
        self._x.truncate(len(x))
        self._x.view()[:] = x
        self._pending = list(pending)
        for store in (self._un_keys, self._un_vals, self._un_info):
            store.truncate(n_un)
        for store in (self._bt_from, self._bt_to, self._bt_rel, self._bt_info):
            store.truncate(n_bt)
        self._first_between_to = {k: row for k, row in self._first_between_to.items() if row < n_bt}
        self._pattern_cache = None
        self._marginal_cache = None
        self._version += 1

    # ---- estimates ----------------------------------------------------------

    def estimate(self) -> dict[int, Pose2]:
        if self._n_solved == 0:
            raise RuntimeError("estimate requested before the first update")
        return {k: self._pose_at(k) for k in range(self._n_solved)}

    def pose_estimate(self, key: int) -> Pose2:
        if self._n_solved == 0:
            raise RuntimeError("estimate requested before the first update")
        if not _is_key(key, self._n_solved):
            raise KeyError(f"variable {key} has no estimate yet")
        return self._pose_at(key)

    def _pose_at(self, key: int) -> Pose2:
        return Pose2(*self._x.view()[key].tolist())

    # ---- solving ------------------------------------------------------------

    def _activate_pending(self, X: np.ndarray) -> None:
        """Start values in X for the pending keys, in key order.

        A key follows its first between factor from a key with a value, else
        copies the previous key's value, else stays at the origin.
        """
        bt_from, bt_rel = self._bt_from.view(), self._bt_rel.view()
        waiting = set(self._pending)
        for key in self._pending:
            row = self._first_between_to.get(key)
            if row is not None and bt_from[row] not in waiting:
                base = Pose2(*X[bt_from[row]].tolist())
                X[key] = base.compose(Pose2(*bt_rel[row].tolist())).as_tuple()
            elif key > 0 and key - 1 not in waiting:
                X[key] = X[key - 1]
            waiting.discard(key)

    def _pattern(self) -> dict:
        """Solver mode and where each H and g entry of _linearize goes.

        A function of the key stores, built in one pass whenever their sizes
        change. _linearize emits the entries of the to side, then those of
        the from side, each entry-major: entry i of every factor, then entry
        i + 1. Banded mode places H entry (r, c) at (max, min) of the lower
        band, stored column after column. Sparse mode stores the full matrix
        in CSC form: the dense 3x3 blocks of the key pairs that share a
        factor, sorted by col << 32 | row key. Column 3b + j starts after the
        9 before[b] entries of the blocks left of block column b and holds
        3 per_col[b], so entry (i, j) of the block at slot s of that order
        lies at 6 before[b] + 3 s + 3 per_col[b] j + i.
        """
        dim = 3 * len(self._x)
        state = (len(self._un_keys), len(self._bt_from), dim)
        p = self._pattern_cache
        if p is not None and p["state"] == state:
            return p
        bt_from, bt_to = self._bt_from.view(), self._bt_to.view()
        max_span = int(np.abs(bt_to - bt_from).max(initial=0))
        u = min(3 * max_span + 2, max(dim - 1, 0))
        mode = "banded" if u <= _BAND_LIMIT else "sparse"
        # one row per factor: the key measured or the to key; the from and the to key
        keys = [np.concatenate([self._un_keys.view(), bt_to])[:, None], np.column_stack([bt_from, bt_to])]
        p = {"mode": mode, "u": u, "dim": dim, "state": state}
        if mode == "banded":
            cells = [(3 * k[:, e[0]] + e[1], 3 * k[:, e[2]] + e[3]) for e, k in zip(_ENTRIES[mode], keys)]
            places = [np.minimum(r, c) * u + np.maximum(r, c) for r, c in cells]
            p["h_size"] = dim * (u + 1)
        else:
            blocks = [(k[:, c % 2] << 32) | k[:, c // 2] for (c, _), k in zip(_BLOCKS, keys)]
            csc, slot = np.unique(np.concatenate([b.ravel() for b in blocks]), return_inverse=True)
            col = csc >> 32
            per_col = np.bincount(col, minlength=len(self._x))
            before = np.cumsum(per_col) - per_col
            # the place of entry (i, j) of the block at slot s, at 9 s + 3 i + j
            at = ((6 * before[col] + 3 * np.arange(len(csc)))[:, None] + 3 * per_col[col, None] * _CJ + _CI).ravel()
            splits = zip(_BLOCKS, _ENTRIES[mode], blocks, np.split(slot, [blocks[0].size]))
            places = [at[9 * s.reshape(b.shape)[:, which] + (3 * e[1] + e[3])] for (_, which), e, b, s in splits]
            indices = np.empty(9 * len(csc), np.int32)
            indices[at] = (3 * (csc[:, None] & 0xFFFFFFFF) + _CI).ravel()
            p.update(
                # 32-bit indices spare scipy a scan to downcast them
                indices=indices,
                indptr=np.append(9 * before[:, None] + 3 * per_col[:, None] * _G3, 9 * len(csc)).astype(np.int32),
                h_size=9 * len(csc),
            )
        p["h_idx"] = np.concatenate([h.T.ravel() for h in places])
        # g: the rows of the block of the key measured or the to key, then of the from key
        p["g_rows"] = np.concatenate([(3 * k[:, :1] + _G3).T.ravel() for k in keys])
        self._pattern_cache = p
        return p

    def _evaluate(self, X: np.ndarray):
        """Total error at X and the per-factor terms the linearization reuses.

        The terms are (z, r, A, info) of every factor, the unary ones first,
        then the between factors' relative pose X_from^-1 X_to. z is the
        factor's pose error, r = log(z), A its _half_cot and info 1 / sigma^2.
        """
        z_un = _v_between(self._un_vals.view(), X[self._un_keys.view()])
        actual = _v_between(X[self._bt_from.view()], X[self._bt_to.view()])
        z = np.concatenate([z_un, _v_between(self._bt_rel.view(), actual)])
        r, a = _v_log(z)
        info = np.concatenate([self._un_info.view(), self._bt_info.view()])
        return 0.5 * float(np.vdot(r * r, info)), (z, r, a, info, actual)

    def _linearize(self, terms, pattern: dict):
        """Whitened normal equations (system, g) at the point terms came from.

        system holds the lower band of H in banded mode and is a CSC matrix in
        sparse mode. Raises GaugeError when an entry is not finite, so that
        neither LAPACK nor SuperLU sees one.
        """
        z, r, a, info, actual = terms
        # J_to of a between factor, like J of a unary one, is dlog of z
        j = _v_dlog(z, a)
        v = info * r
        s = len(z) - len(actual)
        jt = tuple(x[s:] for x in j)
        jf = _v_chain_from(jt, actual)
        to = _info_sym(info, j)
        # J_from = -jf: negating info or v negates the product
        fr = _info_sym(info[s:], jf) + _info_block(-info[s:], jf, jt)
        if pattern["mode"] == "sparse":
            to += [to[i] for i in _TO_MIRROR]
            fr += [fr[i] for i in _FROM_MIRROR]
        vals = np.concatenate(to + fr)
        dim = pattern["dim"]
        h = np.bincount(pattern["h_idx"], weights=vals, minlength=pattern["h_size"])
        g = np.bincount(
            pattern["g_rows"], weights=np.concatenate(_jt_times(j, v) + _jt_times(jf, -v[s:])), minlength=dim
        )
        if not (np.isfinite(h).all() and np.isfinite(g).all()):
            raise GaugeError("normal equations are not finite")
        if pattern["mode"] == "banded":
            return h.reshape(dim, pattern["u"] + 1).T, g
        return scipy.sparse.csc_matrix((h, pattern["indices"], pattern["indptr"]), shape=(dim, dim)), g

    @staticmethod
    def _factorize(system, pattern: dict):
        """The solve of system: a function from a right-hand side to the solution."""
        if pattern["mode"] == "banded":
            try:
                # system is a fresh array that no caller reads again
                cb = scipy.linalg.cholesky_banded(system, overwrite_ab=True, lower=True, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise GaugeError(f"normal equations are not positive definite: {exc}") from None
            # the factor is finite, and so is rhs whenever the system was
            return lambda rhs: scipy.linalg.cho_solve_banded((cb, True), rhs, check_finite=False)
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
        return lu.solve

    # overflow shows up as a non-finite error or system, which raise GaugeError
    @np.errstate(all="ignore")
    def update(self) -> SolveReport:
        """Solve the whole graph from the current estimate; on any error, change nothing."""
        t0 = time.perf_counter()
        if len(self._x) == 0:
            raise GaugeError("cannot update an empty graph")
        if len(self._un_keys) == 0:
            raise GaugeError("graph has no prior or measurement factor to fix the gauge")
        cfg = self.settings
        pattern = self._pattern()
        X = self._x.view().copy()
        self._activate_pending(X)
        err, terms = self._evaluate(X)
        if not math.isfinite(err):
            raise GaugeError(f"factor error at the start point is not finite: {err}")
        history = [err]
        iterations = 0
        solve = None
        converged = err <= cfg.absolute_tolerance
        if not converged:
            for _ in range(cfg.max_iterations):
                system, g = self._linearize(terms, pattern)
                solve = self._factorize(system, pattern)
                delta = solve(-g)
                if not np.all(np.isfinite(delta)):
                    raise GaugeError("normal equations produced a non-finite step")
                alpha = 1.0
                for _ in range(cfg.max_step_halvings + 1):
                    trial = _v_compose(X, _v_exp(alpha * delta.reshape(-1, 3)))
                    trial_err, trial_terms = self._evaluate(trial)
                    if trial_err <= err:
                        break
                    alpha *= 0.5
                else:
                    # err is above absolute_tolerance here, or the loop would have ended
                    converged = bool(np.max(np.abs(delta)) < 1e-10)
                    break
                X, terms = trial, trial_terms
                iterations += 1
                decrease = err - trial_err
                prev = err
                err = trial_err
                history.append(err)
                if err <= cfg.absolute_tolerance or decrease <= cfg.relative_tolerance * max(prev, 1e-300):
                    converged = True
                    break
        if solve is None:
            # only a factorization shows that the normal equations are
            # regular, which a variable that no factor touches makes them not
            solve = self._factorize(self._linearize(terms, pattern)[0], pattern)
        self._x.view()[:] = X
        self._pending.clear()
        self._n_solved = len(X)
        self._version += 1
        # for marginals: the solve if no step moved the estimate since it
        # was factorized, else the estimate's residual terms
        at_estimate = (None, solve) if iterations == 0 else (terms, None)
        self._marginal_cache = (self._version,) + at_estimate
        return SolveReport(
            iterations=iterations,
            initial_error=history[0],
            final_error=err,
            converged=converged,
            duration_ms=(time.perf_counter() - t0) * 1e3,
            error_history=tuple(history),
        )

    # ---- marginals ----------------------------------------------------------

    @np.errstate(all="ignore")
    def _marginal_solve(self):
        """The solve of H at the estimate, cached per version.

        After update() the cache holds the estimate's residual terms, which
        the first marginal read factorizes in place of evaluating them again,
        or, when no step moved the estimate, update()'s solve itself. Any
        change to the graph or the estimate bumps the version and drops both.
        """
        cache = self._marginal_cache
        if cache is None or cache[0] != self._version:
            cache = (self._version, None, None)
        if cache[2] is None:
            pattern = self._pattern()
            terms = cache[1] if cache[1] is not None else self._evaluate(self._x.view())[1]
            system, _ = self._linearize(terms, pattern)
            cache = (self._version, None, self._factorize(system, pattern))
            self._marginal_cache = cache
        return cache[2]

    def marginal_sigma(self, key: int) -> tuple[float, float, float]:
        """Sigmas of the tangent-space marginal at the current estimate."""
        if self._n_solved == 0:
            raise RuntimeError("marginals requested before the first update")
        if not _is_key(key, self._n_solved):
            raise KeyError(f"variable {key} has no estimate yet")
        if len(self._x) != self._n_solved:
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
