"""Incremental SE(2) pose-graph smoother.

update() runs damped Gauss-Newton on the full graph, warm-started from the
current estimate, so after every update the result matches a from-scratch
batch solve of the same factors. Linearization is vectorized over factors;
every factor Jacobian has a scaled-rotation translation block, so each
normal-equation entry is a short closed form on per-factor arrays. The
whitened normal equations are solved with a banded Cholesky when
every between factor joins nearby keys (the streaming chain case), falling
back to a sparse symmetric-mode LU for general graphs.

The index pattern that scatters those entries into H and g is append-only.
The factor stores only grow, so an update places the entries of the new
factors and leaves every placed one where it is; only a mode flip or a
wider band rebuilds it. In sparse mode the new CSC keys are merged into the
sorted ones instead of sorting all of them again, which took 10% of a run
on loop-closure graphs. SuperLU runs with relax=1 and panel_size=1: at
pose-graph sizes, a few hundred to a few thousand unknowns, supernode
relaxation and wide panels cost more than they save. On a 900-unknown loop
graph that cut the factorization to 0.55x its time with the defaults, with
the same fill.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .factors import BetweenFactor, Factor, FactorGraph, MeasurementFactor, PriorFactor
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


# The entries of unary factors, the between factors' to keys and their from
# keys, per solver mode.
_ENTRIES = {
    "banded": (_TO_ENTRIES, _TO_ENTRIES, _FROM_ENTRIES),
    "sparse": (_mirrored(_TO_ENTRIES, _TO_MIRROR),) * 2 + (_mirrored(_FROM_ENTRIES, _FROM_MIRROR),),
}


class GaugeError(RuntimeError):
    """No factor pins an absolute pose, or the normal equations are singular or not finite."""


@dataclass(frozen=True)
class SmootherSettings:
    max_iterations: int = 100
    relative_tolerance: float = 1e-9
    absolute_tolerance: float = 1e-12
    max_step_halvings: int = 10


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


def _half_cot(th: np.ndarray) -> np.ndarray:
    """A = (th/2) cot(th/2); log's translation is [[A, th/2], [-th/2, A]] t."""
    small = np.abs(th) < 1e-4
    safe = np.where(small, 1.0, 0.5 * th)
    return np.where(small, 1.0 - th * th / 12.0, safe / np.tan(safe))


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


def _cells(entries: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the H entries, one row per factor.

    keys holds a factor's own key, or its from and to keys, in each row.
    """
    k = 3 * keys
    return k[:, entries[0]] + entries[1], k[:, entries[2]] + entries[3]


def _entry_major(stores) -> np.ndarray:
    """The unary, to-key and from-key index stores, flat in _linearize's order.

    That order is entry-major: entry i of every factor's to key (unary
    factors first), then entry i + 1, and so on; then the same for the from
    keys.
    """
    un, to, fr = (store.view() for store in stores)
    m_to = len(un) + len(to)
    idx = np.empty(un.shape[1] * m_to + fr.size, np.intp)
    head = idx[: un.shape[1] * m_to].reshape(un.shape[1], m_to)
    head[:, : len(un)] = un.T
    head[:, len(un) :] = to.T
    idx[un.shape[1] * m_to :].reshape(fr.shape[1], len(fr))[:] = fr.T
    return idx


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

    def extend(self, rows: np.ndarray) -> None:
        self.view()
        self._put(rows)

    def view(self) -> np.ndarray:
        if self._tail:
            tail, self._tail = self._tail, []
            self._put(tail)
        return self.a[: self.n]

    def _put(self, rows) -> None:
        need = self.n + len(rows)
        if need > len(self.a):
            cap = len(self.a)
            while cap < need:
                cap *= 2
            grown = np.zeros((cap,) + self.a.shape[1:], dtype=self.a.dtype)
            grown[: self.n] = self.a[: self.n]
            self.a = grown
        self.a[self.n : need] = rows
        self.n = need


class Smoother:
    """Growing pose graph with per-call batch re-solve semantics."""

    def __init__(self, settings: SmootherSettings | None = None):
        self.settings = settings or SmootherSettings()
        self._n = 0
        self._n_solved = 0
        self._updated = False
        self._x = _Store(width=3)
        self._valued: list[bool] = []
        self._pending: list[int] = []
        self._factors: list[Factor] = []
        self._first_between_to: dict[int, tuple[int, Pose2]] = {}
        self._max_span = 0
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
        self._estimate_version = 0
        # (graph state, residual terms, (mode, factorization, dim)) at the estimate
        self._marginal_cache: tuple | None = None

    # ---- graph construction -------------------------------------------------

    @property
    def num_variables(self) -> int:
        return self._n

    def add_variable(self, initial_guess: Pose2 | None = None) -> int:
        key = self._n
        self._n += 1
        if initial_guess is not None:
            self._x.append(initial_guess.as_tuple())
            self._valued.append(True)
        else:
            self._x.append((0.0, 0.0, 0.0))
            self._valued.append(False)
            self._pending.append(key)
        return key

    def add_factor(self, factor: Factor) -> None:
        for key in factor.keys():
            if not 0 <= key < self._n:
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
            self._bt_from.append(f)
            self._bt_to.append(t)
            self._bt_rel.append(factor.relative.as_tuple())
            self._bt_info.append(info)
            self._max_span = max(self._max_span, abs(t - f))
            self._first_between_to.setdefault(t, (f, factor.relative))
        else:
            raise TypeError(f"unsupported factor type {type(factor).__name__}")
        self._factors.append(factor)

    def graph(self) -> FactorGraph:
        """Snapshot of the accumulated factors."""
        return FactorGraph(num_variables=self._n, factors=list(self._factors))

    # ---- estimates ----------------------------------------------------------

    def estimate(self) -> dict[int, Pose2]:
        if not self._updated:
            raise RuntimeError("estimate requested before the first update")
        return {k: self._pose_at(k) for k in range(self._n_solved)}

    def pose_estimate(self, key: int) -> Pose2:
        if not self._updated:
            raise RuntimeError("estimate requested before the first update")
        if not 0 <= key < self._n_solved:
            raise KeyError(f"variable {key} has no estimate yet")
        return self._pose_at(key)

    def _pose_at(self, key: int) -> Pose2:
        return Pose2(*self._x.view()[key].tolist())

    # ---- solving ------------------------------------------------------------

    def _activate_pending(self) -> None:
        x = self._x.view()
        for key in self._pending:
            edge = self._first_between_to.get(key)
            if edge is not None and self._valued[edge[0]]:
                base = self._pose_at(edge[0])
                x[key] = base.compose(edge[1]).as_tuple()
            elif key > 0 and self._valued[key - 1]:
                x[key] = x[key - 1]
            else:
                x[key] = 0.0
            self._valued[key] = True
        self._pending.clear()

    def _pattern(self) -> dict:
        """Solver mode and where each H and g entry of _linearize goes.

        Index stores hold one row per factor: three for the places of the
        H entries of unary factors, the between factors' to keys and their
        from keys, and three for the rows of g they add to. The factor stores
        only grow, so each call appends the rows of the factors added since
        the previous one, and no placed row moves. Banded mode places H entries in the lower
        band, which does not depend on dim. Sparse mode places them at slots
        of the sorted keys col << 32 | row of the full matrix: new keys are
        merged in, and the stored slots are shifted only when one lands
        before the end. A change of mode, or of the half-bandwidth in banded
        mode, starts the stores afresh.
        """
        dim = 3 * self._n
        state = (len(self._un_keys), len(self._bt_from), dim)
        p = self._pattern_cache
        if p is not None and p["state"] == state:
            return p
        u = min(3 * self._max_span + 2, max(dim - 1, 0))
        mode = "banded" if u <= _BAND_LIMIT else "sparse"
        if p is None or p["mode"] != mode or (mode == "banded" and p["u"] != u):
            p = {
                "mode": mode,
                "u": u,
                "stores": [_Store(e.shape[1], np.intp) for e in _ENTRIES[mode]],
                "g_stores": [_Store(3, np.intp) for _ in range(3)],
                "csc": np.empty(0, np.int64),
            }
        stores = p["stores"]
        n_bt = len(stores[1])
        keys = [
            self._un_keys.view()[len(stores[0]) :, None],
            self._bt_to.view()[n_bt:, None],
            np.column_stack([self._bt_from.view()[n_bt:], self._bt_to.view()[n_bt:]]),
        ]
        cells = [_cells(e, k) for e, k in zip(_ENTRIES[mode], keys)]
        if mode == "banded":
            # entry (r, c) goes to (max, min) of the lower band, which is
            # stored column after column
            places = [np.minimum(r, c) * u + np.maximum(r, c) for r, c in cells]
        else:
            places = [(c << 32) | r for r, c in cells]
            csc = p["csc"]
            cand = np.unique(np.concatenate([k.ravel() for k in places]))
            pos = np.searchsorted(csc, cand)
            fresh = np.searchsorted(csc, cand, side="right") == pos
            ins = pos[fresh]
            if len(ins) and ins[0] < len(csc):
                # a slot at or after ins[0] moves up by the number of keys
                # inserted at or before it
                lo = ins[0]
                shift = np.cumsum(np.bincount(ins - lo, minlength=len(csc) - lo))[: len(csc) - lo]
                for store in stores:
                    h = store.view()
                    tail = h >= lo
                    h[tail] += shift[h[tail] - lo]
            csc = np.insert(csc, ins, cand[fresh])
            places = [np.searchsorted(csc, k) for k in places]
            p.update(
                csc=csc,
                # 32-bit indices spare scipy a scan to downcast them
                indices=(csc & 0xFFFFFFFF).astype(np.int32),
                indptr=np.searchsorted(csc, np.arange(dim + 1, dtype=np.int64) << 32).astype(np.int32),
            )
        for store, g_store, h, k in zip(stores, p["g_stores"], places, keys):
            store.extend(h)
            # g: the rows of the block of the key measured or the from key
            g_store.extend(3 * k[:, :1] + _G3)
        p["h_idx"] = _entry_major(stores)
        p["g_rows"] = _entry_major(p["g_stores"])
        p["h_size"] = dim * (u + 1) if mode == "banded" else len(p["csc"])
        p["state"] = state
        p["dim"] = dim
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
        if pattern["mode"] == "banded":
            try:
                # system is a fresh array that no caller reads again
                cb = scipy.linalg.cholesky_banded(system, overwrite_ab=True, lower=True, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise GaugeError(f"normal equations are not positive definite: {exc}") from None
            return "banded", cb
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
        return "sparse", lu

    @staticmethod
    def _solve(mode: str, fact, rhs: np.ndarray) -> np.ndarray:
        if mode == "banded":
            # the factor is finite, and so is rhs whenever the system was
            return scipy.linalg.cho_solve_banded((fact, True), rhs, check_finite=False)
        return fact.solve(rhs)

    def _graph_state(self) -> tuple[int, int, int, int]:
        return (self._estimate_version, len(self._un_keys), len(self._bt_from), self._n)

    # overflow shows up as a non-finite error or system, which raise GaugeError
    @np.errstate(all="ignore")
    def update(self) -> SolveReport:
        t0 = time.perf_counter()
        self._activate_pending()
        if self._n == 0:
            raise GaugeError("cannot update an empty graph")
        if len(self._un_keys) == 0:
            raise GaugeError("graph has no prior or measurement factor to fix the gauge")
        cfg = self.settings
        pattern = self._pattern()
        X = self._x.view().copy()
        err, terms = self._evaluate(X)
        if not math.isfinite(err):
            raise GaugeError(f"factor error at the start point is not finite: {err}")
        history = [err]
        iterations = 0
        converged = err <= cfg.absolute_tolerance
        if not converged:
            for _ in range(cfg.max_iterations):
                system, g = self._linearize(terms, pattern)
                mode, fact = self._factorize(system, pattern)
                delta = self._solve(mode, fact, -g)
                if not np.all(np.isfinite(delta)):
                    raise GaugeError("normal equations produced a non-finite step")
                alpha = 1.0
                accepted = False
                for _ in range(cfg.max_step_halvings + 1):
                    trial = _v_compose(X, _v_exp(alpha * delta.reshape(-1, 3)))
                    trial_err, trial_terms = self._evaluate(trial)
                    if trial_err <= err:
                        accepted = True
                        break
                    alpha *= 0.5
                if not accepted:
                    converged = bool(np.max(np.abs(delta)) < 1e-10) or err <= cfg.absolute_tolerance
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
        self._x.view()[:] = X
        self._n_solved = self._n
        self._updated = True
        self._estimate_version += 1
        # the residual terms of the estimate, for marginals to linearize at
        self._marginal_cache = (self._graph_state(), terms, None)
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
    def _marginal_factorization(self):
        """(mode, factorization, dim) of H at the estimate, cached per graph state.

        After update() the cache holds the estimate's residual terms, which
        the first marginal read factorizes in place of evaluating them again.
        An added factor or variable, or a new estimate, changes the state and
        drops both.
        """
        state = self._graph_state()
        cache = self._marginal_cache
        if cache is None or cache[0] != state:
            cache = (state, None, None)
        if cache[2] is None:
            pattern = self._pattern()
            terms = cache[1] if cache[1] is not None else self._evaluate(self._x.view())[1]
            system, _ = self._linearize(terms, pattern)
            cache = (state, None, self._factorize(system, pattern) + (pattern["dim"],))
            self._marginal_cache = cache
        return cache[2]

    def marginal_sigma(self, key: int) -> tuple[float, float, float]:
        """Sigmas of the tangent-space marginal at the current estimate."""
        if not self._updated:
            raise RuntimeError("marginals requested before the first update")
        if not 0 <= key < self._n_solved:
            raise KeyError(f"variable {key} has no estimate yet")
        if self._n != self._n_solved or self._pending:
            raise RuntimeError("marginals requested with pending variables; call update() first")
        mode, fact, dim = self._marginal_factorization()
        rhs = np.zeros((dim, 3))
        rhs[3 * key, 0] = 1.0
        rhs[3 * key + 1, 1] = 1.0
        rhs[3 * key + 2, 2] = 1.0
        sol = self._solve(mode, fact, rhs)
        var = np.array([sol[3 * key + i, i] for i in range(3)])
        if not np.all(np.isfinite(var)) or np.any(var <= 0.0):
            raise GaugeError("marginal covariance is not positive definite")
        return (math.sqrt(var[0]), math.sqrt(var[1]), math.sqrt(var[2]))
