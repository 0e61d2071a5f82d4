"""Index patterns of the normal equations: where each H and g entry that the smoother emits goes.

A pattern is a function of the factor keys and the number of variables,
built in one pass (build) unless it is a leaf frame's (see _leaf_base).
_linearize emits the entries of the to side, then those of the from side,
each entry-major: entry i of every factor, then entry i + 1. Banded mode
places H entry (r, c) at (max, min) of the lower band, stored column after
column. Sparse mode stores the full matrix in CSC form with its keys in the
elimination order order, whose rows and columns dof lists: the dense 3x3
blocks of the key pairs that share a factor, sorted by col << 32 | row,
each the key's place in order. Column 3b + j starts after the 9 before[b]
entries of the blocks left of block column b and holds 3 per_col[b], so
entry (i, j) of the block at slot s of that order lies at
6 before[b] + 3 s + 3 per_col[b] j + i. held tells that order comes from
the base, for SuperLU to keep, rather than key order, for SuperLU to order.

The CSC pattern is built in a key elimination order. A leaf frame, whose
only between factor is odometry from the pose before, keeps its base's order
with the new key first, which adds no fill, so SuperLU runs without an
ordering; its pattern is the base's with the new key's columns put in front.
Any other frame rebuilds the pattern in key order, lets SuperLU's minimum
degree ordering choose, and holds the order it chose for the leaf frames
after it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .smoother import _Graph

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
# keys) and of the from side in sparse mode.
_SPARSE_ENTRIES = (_mirrored(_TO_ENTRIES, _TO_MIRROR), _mirrored(_FROM_ENTRIES, _FROM_MIRROR))
# The blocks each side fills in sparse mode, each as the code 2 r + c of the
# keys its rows and columns lie at (numbered as in the entries above), and
# the block of each entry, as an index into those codes.
_BLOCKS = [np.unique(2 * e[0] + e[2], return_inverse=True) for e in _SPARSE_ENTRIES]
# A leaf frame's pattern (see _extended_csc), whose new key comes first.
# Each of the new key's columns holds 6 rows, its own 3, then the
# predecessor's, at ROWS plus the predecessor's first row times LOW. The
# entries of a factor on the new key alone lie in its diagonal block, at
# TO. Those of its odometry's from side lie at OFF, plus the old top of the
# predecessor's column COL where TOP marks one of those columns, plus the
# offset of the predecessor's diagonal block in them where DIAG marks it.
_LEAF_ROWS = np.tile(np.r_[_G3, _G3], 3).astype(np.int32)
_LEAF_LOW = np.tile(np.repeat([0, 1], 3), 3).astype(np.int32)
_LEAF_PTR = np.array([0, 6, 12], np.int32)
_LEAF_TO = 6 * _SPARSE_ENTRIES[0][3] + _SPARSE_ENTRIES[0][1]
_LEAF_COL = _SPARSE_ENTRIES[1][3]
_LEAF_TOP = _SPARSE_ENTRIES[1][2] == 0
_LEAF_DIAG = _LEAF_TOP & (_SPARSE_ENTRIES[1][0] == 0)
_LEAF_OFF = np.where(_LEAF_TOP, 18 + 3 * _LEAF_COL + 3 * _LEAF_DIAG, 6 * _LEAF_COL + 3) + _SPARSE_ENTRIES[1][1]
_G3_32 = _G3.astype(np.int32)


def _leaf_base(g: _Graph) -> _Graph | None:
    """g's base when g is a leaf frame of it and it holds an elimination order, else None.

    A leaf frame adds one pose, unary factors on it and one between factor,
    odometry from the pose before. A banded base's factor is a band.
    """
    base = g.base
    if base is None or base.factor is None or base.pattern["mode"] == "banded":
        return None
    n = len(base.x)
    if len(g.x) != n + 1 or len(g.bt) != len(base.bt) + 1 or g.bt_keys[0, -1] != n - 1 or g.bt_keys[1, -1] != n:
        return None
    return None if (g.un_keys[len(base.un_keys) :] != n).any() else base


def _csc(side_keys: tuple, bt_keys: np.ndarray, order: np.ndarray) -> dict:
    """Sparse mode's CSC pattern of H with its keys in the elimination order order (see above)."""
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order))
    # one row per factor: the key measured or the to key; the from and the to key
    keys = [pos[side_keys[0]][:, None], pos[bt_keys].T]
    blocks = [(k[:, c % 2] << 32) | k[:, c // 2] for (c, _), k in zip(_BLOCKS, keys)]
    csc, slot = np.unique(np.concatenate([b.ravel() for b in blocks]), return_inverse=True)
    col = csc >> 32
    per_col = np.bincount(col, minlength=len(order))
    before = np.cumsum(per_col) - per_col
    # the place of entry (i, j) of the block at slot s, at 9 s + 3 i + j
    at = ((6 * before[col] + 3 * np.arange(len(csc)))[:, None] + 3 * per_col[col, None] * _CJ + _CI).ravel()
    splits = zip(_BLOCKS, _SPARSE_ENTRIES, blocks, np.split(slot, [blocks[0].size]))
    places = [at[9 * s.reshape(b.shape)[:, which] + (3 * e[1] + e[3])] for (_, which), e, b, s in splits]
    indices = np.empty(9 * len(csc), np.int32)
    indices[at] = (3 * (csc[:, None] & 0xFFFFFFFF) + _CI).ravel()
    return {
        "order": order,
        # 32-bit indices spare scipy a scan to downcast them
        "indices": indices,
        "indptr": np.append(9 * before[:, None] + 3 * per_col[:, None] * _G3, 9 * len(csc)).astype(np.int32),
        "h_size": 9 * len(csc),
        "h_idx": np.concatenate([h.T.ravel() for h in places]),
    }


def _extended_csc(bp: dict, nu: int, nb: int, m: int) -> dict:
    """_csc of a leaf frame in its base's order with the new key first, from the base's pattern bp.

    nu and nb count the base's unary and between factors, and m the new
    unary factors. The new key's column block goes in front: 6 entries per
    column, its diagonal block and the (predecessor, new key) block. Its
    (new key, predecessor) block goes on top of each of the predecessor's
    three columns. So every old entry moves by 18, plus 3 for each of those
    three insertion points at or before it, and every row index by 3.
    """
    order, indptr, indices = bp["order"], bp["indptr"], bp["indices"]
    n = len(order)
    c = 3 * int(np.flatnonzero(order == n - 1)[0])
    t0, t1, t2 = tops = indptr[c : c + 3].tolist()
    # the offset of the predecessor's diagonal block in its columns
    diag = int(np.searchsorted(indices[t0 : indptr[c + 1]], c))
    rows = indices + 3
    ptr = indptr + 18
    ptr[c + 1] += 3
    ptr[c + 2] += 6
    ptr[c + 3 :] += 9
    moved = np.repeat(np.array([18, 21, 24, 27]), [t0, t1 - t0, t2 - t1, len(indices) - t2])
    moved += np.arange(len(indices))
    old = moved.take(bp["h_idx"])
    # entry-major, as _csc lays it out: the unary factors, then the between
    # factors' to sides; then the between factors' from sides
    h_idx = np.empty(old.size + 9 * (m + 1) + 27, old.dtype)
    to = h_idx[: 9 * (nu + m + nb + 1)].reshape(9, -1)
    to_old = old[: 9 * (nu + nb)].reshape(9, -1)
    to[:, :nu] = to_old[:, :nu]
    to[:, nu : nu + m] = _LEAF_TO[:, None]
    to[:, nu + m : -1] = to_old[:, nu:]
    to[:, -1] = _LEAF_TO
    fr = h_idx[to.size :].reshape(27, -1)
    fr[:, :-1] = old[9 * (nu + nb) :].reshape(27, -1)
    fr[:, -1] = _LEAF_TOP * np.array(tops)[_LEAF_COL] + _LEAF_DIAG * diag + _LEAF_OFF
    return {
        "order": np.concatenate([[n], order]),
        "indices": np.concatenate(
            [_LEAF_ROWS + (c + 3) * _LEAF_LOW, rows[:t0], _G3_32, rows[t0:t1], _G3_32, rows[t1:t2], _G3_32, rows[t2:]]
        ),
        "indptr": np.concatenate([_LEAF_PTR, ptr]),
        "h_size": bp["h_size"] + 27,
        "h_idx": h_idx,
    }


def build(g: _Graph) -> dict:
    """Solver mode and where each H and g entry of _linearize goes, for the graph g (see above)."""
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
        base = _leaf_base(g)
        if base is None:
            p.update(_csc(side_keys, g.bt_keys, np.arange(len(g.x))), held=False)
        elif base.factor is base.pattern["order"]:
            m = len(g.un_keys) - len(base.un_keys)
            p.update(_extended_csc(base.pattern, len(base.un_keys), len(base.bt), m), held=True)
        else:
            p.update(_csc(side_keys, g.bt_keys, np.r_[len(base.x), base.factor]), held=True)
        p["dof"] = (3 * p["order"][:, None] + _G3).ravel()
    # g: the rows of the block of the key measured or the to key, then of the from key
    p["g_rows"] = np.concatenate([(3 * k + _G3[:, None]).ravel() for k in side_keys])
    # every factor's constant pose with its cosine and sine, and its info,
    # in the order of the terms _evaluate gives
    p["consts"] = (np.concatenate([g.un[:, :5], g.bt[:, :5]]), np.concatenate([g.un[:, 5:], g.bt[:, 5:]]))
    return p
