"""Reference copy of the vector ladder-window solver with binary search.

This is ``simkit.LevelKernel.solve`` as it stood before table lookups
replaced ``np.searchsorted``: every window and nearest-rung search is a
binary search over the sorted float ladder of the side ``q`` falls on, and
the fold is computed per observation.  ``test_level_kernel_ranks.py``
requires the package's kernel to return identical fold arrays.  Ladders and
levels come from the package's ``level_context``, whose data the rewrites
did not touch, and their sorted rungs from ``ladder_reference``; the
rung-to-fold inverses are computed here.
"""

from __future__ import annotations

import numpy as np

import ladder_reference as ladders
from robustrns.two_mod import level_context


def _pick_window(elems: np.ndarray, target: np.ndarray, half: float, left_open: bool) -> np.ndarray:
    n = len(elems)
    if left_open:
        i = np.searchsorted(elems, target - half, side="right")
        cand = elems[np.minimum(i, n - 1)]
        ok = (i < n) & (cand <= target + half)
    else:
        i = np.searchsorted(elems, target - half, side="left")
        cand = elems[np.minimum(i, n - 1)]
        ok = (i < n) & (cand < target + half)
    k = np.searchsorted(elems, target)
    lo = elems[np.maximum(k - 1, 0)]
    hi = elems[np.minimum(k, n - 1)]
    near = np.where(target - lo <= hi - target, lo, hi)
    return np.where(ok, cand, near)


def _inverses(system):
    """``(inv12, inv21)``: the inverses of gamma1 modulo gamma2 and of gamma2 modulo gamma1."""
    return pow(system.gamma1, -1, system.gamma2), pow(system.gamma2, -1, system.gamma1)


def level_solve(system, level: int, r1t: np.ndarray, r2t: np.ndarray):
    ctx = level_context(system, level)
    m, m1, m2 = float(system.m), float(system.m1), float(system.m2)
    half = ctx.sigma / 2.0
    s1 = np.asarray(ladders.rungs(ctx.s1), dtype=np.float64)
    s2 = np.asarray(ladders.rungs(ctx.s2), dtype=np.float64)
    inv12, inv21 = _inverses(system)
    q = (r1t - r2t) / m
    n1 = np.zeros(q.shape, dtype=np.int64)
    n2 = np.zeros(q.shape, dtype=np.int64)
    hi = q >= half
    if hi.any():
        s = _pick_window(s2, q[hi], half, left_open=True)
        nn2 = (s.astype(np.int64) * inv21) % system.gamma1
        nn1 = np.floor((nn2 * m2 + r2t[hi] - r1t[hi]) / m1 + 0.5)
        n2[hi] = nn2
        n1[hi] = nn1.astype(np.int64)
    lo = q < -half
    if lo.any():
        s = _pick_window(s1, -q[lo], half, left_open=False)
        nn1 = (s.astype(np.int64) * inv12) % system.gamma2
        nn2 = np.floor((nn1 * m1 + r1t[lo] - r2t[lo]) / m2 + 0.5)
        n1[lo] = nn1
        n2[lo] = nn2.astype(np.int64)
    return n1, n2


def window_folds(system, level: int, q: np.ndarray):
    """Both folds of the rung ``level_solve`` picks for ``q = (r1 - r2) / m``,
    each from the exact rung relation ``n1 * gamma1 - n2 * gamma2 = -q_rung``
    instead of the rounding ``level_solve`` applies to its companion fold."""
    ctx = level_context(system, level)
    g1, g2 = system.gamma1, system.gamma2
    inv12, inv21 = _inverses(system)
    half = ctx.sigma / 2.0
    n1 = np.zeros(q.shape, dtype=np.int64)
    n2 = np.zeros(q.shape, dtype=np.int64)
    hi = q >= half
    s = _pick_window(np.asarray(ladders.rungs(ctx.s2), dtype=np.float64), q[hi], half, left_open=True)
    s = s.astype(np.int64)
    n2[hi] = s * inv21 % g1
    n1[hi] = (n2[hi] * g2 - s) // g1
    lo = q < -half
    s = _pick_window(np.asarray(ladders.rungs(ctx.s1), dtype=np.float64), -q[lo], half, left_open=False)
    s = s.astype(np.int64)
    n1[lo] = s * inv12 % g2
    n2[lo] = (n1[lo] * g1 - s) // g2
    return n1, n2
