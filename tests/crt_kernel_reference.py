"""Reference copies of the group and general kernels with ``%``.

These are ``simkit.GroupKernel.solve`` and ``simkit.GeneralKernel.solve`` as
they stood before the kernels took their remainders by floor division and
shared one Garner step loop: every remainder is an int64 ``%``, inconsistent
folds are zeroed by ``np.where``, and the group stage runs its own step
table (``group_steps``, copied here since the package dropped it).
``test_crt_kernels.py`` requires the package's kernels to return identical
arrays.  The general step table comes from the package's
``_general_steps``, whose data the rewrite did not touch.
"""

from __future__ import annotations

import math

import numpy as np

from robustrns.modmath import mod_inverse
from robustrns.multi_mod import _general_steps


def group_steps(cofactors):
    """Garner steps ``(g_k, inv_g1, inv_q, q)`` of ``h1 * g_1 = xi_k (mod g_k)``;
    a cofactor of 1 imposes nothing and has step None."""
    g1 = cofactors[0]
    steps = []
    q = 1
    for gk in cofactors[1:]:
        if gk == 1:
            steps.append(None)
            continue
        steps.append((gk, mod_inverse(g1, gk), mod_inverse(q, gk), q))
        q *= gk
    return tuple(steps)


def group_solve(group, rts):
    m = float(group.gcd)
    moduli = [float(mk) for mk in group.moduli]
    g1 = group.cofactors[0]
    xis = [np.floor((rts[k] - rts[0]) / m + 0.5).astype(np.int64)
           for k in range(1, len(rts))]
    h1 = np.zeros(rts[0].shape, dtype=np.int64)
    for xi, step in zip(xis, group_steps(group.cofactors)):
        if step is None:
            continue
        gk, inv_g1, inv_q, q = step
        a = (xi * inv_g1) % gk
        t = ((a - h1) * inv_q) % gk
        h1 = h1 + q * t
    folds = [h1]
    for xi, gk in zip(xis, group.cofactors[1:]):
        folds.append((h1 * g1 - xi) // gk)
    total = sum(f * mk + rt for f, mk, rt in zip(folds, moduli, rts))
    estimate = np.floor(total / len(rts) + 0.5)
    return folds, estimate


def general_solve(moduli, rts):
    ms = tuple(moduli)
    fmoduli = [float(mk) for mk in ms]
    m = math.gcd(*ms)
    gammas = tuple(mk // m for mk in ms)
    steps = _general_steps(gammas)
    can_fail = any(g > 1 or gq > 1 for g, _, _, gq, *_ in steps)
    xis = [np.floor((rts[k] - rts[0]) / float(m) + 0.5).astype(np.int64)
           for k in range(1, len(rts))]
    shape = rts[0].shape
    n1 = np.zeros(shape, dtype=np.int64)
    consistent = np.ones(shape, dtype=bool)
    for xi, (g, qk, inv1, gq, step, inv_q, q) in zip(xis, steps):
        if g > 1:
            consistent &= (xi % g) == 0
            xi = xi // g
        if qk == 1:
            continue
        diff = (xi * inv1) % qk - n1
        if gq > 1:
            consistent &= (diff % gq) == 0
            diff = diff // gq
        if step > 1:
            n1 = n1 + q * ((diff * inv_q) % step)
    folds = [n1, *((n1 * gammas[0] - xi) // gk for xi, gk in zip(xis, gammas[1:]))]
    if can_fail:
        folds = [np.where(consistent, f, 0) for f in folds]
    total = sum(f * mk + rt for f, mk, rt in zip(folds, fmoduli, rts))
    estimate = np.floor(total / len(rts) + 0.5)
    return folds, estimate, consistent

