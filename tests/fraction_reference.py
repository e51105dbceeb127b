"""Reference copies of the scalar solvers in ``fractions.Fraction`` arithmetic.

These are the solvers as they stood before the exact paths moved to plain
integer arithmetic; every exact quantity goes through ``Fraction`` and every
comparison is made on rationals.  The property tests in
``test_integer_solvers.py`` require the package's solvers to return equal
results field by field.  Ladders and levels come from the package's
``level_context``, whose data the rewrite did not touch, and their sorted
rungs from ``ladder_reference``; the rung-to-fold inverses and the rounding
are computed here.  A ladder too deep to list (``LISTED_DEPTH_MAX``) picks
its rung by ``ladder_reference.SearchedLadder``, the old window search.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import ladder_reference as ladders
from robustrns.modmath import mod_inverse
from robustrns.multi_mod import CascadeSolution, GeneralCrtSolution
from robustrns.two_mod import FoldingSolution, RemainderObservation, level_context


def round_half_up(x):
    """``[x] = floor(x + 1/2)`` for an int, a float or a ``Fraction``."""
    return math.floor(x + 0.5) if isinstance(x, float) else math.floor(x + Fraction(1, 2))


def as_exact_ratio(num, den):
    """num/den as a Fraction when both are exact, else a float."""
    if isinstance(num, float) or isinstance(den, float):
        return num / den
    return Fraction(num, 1) / den


def _q21(system, obs):
    return as_exact_ratio(obs.r1 - obs.r2, system.m)


def _solution(system, obs, n1, n2) -> FoldingSolution:
    mean = as_exact_ratio((n1 * system.m1 + obs.r1) + (n2 * system.m2 + obs.r2), 2)
    estimate = mean if system.is_real else round_half_up(mean)
    return FoldingSolution(n1, n2, estimate, mean)


def solve_basic(system, obs) -> FoldingSolution:
    g1 = system.gamma1
    beta = system.gamma2 % g1
    half = Fraction(beta, 2)
    q = _q21(system, obs)
    if q >= half:
        n2 = round_half_up(q / beta)
    elif q < -half:
        wrap = q - math.floor(q / g1) * g1
        if half <= wrap < (g1 // beta) * beta - half:
            n2 = round_half_up(wrap / beta)
        else:
            n2 = 0
    else:
        n2 = 0
    n1 = round_half_up(as_exact_ratio(n2 * system.m2 + obs.r2 - obs.r1, system.m1))
    return _solution(system, obs, n1, n2)


def _window_pick(elements, target, half, left_open: bool) -> int:
    if left_open:
        i = bisect.bisect_right(elements, target - half)
        if i < len(elements) and elements[i] <= target + half:
            return elements[i]
    else:
        i = bisect.bisect_left(elements, target - half)
        if i < len(elements) and elements[i] < target + half:
            return elements[i]
    i = bisect.bisect_left(elements, target)
    lo = elements[max(i - 1, 0)]
    hi = elements[min(i, len(elements) - 1)]
    return lo if target - lo <= hi - target else hi


LISTED_DEPTH_MAX = 1 << 20


def _picked_fold(ladder, target, sigma, left_open: bool) -> int:
    """The fold of the rung the window of width ``sigma`` around ``target``
    picks, or the nearest rung's when the window holds none."""
    if ladder.depth > LISTED_DEPTH_MAX:
        target = Fraction(target)
        searched = ladders.SearchedLadder(ladder.base, ladder.mod, ladder.depth, ladder.inverse)
        return searched.nearest(target.numerator, target.denominator, sigma, left_open)
    rung = _window_pick(ladders.rungs(ladder), target, Fraction(sigma, 2), left_open)
    return rung * pow(ladder.base, -1, ladder.mod) % ladder.mod


def solve_with_context(ctx, obs) -> FoldingSolution:
    system = ctx.system
    q = _q21(system, obs)
    half = Fraction(ctx.sigma, 2)
    if q >= half:
        n2 = _picked_fold(ctx.s2, q, ctx.sigma, left_open=True)
        n1 = round_half_up(as_exact_ratio(n2 * system.m2 + obs.r2 - obs.r1, system.m1))
    elif q < -half:
        n1 = _picked_fold(ctx.s1, -q, ctx.sigma, left_open=False)
        n2 = round_half_up(as_exact_ratio(n1 * system.m1 + obs.r1 - obs.r2, system.m2))
    else:
        n1 = n2 = 0
    return _solution(system, obs, n1, n2)


def single_stage_robust_crt(group, remainders):
    rs = tuple(remainders)
    g1 = group.cofactors[0]
    m = group.gcd
    xis = [round_half_up(as_exact_ratio(rs[k] - rs[0], m)) for k in range(1, len(rs))]
    h1, q = 0, 1
    for xi, gk in zip(xis, group.cofactors[1:]):
        if gk == 1:
            continue
        a = xi * mod_inverse(g1, gk) % gk
        t = (a - h1) * mod_inverse(q, gk) % gk
        h1 += q * t
        q *= gk
    folds = [h1]
    for xi, gk in zip(xis, group.cofactors[1:]):
        folds.append((h1 * g1 - xi) // gk)
    total = sum(h * mod_ + r for h, mod_, r in zip(folds, group.moduli, rs))
    mean = as_exact_ratio(total, len(rs))
    return tuple(folds), round_half_up(mean), mean


def general_robust_crt(moduli, remainders) -> GeneralCrtSolution:
    ms = tuple(moduli)
    rs = tuple(remainders)
    m = math.gcd(*ms)
    gammas = tuple(mi // m for mi in ms)
    g1 = gammas[0]
    xis = [round_half_up(as_exact_ratio(rs[k] - rs[0], m)) for k in range(1, len(rs))]
    n1, q = 0, 1
    consistent = True
    for xi, gk in zip(xis, gammas[1:]):
        g = math.gcd(g1, gk)
        if xi % g != 0:
            consistent = False
            break
        qk = gk // g
        if qk > 1:
            a = (xi // g) * mod_inverse((g1 // g) % qk, qk) % qk
            gq = math.gcd(q, qk)
            if (a - n1) % gq != 0:
                consistent = False
                break
            step = qk // gq
            if step > 1:
                t = ((a - n1) // gq) * mod_inverse((q // gq) % step, step) % step
                n1 += q * t
            q *= step
    if consistent:
        folds = [n1]
        for xi, gk in zip(xis, gammas[1:]):
            folds.append((n1 * g1 - xi) // gk)
    else:
        folds = [0] * len(ms)
    total = sum(n * mod_ + r for n, mod_, r in zip(folds, ms, rs))
    mean = as_exact_ratio(total, len(rs))
    return GeneralCrtSolution(tuple(folds), round_half_up(mean), mean, consistent)


def cascade_reconstruct(spec, remainders1, remainders2) -> CascadeSolution:
    rs1 = tuple(remainders1)
    rs2 = tuple(remainders2)
    h1, est1, _ = single_stage_robust_crt(spec.group1, rs1)
    h2, est2, _ = single_stage_robust_crt(spec.group2, rs2)
    if spec.low_is_group1:
        obs = RemainderObservation(est1, est2)
    else:
        obs = RemainderObservation(est2, est1)
    cross_sol = solve_with_context(level_context(spec.cross, spec.level), obs)
    if spec.low_is_group1:
        l1, l2 = cross_sol.n1, cross_sol.n2
    else:
        l1, l2 = cross_sol.n2, cross_sol.n1
    foldings1 = tuple(l1 * (spec.group1.eta // mk) + hk for mk, hk in zip(spec.group1.moduli, h1))
    foldings2 = tuple(l2 * (spec.group2.eta // mk) + hk for mk, hk in zip(spec.group2.moduli, h2))
    total = sum(n * mk + r for n, mk, r in zip(foldings1, spec.group1.moduli, rs1))
    total += sum(n * mk + r for n, mk, r in zip(foldings2, spec.group2.moduli, rs2))
    mean = as_exact_ratio(total, len(rs1) + len(rs2))
    return CascadeSolution(
        h1, h2, l1, l2, (est1, est2), foldings1, foldings2, round_half_up(mean), mean
    )
