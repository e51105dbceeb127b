"""Robust reconstruction for many moduli: per-group recovery plus a two-group cascade.

A group of moduli ``m_k = m * gamma_k`` with pairwise-coprime cofactors is
solved in closed form through the rounded pairwise remainder differences, by
one stage function, ``_stage``.  Two such groups combine into a cascade:
each group's estimate becomes an erroneous remainder of the value modulo the
group lcm, and the two-modulus level solver finishes the job.

What depends only on the moduli is built once per system, in caches keyed on
int tuples (``_general_steps``, ``_general_plan``, ``_cascade_plan``).  A call
scales its remainders to integers over one common denominator once and loops
with plain ``for`` loops: on Python 3.11 a comprehension builds and calls a
function, while from 3.12 on comprehensions are inlined (PEP 709).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul

from .modmath import (_CACHE_SIZE, _INT, _checked_moduli, _solver_record, common_denominator,
                      mod_inverse, round_div)
from .two_mod import TwoModSystem, _exact_folds, level_context, sigma_chain


@dataclass(frozen=True)
class ModuliGroup:
    """Moduli ``m_k = gcd * cofactor_k`` with pairwise-coprime cofactors."""

    moduli: tuple[int, ...]
    gcd: int
    cofactors: tuple[int, ...]
    eta: int  # lcm of the group

    @classmethod
    def from_moduli(cls, moduli) -> "ModuliGroup":
        ms = _checked_moduli("ModuliGroup", moduli)
        g = math.gcd(*ms)
        cof = tuple(m // g for m in ms)
        for a, b in combinations(cof, 2):
            if math.gcd(a, b) != 1:
                raise ValueError(f"ModuliGroup: cofactors {a} and {b} share a factor; "
                                 "only pairwise-coprime cofactors are supported")
        return cls(ms, g, cof, g * math.prod(cof))


@lru_cache(maxsize=_CACHE_SIZE)
def _general_steps(gammas: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Per-congruence data of ``n_1 * g_1 = xi_k (mod g_k)``, solved one by one.

    Each step is ``(g, qk, inv1, gq, step, inv_q, q)``: ``g = gcd(g_1, g_k)``
    must divide ``xi_k``, leaving ``n_1 = a (mod qk)`` with ``qk = g_k / g`` and
    ``a = (xi_k / g) * inv1``; ``q`` is the modulus ``n_1`` is known to before
    the step, ``gq = gcd(q, qk)`` must divide ``a - n_1``, and ``n_1`` then
    grows by ``q * t`` with ``t = ((a - n_1) / gq) * inv_q mod step``.
    """
    g1 = gammas[0]
    steps = []
    q = 1
    for gk in gammas[1:]:
        g = math.gcd(g1, gk)
        qk = gk // g
        if qk == 1:
            steps.append((g, 1, 0, 1, 1, 0, q))
            continue
        gq = math.gcd(q, qk)
        step = qk // gq
        inv1 = mod_inverse((g1 // g) % qk, qk)
        inv_q = mod_inverse((q // gq) % step, step) if step > 1 else 0
        steps.append((g, qk, inv1, gq, step, inv_q, q))
        q *= step
    return tuple(steps)


def _garner_n1(xis, gammas) -> int | None:
    """The first fold, solving ``n_1 * g_1 = xi_k (mod g_k)`` step by step
    through ``_general_steps(gammas)``; None when a divisibility test fails,
    which cannot happen on pairwise-coprime cofactors."""
    n1 = 0
    for xi, (g, qk, inv1, gq, step, inv_q, q) in zip(xis, _general_steps(gammas)):
        if xi % g:
            return None
        if qk > 1:
            diff = (xi // g) * inv1 % qk - n1
            if diff % gq:
                return None
            if step > 1:
                n1 += q * ((diff // gq) * inv_q % step)
    return n1


def _average(folds, moduli, rs, nums, den):
    """``(estimate, mean)`` of the reconstructions ``n_k * m_k + r_k``, with
    ``rs[k] == nums[k] / den``.  The mean is the exact mean rounded to a float
    when any remainder is a float, and the unreduced ratio ``(num, den)``
    otherwise."""
    total = sum(nums) + sum(map(mul, folds, moduli)) * den
    den *= len(nums)
    estimate = round_div(total, den)
    for r in rs:
        if isinstance(r, float):
            return estimate, total / den
    return estimate, (total, den)


def _stage(m: int, gammas: tuple, moduli, rs, nums, den: int):
    """One group stage over the moduli ``m * gammas``: ``(folds, consistent,
    estimate, mean)`` of the remainders ``rs[k] == nums[k] / den``.
    ``xi_k = [(r_k - r_1) / m]`` estimates ``n_1 * g_1 - n_k * g_k``, exactly
    under the window condition, ``_garner_n1`` solves the congruences for
    ``n_1`` and the rest follow from it; where it finds none, the folds are
    all zero and ``consistent`` is False.  The rest is ``_average``'s."""
    shift, step = m * den - 2 * nums[0], 2 * m * den
    xis = []
    for a in nums[1:]:
        xis.append((2 * a + shift) // step)
    n1 = _garner_n1(xis, gammas)
    if n1 is None:
        folds = (0,) * len(nums)
    else:
        folds, g1 = [n1], gammas[0]
        for xi, gk in zip(xis, gammas[1:]):
            folds.append((n1 * g1 - xi) // gk)  # exact: n1 * g1 == xi (mod g_k) by construction
        folds = tuple(folds)
    return (folds, n1 is not None, *_average(folds, moduli, rs, nums, den))


def single_stage_robust_crt(group: ModuliGroup, remainders) -> tuple[tuple[int, ...], int, Fraction | float]:
    """Recover within-group fold integers and the rounded group estimate.

    Returns ``(folds, estimate, mean)``.  The folds are exact whenever every
    scaled error difference ``(dr_k - dr_1) / gcd`` lies in ``[-1/2, 1/2)``;
    error bound below ``gcd / 4`` is sufficient.
    """
    rs = tuple(remainders)
    if len(rs) != len(group.moduli):
        raise ValueError("single_stage_robust_crt: remainder/modulus count mismatch")
    nums, den = common_denominator(rs, "single_stage_robust_crt")
    folds, _, estimate, mean = _stage(group.gcd, group.cofactors, group.moduli, rs, nums, den)
    return folds, estimate, Fraction(*mean) if type(mean) is tuple else mean


@_solver_record
@dataclass(frozen=True)
class GeneralCrtSolution:
    """Fold recovery over arbitrary moduli (cofactors need not be coprime)."""

    folds: tuple[int, ...]
    estimate: int
    mean: Fraction | float
    consistent: bool


@lru_cache(maxsize=_CACHE_SIZE)
def _general_plan(moduli: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """``general_robust_crt``'s moduli checked, with their gcd and cofactors.
    The caller type-checks the key: ``(True, 3) == (1, 3)`` must not hit."""
    m = math.gcd(*_checked_moduli("general_robust_crt", moduli))
    return m, tuple(mi // m for mi in moduli)


def general_robust_crt(moduli, remainders) -> GeneralCrtSolution:
    """Single-stage fold recovery for arbitrary moduli at the lcm-wide range.

    Exact whenever every scaled error difference ``(dr_k - dr_1) / gcd`` lies
    in ``[-1/2, 1/2)`` (error bound below ``gcd / 4`` suffices).  The rounded
    pairwise differences induce congruences ``n_1 * g_1 = xi_k (mod g_k)``
    which are solved jointly; an infeasible system marks the trial as
    inconsistent and falls back to all-zero folds.
    """
    ms = tuple(moduli)
    rs = tuple(remainders)
    if len(ms) < 2 or len(rs) != len(ms):
        raise ValueError("general_robust_crt: need matching moduli/remainders, at least two")
    if not _INT.issuperset(map(type, ms)):
        _checked_moduli("general_robust_crt", ms)
    m, gammas = _general_plan(ms)
    nums, den = common_denominator(rs, "general_robust_crt")
    folds, consistent, estimate, mean = _stage(m, gammas, ms, rs, nums, den)
    record = object.__new__(GeneralCrtSolution)  # filled in place, as _solver_record says
    state = record.__dict__
    state.update(folds=folds, estimate=estimate, consistent=consistent)
    state["_mean_ratio" if type(mean) is tuple else "mean"] = mean
    return record


@dataclass(frozen=True)
class CascadeSpec:
    """Two moduli groups plus the cross system over their lcms.

    ``group1``/``group2`` keep the caller's order; ``cross`` always has its
    smaller modulus first, and ``low_is_group1`` records which group that is.
    Overlapping groups are accepted but flagged.
    """

    group1: ModuliGroup
    group2: ModuliGroup
    level: int
    cross: TwoModSystem
    low_is_group1: bool
    overlapping: bool


def cascade_spec(moduli1, moduli2, level: int) -> CascadeSpec:
    group1 = ModuliGroup.from_moduli(moduli1)
    group2 = ModuliGroup.from_moduli(moduli2)
    if group1.eta == group2.eta:
        raise ValueError("cascade_spec: group lcms must differ")
    low_is_group1 = group1.eta < group2.eta
    lo, hi = sorted((group1.eta, group2.eta))
    cross = TwoModSystem.from_moduli(lo, hi)
    chain = sigma_chain(cross)
    if not 1 <= level <= chain.levels:
        raise ValueError(f"cascade_spec: level {level} out of range [1, {chain.levels}]")
    overlapping = bool(set(group1.moduli) & set(group2.moduli))
    return CascadeSpec(group1, group2, level, cross, low_is_group1, overlapping)


@_solver_record
@dataclass(frozen=True)
class CascadeSolution:
    """Inner folds, outer folds, and the combined reconstruction.

    ``foldings1``/``foldings2`` are the total fold integers of the value with
    respect to each original modulus: ``l_i * (eta_i / m_ik) + h_ik``.
    """

    h1: tuple[int, ...]
    h2: tuple[int, ...]
    l1: int
    l2: int
    group_estimates: tuple[int, int]
    foldings1: tuple[int, ...]
    foldings2: tuple[int, ...]
    estimate: int
    mean: Fraction | float


@lru_cache(maxsize=_CACHE_SIZE)
def _cascade_plan(moduli1: tuple[int, ...], moduli2: tuple[int, ...]):
    """``(lifts1, lifts2, moduli1 + moduli2)``, ``lifts_i[k] = eta_i // m_ik``,
    keyed on the moduli ``ModuliGroup.from_moduli`` checked: a spec's dataclass
    hash runs in Python over every nested field and costs more than it saves."""
    lifts = [tuple(math.lcm(*ms) // mk for mk in ms) for ms in (moduli1, moduli2)]
    return (*lifts, moduli1 + moduli2)


def cascade_reconstruct(spec: CascadeSpec, remainders1, remainders2) -> CascadeSolution:
    """Run both group stages, then the cross stage, and assemble total folds."""
    rs1, rs2 = tuple(remainders1), tuple(remainders2)
    group1, group2 = spec.group1, spec.group2
    n = len(rs1)
    if n != len(group1.moduli) or len(rs2) != len(group2.moduli):
        raise ValueError("cascade_reconstruct: remainder/modulus count mismatch")
    rs = rs1 + rs2
    nums, den = common_denominator(rs, "cascade_reconstruct")
    # each group's folds and rounded estimate from its numerators; its mean is not read
    h1, _, est1, _ = _stage(group1.gcd, group1.cofactors, group1.moduli, (), nums[:n], den)
    h2, _, est2, _ = _stage(group2.gcd, group2.cofactors, group2.moduli, (), nums[n:], den)
    # The group estimates are integer remainders modulo the group lcms, so the
    # cross stage is the integer branch of ``solve_with_context``.
    ctx = level_context(spec.cross, spec.level)
    if spec.low_is_group1:
        l1, l2 = _exact_folds(ctx, est1 - est2, spec.cross.m)
    else:
        l2, l1 = _exact_folds(ctx, est2 - est1, spec.cross.m)
    lifts1, lifts2, moduli = _cascade_plan(group1.moduli, group2.moduli)
    foldings1, foldings2 = [], []
    for lift, hk in zip(lifts1, h1):
        foldings1.append(l1 * lift + hk)
    for lift, hk in zip(lifts2, h2):
        foldings2.append(l2 * lift + hk)
    estimate, mean = _average(foldings1 + foldings2, moduli, rs, nums, den)
    record = object.__new__(CascadeSolution)  # filled in place, as _solver_record says
    state = record.__dict__
    state.update(h1=h1, h2=h2, l1=l1, l2=l2, group_estimates=(est1, est2),
                 foldings1=tuple(foldings1), foldings2=tuple(foldings2), estimate=estimate)
    state["_mean_ratio" if type(mean) is tuple else "mean"] = mean
    return record


def cascade_bounds(spec: CascadeSpec) -> tuple[int, Fraction]:
    """Usable range and error bound of the cascade at its configured level."""
    ctx = level_context(spec.cross, spec.level)
    tau = Fraction(min(spec.group1.gcd, spec.group2.gcd, spec.cross.m * ctx.sigma), 4)
    return ctx.dynamic_range, tau
