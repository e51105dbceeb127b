"""Independent brute-force references for the closed forms.

Nothing here shares a code path with the solvers it validates or with
``simkit``: the fold search scans every candidate value, vectorized in numpy
blocks and exact for int, rational and float remainders; the CRT scan is a
plain loop; ladder depths are grown element by element; and the adversarial
instances follow the tightness constructions directly.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .crt_core import InconsistentRemainders
from .two_mod import (
    RemainderObservation,
    TwoModSystem,
    level_context,
    sigma_chain,
    solve_with_context,
    true_folds,
)


@dataclass(frozen=True)
class OracleReport:
    """One cross-check: what the oracle expected vs. what was computed."""

    description: str
    expected: object
    computed: object

    @property
    def agrees(self) -> bool:
        return self.expected == self.computed


def crt_scan(remainders, moduli) -> int:
    """Linear scan of ``[0, lcm)`` for the unique match.

    Raises :class:`InconsistentRemainders` when nothing matches.
    """
    rs = tuple(remainders)
    ms = tuple(moduli)
    lcm = math.lcm(*ms)
    for n in range(lcm):
        if all(n % m == r for m, r in zip(ms, rs)):
            return n
    raise InconsistentRemainders(f"no value in [0, {lcm}) matches remainders {rs}")


# Candidates per block of the fold search: 2^16 int64 values are 512 KB.
_SCAN_BLOCK = 1 << 16
_INT64_SAFE = 1 << 62


@dataclass(frozen=True)
class FoldSearchResult:
    n1: int
    n2: int
    value: int
    deviation: int | Fraction | float


def exhaustive_fold_search(system: TwoModSystem, obs: RemainderObservation, search_bound: int) -> FoldSearchResult:
    """Scan every candidate value below the bound for the best remainder fit.

    Minimizes ``max(|r1~ - r1|, |r2~ - r2|)``; ties go to the smallest value.
    The candidates are scanned in numpy blocks of at most ``_SCAN_BLOCK``
    values, each block keeping its first minimum and the scan replacing its
    best only on a strictly smaller deviation.  Int and rational remainders
    are scaled to integers over one common denominator, and the scan compares
    ``|a_i - den * (n % m_i)|`` exactly: in int64 while every magnitude stays
    below 2^62, in Python integers (``dtype=object``) beyond.  Any other
    remainder (a float, or any non-rational real) runs the scalar expression
    itself on Python objects.  The reported deviation is that expression at
    the chosen value, so its type follows the remainders.
    """
    if system.is_real:
        raise ValueError("exhaustive_fold_search: integer systems only")
    if search_bound < 1:
        raise ValueError(f"exhaustive_fold_search: search bound {search_bound} must be at least 1")
    if search_bound > system.lcm:
        raise ValueError("exhaustive_fold_search: bound exceeds the lcm")
    m1, m2 = system.m1, system.m2
    rs = (obs.r1, obs.r2)
    if all(isinstance(r, numbers.Rational) for r in rs):
        exact = [Fraction(r) for r in rs]
        den = math.lcm(*(f.denominator for f in exact))
        a1, a2 = (f.numerator * (den // f.denominator) for f in exact)
        fits = max(abs(a1), abs(a2), search_bound) + den * m2 < _INT64_SAFE
    else:
        (a1, a2), den, fits = rs, 1, False
    dtype = np.int64 if fits else object
    best_n, best_dev = 0, None
    for start in range(0, search_bound, _SCAN_BLOCK):
        n = np.arange(start, min(start + _SCAN_BLOCK, search_bound), dtype=dtype)
        d1 = abs(a1 - den * (n % m1))
        d2 = abs(a2 - den * (n % m2))
        with np.errstate(invalid="ignore"):  # a NaN compares false, as in Python
            dev = np.where(d2 > d1, d2, d1)  # max(d1, d2) as Python takes it
        i = int(np.argmin(dev))
        if best_dev is None or dev[i] < best_dev:
            best_n, best_dev = start + i, dev[i]
    deviation = max(abs(obs.r1 - best_n % m1), abs(obs.r2 - best_n % m2))
    return FoldSearchResult(best_n // m1, best_n // m2, best_n, deviation)


def ladder_depths_definitional(system: TwoModSystem, j: int) -> tuple[int, int]:
    """Ladder depths straight from the definition: grow each ladder until its
    minimum gap drops below sigma_j, and return the last depth that held."""
    chain = sigma_chain(system)
    if not 1 <= j <= chain.levels:
        raise ValueError(f"ladder_depths_definitional: level {j} out of range")
    target = chain.sigma(j)

    def grow(base: int, mod: int) -> int:
        elems = [0]
        for t in range(1, mod):
            x = t * base % mod
            i = bisect.bisect_left(elems, x)
            elems.insert(i, x)
            worst = mod
            if i + 1 < len(elems):
                worst = min(worst, elems[i + 1] - x)
            if i > 0:
                worst = min(worst, x - elems[i - 1])
            if worst < target:
                return t - 1
        return mod - 1

    return grow(system.gamma1, system.gamma2), grow(system.gamma2, system.gamma1)


@dataclass(frozen=True)
class AdversarialInstance:
    """A value at the edge of a level's range plus a legal error pair that
    defeats the solver, certifying the range is tight."""

    value: int
    dr1: Fraction
    dr2: Fraction

    def observation(self, system: TwoModSystem) -> RemainderObservation:
        return RemainderObservation(
            self.value % system.m1 + self.dr1, self.value % system.m2 + self.dr2
        )


def range_falsifier(system: TwoModSystem, j: int) -> AdversarialInstance:
    """The tightness construction at ``value = dynamic_range(j)``.

    With the range achieved on the ``m2`` side, the value's second remainder
    is 0 and the first sits within ``m * sigma_j`` of a ladder point ``m * w``;
    nudging it halfway there keeps the error difference inside the guarantee
    window yet makes the window search land on ``w`` instead of the truth.
    The ``m1`` side is symmetric.
    """
    if system.is_real:
        raise ValueError("range_falsifier: integer systems only")
    ctx = level_context(system, j)
    n_value = ctx.dynamic_range
    r1, r2 = n_value % system.m1, n_value % system.m2
    m = system.m
    if system.m2 * (1 + ctx.depth2) <= system.m1 * (1 + ctx.depth1):
        w = _nearest(ctx.s2, Fraction(r1, m))
        dr1, dr2 = Fraction(m * w - r1, 2), Fraction(0)
    else:
        w = _nearest(ctx.s1, Fraction(r2, m))
        dr1, dr2 = Fraction(0), Fraction(m * w - r2, 2)
    assert abs(dr1 - dr2) < Fraction(m * ctx.sigma, 2), "construction must stay legal"
    return AdversarialInstance(n_value, dr1, dr2)


def range_falsifier_basic(system: TwoModSystem) -> AdversarialInstance:
    """Tightness construction for the coarse solver (needs ``g2 mod g1 >= 2``)."""
    if system.is_real:
        raise ValueError("range_falsifier_basic: integer systems only")
    g1, g2, m = system.gamma1, system.gamma2, system.m
    beta = g2 % g1
    if beta < 2:
        raise ValueError("range_falsifier_basic: range already spans the lcm")
    n_value = system.m1 * (1 + (g2 // g1) * (g1 // beta))
    dr1 = Fraction((g1 % beta) // 2 * m)
    return AdversarialInstance(n_value, dr1, Fraction(0))


def _nearest(sorted_elems, target) -> int:
    """Element nearest ``target``, ties to the smaller one; in a full ladder
    ``range(gamma)``, whose ``len`` overflows past 2^63, ``target`` rounded."""
    if isinstance(sorted_elems, range):
        return min(max(math.ceil(target - Fraction(1, 2)), 0), sorted_elems[-1])
    i = bisect.bisect_left(sorted_elems, target)
    lo = sorted_elems[max(i - 1, 0)]
    hi = sorted_elems[min(i, len(sorted_elems) - 1)]
    return lo if target - lo <= hi - target else hi


@dataclass(frozen=True)
class ExactnessScan:
    """Outcome of an exhaustive in-guarantee sweep of one level."""

    level: int
    checked: int
    fold_failures: int
    estimate_failures: int

    @property
    def ok(self) -> bool:
        return self.fold_failures == 0 and self.estimate_failures == 0


def level_exactness_scan(system: TwoModSystem, j: int) -> ExactnessScan:
    """Try every value below the level's range and every in-range integer error
    pair whose scaled difference stays in the guarantee window; the solver must
    recover the exact folds and keep the estimate within the largest error."""
    if system.is_real:
        raise ValueError("level_exactness_scan: integer systems only")
    ctx = level_context(system, j)
    m, m1, m2 = system.m, system.m1, system.m2
    window = m * ctx.sigma  # error differences allowed in [-window/2, window/2)
    lo_diff = -(window // 2)
    hi_diff = (window - 1) // 2 if window % 2 else window // 2 - 1
    checked = fold_fail = est_fail = 0
    for value in range(ctx.dynamic_range):
        r1, r2 = value % m1, value % m2
        n1, n2 = value // m1, value // m2
        for d1 in range(-r1, m1 - r1):
            lo = max(-r2, d1 - hi_diff)
            hi = min(m2 - 1 - r2, d1 - lo_diff)
            for d2 in range(lo, hi + 1):
                checked += 1
                sol = solve_with_context(ctx, RemainderObservation(r1 + d1, r2 + d2))
                if (sol.n1, sol.n2) != (n1, n2):
                    fold_fail += 1
                elif abs(sol.estimate - value) > max(abs(d1), abs(d2)):
                    est_fail += 1
    return ExactnessScan(j, checked, fold_fail, est_fail)


def falsifier_report(system: TwoModSystem, j: int) -> OracleReport:
    """Run the adversarial instance; the solver must get the folds wrong."""
    inst = range_falsifier(system, j)
    obs = inst.observation(system)
    sol = solve_with_context(level_context(system, j), obs)
    truth = true_folds(system, inst.value)
    return OracleReport(
        f"level {j}: adversarial value {inst.value} must defeat the solver",
        expected=("misfold", truth),
        computed=("misfold" if (sol.n1, sol.n2) != truth else "recovered", truth),
    )
