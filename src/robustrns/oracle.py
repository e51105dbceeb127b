"""Independent brute-force references for the closed forms.

Nothing here shares a code path with the solvers it validates or with
``simkit``: the fold search scans every candidate value in numpy blocks,
exact for int, rational and float remainders; each side's deviation depends
on the candidate's residue only, so it is computed once per residue into a
table that a block reads as one contiguous window, and a side never holds
more than about two blocks of values.  The CRT scan is a plain loop; ladder
depths are grown element by element; and the adversarial instances follow
the tightness constructions directly.

The exactness scan runs in two phases.  It first calls the scalar solver
once on each distinct observation that some case of the level produces and
keeps the folds and estimates in int64 tables; it then counts every case,
each value with each in-window error pair, against those tables in numpy
blocks.  The solver is a pure function, so one solve per observation checks
what a solve per case would.
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
    itself on Python objects.  A side's deviation depends on ``n % m_i``
    only, so it is computed once per residue (see ``_side_deviations``) and
    each block is a max and an argmin over windows of those values.  The
    reported deviation is the scalar expression at the chosen value, so its
    type follows the remainders.
    """
    if system.is_real:
        raise ValueError("exhaustive_fold_search: integer systems only")
    if not isinstance(search_bound, int) or isinstance(search_bound, bool):
        raise ValueError(f"exhaustive_fold_search: search bound {search_bound!r} must be an int")
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
    windows = zip(_side_deviations(a1, den, m1, search_bound, dtype),
                  _side_deviations(a2, den, m2, search_bound, dtype))
    for start, (d1, d2) in zip(range(0, search_bound, _SCAN_BLOCK), windows):
        if dtype is object:
            with np.errstate(invalid="ignore"):  # a NaN compares false, as in Python
                dev = np.where(d2 > d1, d2, d1)  # max(d1, d2) as Python takes it
        else:
            dev = np.maximum(d1, d2)
        i = int(np.argmin(dev))
        if best_dev is None or dev[i] < best_dev:
            best_n, best_dev = start + i, dev[i]
    deviation = max(abs(obs.r1 - best_n % m1), abs(obs.r2 - best_n % m2))
    return FoldSearchResult(best_n // m1, best_n // m2, best_n, deviation)


def _side_deviations(a, den: int, mod: int, bound: int, dtype):
    """``|a - den * (n % mod)|`` for the candidates ``n`` of each scan block.

    A period that fits in a block is tabulated once, ``min(mod, bound)``
    residues, and laid out periodically over at most ``mod - 1`` plus one
    block, so the block starting at ``start`` is the contiguous window at
    ``start % mod``.
    A longer period is never tabulated in full: each block computes its own
    residues, at most two increasing runs.  Either way a side holds
    O(``_SCAN_BLOCK``) values.
    """
    size = min(_SCAN_BLOCK, bound)
    period = min(mod, bound)
    if period <= size:
        span = size if bound == size else period - 1 + size
        laid = np.empty(span, dtype=dtype)
        laid[:period] = abs(a - den * np.arange(period, dtype=dtype))
        done = period
        while done < span:  # copy the filled prefix after itself until the span is full
            step = min(done, span - done)
            laid[done:done + step] = laid[:step]
            done += step
        for start in range(0, bound, size):
            offset = start % mod
            yield laid[offset:offset + min(size, bound - start)]
    else:
        for start in range(0, bound, size):
            lead = start % mod
            k = np.arange(lead, lead + min(size, bound - start), dtype=dtype)
            k[mod - lead:] -= mod  # the run that wraps past the period
            yield abs(a - den * k)


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
    recover the exact folds and keep the estimate within the largest error.

    A case is a value ``v`` and an observation ``(a, b)`` in
    ``[0, m1) x [0, m2)`` whose errors ``d1 = a - v % m1``, ``d2 = b - v % m2``
    have ``d1 - d2`` in the window ``[-w/2, w/2)``, ``w = m * sigma_j``.  As
    ``d1 - d2 = (a - b) - (v % m1 - v % m2)``, the cases of one value are the
    observations on a run of diagonals ``a - b``.  The scan solves each
    observation on a diagonal that some value reaches once, straight into
    int64 tables of folds and estimates laid out in diagonal order (see
    ``_diagonal_layout``); it then walks the values in blocks, and their
    cases, a contiguous slice of the tables per value, in chunks of at most
    ``_CASE_BLOCK``, and recovers each case's observation from its position.
    The tables take 24 bytes per observation, the diagonal of each position
    1 to 4 more, and everything else is O(``m1 + m2 + _CASE_BLOCK``).  Every
    value, fold and estimate stays below ``2 * lcm``, so the int64 arithmetic
    is exact; a larger system is refused.
    """
    if system.is_real:
        raise ValueError("level_exactness_scan: integer systems only")
    if 2 * system.lcm >= 1 << 63:
        raise ValueError(f"level_exactness_scan: lcm {system.lcm} is past the scan's int64 range")
    ctx = level_context(system, j)
    m1, m2 = system.m1, system.m2
    window = system.m * ctx.sigma  # error differences allowed in [-window/2, window/2)
    lo_diff, hi_diff = -(window // 2), (window - 1) // 2
    reach = _reached_diagonals(m1, m2, ctx.dynamic_range, lo_diff, hi_diff)
    first, low = _diagonal_layout(m1, m2)
    n1, n2, est = (np.zeros(m1 * m2, dtype=np.int64) for _ in range(3))
    for d in np.flatnonzero(reach).tolist():
        a0, p0, p1 = int(low[d]), int(first[d]), int(first[d + 1])
        c = d - (m2 - 1)  # a - b on this diagonal
        sols = [solve_with_context(ctx, RemainderObservation(a, a - c)) for a in range(a0, a0 + p1 - p0)]
        n1[p0:p1] = [sol.n1 for sol in sols]
        n2[p0:p1] = [sol.n2 for sol in sols]
        est[p0:p1] = [sol.estimate for sol in sols]
    counts = _count_cases(m1, m2, ctx.dynamic_range, lo_diff, hi_diff, first, low, n1, n2, est)
    return ExactnessScan(j, *counts)


# Values, and gathered cases, per block of the exactness scan.
_CASE_BLOCK = 1 << 12


def _value_blocks(m1: int, m2: int, limit: int):
    """``(v, v % m1, v % m2)`` over ``[0, limit)`` in int64 blocks."""
    for start in range(0, limit, _CASE_BLOCK):
        v = np.arange(start, min(start + _CASE_BLOCK, limit), dtype=np.int64)
        yield v, v % m1, v % m2


def _diagonal_layout(m1: int, m2: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal order of the observations ``(a, b)`` in ``[0, m1) x [0, m2)``:
    by diagonal index ``d = a - b + m2 - 1``, then by ``a``.

    Returns ``first``, the position of each diagonal's first cell (with the
    total ``m1 * m2`` appended), and ``low``, each diagonal's smallest ``a``;
    the cell at position ``p`` on diagonal ``d`` is ``a = low[d] + p - first[d]``
    and ``b = a - d + m2 - 1``.
    """
    d = np.arange(m1 + m2 - 1, dtype=np.int64)
    low = np.maximum(d - (m2 - 1), 0)
    first = np.zeros(m1 + m2, dtype=np.int64)
    np.cumsum(np.minimum(d, m1 - 1) - low + 1, out=first[1:])
    return first, low


def _reached_diagonals(m1: int, m2: int, limit: int, lo_diff: int, hi_diff: int) -> np.ndarray:
    """Which diagonals ``a - b`` (index ``a - b + m2 - 1``) hold a case of some
    value below ``limit``: those within ``[lo_diff, hi_diff]`` of a value's own
    ``v % m1 - v % m2``."""
    width = m1 + m2 - 1
    own = np.zeros(width, dtype=bool)
    for _, r1, r2 in _value_blocks(m1, m2, limit):
        own[r1 - r2 + (m2 - 1)] = True
    below = np.concatenate(([0], np.cumsum(own)))  # own diagonals below each index
    k = np.arange(width)
    return below[np.clip(k - lo_diff + 1, 0, width)] > below[np.clip(k - hi_diff, 0, width)]


def _count_cases(m1, m2, limit, lo_diff, hi_diff, first, low, n1, n2, est) -> tuple[int, int, int]:
    """``(checked, fold_failures, estimate_failures)`` over every case of every
    value below ``limit``, against the tables solved in diagonal order."""
    width = m1 + m2 - 1
    to_a = low - first[:-1]  # a = position + to_a[d] on diagonal d
    to_b = to_a - np.arange(width) + (m2 - 1)  # b = a - (d - (m2 - 1))
    # the diagonal of each position, in the smallest unsigned type that holds it
    diag_of = np.repeat(np.arange(width, dtype=np.min_scalar_type(width - 1)), np.diff(first))
    checked = fold_fail = est_fail = 0
    for v, r1, r2 in _value_blocks(m1, m2, limit):
        own = r1 - r2 + (m2 - 1)
        lo = first[np.clip(own + lo_diff, 0, width)]
        count = first[np.clip(own + hi_diff + 1, 0, width)] - lo
        end = np.cumsum(count)
        begin = end - count
        shift = lo - begin  # case position in the block -> cell position
        q1, q2 = v // m1, v // m2
        total = int(end[-1])
        checked += total
        for p0 in range(0, total, _CASE_BLOCK):
            p1 = min(p0 + _CASE_BLOCK, total)
            o0, o1 = np.searchsorted(end, (p0, p1 - 1), side="right")
            runs = np.minimum(end[o0:o1 + 1], p1) - np.maximum(begin[o0:o1 + 1], p0)
            who = np.repeat(np.arange(o0, o1 + 1), runs)
            cell = np.arange(p0, p1) + shift[who]
            diag = diag_of[cell]
            a, b = cell + to_a[diag], cell + to_b[diag]
            folds_ok = (n1[cell] == q1[who]) & (n2[cell] == q2[who])
            err = np.maximum(np.abs(a - r1[who]), np.abs(b - r2[who]))
            fold_fail += p1 - p0 - int(np.count_nonzero(folds_ok))
            est_fail += int(np.count_nonzero(folds_ok & (np.abs(est[cell] - v[who]) > err)))
    return checked, fold_fail, est_fail


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
