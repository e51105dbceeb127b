"""Independent brute-force references for the closed forms.

Nothing here shares a code path with the solvers it validates or with
``simkit``.  The fold search scans every candidate value in numpy blocks,
exact for int, rational and float remainders, reading each side's deviation
from a table computed once per residue; the CRT scan is a plain loop; ladder
depths are grown element by element; and the adversarial instances follow
the tightness constructions directly.

The exactness scan solves each observation once and counts its cases in
closed form, from a histogram of the values and the interval of values with
given true folds; ``tests/oracle_reference.py`` keeps the per-case loop.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .crt_core import InconsistentRemainders
from .modmath import _checked_moduli
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


_CRT_SCAN_MAX = 1 << 20


def crt_scan(remainders, moduli) -> int:
    """Linear scan of ``[0, lcm)`` for the unique match, for an lcm of at
    most ``_CRT_SCAN_MAX`` (a second or so); a larger one is refused.

    Raises :class:`InconsistentRemainders` when nothing matches.
    """
    rs = tuple(remainders)
    ms = _checked_moduli("crt_scan", moduli)
    if len(rs) != len(ms):
        raise ValueError("crt_scan: need one remainder per modulus, at least one")
    lcm = math.lcm(*ms)
    if lcm > _CRT_SCAN_MAX:
        raise ValueError(f"crt_scan: lcm {lcm} is past the scan's limit {_CRT_SCAN_MAX}")
    for n in range(lcm):
        if all(n % m == r for m, r in zip(ms, rs)):
            return n
    raise InconsistentRemainders(f"no value in [0, {lcm}) matches remainders {rs}")


# Candidates per block of the fold search: 2^16 int64 values are 512 KB.
_SCAN_BLOCK = 1 << 16
# Candidates the fold search scans at most: 2^24 take about 0.2 s.
_FOLD_SEARCH_MAX = 1 << 24
_INT64_SAFE = 1 << 62


@dataclass(frozen=True)
class FoldSearchResult:
    n1: int
    n2: int
    value: int
    deviation: int | Fraction | float


def exhaustive_fold_search(system: TwoModSystem, obs: RemainderObservation, search_bound: int) -> FoldSearchResult:
    """Scan every candidate value below the bound for the best remainder fit;
    a bound past ``_FOLD_SEARCH_MAX`` candidates is refused.

    Minimizes ``max(|r1~ - r1|, |r2~ - r2|)``; ties go to the smallest value.
    The candidates are scanned in numpy blocks of at most ``_SCAN_BLOCK``
    values, each block keeping its first minimum and the scan replacing its
    best only on a strictly smaller deviation.  Each remainder is taken as
    its exact ``Fraction`` (a float at its binary value; a NaN or an infinity
    raises ``ValueError``), the two are scaled to integers over one common
    denominator, and the scan compares ``|a_i - den * (n % m_i)|`` exactly:
    in int64 while every magnitude stays below 2^62, in Python integers
    (``dtype=object``) beyond.  A side's deviation depends on ``n % m_i``
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
    if search_bound > _FOLD_SEARCH_MAX:
        raise ValueError(f"exhaustive_fold_search: search bound {search_bound} is past the "
                         f"search's limit of {_FOLD_SEARCH_MAX} candidates")
    m1, m2 = system.m1, system.m2
    try:
        exact = [Fraction(r) for r in (obs.r1, obs.r2)]
    except (ValueError, OverflowError):
        raise ValueError(f"exhaustive_fold_search: remainders must be finite, got {obs}") from None
    den = math.lcm(*(f.denominator for f in exact))
    a1, a2 = (f.numerator * (den // f.denominator) for f in exact)
    fits = max(abs(a1), abs(a2), search_bound) + den * m2 < _INT64_SAFE
    dtype = np.int64 if fits else object
    best_n, best_dev = 0, None
    windows = zip(_side_deviations(a1, den, m1, search_bound, dtype),
                  _side_deviations(a2, den, m2, search_bound, dtype))
    for start, (d1, d2) in zip(range(0, search_bound, _SCAN_BLOCK), windows):
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


# Rungs the definitional depths insert at most, both ladders together.
_DEFINITIONAL_RUNGS_MAX = 1 << 18


def ladder_depths_definitional(system: TwoModSystem, j: int) -> tuple[int, int]:
    """Ladder depths straight from the definition: grow each ladder until its
    minimum gap drops below sigma_j, and return the last depth that held.
    The two ladders take at most ``(gamma1 - 1) + (gamma2 - 1)`` insertions,
    each a list insert; past ``_DEFINITIONAL_RUNGS_MAX`` the system is
    refused."""
    chain = sigma_chain(system)
    if not 1 <= j <= chain.levels:
        raise ValueError(f"ladder_depths_definitional: level {j} out of range")
    rungs = system.gamma1 + system.gamma2 - 2
    if rungs > _DEFINITIONAL_RUNGS_MAX:
        raise ValueError(f"ladder_depths_definitional: up to {rungs} rungs to insert is past "
                         f"the limit of {_DEFINITIONAL_RUNGS_MAX}")
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


def _nearest(ladder, target) -> int:
    """The rung of a ``two_mod.Ladder`` nearest ``target``, ties to the
    smaller one."""
    lo, hi = ladder.neighbours(math.ceil(target))
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


# Observations (m1 * m2) the exactness scan solves at most, each once;
# values per histogram block, observations per chunk.
_EXACTNESS_CELLS_MAX = 1 << 20
_VALUE_BLOCK = 1 << 12
_OBS_CHUNK = 1 << 10


def level_exactness_scan(system: TwoModSystem, j: int) -> ExactnessScan:
    """Try every value below the level's range and every in-range integer error
    pair whose scaled difference stays in the guarantee window; the solver must
    recover the exact folds and keep the estimate within the largest error.

    A case is a value ``v`` and an observation ``(a, b)`` in ``[0, m1) x [0, m2)``
    whose errors ``d1 = a - v % m1``, ``d2 = b - v % m2`` have ``d1 - d2`` in
    ``[-w/2, w/2)``, ``w = m * sigma_j``.  Each observation that is a case of
    some value is solved once, in chunks of ``_OBS_CHUNK``, and its cases are
    counted in closed form from three facts about true folds:

    * ``d1 - d2 = (a - b) - (v % m1 - v % m2)``, so the observation's cases
      are a prefix sum over a histogram of the values by ``v % m1 - v % m2``;
    * the values with folds ``(n1, n2)`` are ``[max(n1*m1, n2*m2, 0),
      min((n1+1)*m1, (n2+1)*m2, range))`` and share ``v % m1 - v % m2 =
      n2*m2 - n1*m1``: the observation is a case of all of them or of none;
    * for those, with ``p <= q`` the reconstructions ``a + n1*m1`` and
      ``b + n2*m2``, the estimate misses when ``est > q`` and ``2v < est + p``,
      or ``est < p`` and ``2v > est + q``.

    Memory is O(``_OBS_CHUNK + _VALUE_BLOCK + m1 + m2``), and time one solve
    per reached observation plus one pass over the values, however many
    cases they make.  The scan refuses a system past int64 (values, folds
    and estimates stay below ``2 * lcm``) or ``_EXACTNESS_CELLS_MAX``
    observations.  The per-case loop of ``tests/oracle_reference.py`` is the
    brute-force check.
    """
    if system.is_real:
        raise ValueError("level_exactness_scan: integer systems only")
    if 2 * system.lcm >= 1 << 63:
        raise ValueError(f"level_exactness_scan: lcm {system.lcm} is past the scan's int64 range")
    m1, m2 = system.m1, system.m2
    if m1 * m2 > _EXACTNESS_CELLS_MAX:
        raise ValueError(f"level_exactness_scan: {m1 * m2} table cells (m1 * m2) are past the "
                         f"scan's limit of {_EXACTNESS_CELLS_MAX}")
    ctx = level_context(system, j)
    limit = ctx.dynamic_range
    window = system.m * ctx.sigma  # error differences allowed in [-window/2, window/2)
    lo_diff, hi_diff = -(window // 2), (window - 1) // 2
    width = m1 + m2 - 1  # diagonals k: a - b + m2 - 1, or v % m1 - v % m2 + m2 - 1
    below = np.zeros(width + 1, dtype=np.int64)  # values on the diagonals below each index
    for start in range(0, limit, _VALUE_BLOCK):
        v = np.arange(start, min(start + _VALUE_BLOCK, limit), dtype=np.int64)
        below[1:] += np.bincount(v % m1 - v % m2 + (m2 - 1), minlength=width)
    np.cumsum(below, out=below)
    k = np.arange(width)
    per_obs = below[np.clip(k - lo_diff + 1, 0, width)] - below[np.clip(k - hi_diff, 0, width)]
    cases = int(per_obs @ (np.minimum(k, m1 - 1) - np.maximum(k - (m2 - 1), 0) + 1))
    reached = ((a, a - c) for c in map(int, np.flatnonzero(per_obs) - (m2 - 1))
               for a in range(max(c, 0), min(m1, c + m2)))
    fold_fail = est_fail = 0
    while chunk := list(itertools.islice(reached, _OBS_CHUNK)):
        sols = (solve_with_context(ctx, RemainderObservation(a, b)) for a, b in chunk)
        n1, n2, est = np.array([(s.n1, s.n2, s.estimate) for s in sols], dtype=np.int64).T
        a, b = np.array(chunk, dtype=np.int64).T
        low = np.maximum(np.maximum(n1 * m1, n2 * m2), 0)
        size = np.maximum(np.minimum(np.minimum(n1 * m1 + m1, n2 * m2 + m2), limit) - low, 0)
        lag = (a - b) - (n2 * m2 - n1 * m1)  # d1 - d2 of the values with these folds
        size[(lag < lo_diff) | (lag > hi_diff)] = 0
        fold_fail += int(per_obs[a - b + (m2 - 1)].sum() - size.sum())
        p, q = np.minimum(a + n1 * m1, b + n2 * m2), np.maximum(a + n1 * m1, b + n2 * m2)
        over = np.clip((est + p + 1) // 2 - low, 0, size)  # values with 2v < est + p
        under = np.clip(low + size - (est + q) // 2 - 1, 0, size)  # values with 2v > est + q
        est_fail += int(over[est > q].sum() + under[est < p].sum())
    return ExactnessScan(j, cases, fold_fail, est_fail)


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
