"""Brute-force references for the closed forms.

The fold search, the CRT scan, the definitional depths and the adversarial
instances share no code path with the solvers they validate or with
``simkit``.  The fold search scans every candidate value in numpy blocks
shaped as rows of the first modulus' period, exact for int, rational and
float remainders, reading each side's deviation from a table computed once
per residue; the CRT scan is a plain loop; ladder depths are grown rung by
rung, each rung tested against the cells of width sigma_j around it, an
empty cell holding ``-mod``; and the adversarial instances follow the
tightness constructions directly.

The exactness scan is not independent of the solver.  It picks the solver's
folds through ``two_mod._exact_folds``, once per observation difference
``a - b``, and checks them against true folds it finds on its own: it
counts each observation's cases in closed form, from a histogram of the
values and the interval of values with given true folds.  Its estimate
check tests the scan's own rounded mean once per diagonal ``a - b``: there
the two reconstructions differ by a fixed lag, so the mean sits a fixed
offset above the lower one, and only a diagonal whose offset falls outside
the two reconstructions is expanded into its observations.  No diagonal's
offset does, so the check cannot fail; only
``test_solver_estimate_is_the_rounded_mean`` ties that mean to the solver's
estimate.  ``tests/oracle_reference.py`` keeps the per-case loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .crt_core import InconsistentRemainders
from .modmath import _checked_moduli
from .two_mod import (
    RemainderObservation,
    TwoModSystem,
    _exact_folds,
    _sigma_values,
    level_context,
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
# Candidates the fold search scans at most: 2^24 in int64, and 16 times
# fewer on Python integers, where a candidate costs about 15 times as much.
# Warm (Xeon, 2 cores, Python 3.11, numpy 2.4; tracemalloc peak in brackets),
# 2^24 int64 candidates take 0.02 s [1.5 MB] on (4097, 4099), whose periods
# fit in a block, and 0.17 s [2.6 MB] on (2^24 + 1, 2^24 + 3), whose periods
# do not; 2^20 Python integers take 0.02 s [1.8 MB] on (4097, 4099) with a
# remainder of 1/2^50, and 0.18 s [13.1 MB] on (2^62 + 1, 2^62 + 3), 0.4 s
# cold through ``reconstruct --oracle``.
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
    a bound past ``_FOLD_SEARCH_MAX`` candidates is refused, and on Python
    integers one past ``_FOLD_SEARCH_MAX >> 4``.

    Minimizes ``max(|r1~ - r1|, |r2~ - r2|)``; ties go to the smallest value.
    The candidates are scanned in numpy blocks of at most ``_SCAN_BLOCK``
    values, each block keeping its first minimum and the scan replacing its
    best only on a strictly smaller deviation.  A block is rows of
    ``cols = min(m1, bound, _SCAN_BLOCK)`` candidates and starts at a
    multiple of ``cols``, so while m1 fits in a block, side 1's deviations
    are one row broadcast along every block; the last block's candidates
    from the bound on are cut off.  Two int remainders are their
    own numerators over 1; any other remainder is taken as its exact
    ``Fraction`` (a float at its binary value; a NaN or an infinity raises
    ``ValueError``), and the two are scaled to integers over one common
    denominator.  The scan compares ``|a_i - den * (n % m_i)|`` exactly: in
    int64 while every magnitude stays below 2^62, in Python integers
    (``dtype=object``) beyond.  A side's deviation depends on ``n % m_i``
    only, so it is computed once per residue (see ``_side_deviations``) and
    each block is a max and an argmin over a row and a window of those
    values.  The reported deviation is the scalar expression at the chosen
    value, so its type follows the remainders.
    """
    if system.is_real:
        raise ValueError("exhaustive_fold_search: integer systems only")
    if not isinstance(search_bound, int) or isinstance(search_bound, bool):
        raise ValueError(f"exhaustive_fold_search: search bound {search_bound!r} must be an int")
    if search_bound < 1:
        raise ValueError(f"exhaustive_fold_search: search bound {search_bound} must be at least 1")
    if search_bound > system.lcm:
        raise ValueError("exhaustive_fold_search: bound exceeds the lcm")
    m1, m2, r1, r2 = system.m1, system.m2, obs.r1, obs.r2
    if type(r1) is int and type(r2) is int:
        a1, a2, den = r1, r2, 1
    else:
        try:
            f1, f2 = Fraction(r1), Fraction(r2)
        except (ValueError, OverflowError):
            raise ValueError(f"exhaustive_fold_search: remainders must be finite, got {obs}") from None
        den = math.lcm(f1.denominator, f2.denominator)
        a1, a2 = f1.numerator * (den // f1.denominator), f2.numerator * (den // f2.denominator)
    dtype = np.int64 if max(abs(a1), abs(a2), search_bound) + den * m2 < _INT64_SAFE else object
    limit = _FOLD_SEARCH_MAX if dtype is np.int64 else _FOLD_SEARCH_MAX >> 4
    if search_bound > limit:
        path = "" if dtype is np.int64 else " on Python integers"
        raise ValueError(f"exhaustive_fold_search: search bound {search_bound} is past the "
                         f"search's limit of {limit} candidates{path}")
    cols = min(m1, search_bound, _SCAN_BLOCK)  # a block is rows of side 1's period
    size = cols * min(_SCAN_BLOCK // cols, -(-search_bound // cols))
    side1 = _side_deviations(a1, den, m1, search_bound, cols, dtype)
    side2 = _side_deviations(a2, den, m2, search_bound, size, dtype)
    best_n, best_dev = 0, None
    for start in range(0, search_bound, size):
        dev = np.maximum(side2(start).reshape(-1, cols), side1(start)).ravel()
        dev = dev[:search_bound - start]  # the last block runs past the bound
        i = int(dev.argmin())
        if best_dev is None or dev[i] < best_dev:
            best_n, best_dev = start + i, dev[i]
    deviation = max(abs(r1 - best_n % m1), abs(r2 - best_n % m2))
    return FoldSearchResult(best_n // m1, best_n // m2, best_n, deviation)


def _side_deviations(a, den: int, mod: int, bound: int, size: int, dtype):
    """``|a - den * (n % mod)|`` for the candidates ``n < bound``, as a
    function from the start of a scan block, a multiple of ``size``, to the
    block's ``size`` values; those from ``bound`` on are not candidates.

    A period that fits in a block is tabulated once, ``min(mod, bound)``
    residues, and laid out periodically, whole periods filled by one
    broadcast, so the block starting at ``start`` is the contiguous window
    at ``start % mod``.  The layout covers one block when that window always
    starts at 0, for a single block or a block of whole periods (side 1's
    row), and ``mod - 1`` plus one block otherwise.
    A longer period is never tabulated in full: each block computes its own
    residues, at most two increasing runs.  Either way a side holds
    O(``size``) values.
    """
    period = min(mod, bound)
    if period <= size:
        span = size if bound <= size or size % mod == 0 else period - 1 + size
        laid = np.empty((-(-span // period), period), dtype=dtype)  # whole periods
        laid[:] = abs(np.arange(a, a - den * period, -den, dtype=dtype))
        laid = laid.ravel()
        return lambda start: laid[start % mod:start % mod + size]

    def window(start):
        lead = start % mod
        k = np.arange(lead, lead + size, dtype=dtype)
        k[mod - lead:] -= mod  # the run that wraps past the period
        return abs(a - den * k)

    return window


# Rungs the definitional depths place at most, both ladders together, each in
# O(1): at the limit, ``verify --m1 2097151 --m2 2097155`` places exactly 2^22
# and answers in 1.5-2.0 s cold at 114 MB max RSS (Xeon, 2 cores, Python 3.11).
_DEFINITIONAL_RUNGS_MAX = 1 << 22


def ladder_depths_definitional(system: TwoModSystem, j: int) -> tuple[int, int]:
    """Ladder depths straight from the definition: grow each ladder until its
    minimum gap drops below sigma_j, and return the last depth that held.

    While every gap is at least sigma_j, a cell of width sigma_j holds at most
    one rung, so a new rung has a neighbour closer than sigma_j exactly when
    one sits in its own cell or in a cell next to it.  Rung ``x`` lives in
    cell ``x // sigma_j + 1``; an empty cell holds ``-mod``, below every
    rung, so a rung tests its own cell by sign and each neighbour with one
    subtraction: the left one holds a rung below ``x`` or is ``mod`` or more
    away, the right one a rung above ``x`` or lies below it.  The two ladders
    place at most ``(gamma1 - 1) + (gamma2 - 1)`` rungs, each in O(1); past
    ``_DEFINITIONAL_RUNGS_MAX`` the system is refused."""
    sigmas, top = _sigma_values(system.gamma1, system.gamma2)  # levels 1..top + 1
    if not 1 <= j <= top + 1:
        raise ValueError(f"ladder_depths_definitional: level {j} out of range")
    rungs = system.gamma1 + system.gamma2 - 2
    if rungs > _DEFINITIONAL_RUNGS_MAX:
        raise ValueError(f"ladder_depths_definitional: up to {rungs} rungs to insert is past "
                         f"the limit of {_DEFINITIONAL_RUNGS_MAX}")
    target = sigmas[j + 1]  # sigma_j

    def grow(base: int, mod: int) -> int:
        cells = [-mod] * (mod // target + 3)
        cells[1] = 0
        for t in range(1, mod):
            x = t * base % mod
            k = x // target + 1
            if cells[k] >= 0 or x - cells[k - 1] < target or 0 < cells[k + 1] - x < target:
                return t - 1
            cells[k] = x
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


# Table cells (m1 * m2 observations) the exactness scan covers at most; they
# bound both what it spends per level, one pass over the values below the
# range (at most the lcm, so at most the cells) and one fold pick per reached
# diagonal (m1 + m2 - 1), and its memory, O(m1 + m2).  At the limit, cold
# (Xeon, 2 cores, Python 3.11, numpy 2.4), ``verify --m1 1023 --m2 1025
# --exhaustive`` (1,048,575 cells, two levels) answers in 0.33-0.36 s at
# 30 MB max RSS, most of it the interpreter and numpy starting up.  Values
# per histogram block; diagonals per chunk, and observations per expansion.
_EXACTNESS_CELLS_MAX = 1 << 20
_VALUE_BLOCK = 1 << 12
_OBS_CHUNK = 1 << 10


def level_exactness_scan(system: TwoModSystem, j: int) -> ExactnessScan:
    """Try every value below the level's range and every in-range integer error
    pair whose scaled difference stays in the guarantee window; the solver must
    recover the exact folds and keep the estimate within the largest error.

    A case is a value ``v`` and an observation ``(a, b)`` in ``[0, m1) x [0, m2)``
    whose errors ``d1 = a - v % m1``, ``d2 = b - v % m2`` have ``d1 - d2`` in
    ``[-w/2, w/2)``, ``w = m * sigma_j``.  An observation is reached when it
    is a case of some value.  ``solve_with_context`` picks an int
    observation's folds with ``two_mod._exact_folds(ctx, a - b, m)``, so
    they depend on ``a - b`` only: the scan picks them once per reached
    difference through that same function, so it shares the solver's fold
    pick and checks it only against the true folds.  Its estimate is the
    solver's rounded mean ``(x1 + x2 + 1) // 2`` of the reconstructions
    ``x1 = a + n1*m1``, ``x2 = b + n2*m2``; the scan never calls the solver
    for it.  On a diagonal ``a - b`` the folds are fixed, so ``x1 - x2 =
    lag`` is too, and the mean sits ``_mean_offset(lag) = (|lag| + 1) // 2``
    above ``p = min(x1, x2)``: the scan checks that offset once per
    diagonal, and builds a diagonal's observations and counts their misses
    with ``_estimate_misses`` only when it falls outside ``[0, |lag|]``, at
    most ``max(_OBS_CHUNK, m1)`` observations at a time.  A rounded mean of
    two reconstructions lies between them, so no diagonal is expanded and
    the estimate check cannot fail.  Only
    ``test_solver_estimate_is_the_rounded_mean`` pins the solver's estimate
    to it.  The cases are counted in closed form from three facts about true
    folds:

    * ``d1 - d2 = (a - b) - (v % m1 - v % m2)``, so the observation's cases
      are a prefix sum over a histogram of the values by ``v % m1 - v % m2``;
    * the values with folds ``(n1, n2)`` are ``[max(n1*m1, n2*m2, 0),
      min((n1+1)*m1, (n2+1)*m2, range))`` and share ``v % m1 - v % m2 =
      n2*m2 - n1*m1``: the observation is a case of all of them or of none;
    * for those, the estimate misses as ``_estimate_misses`` counts, which
      is never while it is the rounded mean of the two reconstructions.

    The reached diagonals go in chunks of ``_OBS_CHUNK``.  Memory is
    O(``_OBS_CHUNK + _VALUE_BLOCK + m1 + m2``), and time one fold pick and
    int64 work per reached difference and one pass over the values, however
    many cases they make.  The scan refuses a system past int64 (values,
    folds and estimates stay below ``2 * lcm``) or ``_EXACTNESS_CELLS_MAX``
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
    reached = np.flatnonzero(per_obs)
    group = max(1, _OBS_CHUNK // m1)  # diagonals expanded at once, at most m1 observations each
    fold_fail = est_fail = 0
    for start in range(0, len(reached), _OBS_CHUNK):
        diag = reached[start:start + _OBS_CHUNK]
        diff = diag - (m2 - 1)  # a - b
        folds = (_exact_folds(ctx, c, system.m) for c in map(int, diff))
        n1, n2 = np.fromiter(folds, dtype=(np.int64, 2), count=len(diff)).T
        low = np.maximum(np.maximum(n1 * m1, n2 * m2), 0)
        size = np.maximum(np.minimum(np.minimum(n1 * m1 + m1, n2 * m2 + m2), limit) - low, 0)
        lag = diff - (n2 * m2 - n1 * m1)  # d1 - d2 of the values with these folds
        size[(lag < lo_diff) | (lag > hi_diff)] = 0
        first = np.maximum(diff, 0)
        count = np.minimum(diff + m2, m1) - first  # observations a = first.., b = a - diff
        fold_fail += int(count @ (per_obs[diag] - size))
        off = _mean_offset(lag)  # est - p on the whole diagonal, as x1 - x2 = lag
        # est outside [p, q]: never while est is the rounded mean
        out = np.flatnonzero((off < 0) | (off > abs(lag)))
        for at in range(0, len(out), group):  # only those diagonals are expanded into observations
            i = out[at:at + group]
            r = np.repeat(np.arange(len(i)), count[i])  # each observation's diagonal, in i
            a = np.arange(len(r)) + (first[i] + count[i] - np.cumsum(count[i]))[r]
            d = i[r]
            x1, x2 = a + n1[d] * m1, a - diff[d] + n2[d] * m2  # a + n1*m1 and b + n2*m2
            p = np.minimum(x1, x2)
            est_fail += _estimate_misses(p + off[d], p, np.maximum(x1, x2), low[d], size[d])
    return ExactnessScan(j, cases, fold_fail, est_fail)


def _mean_offset(lag):
    """How far ``solve_with_context``'s rounded mean ``(x1 + x2 + 1) // 2``
    lies above ``min(x1, x2)`` when ``x1 - x2 = lag``."""
    return (abs(lag) + 1) // 2


def _estimate_misses(est, p, q, low, size) -> int:
    """Values the estimates miss: entry ``i`` stands for the values
    ``low[i] .. low[i] + size[i] - 1``, each reconstructed as ``p[i] <= q[i]``,
    and ``est[i]`` misses a value ``v`` when it lies farther from ``v`` than
    both reconstructions do: ``est > q`` and ``2v < est + p``, or ``est < p``
    and ``2v > est + q``."""
    over = np.clip((est + p + 1) // 2 - low, 0, size)  # values with 2v < est + p
    under = np.clip(low + size - (est + q) // 2 - 1, 0, size)  # values with 2v > est + q
    return int(over[est > q].sum() + under[est < p].sum())


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
