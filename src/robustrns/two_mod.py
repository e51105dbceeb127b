"""Two-modulus fold recovery: trade-off levels, residue ladders, closed-form solvers.

A value N written as ``N = n_i * m_i + r_i`` for two moduli ``m_i = m * gamma_i``
can be recovered from erroneous remainders as long as the fold integers ``n_i``
are identified exactly.  The chain of Euclidean remainders of the cofactor pair
parameterizes a ladder of trade-off levels: lower levels tolerate larger
remainder errors over a smaller usable range, higher levels reach the full lcm
with the smallest error budget.  Everything here is exact: integer and rational
observations and floats alike go through integer arithmetic: a float is
taken at its exact binary value ``p / 2^k``, every input (a real system's
``m`` included) is scaled to an integer over one common denominator, and
every test is cross-multiplied.  The reported mean is a ``Fraction``, built
when first read, for int and rational inputs; for a real system or a float
remainder it is the exact mean rounded to a float once, at the end.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .modmath import (_CACHE_SIZE, _checked_moduli, _solver_record, common_denominator,
                      mod_inverse, round_div)


@dataclass(frozen=True)
class TwoModSystem:
    """Moduli ``m1 = m * gamma1 < m2 = m * gamma2`` with coprime cofactors.

    ``m`` is an int in integer mode and a float in real-scalar mode; the
    cofactors are integers either way and must satisfy ``1 < gamma1 < gamma2``.
    The mode is part of the identity: ``==`` and the hash compare
    ``(is_real, m, gamma1, gamma2)``, so ``real(4.0, 2, 3)`` and
    ``TwoModSystem(4, 2, 3)`` are different systems with their own cached
    contexts.  The hash is computed once, since every cached lookup keyed on
    the system hashes it; it is not a field, so ``repr``, ``asdict`` and the
    pickled state are those of the three fields.
    """

    m: int | float
    gamma1: int
    gamma2: int

    def __post_init__(self):
        if not isinstance(self.gamma1, int) or not isinstance(self.gamma2, int):
            raise ValueError("TwoModSystem: cofactors must be integers")
        if not 1 < self.gamma1 < self.gamma2:
            raise ValueError(
                f"TwoModSystem: need 1 < gamma1 < gamma2, got ({self.gamma1}, {self.gamma2})"
            )
        if math.gcd(self.gamma1, self.gamma2) != 1:
            raise ValueError(
                f"TwoModSystem: cofactors ({self.gamma1}, {self.gamma2}) are not coprime"
            )
        if isinstance(self.m, bool) or not (isinstance(self.m, int) and self.m > 0) and not (
            isinstance(self.m, float) and math.isfinite(self.m) and self.m > 0
        ):
            raise ValueError(f"TwoModSystem: invalid common factor m={self.m!r}")
        key = (self.is_real, self.m, self.gamma1, self.gamma2)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if not isinstance(other, TwoModSystem):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __getstate__(self):
        return {"m": self.m, "gamma1": self.gamma1, "gamma2": self.gamma2}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def from_moduli(cls, m1: int, m2: int) -> "TwoModSystem":
        """Integer-mode system from the two moduli themselves."""
        _checked_moduli("from_moduli", (m1, m2))
        if not m1 < m2:
            raise ValueError(f"from_moduli: need 0 < m1 < m2, got ({m1}, {m2})")
        m = math.gcd(m1, m2)
        return cls(m, m1 // m, m2 // m)

    @classmethod
    def real(cls, m: float, gamma1: int, gamma2: int) -> "TwoModSystem":
        """Real-scalar system: real common factor, integer cofactors."""
        return cls(float(m), gamma1, gamma2)

    @property
    def is_real(self) -> bool:
        return isinstance(self.m, float)

    def _times(self, k: int) -> int | float:
        """``m * k`` for an integer ``k``; in real-scalar mode the exact
        product of ``m``'s binary value and ``k``, rounded to a float once;
        a product past the float range is refused with a ``ValueError``."""
        if self.is_real:
            p, q = self.m.as_integer_ratio()
            try:
                return p * k / q
            except OverflowError:
                raise ValueError(f"{self!r}: m * {k} is past the float range") from None
        return self.m * k

    @property
    def m1(self):
        return self._times(self.gamma1)

    @property
    def m2(self):
        return self._times(self.gamma2)

    @property
    def lcm(self):
        return self._times(self.gamma1 * self.gamma2)


@dataclass(frozen=True)
class RemainderObservation:
    """Observed (possibly erroneous) remainders.

    Values normally lie in ``[0, m_i)``; the solvers tolerate excursions, and
    every exactness guarantee is stated purely in terms of the error window.
    """

    r1: int | float
    r2: int | float


@_solver_record
@dataclass(frozen=True)
class FoldingSolution:
    """Recovered fold integers plus the averaged reconstruction.

    ``estimate`` is the rounded mean in integer mode and the mean itself in
    real-scalar mode; ``mean`` always keeps the unrounded average.  For a real
    system or a float remainder the mean is the exact mean rounded to a
    float; otherwise the solvers leave it as an integer ratio and build its
    ``Fraction`` on first read.
    """

    n1: int
    n2: int
    estimate: int | float
    mean: Fraction | float


@dataclass(frozen=True)
class SigmaChain:
    """Euclidean remainder chain of the cofactors: values[0] is sigma_{-1}.

    ``sigma(-1) = gamma2``, ``sigma(0) = gamma1``, and each later entry is the
    remainder of the entry two back modulo the previous one; ``k`` is the last
    index whose entry exceeds 1, so the chain ends at ``sigma(k + 1) = 1``.
    """

    values: tuple[int, ...]
    k: int

    def sigma(self, i: int) -> int:
        return self.values[i + 1]

    @property
    def levels(self) -> int:
        return self.k + 1


@dataclass(frozen=True)
class DeltaChain:
    """Minimum-remainder chain used by the prior-art baseline bounds.

    ``values[0] = m2``, ``values[1] = m1``, ``values[2] = m2 mod m1`` and each
    later entry is ``min(x, prev - x)`` with ``x`` the remainder of the entry
    two back modulo the previous one.  Every entry is a multiple of ``m`` and
    ``g`` is the index of the final entry, which equals ``m``.
    """

    values: tuple
    g: int

    def delta(self, i: int) -> int | float:
        return self.values[i + 1]


@dataclass(frozen=True)
class RobustnessLevel:
    """One row of the range/error trade-off table."""

    j: int
    sigma: int
    depth1: int
    depth2: int
    dynamic_range: int | float
    robustness_bound: Fraction | float


@lru_cache(maxsize=_CACHE_SIZE)
def _sigma_values(gamma1: int, gamma2: int) -> tuple[tuple[int, ...], int]:
    values = [gamma2, gamma1]
    while values[-1] != 1:
        values.append(values[-2] % values[-1])
    return tuple(values), len(values) - 3  # k: last index (from -1) with value > 1


def sigma_chain(system: TwoModSystem) -> SigmaChain:
    values, k = _sigma_values(system.gamma1, system.gamma2)
    return SigmaChain(values, k)


def delta_chain(system: TwoModSystem) -> DeltaChain:
    """Baseline chain, scaled by m so it starts at (m2, m1)."""
    rel = [system.gamma2, system.gamma1, system.gamma2 % system.gamma1]
    while rel[-1] != 1:
        x = rel[-2] % rel[-1]
        rel.append(min(x, rel[-1] - x))
    return DeltaChain(tuple(system.m * v for v in rel), len(rel) - 2)


def delta_baseline(system: TwoModSystem) -> list[tuple[int, int, Fraction, int, int]]:
    """The prior-art baseline rows ``(i, delta_i, delta_i / 4, range_low,
    range_high)`` of an integer system, one per entry of its delta chain.

    Errors below ``delta_i / 4`` leave a value recoverable over the baseline's
    range, which it brackets between ``range_low`` and ``range_high``.
    """
    if system.is_real:
        raise ValueError("delta_baseline: integer systems only")
    ch = delta_chain(system)
    m1, m2 = system.m1, system.m2
    d1 = ch.delta(1)
    base = m1 * (1 + (m2 // m1) * (m1 // d1))
    rows = [(1, d1, Fraction(d1, 4), base, base)]
    lower = base
    for i in range(2, ch.g + 1):
        di = ch.delta(i)
        lower *= ch.delta(i - 1) // di
        upper = max(m1 * (m2 // di), m2 * (m1 // di))
        rows.append((i, di, Fraction(di, 4), lower, upper))
    return rows


@lru_cache(maxsize=_CACHE_SIZE)
def _depth_tables(gamma1: int, gamma2: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ladder depths for j = 1..k+1: the closed-form recurrences in
    ``q_j = sigma_{j-1} // sigma_j`` for j = 1..k, seeded with
    ``d1[-1] = 0``, ``d1[0] = gamma2 // gamma1`` and ``d2[-1] = d2[0] = 0``,
    then the full depths ``(gamma2 - 1, gamma1 - 1)`` at j = k+1."""
    values, k = _sigma_values(gamma1, gamma2)
    d1, d2 = [0, gamma2 // gamma1], [0, 0]
    for j in range(1, k + 1):  # sigma_j is values[j + 1]
        q, odd = values[j] // values[j + 1], j % 2
        d1.append(q * (d1[-1] + 1 - odd) + d1[-2])  # the + 1 at even j
        d2.append(q * (d2[-1] + odd) + d2[-2])  # and at odd j
    return (*d1[2:], gamma2 - 1), (*d2[2:], gamma1 - 1)


def ladder_depths(system: TwoModSystem, j: int) -> tuple[int, int]:
    """Closed-form ladder depths ``(depth1, depth2)`` at level ``j``."""
    d1, d2 = _depth_tables(system.gamma1, system.gamma2)
    if not 1 <= j <= len(d1):
        raise ValueError(f"ladder_depths: level {j} out of range [1, {len(d1)}]")
    return d1[j - 1], d2[j - 1]


def _level_row(system: TwoModSystem, j: int) -> RobustnessLevel:
    """Row ``j`` of the trade-off table: the range is ``m`` times the smaller
    ladder span and the bound ``m * sigma / 4``, each a float in real-scalar
    mode and exact otherwise."""
    depth1, depth2 = ladder_depths(system, j)
    s = sigma_chain(system).sigma(j)
    rng = system._times(min(system.gamma2 * (1 + depth2), system.gamma1 * (1 + depth1)))
    bound = system.m * s / 4.0 if system.is_real else Fraction(system.m * s, 4)
    return RobustnessLevel(j, s, depth1, depth2, rng, bound)


def level_table(system: TwoModSystem) -> tuple[RobustnessLevel, ...]:
    """All trade-off rows, from the most robust level up to the full lcm."""
    return tuple(_level_row(system, j) for j in range(1, sigma_chain(system).levels + 1))


def _least(n: int, mod: int, a: int, b: int) -> int:
    """``min((a * t + b) % mod for t in range(n))`` for ``n, mod >= 1`` and
    any integers ``a``, ``b``, in O(log mod) steps.

    With ``2 a <= mod`` the walk climbs by ``a``, so its least value is ``b``
    or one just after a wrap; the ``k``-th of those is ``(b - k mod) % a``:
    the same question on ``(-mod % a, a)``.  With ``2 a > mod`` the walk
    climbs by ``mod - a`` when read backwards from ``t = n - 1``."""
    least, last = mod, n - 1
    while True:
        a %= mod
        if 2 * a > mod:
            a, b = mod - a, (a * last + b) % mod
        else:
            b %= mod
        if b < least:
            least = b
        wraps = (a * last + b) // mod
        if not wraps:
            return least
        last, mod, a, b = wraps - 1, a, -mod, b - mod


@dataclass(frozen=True)
class Ladder:
    """The rungs ``|t * base|_mod``, ``t = 0..depth``, and each rung's fold
    ``t``, held as those four numbers.  A ladder answers ``neighbours`` and
    ``nearest`` with Euclid-style walks, in O(log mod) integer steps and
    O(1) memory at any size: the rung nearest an edge on either side is the
    least value of one walk over ``t`` (``_least``), and at full depth,
    where every residue is a rung, the first rung at or above an edge is the
    edge itself.  Rungs are distinct since ``depth < mod``.
    ``len`` is ``depth + 1``, which overflows past 2^63 rungs, so the solvers
    never take it."""

    base: int
    mod: int
    depth: int
    inverse: int  # of base modulo mod: a rung's fold is rung * inverse % mod

    def __len__(self) -> int:
        return self.depth + 1

    def fold(self, rung):
        """The ``t`` of a rung; elementwise on an integer numpy array."""
        return rung * self.inverse % self.mod

    def _above(self, edge: int) -> int:
        """The first rung at or above ``edge >= 0``, or a number of at least
        ``mod`` if every rung lies below it."""
        if self.depth == self.mod - 1:
            return edge
        return edge + _least(self.depth + 1, self.mod, self.base, -edge)

    def neighbours(self, edge: int) -> tuple[int, int]:
        """``(lo, hi)``: the last rung below the integer ``edge`` and the
        first at or above it, each clipped to the ladder's ends.  Each is one
        walk: rungs at or above ``edge`` wrap past every rung below it."""
        if edge <= 0:
            return 0, 0
        edge = min(edge, self.mod)
        lo = edge - 1 - _least(self.depth + 1, self.mod, -self.base, edge - 1)  # rung 0 is below
        hi = self._above(edge)
        return lo, hi if hi < self.mod else lo

    def nearest(self, num: int, scale: int, sigma: int, left_open: bool) -> int:
        """The fold of the rung nearest ``target = num / scale`` (``scale >
        0``), for a ladder whose rungs are at least ``sigma`` apart.  A rung
        less than ``sigma / 2`` from the target is the only one there, so the
        first rung at or above that window's low edge is it if it lies in
        the window.  Otherwise the nearer of the target's neighbours, the
        last rung below ``ceil(target)`` and the first at or above it, each
        clipped to the ladder's ends, is picked.  An exact tie goes up only
        on a left-open window ``(t - sigma/2, t + sigma/2]`` with the two
        rungs ``sigma`` apart, and down otherwise: ``LevelKernel``'s
        threshold rule."""
        # the window: integers x with |2 x scale - 2 num| < sigma scale
        twice, reach = 2 * num, sigma * scale
        rung = self._above(max((twice - reach) // (2 * scale) + 1, 0))
        if rung < self.mod and 2 * rung * scale < twice + reach:
            return self.fold(rung)
        lo, hi = self.neighbours(-(-num // scale))
        side = 2 * num - (lo + hi) * scale
        return self.fold(hi if side > 0 or side == 0 and left_open and hi - lo == sigma else lo)


# Entries a level's signed table holds at most, rung 0 counted on both
# sides (``depth1 + depth2 + 2``); a larger level picks its folds by the
# walks.  At the cap, the full level of (1023, 1025), the table builds in
# 0.8 ms and holds 206 KB (tracemalloc peak 350 KB; Xeon, Python 3.11).
SIGNED_TABLE_MAX = 1 << 11


@dataclass(frozen=True)
class LevelContext(RobustnessLevel):
    """A level's row plus its two ladders, cached per (system, level) so hot
    loops never rebuild them; the picked rung's fold is ``n1`` on ``s1`` and
    ``n2`` on ``s2``.  On a level of at most ``SIGNED_TABLE_MAX`` signed
    rungs the first solve also builds ``_table``, the signed ladder
    ``LevelKernel`` reads, from which ``_exact_folds`` picks both folds with
    one bisect."""

    system: TwoModSystem
    s1: Ladder  # |t*gamma1|_gamma2, t = 0..depth1
    s2: Ladder  # |t*gamma2|_gamma1, t = 0..depth2

    @cached_property
    def _table(self) -> tuple[tuple[int, ...], int, tuple[int, ...], tuple[int, ...]] | None:
        """``(keys, len(keys), n1, n2)`` over the signed rungs in ascending
        order: ladder 1's rungs negated, rung 0 twice (ladder 1's copy, the
        pick for ``q < 0``, then ladder 2's) and ladder 2's rungs, with each
        rung's folds in ``n1`` and ``n2``.  Between neighbours ``lo < hi`` the
        key ``2 (lo + hi) + b`` holds ``Ladder.nearest``'s tie rule: ``b = 1``
        sends a target at the midpoint down, as on ladder 2's side where the
        gap is not ``sigma``, and ``b = 0`` up.  None on larger levels."""
        g1, g2 = self.system.gamma1, self.system.gamma2
        if self.depth1 + self.depth2 + 2 > SIGNED_TABLE_MAX:
            return None
        r1, t1 = zip(*sorted(((t * g1 % g2, t) for t in range(self.depth1 + 1)), reverse=True))
        r2, t2 = zip(*sorted((t * g2 % g1, t) for t in range(self.depth2 + 1)))
        rungs = [-rung for rung in r1] + list(r2)
        keys = tuple(2 * (lo + hi) + (hi > 0 and hi - lo != self.sigma)
                     for lo, hi in zip(rungs, rungs[1:]))
        return (keys, len(keys), (*t1, *(t * g2 // g1 for t in t2)),
                (*(t * g1 // g2 for t in t1), *t2))


@lru_cache(maxsize=_CACHE_SIZE)
def level_context(system: TwoModSystem, j: int) -> LevelContext:
    row = _level_row(system, j)
    g1, g2 = system.gamma1, system.gamma2
    return LevelContext(**vars(row), system=system,
                        s1=Ladder(g1, g2, row.depth1, mod_inverse(g1, g2)),
                        s2=Ladder(g2, g1, row.depth2, mod_inverse(g2, g1)))


def _exact_parts(system: TwoModSystem, obs: RemainderObservation, caller: str):
    """``(a1, a2, mn, den, as_float)``: integers with ``r_i = a_i / den``,
    ``m = mn / den`` and ``den > 0``, floats taken at their exact binary value,
    and whether the mean is reported as a float (a real system or a float
    remainder).  A remainder that is not a number is refused in ``caller``'s
    name.  All of it is per-call work.  Two float remainders on a real system
    take ``common_denominator``'s all-float branch, written out for three
    values; any other mix, a NaN or an infinity included, goes through it."""
    r1, r2, m = obs.r1, obs.r2, system.m
    if type(r1) is float and type(r2) is float and type(m) is float:
        try:
            (a1, d1), (a2, d2), (mn, dm) = (r1.as_integer_ratio(), r2.as_integer_ratio(),
                                            m.as_integer_ratio())
        except (ValueError, OverflowError):
            pass  # common_denominator names the NaN or infinity
        else:
            den = max(d1, d2, dm)
            return a1 * (den // d1), a2 * (den // d2), mn * (den // dm), den, True
    (a1, a2, mn), den = common_denominator((r1, r2, m), caller)
    return a1, a2, mn, den, isinstance(m, float) or isinstance(r1, float) or isinstance(r2, float)


def _solution(system: TwoModSystem, n1: int, n2: int, exact) -> FoldingSolution:
    """Folds plus the averaged reconstruction ``(n1 m1 + r1 + n2 m2 + r2) / 2``,
    exact from ``exact``, what ``_exact_parts`` returns.  A real system or a
    float remainder gets the exact mean rounded to a float, which is also the
    estimate in real mode; otherwise the mean stays the exact ratio."""
    a1, a2, mn, den, as_float = exact
    total = (n1 * system.gamma1 + n2 * system.gamma2) * mn + a1 + a2
    record = object.__new__(FoldingSolution)  # filled in place, as _solver_record says
    state = record.__dict__
    mean = total / (2 * den) if as_float else (total, 2 * den)
    state["n1"], state["n2"] = n1, n2
    state["estimate"] = mean if as_float and isinstance(system.m, float) else (total + den) // (2 * den)
    state["mean" if as_float else "_mean_ratio"] = mean
    return record


def solve_basic(system: TwoModSystem, obs: RemainderObservation) -> FoldingSolution:
    """Closed-form fold recovery for the coarsest trade-off level.

    Exact whenever the value lies below ``m1 * (1 + (g2 // g1) * (g1 // b))``
    with ``b = gamma2 mod gamma1`` and the scaled error difference
    ``(dr1 - dr2) / m`` falls in ``[-b/2, b/2)``.
    """
    g1 = system.gamma1
    beta = system.gamma2 % g1
    top = (g1 // beta) * beta  # the wrapped quotient must lie in [beta/2, top - beta/2)
    exact = _exact_parts(system, obs, "solve_basic")
    a1, a2, scale, _, _ = exact
    num = a1 - a2  # q = (r1 - r2) / m = num / scale
    n2 = 0
    if 2 * num >= beta * scale:
        n2 = round_div(num, beta * scale)
    elif 2 * num < -beta * scale:
        wrap = num % (g1 * scale)  # (q mod g1) * scale
        if beta * scale <= 2 * wrap < (2 * top - beta) * scale:
            n2 = round_div(wrap, beta * scale)
    n1 = round_div(n2 * system.gamma2 * scale - num, g1 * scale)
    return _solution(system, n1, n2, exact)


def solve_level(system: TwoModSystem, obs: RemainderObservation, j: int) -> FoldingSolution:
    """Ladder-window fold recovery at trade-off level ``j``.

    Exact whenever the value lies below the level's dynamic range and the
    scaled error difference ``(dr1 - dr2) / m`` falls in
    ``[-sigma_j / 2, sigma_j / 2)``.
    """
    ctx = level_context(system, j)
    return solve_with_context(ctx, obs, "solve_level")


def solve_with_context(ctx: LevelContext, obs: RemainderObservation,
                       _caller: str = "solve_with_context") -> FoldingSolution:
    """``solve_level`` on a built context.  Int remainders on an integer
    system, the hot case, skip ``_exact_parts`` and ``_solution``."""
    system = ctx.system
    r1, r2, m = obs.r1, obs.r2, system.m
    if type(r1) is int and type(r2) is int and type(m) is int:
        n1, n2 = _exact_folds(ctx, r1 - r2, m)
        total = (n1 * system.gamma1 + n2 * system.gamma2) * m + r1 + r2
        record = object.__new__(FoldingSolution)
        state = record.__dict__
        state["n1"], state["n2"], state["estimate"] = n1, n2, (total + 1) // 2
        state["_mean_ratio"] = (total, 2)
        return record
    exact = _exact_parts(system, obs, _caller)
    n1, n2 = _exact_folds(ctx, exact[0] - exact[1], exact[2])
    return _solution(system, n1, n2, exact)


def _exact_folds(ctx: LevelContext, num: int, scale: int) -> tuple[int, int]:
    """The folds ``solve_with_context`` recovers from an observation with
    ``q = (r1 - r2) / m = num / scale`` (``scale > 0``): those of the signed
    rung nearest ``q``.  With a ``_table``, ``x = floor(2 q) + ceil(2 q)``
    ranks ``q`` among its keys, and a rung between two thresholds gives both
    folds.  Without one, the ladder on ``q``'s side answers ``nearest``.
    Past an end rung, or from ``nearest``, the picked ladder's fold stays and
    the other is rounded from it."""
    table = ctx._table
    if table is not None:
        keys, top, n1s, n2s = table
        twice = 2 * num
        i = bisect.bisect_right(keys, twice // scale - (-twice // scale))
        if 0 < i < top:
            return n1s[i], n2s[i]
        up, fold = (True, n2s[i]) if i else (False, n1s[0])
    elif 2 * num >= ctx.sigma * scale:
        up, fold = True, ctx.s2.nearest(num, scale, ctx.sigma, True)
    elif 2 * num < -ctx.sigma * scale:
        up, fold = False, ctx.s1.nearest(-num, scale, ctx.sigma, False)
    else:
        return 0, 0
    system = ctx.system
    if up:
        den = system.gamma1 * scale
        return (2 * (fold * system.gamma2 * scale - num) + den) // (2 * den), fold
    den = system.gamma2 * scale
    return fold, (2 * (fold * system.gamma1 * scale + num) + den) // (2 * den)


def solve_level_real(system: TwoModSystem, obs: RemainderObservation, j: int) -> FoldingSolution:
    """Real-scalar entry point: ``solve_level``'s control flow on the exact
    values of the float inputs and of ``m``, with the mean, which is also the
    estimate, rounded to a float once at the end."""
    if not system.is_real:
        raise ValueError("solve_level_real: system is not in real-scalar mode")
    return solve_with_context(level_context(system, j), obs, "solve_level_real")


def true_folds(system: TwoModSystem, value) -> tuple[int, int]:
    """Fold integers of a value, ``n_i = floor(value / (m * gamma_i))``, taken
    exactly (a float value and a real ``m`` at their binary values)."""
    (v, mn), _ = common_denominator((value, system.m), "true_folds")
    return v // (mn * system.gamma1), v // (mn * system.gamma2)
