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
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .modmath import _CACHE_SIZE, _record, _solver_record, common_denominator, mod_inverse, round_div


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
        if not (isinstance(m1, int) and isinstance(m2, int)):
            raise ValueError("from_moduli: moduli must be integers")
        if not 0 < m1 < m2:
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
        product of ``m``'s binary value and ``k``, rounded to a float once."""
        if self.is_real:
            p, q = self.m.as_integer_ratio()
            return p * k / q
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
    """Ladder depths for j = 1..k+1, by the closed-form recurrences."""
    values, k = _sigma_values(gamma1, gamma2)

    def sig(i):
        return values[i + 1]

    if k == 0:
        return (gamma2 - 1,), (gamma1 - 1,)
    d1 = {1: (gamma2 // gamma1) * (gamma1 // sig(1))}
    d2 = {1: gamma1 // sig(1)}
    if k >= 2:
        q1, q2 = gamma2 // gamma1, sig(1) // sig(2)
        d1[2] = q1 * d2[1] * q2 + q2 + q1
        d2[2] = d2[1] * q2
    for j in range(3, k + 1):
        q = sig(j - 1) // sig(j)
        if j % 2 == 1:
            d2[j] = q * (d2[j - 1] + 1) + d2[j - 2]
            d1[j] = q * d1[j - 1] + d1[j - 2]
        else:
            d2[j] = q * d2[j - 1] + d2[j - 2]
            d1[j] = q * (d1[j - 1] + 1) + d1[j - 2]
    d1[k + 1] = gamma2 - 1
    d2[k + 1] = gamma1 - 1
    return (
        tuple(d1[j] for j in range(1, k + 2)),
        tuple(d2[j] for j in range(1, k + 2)),
    )


def ladder_depths(system: TwoModSystem, j: int) -> tuple[int, int]:
    """Closed-form ladder depths ``(depth1, depth2)`` at level ``j``."""
    d1, d2 = _depth_tables(system.gamma1, system.gamma2)
    if not 1 <= j <= len(d1):
        raise ValueError(f"ladder_depths: level {j} out of range [1, {len(d1)}]")
    return d1[j - 1], d2[j - 1]


def _range_and_bound(system: TwoModSystem, sigma: int, depth1: int, depth2: int):
    """A level's dynamic range and its robustness bound ``m * sigma / 4``,
    a float in real-scalar mode and a ``Fraction`` otherwise."""
    rng = system._times(min(system.gamma2 * (1 + depth2), system.gamma1 * (1 + depth1)))
    return rng, system.m * sigma / 4.0 if system.is_real else Fraction(system.m * sigma, 4)


def level_table(system: TwoModSystem) -> tuple[RobustnessLevel, ...]:
    """All trade-off rows, from the most robust level up to the full lcm."""
    chain = sigma_chain(system)
    d1s, d2s = _depth_tables(system.gamma1, system.gamma2)
    rows = []
    for j in range(1, chain.levels + 1):
        s, depth1, depth2 = chain.sigma(j), d1s[j - 1], d2s[j - 1]
        rows.append(RobustnessLevel(j, s, depth1, depth2, *_range_and_bound(system, s, depth1, depth2)))
    return tuple(rows)


@dataclass(frozen=True)
class LevelContext:
    """Cached per-(system, level) data so hot loops avoid rebuilding ladders.

    ``s1``/``s2`` are the sorted ladders.  At the full-lcm level ``k + 1`` a
    ladder's depth is ``gamma - 1``, so it holds every residue and is
    ``range(gamma)``, built in O(1); every other level holds a sorted tuple.
    The scalar solvers index a ladder and rank in it, never take its ``len``.
    """

    system: TwoModSystem
    j: int
    sigma: int
    depth1: int
    depth2: int
    s1: Sequence[int]  # sorted ladder |t*gamma1|_gamma2, t = 0..depth1
    s2: Sequence[int]  # sorted ladder |t*gamma2|_gamma1, t = 0..depth2
    inv12: int  # inverse of gamma1 modulo gamma2
    inv21: int  # inverse of gamma2 modulo gamma1
    dynamic_range: int | float
    robustness_bound: Fraction | float


def _sorted_ladder(base: int, mod: int, depth: int) -> Sequence[int]:
    """Sorted ``|t * base|_mod`` for ``t = 0..depth``; at depth ``mod - 1`` the
    multiples of a unit run over every residue, so the ladder is ``range(mod)``."""
    if depth == mod - 1:
        return range(mod)
    return tuple(sorted(t * base % mod for t in range(depth + 1)))


@lru_cache(maxsize=_CACHE_SIZE)
def level_context(system: TwoModSystem, j: int) -> LevelContext:
    depth1, depth2 = ladder_depths(system, j)
    chain = sigma_chain(system)
    s = chain.sigma(j)
    g1, g2 = system.gamma1, system.gamma2
    s1 = _sorted_ladder(g1, g2, depth1)
    s2 = _sorted_ladder(g2, g1, depth2)
    return LevelContext(
        system, j, s, depth1, depth2, s1, s2,
        mod_inverse(g1, g2), mod_inverse(g2, g1),
        *_range_and_bound(system, s, depth1, depth2),
    )


def _exact_parts(system: TwoModSystem, obs: RemainderObservation):
    """``(a1, a2, mn, den, as_float)``: integers with ``r_i = a_i / den``,
    ``m = mn / den`` and ``den > 0``, floats taken at their exact binary value,
    and whether the mean is reported as a float (a real system or a float
    remainder)."""
    r1, r2 = obs.r1, obs.r2
    if type(r1) is int and type(r2) is int and type(system.m) is int:
        return r1, r2, system.m, 1, False
    (a1, a2, mn), den = common_denominator((r1, r2, system.m))
    return a1, a2, mn, den, system.is_real or isinstance(r1, float) or isinstance(r2, float)


def _solution(system: TwoModSystem, n1: int, n2: int, obs: RemainderObservation, exact) -> FoldingSolution:
    """Folds plus the averaged reconstruction ``(n1 m1 + r1 + n2 m2 + r2) / 2``,
    exact from ``exact = _exact_parts(system, obs)``.  A real system or a float
    remainder gets the exact mean rounded to a float, which is also the
    estimate in real mode; otherwise the mean stays the exact ratio."""
    a1, a2, mn, den, as_float = exact
    total = (n1 * system.gamma1 + n2 * system.gamma2) * mn + a1 + a2
    mean = total / (2 * den) if as_float else (total, 2 * den)
    estimate = mean if as_float and system.is_real else round_div(total, 2 * den)
    return _record(FoldingSolution, {"n1": n1, "n2": n2, "estimate": estimate}, mean)


def solve_basic(system: TwoModSystem, obs: RemainderObservation) -> FoldingSolution:
    """Closed-form fold recovery for the coarsest trade-off level.

    Exact whenever the value lies below ``m1 * (1 + (g2 // g1) * (g1 // b))``
    with ``b = gamma2 mod gamma1`` and the scaled error difference
    ``(dr1 - dr2) / m`` falls in ``[-b/2, b/2)``.
    """
    g1 = system.gamma1
    beta = system.gamma2 % g1
    top = (g1 // beta) * beta  # the wrapped quotient must lie in [beta/2, top - beta/2)
    exact = _exact_parts(system, obs)
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
    return _solution(system, n1, n2, obs, exact)


def _neighbours(ladder: Sequence[int], edge: int) -> tuple[int, int]:
    """The last rung below the integer ``edge`` and the first at or above it,
    each clipped to the ladder's ends; on a ``range``, whose ``len`` overflows
    past 2^63 rungs, by arithmetic instead of ``bisect``."""
    if ladder[-1] < edge:
        return ladder[-1], ladder[-1]
    i = max(edge, 0) if type(ladder) is range else bisect.bisect_left(ladder, edge)
    return ladder[max(i - 1, 0)], ladder[i]


def _window_pick(elements: Sequence[int], num: int, scale: int, sigma: int, left_open: bool) -> int:
    """Unique ladder element in the half-open window of half-width
    ``sigma / 2`` around ``target = num / scale`` (``scale > 0``).

    Falls back to the nearest element (ties to the smaller one) when the
    window is empty; at most one element can ever sit inside the window
    because the ladder's minimum gap is at least ``sigma``.  The rational
    window edges become the integers in ``[start, stop)`` by floor division.
    """
    lo2, hi2, den2 = 2 * num - sigma * scale, 2 * num + sigma * scale, 2 * scale
    if left_open:
        start, stop = lo2 // den2 + 1, hi2 // den2 + 1
    else:
        start, stop = -(-lo2 // den2), -(-hi2 // den2)
    if elements[-1] >= start:
        x = elements[max(start, 0) if type(elements) is range else bisect.bisect_left(elements, start)]
        if x < stop:
            return x
    lo, hi = _neighbours(elements, -(-num // scale))
    return lo if 2 * num <= (lo + hi) * scale else hi


def solve_level(system: TwoModSystem, obs: RemainderObservation, j: int) -> FoldingSolution:
    """Ladder-window fold recovery at trade-off level ``j``.

    Exact whenever the value lies below the level's dynamic range and the
    scaled error difference ``(dr1 - dr2) / m`` falls in
    ``[-sigma_j / 2, sigma_j / 2)``.
    """
    ctx = level_context(system, j)
    return solve_with_context(ctx, obs)


def solve_with_context(ctx: LevelContext, obs: RemainderObservation) -> FoldingSolution:
    exact = _exact_parts(ctx.system, obs)
    a1, a2, scale, _, _ = exact
    n1, n2 = _exact_folds(ctx, a1 - a2, scale)
    return _solution(ctx.system, n1, n2, obs, exact)


def _exact_folds(ctx: LevelContext, num: int, scale: int) -> tuple[int, int]:
    """The folds ``solve_with_context`` recovers from an observation with
    ``q = (r1 - r2) / m = num / scale`` (``scale > 0``)."""
    system, sigma = ctx.system, ctx.sigma
    if 2 * num >= sigma * scale:
        s2 = _window_pick(ctx.s2, num, scale, sigma, left_open=True)
        n2 = s2 * ctx.inv21 % system.gamma1
        return round_div(n2 * system.gamma2 * scale - num, system.gamma1 * scale), n2
    if 2 * num < -sigma * scale:
        s1 = _window_pick(ctx.s1, -num, scale, sigma, left_open=False)
        n1 = s1 * ctx.inv12 % system.gamma2
        return n1, round_div(n1 * system.gamma1 * scale + num, system.gamma2 * scale)
    return 0, 0


def solve_level_real(system: TwoModSystem, obs: RemainderObservation, j: int) -> FoldingSolution:
    """Real-scalar entry point: ``solve_level``'s control flow on the exact
    values of the float inputs and of ``m``, with the mean, which is also the
    estimate, rounded to a float once at the end."""
    if not system.is_real:
        raise ValueError("solve_level_real: system is not in real-scalar mode")
    return solve_level(system, obs, j)


def true_folds(system: TwoModSystem, value) -> tuple[int, int]:
    """Fold integers of a value, ``n_i = floor(value / (m * gamma_i))``, taken
    exactly (a float value and a real ``m`` at their binary values)."""
    (v, mn), _ = common_denominator((value, system.m))
    return v // (mn * system.gamma1), v // (mn * system.gamma2)
