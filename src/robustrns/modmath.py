"""Exact integer arithmetic primitives shared by the rest of the package."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

# Per-system caches (ladder contexts, chains, CRT steps) are bounded so a
# long-lived process does not grow without limit over many systems.
_CACHE_SIZE = 256


def gcd_lcm(values) -> tuple[int, int]:
    """Return ``(gcd, lcm)`` of a non-empty list of positive integers."""
    vals = list(values)
    if not vals:
        raise ValueError("gcd_lcm: need at least one value")
    for v in vals:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"gcd_lcm: values must be positive integers, got {v!r}")
    return math.gcd(*vals), math.lcm(*vals)


def mod_inverse(a: int, n: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``n``, in ``[0, n)``.

    By convention the inverse modulo 1 is 0.  Raises ``ValueError`` when
    ``gcd(a, n) != 1``.
    """
    if n < 1:
        raise ValueError(f"mod_inverse: modulus must be positive, got {n}")
    if n == 1:
        return 0
    if math.gcd(a, n) != 1:
        raise ValueError(f"mod_inverse: {a} is not invertible modulo {n}")
    return pow(a, -1, n)


@dataclass(frozen=True)
class CoprimeFactorization:
    """Pairwise-coprime divisors mu_i of the moduli whose product is the lcm."""

    moduli: tuple[int, ...]
    mu: tuple[int, ...]

    @property
    def lcm(self) -> int:
        return math.prod(self.mu)


def _prime_powers(n: int) -> dict[int, int]:
    """Trial-division factorization; moduli in this package are desk-scale."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def coprime_factorization(moduli) -> CoprimeFactorization:
    """Split ``lcm(moduli)`` into pairwise-coprime factors mu_i dividing m_i.

    Every prime power p^e appearing in the lcm is assigned to the first
    modulus that contains it, which makes the output deterministic.
    """
    ms = tuple(moduli)
    if not ms:
        raise ValueError("coprime_factorization: need at least one modulus")
    for m in ms:
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"coprime_factorization: invalid modulus {m!r}")
    owners: dict[int, tuple[int, int]] = {}  # prime -> (exponent, owner index)
    for i, m in enumerate(ms):
        for p, e in _prime_powers(m).items():
            best = owners.get(p)
            if best is None or e > best[0]:
                owners[p] = (e, i)
    mu = [1] * len(ms)
    for p, (e, i) in owners.items():
        mu[i] *= p**e
    return CoprimeFactorization(ms, tuple(mu))


def round_half_up(x):
    """The bracket rounding used everywhere here: ``[x] = floor(x + 1/2)``.

    Halves round toward +infinity, so ``-1/2 <= x - [x] < 1/2`` holds exactly.
    Accepts ints, floats and rationals (``fractions.Fraction``).
    """
    if isinstance(x, bool):
        raise TypeError("round_half_up: bool is not a scalar")
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"round_half_up: non-finite input {x!r}")
        return math.floor(x + 0.5)
    if isinstance(x, Rational):
        return math.floor(x + Fraction(1, 2))
    raise TypeError(f"round_half_up: unsupported type {type(x).__name__}")


def round_div(num: int, den: int) -> int:
    """``[num / den]`` for integers with ``den > 0``, in integer arithmetic.

    ``floor(num / den + 1/2) == floor((2 num + den) / (2 den))``, so this is
    ``round_half_up`` of the exact ratio without building a rational.
    """
    return (2 * num + den) // (2 * den)


def common_denominator(values) -> tuple[tuple[int, ...], int] | None:
    """Exact scalars as integers over one positive denominator.

    Returns ``(nums, den)`` with ``values[i] == nums[i] / den`` for ints and
    rationals (anything with ``numerator``/``denominator``), or None when any
    value is a float: scaling a float would change its arithmetic.
    """
    if all(type(v) is int for v in values):
        return tuple(values), 1
    if any(isinstance(v, float) for v in values):
        return None
    ratios = [(int(v.numerator), int(v.denominator)) for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return tuple(n * (den // d) for n, d in ratios), den
