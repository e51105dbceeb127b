"""Exact integer arithmetic primitives shared by the rest of the package, and
the one-step build of the solver records whose exact mean is deferred."""

from __future__ import annotations

import math
from dataclasses import fields
from fractions import Fraction
from operator import itemgetter

# Per-system caches (ladder contexts, chains, CRT steps and plans) are bounded so a
# long-lived process does not grow without limit over many systems.
_CACHE_SIZE = 256
# all-int and all-float tests by type (common_denominator, and the cache keys of
# general_robust_crt's moduli), and a ratio's denominator
_INT, _FLOAT, _DEN = frozenset([int]), frozenset([float]), itemgetter(1)


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


def _checked_moduli(caller: str, moduli) -> tuple[int, ...]:
    """``moduli`` as a tuple, refused with a ``ValueError`` that names
    ``caller`` unless there is at least one and each is an ``int`` (not a
    ``bool``) of at least 1."""
    ms = tuple(moduli)
    if not ms:
        raise ValueError(f"{caller}: need at least one modulus")
    for m in ms:
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"{caller}: invalid modulus {m!r}")
    return ms


def round_div(num: int, den: int) -> int:
    """``[num / den]`` for integers with ``den > 0``, in integer arithmetic.

    Halves round toward +infinity: ``floor(num / den + 1/2) == floor((2 num
    + den) / (2 den))``, so ``-1/2 <= num / den - [num / den] < 1/2`` holds
    exactly, without building a rational.
    """
    return (2 * num + den) // (2 * den)


def common_denominator(values, caller: str) -> tuple[tuple[int, ...], int]:
    """Scalars as integers over one positive denominator: ``(nums, den)`` with
    ``values[i] == nums[i] / den`` exactly.

    Ints and rationals (anything with ``numerator``/``denominator``) give their
    own ratio; a float gives its exact binary value ``p / 2^k``
    (``float.as_integer_ratio``), so every input is taken at the value it
    holds.  A NaN or an infinity raises ``ValueError``, and so does anything
    else, with a message that names ``caller``.  All ints are their own
    numerators over 1; all floats have powers of two for denominators, so
    their common denominator is the largest of them.  Everything here is
    per-call work on the observation; a solver keeps what depends only on its
    system in its own caches, and ``two_mod._exact_parts`` writes the
    all-float branch out for its three values.
    """
    if _INT.issuperset(map(type, values)):
        return tuple(values), 1
    if _FLOAT.issuperset(map(type, values)):
        try:
            ratios = list(map(float.as_integer_ratio, values))
        except (ValueError, OverflowError):
            pass  # the loop below names the NaN or infinity
        else:
            den = max(map(_DEN, ratios))
            return tuple([n * (den // d) for n, d in ratios]), den
    ratios = []
    for v in values:
        try:
            ratios.append(v.as_integer_ratio() if isinstance(v, float)
                          else (int(v.numerator), int(v.denominator)))
        except (ValueError, OverflowError):  # only a NaN or an infinity has no ratio
            raise ValueError(f"non-finite value {v!r} in {caller}") from None
        except (AttributeError, TypeError):
            raise ValueError(f"{caller}: {v!r} is not an int, a rational or a float") from None
    den = math.lcm(*[d for _, d in ratios])
    return tuple([n * (den // d) for n, d in ratios]), den


class _ExactMean:
    """The ``mean`` of a solver record, built from its exact ratio on first read.

    A solver stores the integers ``(num, den)`` under ``_mean_ratio``; the
    first read builds ``Fraction(num, den)`` and caches it in the instance
    ``__dict__``.  As a non-data descriptor this is only consulted while that
    entry is missing, so later reads, and a mean given to the constructor or
    stored as a float, cost a plain attribute lookup.
    """

    def __get__(self, record, owner=None):
        if record is None:
            return self
        state = record.__dict__
        return state.setdefault("mean", Fraction(*state["_mean_ratio"]))


def _public_state(record) -> dict:
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _set_state(record, state: dict) -> None:
    object.__setattr__(record, "__dict__", dict(state))


def _solver_record(cls):
    """Class decorator for a frozen dataclass with a ``mean`` field that a
    solver may defer: installs ``_ExactMean`` and pickles (and copies)
    exactly the public fields, with the mean resolved.  A solver fills an
    ``object.__new__(cls)``'s ``__dict__`` in place, in field order, with a
    float ``mean`` or the unreduced exact ratio ``(num, den)`` as ``_mean_ratio``."""
    cls.mean = _ExactMean()
    cls.__getstate__ = _public_state
    cls.__setstate__ = _set_state
    return cls
