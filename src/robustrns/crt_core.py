"""Error-free reconstruction from remainders, for general (non-coprime) moduli.

This is the robust CRT with exact remainders: the Garner steps of
``multi_mod._garner_n1`` over the moduli themselves solve ``n_1 * m_1 = r_k -
r_1 (mod m_k)`` for the first fold with gcds only, at any size, and a gcd
that does not divide its difference shows the remainders disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .modmath import _checked_moduli
from .multi_mod import _garner_n1


class InconsistentRemainders(ValueError):
    """The remainders disagree on a shared factor of two moduli."""


@dataclass(frozen=True)
class CrtSystem:
    """Moduli ``m_k = gcd * cofactors[k]`` and their lcm."""

    moduli: tuple[int, ...]
    gcd: int
    cofactors: tuple[int, ...]
    lcm: int


def crt_system(moduli) -> CrtSystem:
    ms = _checked_moduli("crt_system", moduli)
    g = math.gcd(*ms)
    return CrtSystem(ms, g, tuple(m // g for m in ms), math.lcm(*ms))


def remainders_of(value: int, system: CrtSystem) -> tuple[int, ...]:
    """Remainders of a nonnegative integer with respect to every modulus."""
    if type(value) is not int or value < 0:
        raise ValueError(f"remainders_of: value must be a nonnegative int, got {value!r}")
    return tuple(value % m for m in system.moduli)


def crt_reconstruct(remainders, system: CrtSystem) -> int:
    """The unique value in ``[0, lcm)`` matching all remainders, each an
    ``int`` in ``[0, m_k)``.

    Raises :class:`InconsistentRemainders` when no such value exists, which
    can only happen for non-coprime moduli.
    """
    rs = tuple(remainders)
    ms = system.moduli
    if len(rs) != len(ms):
        raise ValueError("crt_reconstruct: remainder/modulus count mismatch")
    for r, m in zip(rs, ms):
        if type(r) is not int or not 0 <= r < m:
            raise ValueError(f"crt_reconstruct: remainder {r!r} is not an int in [0, {m})")
    r1 = rs[0]
    xis = []
    for r in rs[1:]:
        xis.append(r - r1)
    n1 = _garner_n1(xis, ms)  # n_1 * m_1 = r_k - r_1 (mod m_k), each gcd checked on the way
    if n1 is None:
        # Pairwise-consistent remainders have a solution (generalized CRT), so some pair disagrees.
        for (ri, mi), (rj, mj) in combinations(zip(rs, ms), 2):
            g = math.gcd(mi, mj)
            if (ri - rj) % g:
                raise InconsistentRemainders(f"remainders {ri} and {rj} disagree modulo gcd({mi}, {mj}) = {g}")
    return n1 * ms[0] + r1
