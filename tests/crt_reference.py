"""Reference copy of the plain CRT through a coprime factorization of the lcm.

This is ``crt_system``/``crt_reconstruct`` as they stood before the package
rebuilt them on the Garner steps of the robust path: every modulus is
factored by trial division, each prime power of the lcm goes to the first
modulus that holds it, and the value is ``sum(r_j * D_j * M_j) mod lcm``.
Trial division runs to the square root of each modulus, so this is for
desk-scale moduli only.  ``test_crt_core.py`` requires the package to return
the same value or raise the same exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from robustrns.crt_core import InconsistentRemainders
from robustrns.modmath import mod_inverse


def _prime_powers(n: int) -> dict[int, int]:
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


def coprime_factorization(moduli) -> tuple[int, ...]:
    """Pairwise-coprime divisors ``mu_i`` of the moduli whose product is the lcm."""
    ms = tuple(moduli)
    owners: dict[int, tuple[int, int]] = {}  # prime -> (exponent, owner index)
    for i, m in enumerate(ms):
        for p, e in _prime_powers(m).items():
            best = owners.get(p)
            if best is None or e > best[0]:
                owners[p] = (e, i)
    mu = [1] * len(ms)
    for p, (e, i) in owners.items():
        mu[i] *= p**e
    return tuple(mu)


@dataclass(frozen=True)
class ReferenceSystem:
    moduli: tuple[int, ...]
    M: tuple[int, ...]
    D: tuple[int, ...]
    lcm: int


def crt_system(moduli) -> ReferenceSystem:
    ms = tuple(moduli)
    mu = coprime_factorization(ms)
    lcm = math.prod(mu)
    M = tuple(lcm // m for m in mu)
    D = tuple(0 if m == 1 else mod_inverse(Mj % m, m) for Mj, m in zip(M, mu))
    return ReferenceSystem(ms, M, D, lcm)


def crt_reconstruct(remainders, system: ReferenceSystem) -> int:
    rs = tuple(remainders)
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            g = math.gcd(system.moduli[i], system.moduli[j])
            if (rs[i] - rs[j]) % g != 0:
                raise InconsistentRemainders(
                    f"remainders {rs[i]} and {rs[j]} disagree modulo "
                    f"gcd({system.moduli[i]}, {system.moduli[j]}) = {g}"
                )
    total = sum(r * d * M for r, d, M in zip(rs, system.D, system.M))
    return total % system.lcm
