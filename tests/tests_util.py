"""Shared helpers for randomized tests."""

import math

from robustrns.two_mod import TwoModSystem


def random_coprime_pair(rng, lo=2, hi=200):
    while True:
        g1 = int(rng.integers(lo, hi))
        g2 = int(rng.integers(g1 + 1, hi + 1))
        if math.gcd(g1, g2) == 1:
            return g1, g2


def random_system(rng, gamma_max=120, m_max=20) -> TwoModSystem:
    g1, g2 = random_coprime_pair(rng, hi=gamma_max)
    return TwoModSystem(int(rng.integers(1, m_max)), g1, g2)


def int32_tau_limit(kernels, moduli, range_mode="allow", top=2**50):
    """The largest integer tau at which every kernel's ``reach`` stays below
    ``simkit.INT32_LIMIT``, as ``simkit._trial_rows`` bounds a sweep (``top``
    when even that tau fits, -1 when none does)."""
    from robustrns import simkit

    def fits(tau):
        spans = simkit._remainder_spans(moduli, tau, range_mode)
        return max(k.reach(spans) for k in kernels) < simkit.INT32_LIMIT

    if fits(top):
        return top
    if not fits(0):
        return -1
    lo, hi = 0, top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo
