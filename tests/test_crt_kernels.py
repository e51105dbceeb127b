"""The group and general kernels against their ``%`` reference copies.

``crt_kernel_reference`` keeps the kernels as they were with int64 ``%``, a
step table of the group stage's own and ``np.where`` zeroing.  The package's
kernels must return identical folds, estimates and consistency flags: on
random moduli sets (steps with ``g > 1`` and ``gq > 1`` included), with
remainders from ``-2 m_i`` to ``3 m_i`` and with errors from well inside the
bound to far past it.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import crt_kernel_reference as ref
from robustrns.multi_mod import ModuliGroup, _general_steps
from robustrns.simkit import GeneralKernel, GroupKernel, _mod

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def noisy_remainders(moduli, spread, seed, size=2000):
    """Half the columns uniform on ``[-2 m_i, 3 m_i)``; the other half the
    remainders of values below the lcm plus errors on ``[-tau, tau]``, with
    ``tau = spread * gcd`` (the guarantee needs ``tau < gcd / 4``)."""
    rng = np.random.default_rng(seed)
    half = size // 2
    values = rng.integers(0, min(math.lcm(*moduli), 2**53), size=size - half)
    tau = spread * math.gcd(*moduli)
    return [np.concatenate((rng.uniform(-2.0 * mk, 3.0 * mk, half),
                            values % mk + rng.uniform(-tau, tau, size - half)))
            for mk in moduli]


SPREADS = st.sampled_from((0.1, 0.24, 0.5, 2.0, 50.0))


@st.composite
def coprime_groups(draw):
    cofactors = []
    for c in draw(st.lists(st.integers(1, 60), min_size=2, max_size=6)):
        if all(math.gcd(c, d) == 1 for d in cofactors):
            cofactors.append(c)
    assume(len(cofactors) >= 2)
    m = draw(st.integers(1, 40))
    return ModuliGroup.from_moduli([m * c for c in cofactors])


@SETTINGS
@given(coprime_groups(), SPREADS, st.integers(0, 2**32 - 1))
def test_group_kernel_matches_reference(group, spread, seed):
    rts = noisy_remainders(group.moduli, spread, seed)
    folds, est = GroupKernel(group).solve(rts)
    ref_folds, ref_est = ref.group_solve(group, rts)
    for f, r in zip(folds, ref_folds, strict=True):
        np.testing.assert_array_equal(f, r)
    np.testing.assert_array_equal(est, ref_est)


@SETTINGS
@given(st.lists(st.integers(1, 60), min_size=2, max_size=5), st.integers(1, 30),
       SPREADS, st.integers(0, 2**32 - 1))
@example([12, 30, 21, 49], 10, 0.24, 1)  # the canonical (120, 300, 210, 490)
@example([2, 4, 6], 3, 2.0, 2)  # g = gcd(g_1, g_k) > 1 on every step
@example([1, 6, 10, 15], 5, 0.5, 3)  # gq = gcd(q, qk) > 1 from the second step on
def test_general_kernel_matches_reference(gammas, m, spread, seed):
    moduli = tuple(m * g for g in gammas)
    rts = noisy_remainders(moduli, spread, seed)
    folds, est, consistent = GeneralKernel(moduli).solve(rts)
    ref_folds, ref_est, ref_consistent = ref.general_solve(moduli, rts)
    for f, r in zip(folds, ref_folds, strict=True):
        np.testing.assert_array_equal(f, r)
    np.testing.assert_array_equal(est, ref_est)
    np.testing.assert_array_equal(consistent, ref_consistent)


def test_examples_reach_the_divisibility_tests():
    """The explicit examples above run steps with ``g > 1`` and ``gq > 1``."""
    assert any(g > 1 for g, *_ in _general_steps((2, 4, 6)))
    assert any(gq > 1 for _, _, _, gq, *_ in _general_steps((1, 6, 10, 15)))


def test_mod_is_the_floored_remainder_on_int64_extremes():
    rng = np.random.default_rng(7)
    edges = [-2**63, -2**63 + 1, -2**62 - 7, -2**62, 2**62, 2**62 + 12345, 2**63 - 1,
             *range(-5, 6)]
    a = np.concatenate((np.array(edges, dtype=np.int64),
                        rng.integers(-2**63, 2**63 - 1, 2000, dtype=np.int64),
                        rng.integers(-1000, 1000, 2000)))
    divisors = [1, 2, 3, 7, 12, 49, 2**16 + 1, 2**31 - 1, 2**31,
                *(int(d) for d in rng.integers(1, 2**31 + 1, 20))]
    for d in divisors:
        np.testing.assert_array_equal(_mod(a, d), a % d)
