"""int32 kernels give the int64 kernels' results wherever a sweep runs them.

A sweep runs in int32 only where every kernel's ``reach`` bounds every integer
the kernel computes below ``INT32_LIMIT`` (``simkit._trial_rows``).  Here each
kernel runs twice over the same float remainders, with an int32 and with an
int64 workspace, and must give identical folds, estimates and consistency
flags, each integer result in its workspace's dtype, so a silent upcast fails
too.  The remainders reach as far as the largest tau the bound admits: random
remainders and corners of ``[-tau, m_i - 1 + tau]``, with real and integer
errors, and clamped ones.  One step past that tau the bound refuses int32.
Kernels called without a workspace stay int64.
"""

import math

import numpy as np
import pytest

from robustrns import simkit
from robustrns.multi_mod import ModuliGroup, cascade_spec
from robustrns.simkit import CascadeKernel, GeneralKernel, GroupKernel, LevelKernel
from robustrns.two_mod import TwoModSystem, sigma_chain
from tests_util import int32_tau_limit, random_coprime_pair

SIZE = 3000
MODES = [("real", "allow"), ("integer", "allow"), ("real", "clamp")]
MODE_IDS = ["real", "integer_errors", "clamp"]


def coprime_cofactors(rng, count, top=60):
    cofactors = []
    while len(cofactors) < count:
        c = int(rng.integers(1, top))
        if all(math.gcd(c, d) == 1 for d in cofactors):
            cofactors.append(c)
    return cofactors


def noisy_remainders(rng, moduli, tau, error_mode, range_mode, size=SIZE):
    """Per modulus: remainders of random values plus errors on ``[-tau, tau]``
    (integers in integer mode), with every fourth row on a random corner of
    ``[-tau, m_i - 1 + tau]``, then clamped into ``[0, m_i)`` under clamp."""
    values = rng.integers(0, 2**31 - 1, size)
    corner = rng.random(size) < 0.25
    rts = []
    for mk in moduli:
        if error_mode == "integer":
            t = math.floor(tau)
            err = rng.integers(-t, t + 1, size).astype(float)
        else:
            err = rng.uniform(-tau, tau, size)
        far = np.where(rng.random(size) < 0.5, -float(tau), mk - 1 + float(tau))
        rt = np.where(corner, far, values % mk + err)
        if range_mode == "clamp":
            rt = np.clip(rt, 0.0, np.nextafter(mk, 0.0))
        rts.append(rt)
    return rts


def tau_for(kernels, moduli, range_mode, rng):
    """The largest tau the bound admits in int32 (any tau under clamp, where
    the remainders cannot reach past the moduli)."""
    tau = int32_tau_limit(kernels, moduli, range_mode)
    assert tau >= 0
    if range_mode == "clamp":
        return float(rng.integers(0, 2**40))
    return float(tau)


def arrays(result):
    if isinstance(result, np.ndarray):
        yield result
    else:
        for item in result:
            yield from arrays(item)


def assert_int32_matches_int64(run, size=SIZE):
    """``run(ws)`` with an int32 and an int64 workspace: the same values,
    and every integer array in the workspace's dtype."""
    narrow, wide = (run(simkit._Workspace(size, 0, ints)) for ints in (np.int32, np.int64))
    for a, b in zip(arrays(narrow), arrays(wide), strict=True):
        if b.dtype.kind == "i":
            assert (a.dtype, b.dtype) == (np.int32, np.int64)
        else:
            assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    return wide


@pytest.mark.parametrize("error_mode, range_mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("seed", range(6))
def test_group_kernel(seed, error_mode, range_mode):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 41))
    group = ModuliGroup.from_moduli([m * c for c in coprime_cofactors(rng, int(rng.integers(2, 6)))])
    kernel = GroupKernel(group)
    tau = tau_for([kernel], group.moduli, range_mode, rng)
    rts = noisy_remainders(rng, group.moduli, tau, error_mode, range_mode)
    assert_int32_matches_int64(lambda ws: kernel.solve(rts, ws))


GENERAL = [(12, 30, 21, 49), (2, 4, 6), (1, 6, 10, 15), (6, 10, 15), (4, 6, 9, 10, 25)]


@pytest.mark.parametrize("error_mode, range_mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("case", range(12))
def test_general_kernel(case, error_mode, range_mode):
    """Non-coprime cofactors (divisibility tests with ``g > 1`` and ``gq > 1``)
    next to the canonical moduli."""
    rng = np.random.default_rng(100 + case)
    if case < len(GENERAL):
        gammas, m = GENERAL[case], int(rng.integers(1, 31))
    else:
        gammas, m = [int(g) for g in rng.integers(1, 61, int(rng.integers(2, 6)))], int(rng.integers(1, 31))
    moduli = tuple(m * g for g in gammas)
    kernel = GeneralKernel(moduli)
    tau = tau_for([kernel], moduli, range_mode, rng)
    rts = noisy_remainders(rng, moduli, tau, error_mode, range_mode)
    assert_int32_matches_int64(lambda ws: kernel.solve(rts, ws))


def random_spec(rng):
    while True:
        m1, m2 = (int(rng.integers(1, 31)) for _ in range(2))
        g1 = [m1 * c for c in coprime_cofactors(rng, int(rng.integers(2, 4)), 30)]
        g2 = [m2 * c for c in coprime_cofactors(rng, int(rng.integers(2, 4)), 30)]
        if math.lcm(*g1) != math.lcm(*g2):
            return g1, g2


@pytest.mark.parametrize("error_mode, range_mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("seed", range(5))
def test_cascade_kernel_at_every_cross_level(seed, error_mode, range_mode):
    rng = np.random.default_rng(200 + seed)
    g1, g2 = ([120, 300], [210, 490]) if seed == 0 else random_spec(rng)
    spec = cascade_spec(g1, g2, 1)
    moduli, split = spec.group1.moduli + spec.group2.moduli, len(g1)
    for level in range(1, sigma_chain(spec.cross).levels + 1):
        kernel = CascadeKernel(spec, level)
        tau = tau_for([kernel], moduli, range_mode, rng)
        rts = noisy_remainders(rng, moduli, tau, error_mode, range_mode)
        assert_int32_matches_int64(lambda ws: kernel.solve(rts[:split], rts[split:], ws))


@pytest.mark.parametrize("error_mode, range_mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("seed", range(6))
def test_level_kernel_at_every_level(seed, error_mode, range_mode):
    rng = np.random.default_rng(300 + seed)
    system = TwoModSystem(int(rng.integers(1, 5000)), *random_coprime_pair(rng))
    moduli = (system.m1, system.m2)
    for level in range(1, sigma_chain(system).levels + 1):
        kernel = LevelKernel(system, level)
        tau = tau_for([kernel], moduli, range_mode, rng)
        r1t, r2t = noisy_remainders(rng, moduli, tau, error_mode, range_mode)

        def run(ws):
            n1, n2 = kernel.solve(r1t, r2t, ws)
            return n1, n2, kernel.estimate(n1, n2, r1t, r2t, ws)

        assert_int32_matches_int64(run)


def test_one_step_past_the_limit_the_bound_refuses_int32():
    spec = cascade_spec([120, 300], [210, 490], 2)
    moduli = spec.group1.moduli + spec.group2.moduli
    cross = (spec.cross.m1, spec.cross.m2)
    for kernel, ms in ((GeneralKernel(moduli), moduli), (CascadeKernel(spec), moduli),
                       (LevelKernel(spec.cross, 2), cross)):
        tau = int32_tau_limit([kernel], ms)
        assert 0 < tau < 2**50
        assert kernel.reach(simkit._remainder_spans(ms, tau, "allow")) < simkit.INT32_LIMIT
        assert kernel.reach(simkit._remainder_spans(ms, tau + 1, "allow")) >= simkit.INT32_LIMIT


def test_kernels_called_without_a_workspace_return_int64(rng):
    spec = cascade_spec([120, 300], [210, 490], 2)
    moduli = spec.group1.moduli + spec.group2.moduli
    rts = noisy_remainders(rng, moduli, 20.0, "real", "allow", 500)
    folds, _ = GroupKernel(spec.group1).solve(rts[:2])
    general, _, _ = GeneralKernel(moduli).solve(rts)
    folds1, folds2, _ = CascadeKernel(spec).solve(rts[:2], rts[2:])
    level = LevelKernel(spec.cross, 2).solve(rts[0] * 7, rts[1] * 11)
    for f in (*folds, *general, *folds1, *folds2, *level):
        assert f.dtype == np.int64
