"""The rank-table ``LevelKernel`` against its binary-search reference copy.

``level_kernel_reference`` keeps the kernel as it was with ``np.searchsorted``.
The rank tables must pick the same rung, so the fold arrays must be identical:
on random coprime systems at every level, with integer and real ``m``, and at
targets on the window edges, half a unit beside them, at integers and
half-integers, below 0 and above gamma.  Two invariants the tables rest on
are checked on cofactors up to about 1e5: rungs are at least sigma apart, and
a table holds at most 4 entries per rung plus 2.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import level_kernel_reference as ref
from robustrns.modmath import mod_inverse
from robustrns.simkit import LevelKernel, _RankTable
from robustrns.two_mod import TwoModSystem, ladder_depths, level_context, sigma_chain

SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def level_systems(draw, gamma_max=400):
    g1 = draw(st.integers(2, gamma_max - 1))
    g2 = draw(st.integers(g1 + 1, gamma_max))
    assume(math.gcd(g1, g2) == 1)
    if draw(st.booleans()):
        system = TwoModSystem(draw(st.integers(1, 60)), g1, g2)
    else:
        system = TwoModSystem.real(draw(st.floats(0.01, 50.0)), g1, g2)
    return system, draw(st.integers(1, sigma_chain(system).levels))


def assert_same_folds(system, level, r1t, r2t):
    n1, n2 = LevelKernel(system, level).solve(r1t, r2t)
    ref_n1, ref_n2 = ref.level_solve(system, level, r1t, r2t)
    np.testing.assert_array_equal(n1, ref_n1)
    np.testing.assert_array_equal(n2, ref_n2)


@SETTINGS
@given(level_systems(), st.integers(0, 2**32 - 1))
def test_random_remainders_match_reference(case, seed):
    """Remainders inside and far outside ``[0, m_i)``, so the errors run from
    inside the guarantee to well past the ladders' ends."""
    system, level = case
    rng = np.random.default_rng(seed)
    m1, m2 = float(system.m1), float(system.m2)
    r1t = rng.uniform(-2 * m1, 3 * m1, 3000)
    r2t = rng.uniform(-2 * m2, 3 * m2, 3000)
    assert_same_folds(system, level, r1t, r2t)


def edge_targets(rungs, half, gamma):
    """Every window edge and rung, half a unit either side, the midpoints
    between rungs, and integers and half-integers from below 0 to above gamma."""
    points = set(np.arange(-3.0, gamma + 3.0, 0.5))
    for x in rungs:
        for edge in (x - half, x + half, x):
            points.update((edge - 0.5, edge, edge + 0.5))
    points.update((a + b) / 2 for a, b in zip(rungs, rungs[1:]))
    points.update((-gamma, -0.25, 2.0 * gamma, 1e6))
    return np.array(sorted(points))


@SETTINGS
@given(level_systems(gamma_max=200))
def test_edge_targets_match_reference(case):
    system, level = case
    ctx = level_context(system, level)
    half = ctx.sigma / 2.0
    kernel = LevelKernel(system, level)
    for table, rungs, inverse, gamma, left_open in (
            (kernel.ladder1, ctx.s1, ctx.inv12, system.gamma2, False),
            (kernel.ladder2, ctx.s2, ctx.inv21, system.gamma1, True)):
        targets = edge_targets(rungs, half, gamma)
        picked = ref._pick_window(np.array(rungs, dtype=np.float64), targets, half, left_open)
        np.testing.assert_array_equal(table.fold(targets, half, left_open),
                                      (picked.astype(np.int64) * inverse) % gamma)
    if not system.is_real:
        # the same targets through solve: q = (r1 - r2) / m is exact for integer m
        targets = edge_targets(ctx.s2, half, system.gamma1)
        targets = np.concatenate((targets, -edge_targets(ctx.s1, half, system.gamma2)))
        r2t = np.resize(np.arange(7.0), targets.size)
        assert_same_folds(system, level, targets * system.m + r2t, r2t)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(3, 100_000), st.data())
def test_rungs_are_sigma_apart_and_tables_stay_small(g2, data):
    g1 = data.draw(st.integers(2, g2 - 1))
    assume(math.gcd(g1, g2) == 1)
    system = TwoModSystem(1, g1, g2)
    chain = sigma_chain(system)
    for j in range(1, chain.levels + 1):
        for base, gamma, depth in zip((g1, g2), (g2, g1), ladder_depths(system, j)):
            rungs = tuple(sorted(t * base % gamma for t in range(depth + 1)))
            assert min(b - a for a, b in zip(rungs, rungs[1:])) >= chain.sigma(j)
            table = _RankTable(rungs, mod_inverse(base, gamma), gamma)
            assert len(table.after) == len(table.rung) <= 4 * len(rungs) + 2
