"""The table-lookup ``LevelKernel`` against its binary-search reference copy
and against the exact scalar solver.

``level_kernel_reference`` keeps the kernel as it was with ``np.searchsorted``.
The signed threshold table must pick the same rung, so the fold arrays must
be identical: on random coprime systems at every level, with integer and
real ``m``, and at targets on the window edges, half a unit beside them, at
integers and half-integers, below 0 and above gamma.  Targets go straight
into the kernel's ``q -> (n1, n2)`` lookup, so real-``m`` edge targets stay
exact.  Two invariants the table rests on are checked on cofactors up to
about 1e5: rungs are at least sigma apart, and the table holds at most 4
buckets per signed rung plus 2.  On full grids of integer-valued remainders,
and at every threshold and one ulp either side of it, the kernel's folds
equal the exact scalar path's.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import ladder_reference as ladders
import level_kernel_reference as ref
from robustrns.simkit import LevelKernel
from robustrns.two_mod import (
    RemainderObservation, TwoModSystem, _exact_folds, ladder_depths, level_context, sigma_chain,
    solve_level,
)

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


def assert_same_table_folds(system, level, q):
    n1, n2 = LevelKernel(system, level)._folds(q)
    ref_n1, ref_n2 = ref.window_folds(system, level, q)
    np.testing.assert_array_equal(n1, ref_n1)
    np.testing.assert_array_equal(n2, ref_n2)


@SETTINGS
@given(level_systems(gamma_max=200))
def test_edge_targets_match_reference(case):
    """Ladder 2's targets on ``q > 0``, ladder 1's mirrored onto ``q < 0``,
    and the span ``[-h, h)`` of rung 0 between them."""
    system, level = case
    ctx = level_context(system, level)
    half = ctx.sigma / 2.0
    targets = np.concatenate((edge_targets(ladders.rungs(ctx.s2), half, system.gamma1),
                              -edge_targets(ladders.rungs(ctx.s1), half, system.gamma2),
                              np.arange(-half, half, 0.25)))
    assert_same_table_folds(system, level, targets)
    if not system.is_real:
        # the same targets through solve: q = (r1 - r2) / m is exact for integer m
        r2t = np.resize(np.arange(7.0), targets.size)
        assert_same_folds(system, level, targets * system.m + r2t, r2t)


@SETTINGS
@given(st.integers(2, 399), st.booleans(), st.data())
def test_table_folds_match_reference(g1, integer_m, data):
    """Random targets over both ladders and past their ends, and every
    integer and half-integer between them."""
    # drawn among the coprime partners, never filtered: g1 + 1 always is one
    g2 = data.draw(st.sampled_from([g for g in range(g1 + 1, 401) if math.gcd(g1, g) == 1]))
    system = (TwoModSystem(data.draw(st.integers(1, 60)), g1, g2) if integer_m
              else TwoModSystem.real(data.draw(st.floats(0.01, 50.0)), g1, g2))
    level = data.draw(st.integers(1, sigma_chain(system).levels))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    targets = np.concatenate((rng.uniform(-2.0 * g2, 2.0 * g1, 4000),
                              np.arange(-g2 - 3.0, g1 + 3.0, 0.5)))
    assert_same_table_folds(system, level, targets)


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
        kernel = LevelKernel(system, j)
        signed_rungs = sum(ladder_depths(system, j)) + 1  # rung 0 is shared
        assert kernel.after.size == kernel.threshold.size <= 4 * signed_rungs + 2


# Integer systems (m, gamma1, gamma2) for the grids: the README's (234, 377),
# the canonical cascade's cross system, a wider pair and the smallest one.
GRID_SYSTEMS = [TwoModSystem(13, 18, 29), TwoModSystem(30, 20, 49),
                TwoModSystem(7, 101, 157), TwoModSystem(3, 2, 3)]


@pytest.mark.parametrize("system", GRID_SYSTEMS, ids=str)
def test_grid_folds_equal_the_exact_solver(system):
    """Integer-valued remainders over the whole grid ``r1`` in
    ``[-5, m1 + 5]`` by ``r2`` stepped over ``[-5, m2 + 5]``, at every level:
    the kernel's folds equal ``solve_level``'s, which depend on ``r1 - r2``
    alone, so each difference is solved once."""
    m1, m2 = system.m1, system.m2
    r1, r2 = np.meshgrid(np.arange(-5, m1 + 6), np.arange(-5, m2 + 6, max(1, m2 // 128)))
    r1, r2 = r1.ravel(), r2.ravel()
    diffs, where = np.unique(r1 - r2, return_inverse=True)
    for level in range(1, sigma_chain(system).levels + 1):
        exact = np.array([(s.n1, s.n2) for s in (
            solve_level(system, RemainderObservation(int(d), 0), level) for d in diffs)])
        n1, n2 = LevelKernel(system, level).solve(r1.astype(np.float64), r2.astype(np.float64))
        np.testing.assert_array_equal(n1, exact[where, 0])
        np.testing.assert_array_equal(n2, exact[where, 1])


@pytest.mark.parametrize("system", GRID_SYSTEMS + [TwoModSystem.real(2.5, 18, 29)], ids=str)
def test_thresholds_and_their_neighbours_match_the_exact_solver(system):
    """Every midpoint between neighbouring signed rungs and one ulp either
    side of it: the folds at ``q`` are those of the exact solver at ``q``'s
    binary value."""
    for level in range(1, sigma_chain(system).levels + 1):
        ctx = level_context(system, level)
        rungs = np.array((*(-r for r in ladders.rungs(ctx.s1)[:0:-1]), *ladders.rungs(ctx.s2)), dtype=np.float64)
        mid = (rungs[1:] + rungs[:-1]) / 2
        q = np.concatenate((mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)))
        n1, n2 = LevelKernel(system, level)._folds(q)
        exact = [_exact_folds(ctx, *float(x).as_integer_ratio()) for x in q]
        np.testing.assert_array_equal(np.stack((n1, n2), axis=1), exact)


def test_cofactors_past_2_40_fold_in_guarantee_draws():
    """Past ``gamma2 = 2**31`` the tables are built from Python ints, and past
    ``gamma1 * gamma2 = 2**40`` every observation off rung 0's ``[-h, h)``
    takes the rounded companion fold.  Both hold here, and values below the
    level's range with errors inside its bound still fold exactly."""
    g1 = 2**40 + 1
    system = TwoModSystem(3, g1, 2 * g1 - 5)  # one rung beside rung 0 per ladder at level 1
    kernel = LevelKernel(system, 1)
    rng = np.random.default_rng(3)
    values = rng.integers(0, kernel.dynamic_range, 20_000)
    bound = kernel.robustness_bound
    r1 = values % system.m1 + rng.uniform(-bound, bound, values.size)
    r2 = values % system.m2 + rng.uniform(-bound, bound, values.size)
    n1, n2 = kernel.solve(r1, r2)
    np.testing.assert_array_equal(n1, values // system.m1)
    np.testing.assert_array_equal(n2, values // system.m2)
