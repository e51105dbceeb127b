"""The signed threshold tables of the scalar solver and of ``LevelKernel``.

A ``LevelContext`` whose two ladders are ``TableLadder``s with at most
``2 * LADDER_TABLE_MAX`` rungs between them builds ``_table`` on its first
solve, and ``_exact_folds`` picks both folds from one bisect over its keys.
The reference pick is ``ladder_reference``'s ``nearest`` on the ladder of
``q``'s side, with ``_exact_folds``' rounding of the companion fold.  The two
must agree at every integer numerator within 2 of every threshold and up to
3 rungs past both ends, at scales m, 3m and 7m, on every level of random
systems and on the largest table of (7249571, 7935450).  The table's fold
pairs are ``LevelKernel``'s, rung for rung; a tabulated context never calls
``nearest``; and the table holds at most 128 bytes per signed rung.
``LevelKernel``'s first threshold per bucket, counted with ``bincount``,
must be the ``np.searchsorted`` index byte for byte."""

import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import ladder_reference as ladders
from robustrns.multi_mod import cascade_reconstruct, cascade_spec
from robustrns.simkit import LevelKernel
from robustrns.two_mod import (
    LADDER_TABLE_MAX, Ladder, RemainderObservation, TableLadder, TwoModSystem, _exact_folds,
    level_context, sigma_chain, solve_with_context,
)

# level 6 has depths (995, 908): 1,905 signed rungs with rung 0 twice
LARGEST = TwoModSystem.from_moduli(7249571, 7935450)


def reference_folds(ctx, num, scale):
    """The pick by ``nearest`` on ``q``'s side, the other fold rounded."""
    g1, g2, sigma = ctx.system.gamma1, ctx.system.gamma2, ctx.sigma
    if 2 * num >= sigma * scale:
        n2 = ladders.build(g2, g1, ctx.depth2).nearest(num, scale, sigma, True)
        return (2 * (n2 * g2 * scale - num) + g1 * scale) // (2 * g1 * scale), n2
    if 2 * num < -sigma * scale:
        n1 = ladders.build(g1, g2, ctx.depth1).nearest(-num, scale, sigma, False)
        return n1, (2 * (n1 * g1 * scale + num) + g2 * scale) // (2 * g2 * scale)
    return 0, 0


def signed_rungs(ctx):
    keys, top, n1, n2 = ctx._table
    return [b * ctx.system.gamma2 - a * ctx.system.gamma1 for a, b in zip(n1, n2)]


def probe_nums(ctx, scale):
    """Integers within 2 of ``x * scale`` for every threshold ``x``, and for
    three rungs and their thresholds past each end, spaced by the end gap."""
    rungs = signed_rungs(ctx)
    low, high = rungs[1] - rungs[0], rungs[-1] - rungs[-2]
    twice = [lo + hi for lo, hi in zip(rungs, rungs[1:])]
    for k in range(1, 7):
        twice += [2 * rungs[0] - k * max(low, 1), 2 * rungs[-1] + k * max(high, 1)]
    nums = set()
    for t in twice:
        mid = t * scale // 2
        nums.update(range(mid - 2, mid + 4))
    return sorted(nums)


def assert_table_matches_reference(ctx):
    m = ctx.system.m
    for scale in (m, 3 * m, 7 * m):
        for num in probe_nums(ctx, scale):
            assert _exact_folds(ctx, num, scale) == reference_folds(ctx, num, scale), (num, scale)


def tabulated_levels(system):
    for j in range(1, sigma_chain(system).levels + 1):
        ctx = level_context(system, j)
        if ctx._table is not None:
            yield ctx


def random_systems(count, seed, gamma_max):
    rnd = random.Random(seed)
    systems = []
    while len(systems) < count:
        g2 = rnd.randrange(3, gamma_max)
        g1 = rnd.randrange(2, g2)
        if math.gcd(g1, g2) == 1:
            systems.append(TwoModSystem(rnd.randrange(1, 10), g1, g2))
    return systems


def test_table_picks_what_nearest_picked_on_random_systems():
    systems, levels = random_systems(100, seed=31, gamma_max=700), 0
    for system in systems:
        for ctx in tabulated_levels(system):
            assert_table_matches_reference(ctx)
            levels += 1
    # gamma1 + gamma2 < 1400: every level is tabulated, the full one too
    assert levels == sum(sigma_chain(system).levels for system in systems) > 400


def test_largest_table_picks_what_nearest_picked():
    ctx = level_context(LARGEST, 6)
    assert (ctx.depth1, ctx.depth2) == (995, 908) and len(ctx._table[0]) + 1 == 1905
    assert_table_matches_reference(ctx)


def test_observations_of_every_kind_match_the_reference():
    """Int, ``Fraction`` and float remainders, on integer and real systems:
    the folds are the reference's at the observation's exact ``q``."""
    rnd = random.Random(5)
    for system in (TwoModSystem(13, 18, 29), TwoModSystem.real(2.5, 18, 29), TwoModSystem(7, 101, 157)):
        for ctx in tabulated_levels(system):
            m1, m2 = float(system.m1), float(system.m2)
            for _ in range(300):
                r1, r2 = rnd.uniform(-m1, 2 * m1), rnd.uniform(-m2, 2 * m2)
                for obs in (RemainderObservation(r1, r2),
                            RemainderObservation(Fraction(round(6 * r1), 6), Fraction(round(r2)))):
                    q = (Fraction(obs.r1) - Fraction(obs.r2)) / Fraction(system.m)
                    num, scale = q.as_integer_ratio()
                    sol = solve_with_context(ctx, obs)
                    assert (sol.n1, sol.n2) == reference_folds(ctx, num, scale), obs


def kernel_pairs(ctx):
    """The table's fold pairs with the split rung 0 counted once."""
    keys, top, n1, n2 = ctx._table
    d1 = ctx.depth1
    return [*zip(n1[:d1], n2[:d1]), *zip(n1[d1 + 1:], n2[d1 + 1:])]


def assert_pairs_match_the_kernel(ctx):
    kernel = LevelKernel(ctx.system, ctx.j)
    assert kernel_pairs(ctx) == list(zip(kernel.n1.tolist(), kernel.n2.tolist()))
    assert ctx._table[2][ctx.depth1] == ctx._table[3][ctx.depth1] == 0


def test_fold_pairs_are_the_level_kernels():
    for system in random_systems(100, seed=37, gamma_max=1200) + [LARGEST]:
        for ctx in tabulated_levels(system):
            assert_pairs_match_the_kernel(ctx)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 2999), st.data())
def test_fold_pairs_are_the_level_kernels_property(g1, data):
    g2 = data.draw(st.integers(g1 + 1, 3000))
    assume(math.gcd(g1, g2) == 1)
    system = TwoModSystem(data.draw(st.integers(1, 50)), g1, g2)
    ctx = level_context(system, data.draw(st.integers(1, sigma_chain(system).levels)))
    assume(ctx._table is not None)
    assert_pairs_match_the_kernel(ctx)


def test_which_contexts_have_a_table():
    # full depth: gamma1 + gamma2 signed rungs, at most 2 * LADDER_TABLE_MAX
    assert LADDER_TABLE_MAX == 1024
    assert level_context(TwoModSystem(1, 1023, 1025), 2)._table is not None
    assert level_context(TwoModSystem(1, 1024, 1025), 1)._table is None
    # searched sides: level 1 of (9001, 18005) has depths (6000, 3000)
    ctx = level_context(TwoModSystem(1, 9001, 18005), 1)
    assert (ctx.depth1, ctx.depth2, type(ctx.s1), type(ctx.s2)) == (6000, 3000, Ladder, Ladder)
    assert ctx._table is None
    # below the full level, ladders of up to LADDER_TABLE_MAX rungs each are tables
    assert all(isinstance(level_context(LARGEST, j)._table, tuple) for j in range(1, 7))
    assert all(level_context(LARGEST, j)._table is None for j in range(7, 14))


def test_a_tabulated_context_never_calls_nearest():
    def refuse(*args):
        raise AssertionError("nearest on a tabulated context")

    rnd = random.Random(11)
    systems = [TwoModSystem(13, 18, 29), TwoModSystem.real(2.5, 18, 29), LARGEST]
    spec = cascade_spec((120, 300), (210, 490), 2)
    with mock.patch.object(TableLadder, "nearest", refuse), mock.patch.object(Ladder, "nearest", refuse):
        for system in systems:
            for ctx in tabulated_levels(system):
                m1, m2 = int(system.m1), int(system.m2)
                for _ in range(200):
                    r1, r2 = rnd.randint(-2 * m1, 3 * m1), rnd.randint(-2 * m2, 3 * m2)
                    for obs in (RemainderObservation(r1, r2), RemainderObservation(r1 + 0.5, r2),
                                RemainderObservation(Fraction(r1, 3), r2)):
                        solve_with_context(ctx, obs)
        assert level_context(spec.cross, spec.level)._table is not None
        for _ in range(200):
            cascade_reconstruct(spec, [rnd.randrange(120), rnd.randrange(300)],
                                [rnd.randrange(210), rnd.randrange(490)])


def test_contexts_without_a_table_still_use_nearest():
    ctx = level_context(TwoModSystem(1, 1024, 1025), 1)
    with mock.patch.object(TableLadder, "nearest", side_effect=TableLadder.nearest,
                           autospec=True) as nearest:
        solve_with_context(ctx, RemainderObservation(900, 5))
    assert nearest.call_count == 1


def test_table_memory_per_signed_rung():
    ctx = level_context.__wrapped__(LARGEST, 6)  # a fresh context, not the cached one
    tracemalloc.start()
    try:
        table = ctx._table
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rungs = len(table[0]) + 1
    assert rungs == 1905 and held < 128 * rungs, held / rungs


def test_table_is_built_on_the_first_solve():
    ctx = level_context.__wrapped__(TwoModSystem(13, 18, 29), 3)
    assert "_table" not in vars(ctx)
    solve_with_context(ctx, RemainderObservation(69, 240))
    assert vars(ctx)["_table"] is not None


def test_after_is_the_searchsorted_form():
    """Each bucket's first threshold, counted by ``bincount``, is the index
    ``np.searchsorted`` found, byte for byte."""

    def searched(kernel):
        threshold = kernel.threshold[np.isfinite(kernel.threshold)]
        bucket = np.floor(threshold * kernel.scale).astype(np.intp)
        return np.searchsorted(bucket, np.arange(bucket[0], bucket[-1] + 1))

    for system in random_systems(100, seed=41, gamma_max=5000):
        for j in range(1, sigma_chain(system).levels + 1):
            kernel = LevelKernel(system, j)
            ref = searched(kernel)
            assert kernel.after.dtype == ref.dtype and kernel.after.tobytes() == ref.tobytes()
    full = TwoModSystem.from_moduli(2097151, 2097153)
    kernel = LevelKernel(full, sigma_chain(full).levels)
    assert kernel.after.size == 4194302
    assert kernel.after.tobytes() == searched(kernel).tobytes()
