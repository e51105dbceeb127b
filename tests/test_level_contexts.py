"""Level contexts: a level's row plus its two ladders, full-depth ladders
at any size, bounded caches, the cached hash, and a system's mode as part of
the identity its context is cached under.

Every ladder is a plain ``Ladder(base, mod, depth, inverse)``.  Its sorted
rungs, read through ``ladder_reference``, must equal the definition, each
rung's fold must be its multiplier, and at the full-lcm level, where a
ladder's depth is ``gamma - 1`` and it holds every residue, its walks and
the solver must give what the tabulated reference gives.
"""

import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fraction_reference as ref
import ladder_reference as ladders
from robustrns.oracle import falsifier_report, level_exactness_scan
from robustrns.simkit import LevelKernel
from robustrns.two_mod import (
    FoldingSolution,
    RemainderObservation,
    RobustnessLevel,
    Ladder,
    TwoModSystem,
    _depth_tables,
    _sigma_values,
    level_context,
    level_table,
    sigma_chain,
    solve_level,
    solve_level_real,
    solve_with_context,
    true_folds,
)


@st.composite
def coprime_systems(draw, gamma_max):
    g1 = draw(st.integers(2, gamma_max - 1))
    g2 = draw(st.integers(g1 + 1, gamma_max))
    assume(math.gcd(g1, g2) == 1)
    return TwoModSystem(draw(st.integers(1, 50)), g1, g2)


@settings(max_examples=60, deadline=None)
@given(coprime_systems(gamma_max=10**4))
def test_ladders_equal_their_definition_at_every_level(system):
    g1, g2 = system.gamma1, system.gamma2
    for j in range(1, sigma_chain(system).levels + 1):
        ctx = level_context(system, j)
        row = RobustnessLevel(*(getattr(ctx, f.name) for f in dataclasses.fields(RobustnessLevel)))
        assert isinstance(ctx, RobustnessLevel) and row == level_table(system)[j - 1]
        for ladder, depth, base, mod in ((ctx.s1, ctx.depth1, g1, g2), (ctx.s2, ctx.depth2, g2, g1)):
            rungs = ladders.rungs(ladder)
            assert list(rungs) == sorted(t * base % mod for t in range(depth + 1))
            assert ladder == Ladder(base, mod, depth, pow(base, -1, mod))
            assert len(ladder) == depth + 1
            assert [ladder.fold(t * base % mod) for t in range(depth + 1)] == list(range(depth + 1))
            assert ladder.fold(np.array(rungs, dtype=np.int64)).tolist() == [ladder.fold(r) for r in rungs]


# Cofactors just past 2^60 and past 2^64: the top level's ladders would hold
# 2^61 and 2^65 rungs; the context keeps four numbers per ladder and builds
# at once, and the solvers walk them, never taking ``len``.
HUGE = TwoModSystem(2**20, 2**60 + 1, 2**60 + 3)
PAST_2_64 = TwoModSystem(1024, 2**64 + 1, 2**64 + 3)


def solve_top_level_draw(system, data):
    """Solve an in-guarantee observation of a value drawn below the lcm at the
    top level; the folds must be ``value // m_i``."""
    top = sigma_chain(system).levels
    ctx = level_context(system, top)
    assert (ctx.s1.depth, ctx.s2.depth) == (system.gamma2 - 1, system.gamma1 - 1)
    assert ctx.dynamic_range == system.lcm
    value = data.draw(st.integers(0, system.lcm - 1))
    err = system.m * ctx.sigma // 4 - 1
    d1, d2 = data.draw(st.integers(-err, err)), data.draw(st.integers(-err, err))
    obs = RemainderObservation(value % system.m1 + d1, value % system.m2 + d2)
    sol = solve_level(system, obs, top)
    assert (sol.n1, sol.n2) == true_folds(system, value) == (value // system.m1, value // system.m2)
    assert abs(sol.estimate - value) <= max(abs(d1), abs(d2))
    return ctx, obs, sol


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_top_level_near_2_60_recovers_the_folds(data):
    ctx, obs, sol = solve_top_level_draw(HUGE, data)
    assert sol == ref.solve_with_context(ctx, obs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_top_level_past_2_64_recovers_the_folds(data):
    # the Fraction reference bisects the range, which overflows past 2^63 rungs
    solve_top_level_draw(PAST_2_64, data)


def test_remainders_5_900_past_2_64_and_the_falsifier():
    sol = solve_level(PAST_2_64, RemainderObservation(5, 900), 2)
    assert (sol.n1, sol.n2) == (2**63 + 1, 2**63)
    assert falsifier_report(PAST_2_64, 2).agrees


@settings(max_examples=60, deadline=None)
@given(coprime_systems(gamma_max=10**4), st.data())
def test_full_depth_walks_match_the_reference(system, data):
    """Integer, rational and float observations at the top level, where
    every residue is a rung; remainders run from ``-2 m_i`` to ``3 m_i``, so
    windows hit, miss and clip at both ends.  The solver must give what it
    gives with the tabulated reference ladders in place of the walks, and
    each ladder's ``nearest`` the reference's at the midpoint ties near both
    ends and along a drawn stretch."""
    top = sigma_chain(system).levels
    ctx = level_context(system, top)
    reference = dataclasses.replace(ctx, s1=ladders.build(ctx.s1.base, ctx.s1.mod, ctx.s1.depth),
                                    s2=ladders.build(ctx.s2.base, ctx.s2.mod, ctx.s2.depth))
    vars(reference)["_table"] = None  # every pick goes through the reference's nearest
    m1, m2 = system.m1, system.m2
    for _ in range(20):
        r1 = data.draw(st.integers(-2 * m1, 3 * m1))
        r2 = data.draw(st.integers(-2 * m2, 3 * m2))
        frac = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.sampled_from((2, 3, 4))))
        for obs in (RemainderObservation(r1, r2),
                    RemainderObservation(r1 + frac, Fraction(r2)),
                    RemainderObservation(float(r1 + frac), float(r2))):
            assert solve_with_context(ctx, obs) == solve_with_context(reference, obs)
    for ladder, rungs in ((ctx.s1, reference.s1), (ctx.s2, reference.s2)):
        # the midpoints num / 2 of a full ladder are ties: at edges -3 .. 4,
        # mod - 4 .. mod + 2 and 64 edges from a drawn one
        start = data.draw(st.integers(0, ladder.mod))
        nums = sorted({*range(-7, 9, 2), *range(2 * ladder.mod - 9, 2 * ladder.mod + 5, 2),
                       *range(2 * start - 1, 2 * start + 127, 2)})
        for left_open in (False, True):
            assert ([ladder.nearest(num, 2, ctx.sigma, left_open) for num in nums]
                    == [rungs.nearest(num, 2, ctx.sigma, left_open) for num in nums])


@pytest.mark.parametrize("j", [0, 6, -1])
def test_level_out_of_range_is_refused(j):
    with pytest.raises(ValueError, match=rf"ladder_depths: level {j} out of range \[1, 5\]"):
        level_context(TwoModSystem(13, 18, 29), j)


def test_caches_stay_bounded():
    for cache in (level_context, _sigma_values, _depth_tables):
        assert cache.cache_info().maxsize == 256
    for m in range(1, 301):  # (2, 3) has the one level k + 1 = 1
        level_context(TwoModSystem(m, 2, 3), 1)
    assert level_context.cache_info().currsize <= 256


def test_hash_is_cached_and_fields_are_unchanged():
    system = TwoModSystem(13, 18, 29)
    assert hash(system) == hash((False, 13, 18, 29)) == hash(TwoModSystem(13, 18, 29))
    assert repr(system) == "TwoModSystem(m=13, gamma1=18, gamma2=29)"
    assert dataclasses.asdict(system) == {"m": 13, "gamma1": 18, "gamma2": 29}
    assert pickle.loads(pickle.dumps(system)).__dict__ == system.__dict__
    for twin in (pickle.loads(pickle.dumps(system)), copy.deepcopy(system),
                 dataclasses.replace(system)):
        assert twin == system and hash(twin) == hash(system)
    assert system.__getstate__() == {"m": 13, "gamma1": 18, "gamma2": 29}
    real = TwoModSystem.real(2.5, 18, 29)
    assert hash(real) == hash((True, 2.5, 18, 29)) and real != TwoModSystem(2, 18, 29)
    for twin in (pickle.loads(pickle.dumps(real)), dataclasses.replace(real)):
        assert twin == real and hash(twin) == hash(real) and twin.is_real


def test_mode_is_part_of_the_identity():
    integer, real = TwoModSystem(4, 2, 3), TwoModSystem.real(4.0, 2, 3)
    assert integer != real and real != integer
    assert hash(integer) != hash(real)
    assert len({integer, real}) == 2
    assert dataclasses.replace(real, m=4) == integer and dataclasses.replace(integer, m=4.0) == real
    for bad in (True, False):
        with pytest.raises(ValueError, match="invalid common factor"):
            TwoModSystem(bad, 2, 3)


def _mode_answers(system):
    """What every context-cached entry point gives on ``system`` at its one
    level: ``(4, 2, 3)`` has the single level 1, range 24."""
    kernel = LevelKernel(system, 1)
    r1t, r2t = np.array([5.5]), np.array([1.0])
    n1, n2 = kernel.solve(r1t, r2t)
    vector = (int(n1[0]), int(n2[0]), kernel.estimate(n1, n2, r1t, r2t).tolist(), kernel.dynamic_range)
    if system.is_real:
        sol = solve_level_real(system, RemainderObservation(5.5, 1.0), 1)
        return sol, type(sol.estimate), vector, type(kernel.dynamic_range)
    sol = solve_level(system, RemainderObservation(5, 1), 1)
    return (sol, type(sol.estimate), type(sol.mean), vector, type(kernel.dynamic_range),
            level_exactness_scan(system, 1))


@pytest.mark.parametrize("real_first", [True, False])
def test_each_mode_keeps_its_own_context_in_either_cache_order(real_first):
    integer, real = TwoModSystem(4, 2, 3), TwoModSystem.real(4.0, 2, 3)
    level_context.cache_clear()  # the order below, not earlier tests, fills the cache
    order = (real, integer) if real_first else (integer, real)
    got = {system: _mode_answers(system) for system in order}
    assert got[integer][:5] == (
        FoldingSolution(1, 1, 13, Fraction(13)), int, Fraction, (1, 1, [13.0], 24), int)
    assert (got[integer][5].checked, got[integer][5].fold_failures,
            got[integer][5].estimate_failures) == (608, 0, 0)
    assert got[real] == (FoldingSolution(1, 1, 13.25, 13.25), float, (1, 1, [13.25], 24.0), float)
    assert level_context(integer, 1).system is not level_context(real, 1).system
