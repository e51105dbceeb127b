"""Level contexts: full-lcm ladders as ranges, bounded caches, the cached hash.

At the full-lcm level a ladder's depth is ``gamma - 1``, so it holds every
residue and ``level_context`` keeps it as ``range(gamma)``; every other level
keeps a sorted tuple.  Either way the ladder must equal the sorted definition.
"""

import copy
import dataclasses
import math
import pickle

from hypothesis import assume, given, settings, strategies as st

import fraction_reference as ref
from robustrns.two_mod import (
    RemainderObservation,
    TwoModSystem,
    _depth_tables,
    _sigma_values,
    level_context,
    sigma_chain,
    solve_level,
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
        for ladder, depth, base, mod in ((ctx.s1, ctx.depth1, g1, g2), (ctx.s2, ctx.depth2, g2, g1)):
            assert list(ladder) == sorted(t * base % mod for t in range(depth + 1))
            assert isinstance(ladder, range) == (depth == mod - 1)


# Cofactors just past 2^60: the sorted-tuple ladders of the top level would
# hold 2^61 ints; as ranges the context builds at once.
HUGE = TwoModSystem(2**20, 2**60 + 1, 2**60 + 3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_top_level_near_2_60_recovers_the_folds(data):
    system = HUGE
    top = sigma_chain(system).levels
    ctx = level_context(system, top)
    assert ctx.s1 == range(system.gamma2) and ctx.s2 == range(system.gamma1)
    assert ctx.dynamic_range == system.lcm
    value = data.draw(st.integers(0, system.lcm - 1))
    err = system.m * ctx.sigma // 4 - 1
    d1, d2 = data.draw(st.integers(-err, err)), data.draw(st.integers(-err, err))
    obs = RemainderObservation(value % system.m1 + d1, value % system.m2 + d2)
    sol = solve_level(system, obs, top)
    assert (sol.n1, sol.n2) == true_folds(system, value)
    assert abs(sol.estimate - value) <= max(abs(d1), abs(d2))
    assert sol == ref.solve_with_context(ctx, obs)


def test_caches_stay_bounded():
    for cache in (level_context, _sigma_values, _depth_tables):
        assert cache.cache_info().maxsize == 256
    for m in range(1, 301):  # (2, 3) has the one level k + 1 = 1
        level_context(TwoModSystem(m, 2, 3), 1)
    assert level_context.cache_info().currsize <= 256


def test_hash_is_cached_and_fields_are_unchanged():
    system = TwoModSystem(13, 18, 29)
    assert hash(system) == hash((13, 18, 29)) == hash(TwoModSystem(13, 18, 29))
    assert repr(system) == "TwoModSystem(m=13, gamma1=18, gamma2=29)"
    assert dataclasses.asdict(system) == {"m": 13, "gamma1": 18, "gamma2": 29}
    assert pickle.loads(pickle.dumps(system)).__dict__ == system.__dict__
    for twin in (pickle.loads(pickle.dumps(system)), copy.deepcopy(system),
                 dataclasses.replace(system)):
        assert twin == system and hash(twin) == hash(system)
    assert system.__getstate__() == {"m": 13, "gamma1": 18, "gamma2": 29}
    real = TwoModSystem.real(2.5, 18, 29)
    assert hash(real) == hash((2.5, 18, 29)) and real != TwoModSystem(2, 18, 29)
