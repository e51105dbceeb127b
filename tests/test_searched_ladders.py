"""Ladder walks: every ladder keeps only ``base, mod, depth, inverse`` and
answers ``neighbours`` and ``nearest`` by Euclid-style walks; at full depth,
where every residue is a rung, the first rung at or above an edge is the
edge itself.

``ladder_reference`` keeps the tabulated ladder with bisect.  Each query of
a walked ladder, at every depth of small ladders and on random ones, must
give what the reference gives; near 2^40 and 2^64 the reference is its old
window search, which needs no table.  Solves and falsifiers must not change
when ``SIGNED_TABLE_MAX`` is raised so that every level picks its folds from
a signed table instead of the walks.  Lower levels of cofactors near 2^40
and 2^64, whose tables would not fit in memory, must solve under a 1 GB
address-space limit.
"""

import contextlib
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ladder_reference as ladders
from robustrns import two_mod
from robustrns.oracle import range_falsifier
from robustrns.simkit import LevelKernel
from robustrns.two_mod import (
    SIGNED_TABLE_MAX,
    Ladder,
    RemainderObservation,
    TwoModSystem,
    _least,
    ladder_depths,
    level_context,
    sigma_chain,
    solve_level,
)


@contextlib.contextmanager
def table_cap(cap):
    """Fresh contexts with ``SIGNED_TABLE_MAX = cap``."""
    with mock.patch.object(two_mod, "SIGNED_TABLE_MAX", cap):
        level_context.cache_clear()
        try:
            yield
        finally:
            level_context.cache_clear()


def least_gap(base, mod, depth):
    rungs = ladders.build(base, mod, depth).rungs
    return min((b - a for a, b in zip(rungs, rungs[1:])), default=mod)


def assert_matches_reference(ladder, base, mod, depth, sigmas):
    """Every neighbour pair at edges ``-1 .. mod + 1``, and the
    nearest rung of every integer and half-integer target from ``-1`` to
    ``mod + 1`` under both tie rules and each ``sigma`` (at most the least
    gap; at the least gap, ties go up)."""
    ref = ladders.build(base, mod, depth)
    for edge in range(-1, mod + 2):
        assert ladder.neighbours(edge) == ref.neighbours(edge), edge
    for num in range(-2, 2 * mod + 3):
        for sigma in sigmas:
            for left_open in (False, True):
                assert (ladder.nearest(num, 2, sigma, left_open)
                        == ref.nearest(num, 2, sigma, left_open)), (num, sigma, left_open)


def ladder_of(base, mod, depth):
    return Ladder(base, mod, depth, pow(base, -1, mod))


@st.composite
def coprime_ladders(draw, mod_max):
    mod = draw(st.integers(2, mod_max))
    base = draw(st.integers(1, 3 * mod).filter(lambda b: math.gcd(b, mod) == 1))
    return base, mod, draw(st.integers(0, mod - 1))


@settings(max_examples=40, deadline=None)
@given(coprime_ladders(mod_max=2000), st.data())
def test_walks_match_the_reference(ladder, data):
    base, mod, depth = ladder
    walked = ladder_of(base, mod, depth)
    assert len(walked) == depth + 1
    sigma = data.draw(st.sampled_from((1, least_gap(base, mod, depth))))
    assert_matches_reference(walked, base, mod, depth, (sigma,))


@pytest.mark.parametrize("mod", [2, 3, 7, 30, 53])
def test_every_depth_of_small_ladders(mod):
    for base in sorted({1, 2, mod - 1, mod + 1, 2 * mod + 3, 5 * mod // 3}):
        if math.gcd(base, mod) == 1:
            for depth in range(mod):
                sigmas = {1, least_gap(base, mod, depth)}
                assert_matches_reference(ladder_of(base, mod, depth), base, mod, depth, sigmas)


@st.composite
def walks(draw):
    """``(n, mod, a, b)``: walks longer than ``mod``, steps that are
    multiples of it, and steps and starts past ``[0, mod)`` either way, as
    ``neighbours`` passes in."""
    mod = draw(st.integers(1, 400))
    n = draw(st.integers(1, 3 * mod + 2))
    a = draw(st.one_of(st.integers(-3, 3).map(lambda k: k * mod), st.integers(-3 * mod, 3 * mod)))
    return n, mod, a, draw(st.integers(-3 * mod, 3 * mod))


@settings(max_examples=400, deadline=None)
@given(walks())
@example((1, 1, 0, 0)).via("one value")
@example((7, 5, 10, 12)).via("a multiple of mod as a, b past mod")
@example((12, 5, -2, -7)).via("n past mod, negative a and b")
@example((9, 10, 7, 3)).via("2 a > mod: the walk read backwards")
def test_least_is_the_least_of_the_walk(walk):
    n, mod, a, b = walk
    assert _least(n, mod, a, b) == min((a * t + b) % mod for t in range(n))


# levels 1-2 of each: gaps of 2 and of 2^40 (level 2 of the first is full
# depth, where every residue is a rung)
BIG_SYSTEMS = [TwoModSystem(1, 2**40 + 1, 2**40 + 3), TwoModSystem(1, 2**64 + 1, 2**64 + 3 + 2**40)]


@pytest.mark.parametrize("system", BIG_SYSTEMS, ids=["2_40", "2_64"])
@pytest.mark.parametrize("j", [1, 2])
def test_searched_ladders_match_the_window_search_at_size(system, j):
    ctx = level_context(system, j)
    rnd = random.Random(j)
    for ladder in (ctx.s1, ctx.s2):
        ref = ladders.SearchedLadder(ladder.base, ladder.mod, ladder.depth, ladder.inverse)
        for _ in range(100):
            rung = rnd.randrange(ladder.depth + 1) * ladder.base % ladder.mod
            for edge in (rung + rnd.randint(-2, 2), rnd.randrange(-2, ladder.mod + 3)):
                assert ladder.neighbours(edge) == ref.neighbours(edge), edge
            # half-integer targets near a rung, ties included, and anywhere
            for num in (2 * rung + rnd.choice((-1, 1)) * rnd.randrange(ctx.sigma + 2),
                        rnd.randrange(-4, 2 * ladder.mod + 4)):
                left_open = rnd.random() < 0.5
                assert (ladder.nearest(num, 2, ctx.sigma, left_open)
                        == ref.nearest(num, 2, ctx.sigma, left_open)), (num, left_open)


def test_full_depth_ladders_at_any_size():
    # every residue is a rung: neighbours and nearest need no table at 2^70
    ladder = ladder_of(3, 2**70, 2**70 - 1)
    assert ladder.neighbours(2**69 + 1) == (2**69, 2**69 + 1)
    assert ladder.neighbours(2**70 + 5) == (2**70 - 1, 2**70 - 1)
    assert ladder.nearest(2**70 + 1, 2, 1, False) == ladder.fold(2**69)
    assert ladder.nearest(2**70 + 1, 2, 1, True) == ladder.fold(2**69 + 1)
    assert ladder.nearest(2**72, 1, 1, True) == ladder.fold(2**70 - 1)


@st.composite
def deep_systems(draw):
    """Systems with a level below the full one past ``SIGNED_TABLE_MAX``:
    ``gamma2 = q gamma1 + s`` with a small ``s`` keeps ``sigma_1`` small, so
    level 1 is deep; or any coprime pair up to 3e4 with a level that is."""
    g1 = draw(st.integers(9000, 29999))
    if draw(st.booleans()):
        s = draw(st.integers(2, 8).filter(lambda s: math.gcd(g1, s) == 1))
        g2 = draw(st.integers(1, 3)) * g1 + s
    else:
        g2 = draw(st.integers(g1 + 1, 30000).filter(lambda g: math.gcd(g1, g) == 1))
    system = TwoModSystem(draw(st.integers(1, 7)), g1, g2)
    assume(any(sum(ladder_depths(system, j)) + 2 > SIGNED_TABLE_MAX
               for j in range(1, sigma_chain(system).levels)))
    return system


def cap_dependent_answers(system, observations):
    levels = range(1, sigma_chain(system).levels + 1)
    solves = [solve_level(system, obs, j) for j in levels for obs in observations]
    falsifiers = [range_falsifier(system, j) for j in levels]
    kernels = [LevelKernel(system, j) for j in levels]
    tables = [(k.n1.tolist(), k.n2.tolist(), k.threshold.tolist(), k.after.tolist(),
               k.first, k.last, k.scale, k.q_lo, k.q_hi) for k in kernels]
    return solves, falsifiers, tables


@settings(max_examples=12, deadline=None)
@given(deep_systems(), st.data())
def test_walked_and_tabled_contexts_agree(system, data):
    levels = sigma_chain(system).levels
    m1, m2 = system.m1, system.m2
    observations = []
    for _ in range(30):
        r1, r2 = data.draw(st.integers(-m1, 2 * m1)), data.draw(st.integers(-m2, 2 * m2))
        observations.append(RemainderObservation(r1, r2))
        observations.append(RemainderObservation(r1 + Fraction(data.draw(st.integers(1, 5)), 6), r2))
    level_context.cache_clear()
    walked_answers = cap_dependent_answers(system, observations)
    with table_cap(2**40):
        assert all(level_context(system, j)._table is not None for j in range(1, levels + 1))
        tabled_answers = cap_dependent_answers(system, observations)
    assert walked_answers == tabled_answers


def test_deep_level_builds_in_constant_memory():
    system = TwoModSystem(1, 10**7 + 19, 2 * 10**7 + 41)
    level_context.cache_clear()
    start = time.perf_counter()
    ctx = level_context(system, 1)
    elapsed = time.perf_counter() - start
    assert (ctx.depth1, ctx.depth2) == (6666678, 3333339)
    level_context.cache_clear()
    tracemalloc.start()
    try:
        level_context(system, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.01 and peak < 1 << 20, (elapsed, peak)


def test_neighbours_at_gaps_near_2_40_take_microseconds():
    # gaps near 2^40: a neighbour costs one walk, however far it lies
    ladder = level_context(BIG_SYSTEMS[1], 1).s1
    rnd = random.Random(23)
    edges = [rnd.randrange(ladder.mod) for _ in range(200)]
    start = time.perf_counter()
    for edge in edges:
        ladder.neighbours(edge)
    elapsed = time.perf_counter() - start
    assert type(ladder) is Ladder and elapsed < 0.05, elapsed


def test_lower_levels_near_2_40_and_2_64_solve_in_bounded_memory():
    # Level 1 of (2^40+1, 2^40+3) has depth1 2^39: as a table it ended in
    # MemoryError.  In a child under a 1 GB address-space limit and 10 s of
    # CPU, every in-guarantee solve at both levels must return the folds.
    child = """
import random, resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
resource.setrlimit(resource.RLIMIT_CPU, (10, 10))
from robustrns.cli import main
from robustrns.oracle import falsifier_report
from robustrns.two_mod import RemainderObservation, TwoModSystem, level_context, solve_level
rnd = random.Random(19)
kinds = []
for g in (2**40 + 1, 2**64 + 1):
    system = TwoModSystem(1024, g, g + 2)
    for j in (1, 2):
        ctx = level_context(system, j)
        err = system.m * ctx.sigma // 4 - 1
        values = [0, 1, ctx.dynamic_range - 1] + [rnd.randrange(ctx.dynamic_range) for _ in range(40)]
        for v in values:
            d1, d2 = rnd.randint(-err, err), rnd.randint(-err, err)
            sol = solve_level(system, RemainderObservation(v % system.m1 + d1, v % system.m2 + d2), j)
            assert (sol.n1, sol.n2) == (v // system.m1, v // system.m2), (g, j, v, d1, d2)
            assert abs(sol.estimate - v) <= err
        assert falsifier_report(system, j).agrees
    kinds.append(type(level_context(system, 1).s1).__name__)
print(*kinds)
print(main(["reconstruct", "--moduli", f"{2**40 + 1},{2**40 + 3}", "--remainders", "5,900",
            "--level", "1"]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "Ladder Ladder" and lines[-1] == "0"
