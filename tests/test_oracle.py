import contextlib
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import ladder_reference as ladders
import oracle_reference
from oracle_reference import exhaustive_fold_search as reference_fold_search
from robustrns import oracle
from robustrns.crt_core import InconsistentRemainders
from robustrns.oracle import (
    _estimate_misses,
    _mean_offset,
    crt_scan,
    exhaustive_fold_search,
    falsifier_report,
    ladder_depths_definitional,
    level_exactness_scan,
    range_falsifier,
    range_falsifier_basic,
)
from robustrns.two_mod import (
    RemainderObservation,
    TwoModSystem,
    _exact_folds,
    ladder_depths,
    level_context,
    sigma_chain,
    solve_level,
    solve_with_context,
    true_folds,
)
from tests_util import random_coprime_pair, run_cli_bounded


class TestCrtScan:
    def test_examples(self):
        assert crt_scan([4, 24], [24, 38]) == 100
        assert crt_scan([0, 0], [24, 38]) == 0

    def test_inconsistent(self):
        with pytest.raises(InconsistentRemainders):
            crt_scan([1, 2], [12, 18])


class TestFoldSearch:
    def test_zero_errors_return_value_itself(self):
        s = TwoModSystem.from_moduli(234, 377)
        found = exhaustive_fold_search(s, RemainderObservation(64, 246), 1170)
        assert (found.value, found.n1, found.n2) == (1000, 4, 2)

    def test_noisy_observation(self):
        s = TwoModSystem.from_moduli(234, 377)
        found = exhaustive_fold_search(s, RemainderObservation(69, 240), 1170)
        assert (found.n1, found.n2) == (4, 2)

    def test_second_system(self):
        s = TwoModSystem.from_moduli(40, 136)
        found = exhaustive_fold_search(s, RemainderObservation(23, 98), 280)
        assert (found.n1, found.n2) == (2, 0)

    def test_tie_takes_smallest_value(self):
        s = TwoModSystem.from_moduli(234, 377)
        # deviations tie at 6 for values 999 and 1000; the scan keeps 999
        found = exhaustive_fold_search(s, RemainderObservation(69, 240), 1170)
        assert found.value == 999
        assert found.deviation == 6

    def test_bound_validation(self):
        s = TwoModSystem.from_moduli(24, 38)
        with pytest.raises(ValueError):
            exhaustive_fold_search(s, RemainderObservation(0, 0), 457)

    @pytest.mark.parametrize("bound", [0, -1, -457])
    def test_empty_bound_refuses(self, bound):
        s = TwoModSystem.from_moduli(24, 38)
        with pytest.raises(ValueError, match="must be at least 1"):
            exhaustive_fold_search(s, RemainderObservation(0, 0), bound)

    @pytest.mark.parametrize("bound", [1170.0, Fraction(1170), True, False, "1170", np.int64(1170)])
    def test_bound_must_be_an_int(self, bound):
        s = TwoModSystem.from_moduli(234, 377)
        with pytest.raises(ValueError, match="must be an int"):
            exhaustive_fold_search(s, RemainderObservation(69, 240), bound)


def assert_same_search(system, obs, bound):
    got = exhaustive_fold_search(system, obs, bound)
    want = reference_fold_search(system, obs, bound)
    assert (got.n1, got.n2, got.value) == (want.n1, want.n2, want.value)
    assert type(got.deviation) is type(want.deviation)
    # repr tells -0.0 from 0.0, which == does not
    assert repr(got.deviation) == repr(want.deviation)


def assert_same_exact_search(system, obs, bound):
    """The search against the loop run on the exact ``Fraction`` of each float
    remainder: the same value, and the deviation the scalar expression at that
    value, which rounds the exact deviation to a float when a float wins."""
    got = exhaustive_fold_search(system, obs, bound)
    want = reference_fold_search(system, RemainderObservation(Fraction(obs.r1), Fraction(obs.r2)), bound)
    assert (got.n1, got.n2, got.value) == (want.n1, want.n2, want.value)
    at_value = max(abs(obs.r1 - want.value % system.m1), abs(obs.r2 - want.value % system.m2))
    assert repr(got.deviation) == repr(at_value)
    assert float(got.deviation) == float(want.deviation)


@st.composite
def fold_searches(draw):
    """A small system, one observation and a bound up to the lcm.

    Each remainder is an int, a Fraction, an arbitrary float or a
    half-integer float (which makes deviation ties), anywhere in
    [-2 m_i, 3 m_i].
    """
    g1 = draw(st.integers(2, 29))
    g2 = draw(st.sampled_from([g for g in range(g1 + 1, 31) if math.gcd(g1, g) == 1]))
    system = TwoModSystem(draw(st.integers(1, 8)), g1, g2)

    def remainder(mi):
        lo, hi = -2 * mi, 3 * mi
        return draw(st.one_of(
            st.integers(lo, hi),
            st.integers(1, 12).flatmap(
                lambda d: st.integers(lo * d, hi * d).map(lambda a: Fraction(a, d))),
            st.floats(lo, hi),
            st.integers(2 * lo, 2 * hi).map(lambda k: k / 2),
        ))

    obs = RemainderObservation(remainder(system.m1), remainder(system.m2))
    return system, obs, draw(st.integers(1, system.lcm))


class TestFoldSearchMatchesReference:
    """The numpy block scan against the plain loop in ``oracle_reference``."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(fold_searches(), st.sampled_from([3, 64, 1 << 16]))
    @example((TwoModSystem(3, 7, 10), RemainderObservation(-5, 47.5), 210), 3)
    @example((TwoModSystem(3, 7, 10), RemainderObservation(Fraction(7, 2), 0.5), 210), 3)
    @example((TwoModSystem(1, 2, 3), RemainderObservation(Fraction(-1, 3), 9), 6), 64)
    def test_property(self, search, block):
        # small blocks put many block edges inside lcms that stay cheap to loop over
        with mock.patch.object(oracle, "_SCAN_BLOCK", block):
            assert_same_exact_search(*search)

    @pytest.mark.parametrize("r1, r2", [
        (math.nan, 3), (3, math.nan), (math.inf, 3), (3, -math.inf),
        (math.nan, math.nan), (-0.0, 0.0),
    ])
    def test_non_finite_floats(self, r1, r2):
        system, obs = TwoModSystem.from_moduli(234, 377), RemainderObservation(r1, r2)
        if math.isfinite(r1) and math.isfinite(r2):
            assert_same_search(system, obs, 1170)
        else:
            with pytest.raises(ValueError, match="must be finite"):
                exhaustive_fold_search(system, obs, 1170)


BLOCK = 1 << 16
# m = 2: every pair (n % 628, n % 630) has equal parities, so half-integer
# remainders at (k1 + 1/2, k2 + 1/2) leave exactly two values at deviation
# 1/2, the neighbours n and n + 1 -- a tie no other value can undercut.
EDGE_SYSTEM = TwoModSystem(2, 314, 315)  # lcm 197,820 > 3 * 2^16 + 5


def observe(system, value, d1, d2):
    return RemainderObservation(value % system.m1 + d1, value % system.m2 + d2)


class TestFoldSearchBlockEdges:
    @pytest.mark.parametrize("bound, value", [
        (BLOCK - 1, BLOCK - 2),          # last candidate of a partial first block
        (BLOCK + 1, BLOCK),              # sole candidate of the second block
        (3 * BLOCK + 5, 2 * BLOCK),      # first candidate of the third block
        (3 * BLOCK + 5, 2 * BLOCK + 1),  # just after a block boundary
        (3 * BLOCK + 5, 3 * BLOCK + 4),  # last candidate of the scan
    ])
    # every error below 1/2 leaves the value the only one within that deviation
    @pytest.mark.parametrize("d1, d2", [(0, 0), (0.25, -0.375), (Fraction(1, 3), Fraction(-2, 5))])
    def test_minimum_near_block_edge(self, bound, value, d1, d2):
        obs = observe(EDGE_SYSTEM, value, d1, d2)
        found = exhaustive_fold_search(EDGE_SYSTEM, obs, bound)
        want = max(abs(d1), abs(d2))
        assert (found.value, found.deviation) == (value, want)
        assert type(found.deviation) is type(want)
        if not isinstance(d1, Fraction):  # the Fraction loop takes seconds at these bounds
            assert_same_search(EDGE_SYSTEM, obs, bound)

    @pytest.mark.parametrize("bound, first", [(BLOCK + 1, BLOCK - 1), (3 * BLOCK + 5, 2 * BLOCK - 1)])
    @pytest.mark.parametrize("half", [0.5, Fraction(1, 2)])
    def test_tie_straddling_block_edge_keeps_smaller(self, bound, first, half):
        obs = observe(EDGE_SYSTEM, first, half, half)
        tied = observe(EDGE_SYSTEM, first + 1, -half, -half)
        assert (tied.r1, tied.r2) == (obs.r1, obs.r2)  # the next value ties
        found = exhaustive_fold_search(EDGE_SYSTEM, obs, bound)
        assert (found.value, found.deviation) == (first, half)
        assert type(found.deviation) is type(half)
        if isinstance(half, float):
            assert_same_search(EDGE_SYSTEM, obs, bound)


# (234, 377): m1 = 234, m2 = 377, lcm 6,786; the observations mix every
# remainder kind, including magnitudes that move the scan to Python integers.
TABLE_SYSTEM = TwoModSystem.from_moduli(234, 377)
TABLE_OBSERVATIONS = [
    RemainderObservation(69, 240),
    RemainderObservation(Fraction(139, 2), Fraction(-7, 3)),
    RemainderObservation(69.25, 240),
    RemainderObservation(Fraction(139, 2), 512.75),
    RemainderObservation(2**70 + 5, 240),
]


class TestFoldSearchResidueTables:
    """Each side's deviations come from a table of its residues, laid out
    periodically; these bounds cover every way a bound cuts the periods."""

    @pytest.mark.parametrize("bound", [
        pytest.param(100, id="below-m1"),
        pytest.param(234, id="equal-m1"),
        pytest.param(300, id="between-m1-and-m2"),
        pytest.param(6786, id="lcm"),
        pytest.param(1000, id="multiple-of-neither"),
    ])
    @pytest.mark.parametrize("obs", TABLE_OBSERVATIONS)
    def test_bounds_against_periods(self, bound, obs):
        assert_same_search(TABLE_SYSTEM, obs, bound)

    @pytest.mark.parametrize("block", [
        pytest.param(50, id="both-periods-longer"),
        pytest.param(300, id="m2-period-longer"),
        pytest.param(377, id="both-periods-fit"),
    ])
    @pytest.mark.parametrize("bound", [6786, 1000, 377, 60])
    @pytest.mark.parametrize("obs", TABLE_OBSERVATIONS)
    def test_periods_longer_than_the_block(self, block, bound, obs):
        with mock.patch.object(oracle, "_SCAN_BLOCK", block):
            assert_same_search(TABLE_SYSTEM, obs, bound)

    @pytest.mark.parametrize("bound", [100, 300, 1000, 6786])
    @pytest.mark.parametrize("obs", TABLE_OBSERVATIONS)
    def test_deviation_runs_once_per_residue(self, bound, obs):
        """With both periods inside one block, the scan tabulates
        ``min(m_i, bound)`` residues per side and nothing per candidate.  The
        residues are counted as the elements of every ``np.arange`` the
        oracle builds."""
        built = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def arange(self, *args, **kwargs):
                out = np.arange(*args, **kwargs)
                built.append(out.size)
                return out

        want = reference_fold_search(TABLE_SYSTEM, obs, bound)
        with mock.patch.object(oracle, "np", CountingNumpy()):
            got = exhaustive_fold_search(TABLE_SYSTEM, obs, bound)
        assert (got.value, got.deviation) == (want.value, want.deviation)
        m1, m2 = TABLE_SYSTEM.m1, TABLE_SYSTEM.m2
        assert 0 < sum(built) <= min(m1, bound) + min(m2, bound)

    @pytest.mark.parametrize("system, obs, block, bound", [
        pytest.param(EDGE_SYSTEM, RemainderObservation(100, 33), 1024, 196_613, id="int64-tabulated"),
        pytest.param(EDGE_SYSTEM, RemainderObservation(100, 33), 256, 196_613, id="int64-long-periods"),
        pytest.param(EDGE_SYSTEM, RemainderObservation(100.5, 33), 1024, 40_000, id="float-tabulated"),
        pytest.param(EDGE_SYSTEM, RemainderObservation(100.5, 33), 256, 40_000, id="float-long-periods"),
        pytest.param(TwoModSystem(1, 2**64 + 1, 2**64 + 3), RemainderObservation(100, 33), 256, 40_000,
                     id="cofactors-past-2^64"),
    ])
    def test_memory_follows_the_block_not_the_bound(self, system, obs, block, bound):
        with mock.patch.object(oracle, "_SCAN_BLOCK", block):
            tracemalloc.start()
            try:
                exhaustive_fold_search(system, obs, bound)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # a few hundred bytes per candidate of a block or two; the bound spans
        # 39 to 768 blocks
        assert peak < 512 * block


# Remainders of every kind: int64, Python integers (a magnitude past 2^62)
# and Fractions.
ROW_OBSERVATIONS = [
    pytest.param(RemainderObservation(69, 240), id="int64"),
    pytest.param(RemainderObservation(2**70 + 5, 240), id="python-int"),
    pytest.param(RemainderObservation(Fraction(139, 2), Fraction(-7, 3)), id="fraction"),
]


class TestFoldSearchBlockRows:
    """A scan block is ``rows`` rows of ``cols = min(m1, bound, _SCAN_BLOCK)``
    candidates, blocks starting at multiples of ``cols``: side 1 is one row
    broadcast along the block while m1 fits in a block, and both sides are
    computed per block once it does not.  On (234, 377) a block of 1000 holds
    4 rows of m1, one of 300 a single row with m2 computed per block, and one
    of 100 rows of 100 with both sides computed per block."""

    @pytest.mark.parametrize("block", [
        pytest.param(1000, id="rows-of-m1"),
        pytest.param(300, id="m2-longer-than-a-block"),
        pytest.param(100, id="m1-longer-than-a-block"),
    ])
    @pytest.mark.parametrize("bound", [
        pytest.param(936, id="4m1"),
        pytest.param(6786, id="lcm-29m1"),
        pytest.param(234, id="m1"),
        pytest.param(937, id="4m1+1"),
        pytest.param(2339, id="10m1-1"),
        pytest.param(150, id="below-m1"),
    ])
    @pytest.mark.parametrize("obs", ROW_OBSERVATIONS)
    def test_bounds_against_rows(self, block, bound, obs):
        with mock.patch.object(oracle, "_SCAN_BLOCK", block):
            assert_same_search(TABLE_SYSTEM, obs, bound)

    @pytest.mark.parametrize("block", [1000, 300, 100])
    @pytest.mark.parametrize("obs", [
        # side 2 binds: every n with n % 377 == 0 ties, except where side 1
        # is farther; the ties fall in several rows and blocks
        pytest.param(RemainderObservation(150, -100), id="int64"),
        pytest.param(RemainderObservation(150, -(2**63)), id="python-int"),
        pytest.param(RemainderObservation(Fraction(301, 2), Fraction(-201, 2)), id="fraction"),
        pytest.param(RemainderObservation(150.5, -100.5), id="float"),
    ])
    def test_ties_straddling_row_and_block_edges_keep_the_smallest(self, block, obs):
        bound, m1, m2 = 2000, TABLE_SYSTEM.m1, TABLE_SYSTEM.m2
        devs = [max(abs(obs.r1 - n % m1), abs(obs.r2 - n % m2)) for n in range(bound)]
        least = min(devs)
        tied = [n for n, dev in enumerate(devs) if dev == least]
        cols = min(m1, bound, block)
        size = cols * min(block // cols, -(-bound // cols))
        assert len({n // cols for n in tied[:2]}) == 2  # the first two ties in two rows
        assert len({n // size for n in tied}) > 1  # and the ties in more than one block
        with mock.patch.object(oracle, "_SCAN_BLOCK", block):
            got = exhaustive_fold_search(TABLE_SYSTEM, obs, bound)
            assert_same_search(TABLE_SYSTEM, obs, bound)
        assert got.value == tied[0]


class TestFoldSearchIntRemainders:
    """Two int remainders are their own numerators over 1: the search builds
    no ``Fraction`` for them, and still equals the reference loop."""

    @pytest.mark.parametrize("bound", [1, 1170, 6786])
    @pytest.mark.parametrize("obs", [obs for obs in TABLE_OBSERVATIONS
                                     if type(obs.r1) is int and type(obs.r2) is int])
    def test_ints_never_build_a_fraction(self, obs, bound):
        def refuse(*args):
            raise AssertionError(f"Fraction{args} built for int remainders")

        with mock.patch.object(oracle, "Fraction", refuse):
            assert_same_search(TABLE_SYSTEM, obs, bound)


class TestFoldSearchEdgeSizes:
    """Small bounds at magnitudes past int64: these run on Python integers."""

    @pytest.mark.parametrize("system, obs, bound", [
        pytest.param(TwoModSystem(2**62 - 57, 2, 3),
                     RemainderObservation(4321, Fraction(8642, 3)), 5000, id="m-near-2^62"),
        pytest.param(TwoModSystem(1, 2**64 + 1, 2**64 + 3),
                     RemainderObservation(3000, 2997), 5000, id="cofactors-past-2^64"),
        pytest.param(TwoModSystem(1, 2**64 + 1, 2**64 + 3),
                     RemainderObservation(2999.5, Fraction(8995, 3)), 5000,
                     id="cofactors-past-2^64-float-and-fraction"),
        pytest.param(TwoModSystem(2**62 - 57, 2, 3),
                     RemainderObservation(4321.25, -17.5), 5000, id="m-near-2^62-floats"),
        pytest.param(TwoModSystem.from_moduli(234, 377),
                     RemainderObservation(2**70 + 5, -(2**65)), 1170, id="remainders-past-int64"),
        pytest.param(TwoModSystem.from_moduli(234, 377),
                     RemainderObservation(Fraction(69 * 2**61 + 1, 2**61 + 1), 240), 1170,
                     id="fraction-denominator-past-2^62"),
    ])
    def test_matches_reference(self, system, obs, bound):
        assert_same_search(system, obs, bound)


class TestDefinitionalDepths:
    def test_reference_values(self):
        s = TwoModSystem(13, 18, 29)
        assert ladder_depths_definitional(s, 3) == (4, 3)
        assert ladder_depths_definitional(TwoModSystem(30, 20, 49), 2) == (22, 8)

    def test_top_level(self):
        for g1, g2 in [(18, 29), (20, 49), (5, 17)]:
            s = TwoModSystem(1, g1, g2)
            top = sigma_chain(s).levels
            assert ladder_depths_definitional(s, top) == (g2 - 1, g1 - 1)

    def test_matches_closed_form_randomized(self, rng):
        for _ in range(12):
            g1, g2 = random_coprime_pair(rng, hi=160)
            s = TwoModSystem(1, g1, g2)
            for j in range(1, sigma_chain(s).levels + 1):
                assert ladder_depths(s, j) == ladder_depths_definitional(s, j)


class TestDefinitionalDepthsMatchReference:
    """The cells of width sigma_j give the depths of the sorted-list growth in
    ``oracle_reference``."""

    def test_every_level_of_every_small_pair(self):
        for g2 in range(3, 151):
            for g1 in range(2, g2):
                if math.gcd(g1, g2) == 1:
                    s = TwoModSystem(1, g1, g2)
                    for j in range(1, sigma_chain(s).levels + 1):
                        assert ladder_depths_definitional(s, j) == \
                            oracle_reference.ladder_depths_definitional(s, j), (g1, g2, j)

    def test_random_large_pairs(self, rng):
        # The reference's inserts cost the square of the rungs, and the top
        # two levels grow the ladders nearly in full (about 95% of its time on
        # these pairs), so those two levels are checked against the closed form.
        for _ in range(20):
            g1, g2 = random_coprime_pair(rng, lo=2**12, hi=2**16)
            s = TwoModSystem(1, g1, g2)
            top = sigma_chain(s).levels
            for j in range(1, top + 1):
                expected = (oracle_reference.ladder_depths_definitional(s, j) if j < top - 1
                            else ladder_depths(s, j))
                assert ladder_depths_definitional(s, j) == expected, (g1, g2, j)


class TestFalsifier:
    def test_defeats_solver_everywhere(self):
        s = TwoModSystem.from_moduli(234, 377)
        for j in range(1, 6):
            assert falsifier_report(s, j).agrees

    def test_errors_are_legal(self):
        s = TwoModSystem.from_moduli(234, 377)
        for j in range(1, 6):
            inst = range_falsifier(s, j)
            ctx = level_context(s, j)
            diff = Fraction(inst.dr1 - inst.dr2) / s.m
            assert -Fraction(ctx.sigma, 2) <= diff < Fraction(ctx.sigma, 2)

    def test_reference_values(self):
        s = TwoModSystem.from_moduli(234, 377)
        assert [range_falsifier(s, j).value for j in range(1, 6)] == [
            468, 754, 1170, 1885, 6786]

    def test_same_construction_below_range_is_harmless(self):
        # one step below the range, the analogous half-distance nudge stays
        # inside the guarantee and the solver must recover exactly
        s = TwoModSystem.from_moduli(234, 377)
        for j in range(1, 6):
            ctx = level_context(s, j)
            value = ctx.dynamic_range - 1
            r1, r2 = value % 234, value % 377
            if s.m2 * (1 + ctx.depth2) <= s.m1 * (1 + ctx.depth1):
                w = min(ladders.rungs(ctx.s2), key=lambda x: (abs(x - Fraction(r1, s.m)), x))
                dr1, dr2 = Fraction(s.m * w - r1, 2), Fraction(0)
            else:
                w = min(ladders.rungs(ctx.s1), key=lambda x: (abs(x - Fraction(r2, s.m)), x))
                dr1, dr2 = Fraction(0), Fraction(s.m * w - r2, 2)
            diff = Fraction(dr1 - dr2) / s.m
            if not -Fraction(ctx.sigma, 2) <= diff < Fraction(ctx.sigma, 2):
                continue  # nudge not legal at this value; nothing to assert
            sol = solve_level(s, RemainderObservation(r1 + dr1, r2 + dr2), j)
            assert (sol.n1, sol.n2) == true_folds(s, value)


class TestExactnessScan:
    def test_small_system_all_levels(self):
        s = TwoModSystem.from_moduli(12, 18)
        scan = level_exactness_scan(s, 1)
        assert scan.ok
        assert scan.checked > 0

    def test_refuses_past_int64(self):
        s = TwoModSystem(1, 2**32 + 1, 2**32 + 3)  # 2 * lcm is past 2^63
        with pytest.raises(ValueError, match="int64"):
            level_exactness_scan(s, 1)

    def test_peak_memory_per_observation(self):
        # 60,200 observations: the scan holds a chunk of observations and
        # O(m1 + m2) histogram and fold arrays; tables of folds and estimates,
        # at 24 bytes an observation, with reordered copies would not fit under 45
        s = TwoModSystem.from_moduli(200, 301)
        level_context(s, 1)  # cached, so not part of the scan's peak
        tracemalloc.start()
        try:
            scan = level_exactness_scan(s, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scan.ok and scan.checked == 5_805_202
        assert peak <= 45 * s.m1 * s.m2

    @pytest.mark.parametrize("moduli,cases", [((200, 301), 5_805_202), ((25, 24088), 7_827_919)],
                             ids=["200x301", "25x24088"])
    def test_peak_memory_does_not_grow_with_the_observations(self, moduli, cases):
        # (25, 24088) has 602,200 observations, 10x those of (200, 301), and
        # level 1 stays under both limits; the same 1.5 MB holds on both, and
        # int64 tables of folds and estimates would take 17 MB on the larger.
        s = TwoModSystem.from_moduli(*moduli)
        level_context(s, 1)
        level_exactness_scan(TwoModSystem.from_moduli(12, 18), 1)  # numpy's first-call allocations
        tracemalloc.start()
        try:
            scan = level_exactness_scan(s, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.m1 * s.m2 <= oracle._EXACTNESS_CELLS_MAX and scan.checked == cases
        assert peak <= 1_500_000

    def test_mean_offset_is_the_rounded_mean_above_the_lower_reconstruction(self):
        x1, x2 = np.meshgrid(np.arange(-40, 41), np.arange(-40, 41))
        assert (_mean_offset(x1 - x2) == (x1 + x2 + 1) // 2 - np.minimum(x1, x2)).all()
        assert all(_mean_offset(lag) == (abs(lag) + 1) // 2 for lag in range(-5, 6))

    @pytest.mark.parametrize("moduli", [(12, 18), (24, 38), (40, 136)])
    def test_solver_estimate_is_the_rounded_mean(self, moduli):
        """The scan computes each observation's estimate itself, as the rounded
        mean ``((n1*g1 + n2*g2)*m + a + b + 1) // 2`` of the folds that
        ``_exact_folds(ctx, a - b, m)`` picks; ``solve_with_context`` must
        return those folds and that estimate on every observation of every
        level."""
        s = TwoModSystem.from_moduli(*moduli)
        for j in range(1, sigma_chain(s).levels + 1):
            ctx = level_context(s, j)
            for a in range(s.m1):
                for b in range(s.m2):
                    n1, n2 = _exact_folds(ctx, a - b, s.m)
                    sol = solve_with_context(ctx, RemainderObservation(a, b))
                    rounded = ((n1 * s.gamma1 + n2 * s.gamma2) * s.m + a + b + 1) // 2
                    assert (sol.n1, sol.n2, sol.estimate) == (n1, n2, rounded)


# Coprime cofactor pairs of the equivalence property.  Both moduli stay at most
# 40, so the reference loop over every level of a system such as (1, 39, 40),
# about 41,000 cases, takes about a third of a second.
_SCAN_PAIRS = [(g1, g2) for g2 in range(3, 41) for g1 in range(2, g2) if math.gcd(g1, g2) == 1]


@st.composite
def scan_systems(draw):
    m = draw(st.integers(1, 4))
    g1, g2 = draw(st.sampled_from([p for p in _SCAN_PAIRS if m * p[1] <= 40]))
    return TwoModSystem(m, g1, g2)


@contextlib.contextmanager
def _faults(folds=None, offset=None):
    """Faults injected into both exactness scans.  ``folds(ctx, diff, n1, n2)``
    replaces the folds picked for the observations with ``a - b = diff``, and
    ``offset(off, lag)`` the offset ``off = (|lag| + 1) // 2`` of the rounded
    mean above the lower reconstruction ``p`` of an observation whose
    reconstructions differ by ``lag = x1 - x2`` (elementwise, on ints and on
    int64 arrays).  The package's scan takes them through ``_exact_folds``
    and, once per diagonal, ``_mean_offset``; the reference's through
    ``solve_with_context``, per observation, as ``est = p + offset(off, lag)``."""
    folds = folds or (lambda ctx, diff, n1, n2: (n1, n2))
    offset = offset or (lambda off, lag: off)

    def pick(ctx, num, scale):
        return folds(ctx, num, *_exact_folds(ctx, num, scale))

    def mean_offset(lag):
        return offset(_mean_offset(lag), lag)

    def solver(ctx, obs):
        s = ctx.system
        n1, n2 = pick(ctx, obs.r1 - obs.r2, s.m)
        x1, x2 = obs.r1 + n1 * s.m1, obs.r2 + n2 * s.m2
        lag = x1 - x2
        estimate = min(x1, x2) + offset((abs(lag) + 1) // 2, lag)
        return SimpleNamespace(n1=n1, n2=n2, estimate=estimate)

    with mock.patch.object(oracle, "_exact_folds", pick), \
            mock.patch.object(oracle, "_mean_offset", mean_offset), \
            mock.patch.object(oracle_reference, "solve_with_context", solver):
        yield


def _both_scans(system, j, **faults):
    """The package's and the reference's scan of one level, under ``_faults``."""
    with _faults(**faults) if faults else contextlib.nullcontext():
        return level_exactness_scan(system, j), oracle_reference.level_exactness_scan(system, j)


def _wrong_folds(targets):
    """A fold fault on chosen differences: ``targets`` maps ``a - b`` to

    * ``"folds"``: n1 one too high;
    * ``"n2+2"``: n2 two too high, folds that no value near the truth has;
    * ``"wrap_down"``, ``"wrap_up"``: the folds of the value one lcm lower or
      higher, whose values have the right residues but lie below 0 or past
      the level's range.
    """
    def folds(ctx, diff, n1, n2):
        s, fault = ctx.system, targets.get(diff)
        if fault == "folds":
            n1 += 1
        elif fault == "n2+2":
            n2 += 2
        elif fault in ("wrap_down", "wrap_up"):
            sign = 1 if fault == "wrap_up" else -1
            n1, n2 = n1 + sign * s.gamma2, n2 + sign * s.gamma1
        return n1, n2
    return folds


_FAULT_LEVELS = [((12, 18), 1), ((24, 38), 2), ((24, 38), 4)]


def _differences(s):
    return range(1 - s.m2, s.m1)


class TestExactnessScanReference:
    """The closed-form scan against the per-case loop in ``oracle_reference``."""

    @pytest.mark.parametrize("moduli", [(24, 38), (12, 18)])
    def test_every_level_matches(self, moduli):
        s = TwoModSystem.from_moduli(*moduli)
        for j in range(1, sigma_chain(s).levels + 1):
            scan, reference = _both_scans(s, j)
            assert scan == reference
            assert scan.ok and scan.checked > 0

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scan_systems())
    def test_random_systems_match(self, system):
        for j in range(1, sigma_chain(system).levels + 1):
            scan, reference = _both_scans(system, j)
            assert scan == reference

    @pytest.mark.parametrize("moduli,j", _FAULT_LEVELS)
    def test_wrong_folds_on_one_difference(self, moduli, j):
        """The folds of one observation's difference ``a - b`` are wrong, and so
        on every observation with that difference, which shares them."""
        s = TwoModSystem.from_moduli(*moduli)
        scan, reference = _both_scans(s, j, folds=_wrong_folds({5 % s.m1 - 5 % s.m2: "folds"}))
        assert scan == reference
        assert scan.fold_failures > 0 and scan.estimate_failures == 0

    @pytest.mark.parametrize("moduli,j", _FAULT_LEVELS)
    def test_estimate_outside_the_error(self, moduli, j):
        """The estimate lies m2 above the rounded mean on the diagonals whose
        lag ``x1 - x2`` is 2 modulo 3, past both reconstructions; the lags
        of the levels' windows run from -3 to 2, -5 to 4 and -1 to 0."""
        s = TwoModSystem.from_moduli(*moduli)
        scan, reference = _both_scans(s, j, offset=lambda off, lag: off + s.m2 * (lag % 3 == 2))
        assert scan == reference
        assert scan.estimate_failures > 0 and scan.fold_failures == 0

    @pytest.mark.parametrize("moduli,j", _FAULT_LEVELS)
    def test_estimate_below_both_reconstructions(self, moduli, j):
        s = TwoModSystem.from_moduli(*moduli)
        scan, reference = _both_scans(s, j, offset=lambda off, lag: 0 * off - 1)  # est = p - 1
        assert scan == reference
        assert 0 < scan.estimate_failures < scan.checked and scan.fold_failures == 0

    @pytest.mark.parametrize("fault", ["n2+2", "wrap_down", "wrap_up"])
    @pytest.mark.parametrize("moduli,j", _FAULT_LEVELS)
    def test_folds_outside_the_values(self, moduli, j, fault):
        """Every case folds wrong under folds that no value in the window
        has: n2 two too high, or the folds one lcm away, whose values have
        the observation in their window but lie below 0 or past the range."""
        s = TwoModSystem.from_moduli(*moduli)
        every = {diff: fault for diff in _differences(s)}
        scan, reference = _both_scans(s, j, folds=_wrong_folds(every))
        assert scan == reference
        assert scan.fold_failures == scan.checked > 0 and scan.estimate_failures == 0

    @pytest.mark.parametrize("block,moduli,j", [(1, (12, 18), 1), (7, (24, 38), 4), (100, (24, 38), 3)])
    def test_block_edges(self, block, moduli, j):
        """Value blocks and observation chunks far smaller than a level split
        the histogram and the observations at every kind of edge; faults on
        many differences and diagonals make every count depend on which
        observation each chunk entry holds."""
        s = TwoModSystem.from_moduli(*moduli)
        targets = {diff: "folds" for diff in _differences(s)[::11]}

        def offset(off, lag):  # m2 above the mean on some diagonals, p - 1 on others
            return off + s.m2 * (lag % 3 == 1) - (off + 1) * (lag % 3 == 2)

        with mock.patch.object(oracle, "_VALUE_BLOCK", block), mock.patch.object(oracle, "_OBS_CHUNK", block):
            scan, reference = _both_scans(s, j, folds=_wrong_folds(targets), offset=offset)
        assert scan == reference
        assert scan.fold_failures > 0 and scan.estimate_failures > 0

    @pytest.mark.parametrize("moduli", [(24, 38), (12, 18), (40, 136)])
    def test_each_difference_picked_once(self, moduli):
        s = TwoModSystem.from_moduli(*moduli)
        for j in range(1, sigma_chain(s).levels + 1):
            calls = Counter()

            def counting(ctx, num, scale):
                calls[num] += 1
                return _exact_folds(ctx, num, scale)

            with mock.patch.object(oracle, "_exact_folds", counting):
                scan = level_exactness_scan(s, j)
            assert max(calls.values()) == 1
            assert sum(calls.values()) <= min(s.m1 + s.m2 - 1, scan.checked)
            assert all(1 - s.m2 <= diff < s.m1 for diff in calls)


class TestEstimateMisses:
    def test_counts_the_values_the_estimate_misses(self):
        """Every small estimate, reconstruction pair and run of values
        against a count of the values ``v`` with ``|est - v|`` past both
        ``|p - v|`` and ``|q - v|``."""
        rows = [(est, p, q, low, size)
                for p in range(-2, 4) for q in range(p, 6) for est in range(-5, 9)
                for low in range(-3, 5) for size in range(4)]
        est, p, q, low, size = (np.array(col, dtype=np.int64) for col in zip(*rows))
        want = sum(abs(e - v) > max(abs(pp - v), abs(qq - v))
                   for e, pp, qq, lo, n in rows for v in range(lo, lo + n))
        assert want > 0
        assert _estimate_misses(est, p, q, low, size) == want
        for row in rows[::37]:
            one = [np.array([x], dtype=np.int64) for x in row]
            e, pp, qq, lo, n = row
            assert _estimate_misses(*one) == sum(
                abs(e - v) > max(abs(pp - v), abs(qq - v)) for v in range(lo, lo + n))


_REAL = TwoModSystem.real(2.5, 18, 29)


@pytest.mark.parametrize("call, refusal", [
    (lambda: exhaustive_fold_search(_REAL, RemainderObservation(19.7, 55.2), 100),
     "exhaustive_fold_search: integer systems only"),
    (lambda: range_falsifier(_REAL, 3), "range_falsifier: integer systems only"),
    (lambda: range_falsifier_basic(_REAL), "range_falsifier_basic: integer systems only"),
    (lambda: level_exactness_scan(_REAL, 3), "level_exactness_scan: integer systems only"),
    (lambda: range_falsifier_basic(TwoModSystem(1, 2, 3)),
     "range_falsifier_basic: range already spans the lcm"),
    (lambda: ladder_depths_definitional(TwoModSystem(13, 18, 29), 0),
     "ladder_depths_definitional: level 0 out of range"),
    (lambda: ladder_depths_definitional(TwoModSystem(13, 18, 29), 6),  # 5 levels
     "ladder_depths_definitional: level 6 out of range"),
], ids=["fold-search-real", "falsifier-real", "falsifier-basic-real", "exactness-scan-real",
        "falsifier-basic-one-level", "definitional-level-0", "definitional-past-the-top"])
def test_oracles_refuse_what_they_cannot_answer(call, refusal):
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        call()


class TestOracleLimits:
    """Each oracle sizes its work from its arguments and refuses past a
    module constant, naming itself, the work and the limit, before it
    starts; the CLI exits 2 on the refusal."""

    def test_fold_search_refuses_past_its_candidates(self):
        obs = RemainderObservation(69, 240)
        with mock.patch.object(oracle, "_FOLD_SEARCH_MAX", 1000):
            assert exhaustive_fold_search(TABLE_SYSTEM, obs, 1000) == reference_fold_search(
                TABLE_SYSTEM, obs, 1000)
            with pytest.raises(ValueError, match="^exhaustive_fold_search: search bound 1001 is "
                                                 "past the search's limit of 1000 candidates$"):
                exhaustive_fold_search(TABLE_SYSTEM, obs, 1001)

    def test_fold_search_on_python_integers_refuses_past_a_sixteenth(self):
        # a denominator of 2^60 puts the same search on Python integers
        obs, exact = RemainderObservation(Fraction(1, 2**60), 240), RemainderObservation(69, 240)
        with mock.patch.object(oracle, "_FOLD_SEARCH_MAX", 1600):
            assert exhaustive_fold_search(TABLE_SYSTEM, obs, 100) == reference_fold_search(
                TABLE_SYSTEM, obs, 100)
            with pytest.raises(ValueError, match="^exhaustive_fold_search: search bound 101 is past "
                                                 "the search's limit of 100 candidates on Python "
                                                 "integers$"):
                exhaustive_fold_search(TABLE_SYSTEM, obs, 101)
            assert exhaustive_fold_search(TABLE_SYSTEM, exact, 1600) == reference_fold_search(
                TABLE_SYSTEM, exact, 1600)

    def test_fold_search_runs_at_its_limit_and_refuses_one_past_it(self):
        # lcm(4097, 4099) = 16,793,603 lets the bound reach the limit of 2^24
        argv = ["reconstruct", "--moduli", "4097,4099", "--remainders", "100,33", "--level", "2",
                "--oracle", "--oracle-bound"]
        code, out, err = run_cli_bounded([*argv, str(oracle._FOLD_SEARCH_MAX)], seconds=10)
        assert (code, err) == (0, "")
        assert json.loads(out)["oracle"] == {"search_bound": 16777216, "folds": [2083, 2082],
                                             "value": 8534151, "agrees": True}
        refusal = ("error: exhaustive_fold_search: search bound 16777217 is past the search's "
                   "limit of 16777216 candidates\n")
        assert run_cli_bounded([*argv, "16777217"], seconds=0.5) == (2, "", refusal)

    def test_fold_search_on_python_integers_runs_at_its_limit_and_refuses_one_past_it(self):
        # moduli near 2^62 put the search on Python integers, limited to 2^20 candidates
        argv = ["reconstruct", "--moduli", "4611686018427387905,4611686018427387907",
                "--remainders", "5,900", "--level", "1", "--oracle", "--oracle-bound"]
        code, out, err = run_cli_bounded([*argv, "1048576"], seconds=10)
        assert (code, err) == (0, "")
        assert json.loads(out)["oracle"]["search_bound"] == 1048576
        refusal = ("error: exhaustive_fold_search: search bound 1048577 is past the search's "
                   "limit of 1048576 candidates on Python integers\n")
        assert run_cli_bounded([*argv, "1048577"], seconds=0.5) == (2, "", refusal)

    def test_definitional_depths_refuse_past_their_rungs(self):
        s = TwoModSystem(13, 18, 29)  # 17 + 28 rungs at most
        with mock.patch.object(oracle, "_DEFINITIONAL_RUNGS_MAX", 45):
            assert ladder_depths_definitional(s, 3) == (4, 3)
        with mock.patch.object(oracle, "_DEFINITIONAL_RUNGS_MAX", 44):
            with pytest.raises(ValueError, match="^ladder_depths_definitional: up to 45 rungs to "
                                                 "insert is past the limit of 44$"):
                ladder_depths_definitional(s, 3)

    def test_definitional_depths_refuse_one_rung_past_their_limit(self):
        # (2097151, 2097155) places exactly 2^22 rungs and answers in about 2 s
        # (CI runs it); (2097151, 2097157) places two more
        refusal = ("error: ladder_depths_definitional: up to 4194306 rungs to insert is past "
                   "the limit of 4194304\n")
        assert run_cli_bounded(["verify", "--m1", "2097151", "--m2", "2097157"],
                               seconds=0.5) == (2, "", refusal)

    def test_exactness_scan_refuses_past_its_cells(self):
        s = TwoModSystem.from_moduli(12, 18)  # 216 cells
        with mock.patch.object(oracle, "_EXACTNESS_CELLS_MAX", 216):
            assert level_exactness_scan(s, 1).ok
        with mock.patch.object(oracle, "_EXACTNESS_CELLS_MAX", 215):
            with pytest.raises(ValueError, match=r"^level_exactness_scan: 216 table cells \(m1 \* m2\) "
                                                 "are past the scan's limit of 215$"):
                level_exactness_scan(s, 1)

    def test_exactness_scan_runs_at_its_cell_limit_and_refuses_one_past_it(self):
        # (1023, 1025) has 1,048,575 cells, one under 2^20, and answers in about
        # 0.3 s; (1024, 1025) has 1,049,600
        code, out, err = run_cli_bounded(["verify", "--m1", "1023", "--m2", "1025", "--exhaustive"],
                                         seconds=10)
        assert (code, err) == (0, "")
        assert out.splitlines()[2:] == [
            "PASS: exhaustive level 1: 714779137 cases, 0 fold failures, 0 estimate failures",
            "PASS: exhaustive level 2: 715826177 cases, 0 fold failures, 0 estimate failures",
        ]
        refusal = ("error: level_exactness_scan: 1049600 table cells (m1 * m2) are past the scan's "
                   "limit of 1048576\n")
        assert run_cli_bounded(["verify", "--m1", "1024", "--m2", "1025", "--exhaustive"],
                               seconds=0.5) == (2, "", refusal)

    @pytest.mark.parametrize("argv, refusal", [
        # the first drawn system's depth checks take over a second; the second
        # system, 5,229,117 rungs, is refused at its first call before them
        pytest.param(["verify", "--random-systems", "3", "--gamma-max", "3000000", "--seed", "1"],
                     "ladder_depths_definitional: up to 5229117 rungs to insert is past the limit "
                     "of 4194304", id="second-drawn-system"),
        # the scan's first call comes before the depth checks past level 1
        pytest.param(["verify", "--m1", "100003", "--m2", "200003", "--exhaustive"],
                     "level_exactness_scan: 20000900009 table cells (m1 * m2) are past the scan's "
                     "limit of 1048576", id="scan-after-depth-checks"),
    ])
    def test_verify_refuses_before_the_other_checks_work(self, argv, refusal):
        assert run_cli_bounded(argv, seconds=0.5) == (2, "", f"error: {refusal}\n")

    def test_exactness_scan_counts_cases_without_a_limit(self):
        # the scan's cost is its solves and one pass over the values, which
        # the cell limit bounds; its case count only reports the work done
        assert not hasattr(oracle, "_EXACTNESS_CASES_MAX")
        assert level_exactness_scan(TwoModSystem.from_moduli(12, 18), 1).checked == 2052

    def test_exhaustive_verify_of_667_million_cases_answers_in_bounded_memory_and_time(self):
        # 667,667,000 cases over 1,001,000 observations, each solved once, under 1 GB
        code, out, err = run_cli_bounded(["verify", "--m1", "1000", "--m2", "1001", "--exhaustive"],
                                         seconds=10)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == ("PASS: exhaustive level 1: 667667000 cases, 0 fold failures, "
                                        "0 estimate failures")

    @pytest.mark.parametrize("argv, refusal", [
        pytest.param(["reconstruct", "--moduli", "1099511627777,1099511627779", "--remainders", "5,7",
                      "--level", "1", "--oracle"],
                     "exhaustive_fold_search: search bound 604462909808963854794753 is past the "
                     "search's limit of 1048576 candidates on Python integers",
                     id="reconstruct-oracle-2^40"),
        pytest.param(["verify", "--m1", "1099511627777", "--m2", "1099511627779"],
                     "ladder_depths_definitional: up to 2199023255554 rungs to insert is past the "
                     "limit of 4194304", id="verify-2^40"),
        # the depth checks' first level on (100003, 200003) passes; the scan refuses
        pytest.param(["verify", "--m1", "100003", "--m2", "200003", "--exhaustive"],
                     "level_exactness_scan: 20000900009 table cells (m1 * m2) are past the scan's "
                     "limit of 1048576", id="verify-exhaustive-1e5"),
        pytest.param(["verify", "--m1", "200000", "--m2", "300000", "--exhaustive"],
                     "level_exactness_scan: 60000000000 table cells (m1 * m2) are past the scan's "
                     "limit of 1048576", id="verify-exhaustive-m-1e5"),
        # the first level of the checks on (1000, 1001) passes; the first drawn
        # system is past the rung limit
        pytest.param(["verify", "--m1", "1000", "--m2", "1001", "--falsify", "--random-systems", "2",
                      "--gamma-max", "4000000", "--seed", "1"],
                     "ladder_depths_definitional: up to 4864042 rungs to insert is past the limit "
                     "of 4194304", id="verify-falsify-random-4e6"),
    ])
    def test_commands_refuse_in_bounded_memory_and_time(self, argv, refusal):
        # In a child under a 1 GB address-space limit and a 5 s wall clock:
        # these commands once hung, or died allocating 149 GiB with exit 1.
        assert run_cli_bounded(argv) == (2, "", f"error: {refusal}\n")
