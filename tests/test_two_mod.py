import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ladder_reference as ladders
from robustrns.oracle import range_falsifier, range_falsifier_basic
from robustrns.two_mod import (
    RemainderObservation,
    TwoModSystem,
    delta_baseline,
    delta_chain,
    ladder_depths,
    level_context,
    level_table,
    sigma_chain,
    solve_basic,
    solve_level,
    solve_level_real,
    solve_with_context,
    true_folds,
)

coprime_pairs = st.tuples(
    st.integers(min_value=2, max_value=500), st.integers(min_value=2, max_value=500)
).filter(lambda t: t[0] < t[1] and math.gcd(t[0], t[1]) == 1)


def _observe(system, value, d1=0, d2=0):
    return RemainderObservation(value % system.m1 + d1, value % system.m2 + d2)


class TestSystemConstruction:
    def test_from_moduli(self):
        s = TwoModSystem.from_moduli(234, 377)
        assert (s.m, s.gamma1, s.gamma2) == (13, 18, 29)
        assert (s.m1, s.m2, s.lcm) == (234, 377, 6786)
        assert not s.is_real

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            TwoModSystem.from_moduli(38, 24)  # wrong order
        with pytest.raises(ValueError):
            TwoModSystem.from_moduli(12, 24)  # gamma1 == 1
        with pytest.raises(ValueError):
            TwoModSystem(13, 18, 18)
        with pytest.raises(ValueError):
            TwoModSystem(13, 6, 9)  # cofactors share a factor
        with pytest.raises(ValueError, match="^TwoModSystem: cofactors must be integers$"):
            TwoModSystem(1, 2.0, 3)

    def test_real_mode(self):
        s = TwoModSystem.real(2.5, 18, 29)
        assert s.is_real
        assert s.m1 == pytest.approx(45.0)
        assert s.m2 == pytest.approx(72.5)


class TestSigmaChain:
    def test_known_chains(self):
        assert sigma_chain(TwoModSystem(13, 18, 29)).values == (29, 18, 11, 7, 4, 3, 1)
        assert sigma_chain(TwoModSystem(13, 18, 29)).k == 4
        assert sigma_chain(TwoModSystem(30, 20, 49)).values == (49, 20, 9, 2, 1)
        assert sigma_chain(TwoModSystem(30, 20, 49)).k == 2
        assert sigma_chain(TwoModSystem(1, 2, 3)).values == (3, 2, 1)
        assert sigma_chain(TwoModSystem(1, 2, 3)).k == 0

    @given(coprime_pairs)
    @settings(max_examples=200)
    def test_chain_invariants(self, pair):
        g1, g2 = pair
        chain = sigma_chain(TwoModSystem(1, g1, g2))
        vals = chain.values
        assert vals[0] == g2 and vals[1] == g1 and vals[-1] == 1
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(math.gcd(a, b) == 1 for a, b in zip(vals, vals[1:]))
        assert all(vals[i] == vals[i - 2] % vals[i - 1] for i in range(2, len(vals)))
        assert chain.sigma(chain.k) > 1 and chain.sigma(chain.k + 1) == 1


class TestDeltaChain:
    def test_min_recurrence(self):
        # by hand: 38, 24, |38|_24=14, min(|24|_14, 14-|24|_14)=min(10,4)=4,
        # then min(|14|_4, 4-2)=2 which is the gcd, so the chain stops there.
        ch = delta_chain(TwoModSystem.from_moduli(24, 38))
        assert ch.values == (38, 24, 14, 4, 2)
        assert ch.g == 3

    def test_example_system(self):
        ch = delta_chain(TwoModSystem.from_moduli(40, 136))
        assert ch.delta(1) == 16
        assert ch.values == (136, 40, 16, 8)
        assert ch.g == 2

    def test_baseline_rows(self):
        assert delta_baseline(TwoModSystem.from_moduli(234, 377)) == [
            (1, 143, 35.75, 468, 468),
            (2, 52, 13, 936, 1638),
            (3, 13, 3.25, 3744, 6786),
        ]
        with pytest.raises(ValueError, match="integer systems only"):
            delta_baseline(TwoModSystem.real(2.5, 18, 29))

    def test_immediate_termination(self):
        ch = delta_chain(TwoModSystem.from_moduli(6, 21))
        assert ch.delta(1) == 3 and ch.g == 1

    @given(coprime_pairs)
    @settings(max_examples=100)
    def test_divisibility_and_descent(self, pair):
        g1, g2 = pair
        system = TwoModSystem(7, g1, g2)
        ch = delta_chain(system)
        assert all(v % 7 == 0 for v in ch.values)
        assert all(a > b for a, b in zip(ch.values[1:], ch.values[2:]))
        assert ch.values[-1] == 7


class TestResidueLadder:
    """The sorted ladders of a level context: ``s1`` holds ``|t * gamma1|_gamma2``
    for ``t = 0..depth1`` and ``s2`` holds ``|t * gamma2|_gamma1`` for
    ``t = 0..depth2``."""

    @staticmethod
    def min_gap(ladder):
        return min(b - a for a, b in zip(ladder, ladder[1:]))

    def test_examples(self):
        s = TwoModSystem(13, 18, 29)
        assert tuple(ladders.rungs(level_context(s, 3).s1)) == (0, 7, 14, 18, 25)  # depth1 = 4
        assert self.min_gap(ladders.rungs(level_context(s, 3).s1)) == 4
        assert tuple(ladders.rungs(level_context(s, 1).s2)) == (0, 11)  # depth2 = 1
        assert self.min_gap(ladders.rungs(level_context(s, 1).s2)) == 11
        assert tuple(ladders.rungs(level_context(s, 3).s2)) == (0, 4, 11, 15)  # depth2 = 3
        assert self.min_gap(ladders.rungs(level_context(s, 3).s2)) == 4

    @given(coprime_pairs)
    @settings(max_examples=150)
    def test_definition_distinct_rungs_and_gap(self, pair):
        g1, g2 = pair
        system = TwoModSystem(1, g1, g2)
        for j in range(1, sigma_chain(system).levels + 1):
            ctx = level_context(system, j)
            for ladder, base, mod, depth in ((ctx.s1, g1, g2, ctx.depth1),
                                             (ctx.s2, g2, g1, ctx.depth2)):
                rungs = list(ladders.rungs(ladder))
                assert len(ladder) == depth + 1
                assert rungs == sorted(t * base % mod for t in range(depth + 1))
                assert len(set(rungs)) == depth + 1
                assert self.min_gap(rungs) >= ctx.sigma


class TestLadderDepths:
    def test_table_values(self):
        s = TwoModSystem(13, 18, 29)
        assert [ladder_depths(s, j) for j in range(1, 6)] == [
            (1, 1), (3, 1), (4, 3), (8, 4), (28, 17)]

    def test_example_cascade_pair(self):
        assert ladder_depths(TwoModSystem(30, 20, 49), 2) == (22, 8)

    def test_top_level(self):
        for g1, g2 in [(18, 29), (20, 49), (2, 3), (5, 17)]:
            s = TwoModSystem(1, g1, g2)
            assert ladder_depths(s, sigma_chain(s).levels) == (g2 - 1, g1 - 1)

    def test_out_of_range(self):
        s = TwoModSystem(13, 18, 29)
        with pytest.raises(ValueError):
            ladder_depths(s, 0)
        with pytest.raises(ValueError):
            ladder_depths(s, 6)


class TestLevelTable:
    def test_full_reference_table(self):
        rows = level_table(TwoModSystem.from_moduli(234, 377))
        assert [r.sigma for r in rows] == [11, 7, 4, 3, 1]
        assert [r.depth1 for r in rows] == [1, 3, 4, 8, 28]
        assert [r.depth2 for r in rows] == [1, 1, 3, 4, 17]
        assert [r.dynamic_range for r in rows] == [468, 754, 1170, 1885, 6786]
        assert [r.robustness_bound for r in rows] == [
            Fraction(143, 4), Fraction(91, 4), 13, Fraction(39, 4), Fraction(13, 4)]

    def test_small_system_rows(self):
        rows = level_table(TwoModSystem.from_moduli(40, 136))
        assert (rows[0].dynamic_range, rows[0].robustness_bound) == (280, 4)
        assert (rows[-1].dynamic_range, rows[-1].robustness_bound) == (680, 2)

    def test_cascade_cross_row(self):
        rows = level_table(TwoModSystem.from_moduli(600, 1470))
        assert (rows[1].dynamic_range, rows[1].robustness_bound) == (13230, 15)

    def test_monotone_tradeoff(self, rng):
        from tests_util import random_system
        for _ in range(30):
            rows = level_table(random_system(rng))
            ranges = [r.dynamic_range for r in rows]
            bounds = [r.robustness_bound for r in rows]
            assert all(a < b for a, b in zip(ranges, ranges[1:]))
            assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_top_level_is_lcm(self, rng):
        from tests_util import random_system
        for _ in range(20):
            s = random_system(rng)
            top = level_table(s)[-1]
            assert top.dynamic_range == s.lcm
            assert top.robustness_bound == Fraction(s.m, 4)


class TestSolveBasic:
    def test_worked_examples(self):
        s = TwoModSystem.from_moduli(40, 136)
        sol = solve_basic(s, RemainderObservation(28, 15))
        assert (sol.n1, sol.n2, sol.estimate) == (3, 1, 150)
        sol = solve_basic(s, RemainderObservation(23, 98))
        assert (sol.n1, sol.n2, sol.estimate) == (2, 0, 101)

    def test_zero_errors_exact(self):
        s = TwoModSystem.from_moduli(40, 136)
        top = 280  # coarsest-level range for this system
        for value in range(top):
            sol = solve_basic(s, _observe(s, value))
            assert (sol.n1, sol.n2, sol.estimate) == (*true_folds(s, value), value)

    def test_tightness_construction(self):
        for m1, m2 in [(234, 377), (40, 136), (24, 38)]:
            s = TwoModSystem.from_moduli(m1, m2)
            inst = range_falsifier_basic(s)
            sol = solve_basic(s, inst.observation(s))
            assert (sol.n1, sol.n2) != true_folds(s, inst.value)
            assert abs(inst.dr1 - inst.dr2) < Fraction(s.m * (s.gamma2 % s.gamma1), 2)

    def test_degenerate_remainder_one(self):
        # gamma2 mod gamma1 == 1: the coarsest range is already the lcm
        s = TwoModSystem.from_moduli(12, 18)  # cofactors (2, 3)
        for value in range(s.lcm):
            sol = solve_basic(s, _observe(s, value))
            assert (sol.n1, sol.n2) == true_folds(s, value)


class TestSolveLevel:
    def test_worked_example(self):
        s = TwoModSystem.from_moduli(234, 377)
        sol = solve_level(s, RemainderObservation(69, 240), 3)
        assert (sol.n1, sol.n2, sol.estimate) == (4, 2, 1000)
        assert sol.mean == Fraction(1999, 2)

    def test_top_level_zero_errors(self, rng):
        s = TwoModSystem.from_moduli(234, 377)
        for value in rng.integers(0, s.lcm, size=200):
            sol = solve_level(s, _observe(s, int(value)), 5)
            assert (sol.n1, sol.n2, sol.estimate) == (*true_folds(s, int(value)), value)

    def test_matches_basic_within_guarantee(self, rng):
        from tests_util import random_system
        for _ in range(10):
            s = random_system(rng)
            ctx = level_context(s, 1)
            tau = float(ctx.robustness_bound) * 0.999
            for _ in range(300):
                value = int(rng.integers(0, ctx.dynamic_range))
                d1, d2 = rng.uniform(-tau, tau, size=2)
                obs = _observe(s, value, d1, d2)
                a = solve_basic(s, obs)
                b = solve_level(s, obs, 1)
                assert (a.n1, a.n2, a.estimate) == (b.n1, b.n2, b.estimate)
                assert (a.n1, a.n2) == true_folds(s, value)

    def test_branch_cases_follow_remainder_order(self, rng):
        # within the guarantee, the sign of q21 determines the remainder order
        s = TwoModSystem.from_moduli(234, 377)
        for j in (1, 3, 5):
            ctx = level_context(s, j)
            half = ctx.sigma / 2
            tau = float(ctx.robustness_bound) * 0.999
            for _ in range(400):
                value = int(rng.integers(0, ctx.dynamic_range))
                r1, r2 = value % 234, value % 377
                d1, d2 = rng.uniform(-tau, tau, size=2)
                q = (r1 + d1 - r2 - d2) / s.m
                if q >= half:
                    assert r1 > r2
                elif q < -half:
                    assert r1 < r2
                else:
                    assert r1 == r2

    def test_tightness_all_levels(self):
        for m1, m2 in [(234, 377), (24, 38)]:
            s = TwoModSystem.from_moduli(m1, m2)
            for j in range(1, sigma_chain(s).levels + 1):
                inst = range_falsifier(s, j)
                sol = solve_level(s, inst.observation(s), j)
                assert (sol.n1, sol.n2) != true_folds(s, inst.value)

    def test_exhaustive_small_system(self):
        # every value, every in-range integer error pair inside the window
        from robustrns.oracle import level_exactness_scan
        s = TwoModSystem.from_moduli(12, 18)
        scan = level_exactness_scan(s, 1)
        assert scan.ok and scan.checked > 1000

    def test_level_validation(self):
        s = TwoModSystem.from_moduli(234, 377)
        with pytest.raises(ValueError):
            solve_level(s, RemainderObservation(0, 0), 0)
        with pytest.raises(ValueError):
            solve_level(s, RemainderObservation(0, 0), 6)


class TestEstimate:
    def test_examples(self):
        s = TwoModSystem.from_moduli(234, 377)
        sol = solve_level(s, RemainderObservation(69, 240), 3)
        assert (sol.n1, sol.n2, sol.estimate) == (4, 2, 1000)
        s2 = TwoModSystem.from_moduli(40, 136)
        sol = solve_basic(s2, RemainderObservation(23, 98))
        assert (sol.n1, sol.n2, sol.estimate) == (2, 0, 101)
        sol = solve_basic(s2, RemainderObservation(30, 14))
        assert (sol.n1, sol.n2, sol.estimate) == (3, 1, 150)


class TestRealMode:
    @pytest.mark.parametrize("m", [0.1, 0.3, 0.7, 1.3, 2.5, 3.7, 0.01])
    def test_ranges_and_lcm_are_the_rounded_exact_products(self, m):
        exact = Fraction(m)
        for g1, g2 in [(18, 29), (20, 49), (13, 21), (34, 55), (7, 100)]:
            s = TwoModSystem.real(m, g1, g2)
            assert s.lcm == float(exact * g1 * g2)
            for row in level_table(s):
                want = float(exact * min(g2 * (1 + row.depth2), g1 * (1 + row.depth1)))
                assert row.dynamic_range == want
                assert level_context(s, row.j).dynamic_range == want

    def test_range_rounded_once_example(self):
        # m2 * (1 + depth2) in floats is 14.500000000000002
        assert level_table(TwoModSystem.real(0.1, 18, 29))[3].dynamic_range == 14.5

    def test_products_past_the_float_range_are_refused_by_name(self):
        s = TwoModSystem.real(1e307, 18, 29)
        refusal = r"^TwoModSystem\(m=1e\+307, gamma1=18, gamma2=29\): m \* 36 is past the float range$"
        with pytest.raises(ValueError, match=refusal):
            level_table(s)
        with pytest.raises(ValueError, match=r"m \* 522 is past the float range$"):
            s.lcm
        assert TwoModSystem.real(1e305, 18, 29).lcm == float(Fraction(1e305) * 522)

    def test_unit_m_matches_integer_mode(self, rng):
        si = TwoModSystem(1, 18, 29)
        sr = TwoModSystem.real(1.0, 18, 29)
        for j in (1, 3, 5):
            ctx = level_context(si, j)
            tau = float(ctx.robustness_bound) * 0.99
            for _ in range(200):
                value = int(rng.integers(0, ctx.dynamic_range))
                d1, d2 = rng.uniform(-tau, tau, size=2)
                obs = _observe(si, value, d1, d2)
                a = solve_level(si, obs, j)
                b = solve_level_real(sr, obs, j)
                assert (a.n1, a.n2) == (b.n1, b.n2)
                assert float(a.mean) == pytest.approx(b.mean, abs=1e-12)

    def test_constructed_example(self):
        s = TwoModSystem.real(2.5, 18, 29)
        ctx = level_context(s, 3)
        assert ctx.dynamic_range == pytest.approx(225.0)
        assert ctx.robustness_bound == pytest.approx(2.5)
        value = 199.7
        n1, n2 = true_folds(s, value)
        r1, r2 = value - n1 * s.m1, value - n2 * s.m2
        obs = RemainderObservation(r1 + 1.0, r2 - 1.0)
        sol = solve_level_real(s, obs, 3)
        assert (sol.n1, sol.n2) == (n1, n2)
        assert abs(sol.estimate - value) <= 1.0 + 1e-9

    def test_zero_error_random_values(self, rng):
        s = TwoModSystem.real(3.25, 20, 49)
        ctx = level_context(s, 2)
        for _ in range(300):
            value = float(rng.uniform(0, ctx.dynamic_range))
            n1, n2 = true_folds(s, value)
            obs = RemainderObservation(value - n1 * s.m1, value - n2 * s.m2)
            sol = solve_level(s, obs, 2)
            assert (sol.n1, sol.n2) == (n1, n2)
            assert sol.estimate == pytest.approx(value, rel=1e-12, abs=1e-9)

    def test_real_entry_requires_real_system(self):
        with pytest.raises(ValueError):
            solve_level_real(TwoModSystem.from_moduli(24, 38), RemainderObservation(0, 0), 1)

    @pytest.mark.parametrize("r1, r2", [
        (-0.0, 3.0), (3.0, -0.0), (-0.0, -0.0), (5e-324, 19.7), (19.7, 5e-324),
        (1e308, 0.5), (0.5, 1e308), (5e-324, 1e308), (-1e308, 55.2),
    ])
    def test_float_remainders_match_the_same_values_as_fractions_and_float64(self, r1, r2):
        """Two float remainders on a real system take their exact parts by
        type; a ``Fraction`` or a ``numpy.float64`` (a float subclass) of the
        same value goes the general way, and the outcomes must be the same:
        records field by field, in type and in ``vars`` order, or the same
        exception (``solve_basic`` overflows the float mean at 1e308)."""
        def outcome(solve, obs):
            try:
                sol = solve(obs)
            except (ValueError, OverflowError) as exc:
                return type(exc), str(exc)
            assert type(sol.mean) is float and type(sol.estimate) is float
            return repr(sol), [(k, type(v)) for k, v in vars(sol).items()]

        s = TwoModSystem.real(2.5, 18, 29)
        solvers = [lambda obs: solve_basic(s, obs), lambda obs: solve_with_context(level_context(s, 2), obs)]
        solvers += [lambda obs, j=j: solve_level_real(s, obs, j) for j in range(1, sigma_chain(s).levels + 1)]
        for solve in solvers:
            got = outcome(solve, RemainderObservation(r1, r2))
            for kind in (Fraction, np.float64):
                assert got == outcome(solve, RemainderObservation(kind(r1), kind(r2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("system", [TwoModSystem.real(2.5, 18, 29), TwoModSystem(13, 18, 29)],
                             ids=["real", "integer"])
    def test_non_finite_remainders_are_refused(self, system, bad):
        solvers = [
            ("solve_basic", lambda obs: solve_basic(system, obs)),
            ("solve_level", lambda obs: solve_level(system, obs, 3)),
            ("solve_with_context", lambda obs: solve_with_context(level_context(system, 5), obs)),
        ]
        if system.is_real:
            solvers.append(("solve_level_real", lambda obs: solve_level_real(system, obs, 3)))
        for caller, solve in solvers:
            for obs in (RemainderObservation(bad, 3.0), RemainderObservation(19.7, bad)):
                with pytest.raises(ValueError, match=f"^non-finite value {bad!r} in {caller}$"):
                    solve(obs)


class TestDeltaVersusSigmaBaseline:
    def _check(self, system):
        ch = delta_chain(system)
        table = level_table(system)
        m1, m2 = system.m1, system.m2
        base = m1 * (1 + (m2 // m1) * (m1 // ch.delta(1)))
        lower = base
        for i in range(1, ch.g + 1):
            di = ch.delta(i)
            if i >= 2:
                lower *= ch.delta(i - 1) // di
                upper = max(m1 * (m2 // di), m2 * (m1 // di))
            else:
                upper = base
            rel = di // system.m
            jstar = max(row.j for row in table if row.sigma >= rel)
            rng_j = next(row.dynamic_range for row in table if row.j == jstar)
            assert lower <= rng_j <= upper

    def test_reference_system(self):
        self._check(TwoModSystem.from_moduli(234, 377))

    def test_random_systems(self, rng):
        from tests_util import random_system
        for _ in range(20):
            self._check(random_system(rng))
