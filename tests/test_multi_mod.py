import math
from fractions import Fraction

import pytest

from robustrns.multi_mod import (
    ModuliGroup,
    cascade_bounds,
    cascade_reconstruct,
    cascade_spec,
    general_robust_crt,
    single_stage_robust_crt,
)


def _group_remainders(value, moduli, deltas=None):
    deltas = deltas or [0] * len(moduli)
    return [value % m + d for m, d in zip(moduli, deltas)]


class TestModuliGroup:
    def test_example_groups(self):
        g = ModuliGroup.from_moduli([120, 300])
        assert (g.gcd, g.cofactors, g.eta) == (60, (2, 5), 600)
        g = ModuliGroup.from_moduli([210, 490])
        assert (g.gcd, g.cofactors, g.eta) == (70, (3, 7), 1470)

    def test_rejects_non_coprime_cofactors(self):
        with pytest.raises(ValueError):
            ModuliGroup.from_moduli([120, 300, 210, 490])  # cofactors 12,30,21,49

    @pytest.mark.parametrize("moduli", [[True, 3], [0, 5], [3, -5], [3, 5.0]])
    def test_invalid_moduli_are_refused(self, moduli):
        with pytest.raises(ValueError, match="ModuliGroup: invalid modulus"):
            ModuliGroup.from_moduli(moduli)

    def test_singleton_group(self):
        g = ModuliGroup.from_moduli([84])
        assert (g.gcd, g.cofactors, g.eta) == (84, (1,), 84)
        folds, est, _ = single_stage_robust_crt(g, [37])
        assert folds == (0,) and est == 37


class TestSingleStage:
    def test_worked_example(self):
        g = ModuliGroup.from_moduli([120, 300])
        folds, est, _ = single_stage_robust_crt(g, [82, 120])
        assert folds == (3, 1)
        assert est == 431

    def test_zero_errors_full_range(self):
        g = ModuliGroup.from_moduli([120, 300])
        for value in range(600):
            folds, est, _ = single_stage_robust_crt(g, _group_remainders(value, g.moduli))
            assert folds == tuple(value // m for m in g.moduli)
            assert est == value

    def test_exhaustive_error_grid(self):
        # every value below the lcm, every in-range integer error pair of size
        # at most 14 (strictly below gcd/4 = 15): folds exact, estimate within 14
        g = ModuliGroup.from_moduli([120, 300])
        for value in range(600):
            r1, r2 = value % 120, value % 300
            n_true = (value // 120, value // 300)
            for d1 in range(max(-14, -r1), min(14, 119 - r1) + 1):
                for d2 in range(max(-14, -r2), min(14, 299 - r2) + 1):
                    folds, est, _ = single_stage_robust_crt(g, [r1 + d1, r2 + d2])
                    assert folds == n_true
                    assert abs(est - value) <= 14

    def test_random_errors_second_group(self, rng):
        g = ModuliGroup.from_moduli([210, 490])
        for _ in range(2000):
            value = int(rng.integers(0, 1470))
            r = _group_remainders(value, g.moduli)
            d = [int(rng.integers(max(-17, -r[0]), min(17, 209 - r[0]) + 1)),
                 int(rng.integers(max(-17, -r[1]), min(17, 489 - r[1]) + 1))]
            folds, est, _ = single_stage_robust_crt(g, [a + b for a, b in zip(r, d)])
            assert folds == tuple(value // m for m in g.moduli)
            assert abs(est - value) <= 17

    def test_larger_group(self, rng):
        g = ModuliGroup.from_moduli([30, 42, 66])
        assert g.cofactors == (5, 7, 11)
        for _ in range(500):
            value = int(rng.integers(0, g.eta))
            folds, est, _ = single_stage_robust_crt(g, _group_remainders(value, g.moduli))
            assert folds == tuple(value // m for m in g.moduli)
            assert est == value


class TestGeneralRobustCrt:
    MODULI = (120, 300, 210, 490)

    def test_zero_errors(self, rng):
        for _ in range(500):
            value = int(rng.integers(0, 29400))
            sol = general_robust_crt(self.MODULI, _group_remainders(value, self.MODULI))
            assert sol.consistent
            assert sol.folds == tuple(value // m for m in self.MODULI)
            assert sol.estimate == value

    def test_small_real_errors(self, rng):
        # gcd/4 = 2.5; errors within 2.4 keep every fold exact
        for _ in range(500):
            value = int(rng.integers(0, 29400))
            deltas = rng.uniform(-2.4, 2.4, size=4)
            rs = [value % m + d for m, d in zip(self.MODULI, deltas)]
            sol = general_robust_crt(self.MODULI, rs)
            assert sol.consistent
            assert sol.folds == tuple(value // m for m in self.MODULI)
            assert abs(sol.estimate - value) <= 3

    def test_detects_inconsistency(self):
        # shift one remainder by a full gcd step: the congruences clash
        value = 12345
        rs = list(_group_remainders(value, self.MODULI))
        rs[1] += 150
        sol = general_robust_crt(self.MODULI, rs)
        assert not sol.consistent or sol.folds != tuple(value // m for m in self.MODULI)

    def test_validation(self):
        with pytest.raises(ValueError):
            general_robust_crt([10], [1])
        with pytest.raises(ValueError):
            general_robust_crt([10, 12], [1])

    @pytest.mark.parametrize("moduli, remainders", [
        ([0, 12], [0, 5]),
        ([-10, 12], [1, 2]),
        ([10.0, 12], [1, 2]),
        ([True, 3], [0, 1]),
    ])
    def test_invalid_moduli_are_refused(self, moduli, remainders):
        with pytest.raises(ValueError, match="general_robust_crt: invalid modulus"):
            general_robust_crt(moduli, remainders)

    @pytest.mark.parametrize("moduli, twin", [([True, 3], (1, 3)), ([3, True], (3, 1)),
                                              ((120, True, 300), (120, 1, 300))])
    def test_a_bool_modulus_is_refused_after_its_int_twin_was_solved(self, moduli, twin):
        """The per-system plan is cached on the moduli tuple, and ``True ==
        1`` hashes alike, so the bool must be refused before the lookup."""
        general_robust_crt(twin, [0] * len(twin))
        with pytest.raises(ValueError, match="^general_robust_crt: invalid modulus True$"):
            general_robust_crt(moduli, [0] * len(moduli))

    @pytest.mark.parametrize("deltas", [(2, -1, 0, 3), (Fraction(5, 3), Fraction(-1, 2), 0, 2),
                                        (1.25, -0.5, 0.0, 2.75), (0, 160, 0, 0)])
    def test_list_tuple_and_iterator_moduli_agree(self, deltas):
        rs = _group_remainders(12345, self.MODULI, list(deltas))
        want = general_robust_crt(self.MODULI, rs)
        for moduli in (list(self.MODULI), iter(self.MODULI), tuple(self.MODULI)):
            got = general_robust_crt(moduli, rs)
            assert got == want and repr(got) == repr(want) and type(got.mean) is type(want.mean)


class TestCascade:
    def test_spec_construction(self):
        spec = cascade_spec([120, 300], [210, 490], 2)
        assert spec.cross.m == 30
        assert (spec.cross.gamma1, spec.cross.gamma2) == (20, 49)
        assert spec.low_is_group1 and not spec.overlapping

    def test_spec_reorders_groups(self):
        spec = cascade_spec([210, 490], [120, 300], 2)
        assert not spec.low_is_group1
        assert (spec.cross.m1, spec.cross.m2) == (600, 1470)

    def test_overlap_flagged(self):
        spec = cascade_spec([120, 300], [300, 490], 1)
        assert spec.overlapping

    def test_bounds(self):
        spec = cascade_spec([120, 300], [210, 490], 2)
        assert cascade_bounds(spec) == (13230, 15)
        assert cascade_bounds(cascade_spec([120, 300], [210, 490], 3)) == (29400, Fraction(15, 2))
        assert cascade_bounds(cascade_spec([120, 300], [210, 490], 1))[1] == 15

    def test_bound_dominance_over_single_stage(self):
        # trading range below the joint lcm buys an error bound well above gcd/4
        import math
        spec = cascade_spec([120, 300], [210, 490], 2)
        rng, tau = cascade_bounds(spec)
        joint_lcm = math.lcm(120, 300, 210, 490)
        assert rng < joint_lcm
        assert tau > Fraction(math.gcd(120, 300, 210, 490), 4)

    def test_error_free_reconstruction(self):
        spec = cascade_spec([120, 300], [210, 490], 2)
        value = 13000
        sol = cascade_reconstruct(spec, _group_remainders(value, (120, 300)),
                                  _group_remainders(value, (210, 490)))
        assert sol.estimate == value
        assert sol.foldings1 == (value // 120, value // 300)
        assert sol.foldings2 == (value // 210, value // 490)
        # every congruence reconstructs the same value
        for n, m, r in zip(sol.foldings1 + sol.foldings2, (120, 300, 210, 490),
                           _group_remainders(value, (120, 300, 210, 490))):
            assert n * m + r == value

    def test_fold_consistency_invariant(self):
        spec = cascade_spec([120, 300], [210, 490], 2)
        sol = cascade_reconstruct(spec, _group_remainders(13000, (120, 300)),
                                  _group_remainders(13000, (210, 490)))
        for (l, group, h) in ((sol.l1, spec.group1, sol.h1), (sol.l2, spec.group2, sol.h2)):
            for mk, hk, total in zip(group.moduli, h, (sol.foldings1 if group is spec.group1 else sol.foldings2)):
                assert total == l * (group.eta // mk) + hk

    def test_random_errors_within_bound(self, rng):
        spec = cascade_spec([120, 300], [210, 490], 2)
        moduli = (120, 300, 210, 490)
        for _ in range(3000):
            value = int(rng.integers(0, 13230))
            deltas = [int(rng.integers(-14, 15)) for _ in range(4)]
            rs = [min(max(value % m + d, 0), m - 1) for m, d in zip(moduli, deltas)]
            eff = [r - value % m for m, r in zip(moduli, rs)]
            sol = cascade_reconstruct(spec, rs[:2], rs[2:])
            assert sol.foldings1 + sol.foldings2 == tuple(value // m for m in moduli)
            assert abs(sol.estimate - value) <= max(abs(e) for e in eff)

    def test_asymmetric_error_budgets(self, rng):
        # per-group budgets may differ: tau1=12 < 60/4, tau2=17 < 70/4, and
        # tau1 + tau2 = 29 stays below the cross window of 30
        spec = cascade_spec([120, 300], [210, 490], 2)
        moduli = (120, 300, 210, 490)
        budgets = (12, 12, 17, 17)
        for _ in range(1500):
            value = int(rng.integers(0, 13230))
            rs = [min(max(value % m + int(rng.integers(-b, b + 1)), 0), m - 1)
                  for m, b in zip(moduli, budgets)]
            sol = cascade_reconstruct(spec, rs[:2], rs[2:])
            assert sol.foldings1 + sol.foldings2 == tuple(value // m for m in moduli)

    def test_tightness_at_range(self):
        # adversarial cross-level pair at the cascade range: group errors of
        # -15 (within the first group's exactness window) push the cross stage
        # into its blind middle window, so the outer folds come out wrong
        spec = cascade_spec([120, 300], [210, 490], 2)
        value = 13230
        rs1 = [value % 120 - 15, value % 300 - 15]
        rs2 = [value % 210, value % 490]
        sol = cascade_reconstruct(spec, rs1, rs2)
        assert sol.group_estimates == (value % 600 - 15, value % 1470)
        assert sol.foldings1 + sol.foldings2 != tuple(value // m for m in (120, 300, 210, 490))

    def test_rejects_equal_lcms(self):
        with pytest.raises(ValueError):
            cascade_spec([120, 300], [200, 75], 1)  # both lcm 600

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_remainders_are_refused(self, bad):
        spec = cascade_spec([120, 300], [210, 490], 2)
        calls = [
            ("single_stage_robust_crt",
             lambda: single_stage_robust_crt(ModuliGroup.from_moduli([120, 300]), [40.0, bad])),
            ("general_robust_crt", lambda: general_robust_crt([120, 300, 210], [bad, 100, 160])),
            ("cascade_reconstruct", lambda: cascade_reconstruct(spec, [40, 100], [160.0, bad])),
            ("cascade_reconstruct", lambda: cascade_reconstruct(spec, [bad, 100], [160, 370])),
        ]
        for caller, call in calls:
            with pytest.raises(ValueError, match=f"^non-finite value {bad!r} in {caller}$"):
                call()

    def test_level_validation(self):
        with pytest.raises(ValueError):
            cascade_spec([120, 300], [210, 490], 4)
