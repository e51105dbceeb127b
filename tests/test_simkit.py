import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from robustrns import simkit
from robustrns.multi_mod import cascade_reconstruct, cascade_spec, general_robust_crt
from robustrns.simkit import (
    CascadeKernel,
    GeneralKernel,
    GroupKernel,
    LevelKernel,
    TrialConfig,
    run_comparison,
    run_tau_sweep,
)
from robustrns.two_mod import (
    RemainderObservation,
    TwoModSystem,
    ladder_depths,
    solve_level,
)


@pytest.fixture(scope="module")
def system():
    return TwoModSystem.from_moduli(234, 377)


class TestLevelKernelSize:
    def test_cap_counts_signed_rungs(self, system, monkeypatch):
        depth1, depth2 = ladder_depths(system, 3)
        monkeypatch.setattr(simkit, "MAX_RUNGS", depth1 + depth2 + 1)
        LevelKernel(system, 3)
        monkeypatch.setattr(simkit, "MAX_RUNGS", depth1 + depth2)
        with pytest.raises(ValueError, match=f"level 3 has {depth1 + depth2 + 1} signed rungs"):
            LevelKernel(system, 3)

    def test_refused_before_allocating(self):
        # Top level of cofactors near 2^40: 2^41 + 3 rungs.  In a child under
        # a 2 GB address-space limit, so an attempt to build the tables ends
        # in MemoryError there instead of exhausting this process.
        child = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from robustrns.cli import main
from robustrns.simkit import LevelKernel
from robustrns.two_mod import TwoModSystem, sigma_chain
system = TwoModSystem(1, 2**40 + 1, 2**40 + 3)
try:
    LevelKernel(system, sigma_chain(system).levels)
except ValueError as exc:
    print(exc)
moduli = ["--m1", str(2**40 + 1), "--m2", str(2**40 + 3), "--trials", "10"]
# a probe takes its default tau from the level's row, so level 1 (depth
# about 2^39) is refused by the kernel before any ladder is built
print(main(["simulate", *moduli, "--tau", "1"]),
      main(["simulate", *moduli, "--level", "1", "--probe-boundary", "5:6"]))
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
        refused, codes = done.stdout.splitlines()
        assert refused.startswith(f"LevelKernel: level 2 has {2**41 + 3} signed rungs")
        assert codes == "2 2" and done.stderr.count("signed rungs") == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_level_kernel_refuses_non_finite_remainders(system, bad):
    kernel = LevelKernel(system, 3)
    for r1t, r2t in (([69.0, bad], [240.0, 3.0]), ([69.0, 5.0], [bad, 240.0])):
        with pytest.raises(ValueError, match="^LevelKernel: a remainder is NaN or infinite$"):
            kernel.solve(np.array(r1t), np.array(r2t))


class TestKernelsMatchScalar:
    def test_level_kernel(self, system, rng):
        for j in (1, 2, 3, 4, 5):
            kernel = LevelKernel(system, j)
            r1t = rng.uniform(-5.0, 239.0, size=4000)
            r2t = rng.uniform(-5.0, 382.0, size=4000)
            n1, n2 = kernel.solve(r1t, r2t)
            est = kernel.estimate(n1, n2, r1t, r2t)
            for i in range(0, 4000, 17):
                sol = solve_level(system, RemainderObservation(float(r1t[i]), float(r2t[i])), j)
                assert (sol.n1, sol.n2) == (n1[i], n2[i])
                assert sol.estimate == est[i]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the float64 sum drops the clamped "
                       "remainder's last ulp at the lcm's magnitude")
    def test_level_estimate_at_a_clamped_remainder(self, system):
        # the exact mean is 362.49999999999997; the kernel estimates 363
        kernel = LevelKernel(system, 1)
        r1t, r2t = np.array([114.0]), np.array([np.nextafter(377.0, 0.0)])
        n1, n2 = kernel.solve(r1t, r2t)
        sol = solve_level(system, RemainderObservation(114.0, float(r2t[0])), 1)
        estimate = int(kernel.estimate(n1, n2, r1t, r2t)[0])
        assert (n1[0], n2[0], estimate) == (sol.n1, sol.n2, sol.estimate)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the float64 estimate drifts once the "
                       "lcm needs 60 bits")
    def test_level_estimate_at_m_2_40(self):
        system = TwoModSystem(2**40 + 7, 1000, 1001)
        value, d1, d2 = 656247381085762037, 37640125380, 271089396617  # errors below m / 4
        obs = RemainderObservation(value % system.m1 + d1, value % system.m2 + d2)
        kernel = LevelKernel(system, 1)
        r1t, r2t = np.array([float(obs.r1)]), np.array([float(obs.r2)])
        n1, n2 = kernel.solve(r1t, r2t)
        sol = solve_level(system, obs, 1)
        assert (sol.n1, sol.n2) == (value // system.m1, value // system.m2)
        estimate = int(kernel.estimate(n1, n2, r1t, r2t)[0])
        assert (n1[0], n2[0], estimate) == (sol.n1, sol.n2, sol.estimate)

    def test_cascade_kernel(self, rng):
        spec = cascade_spec([120, 300], [210, 490], 2)
        kernel = CascadeKernel(spec)
        size = 1500
        values = rng.integers(0, 13230, size=size)
        rts = [values % m + rng.uniform(-20, 20, size=size) for m in (120, 300, 210, 490)]
        f1, f2, est = kernel.solve(rts[:2], rts[2:])
        for i in range(0, size, 13):
            sol = cascade_reconstruct(spec, [float(rts[0][i]), float(rts[1][i])],
                                      [float(rts[2][i]), float(rts[3][i])])
            assert sol.foldings1 == (f1[0][i], f1[1][i])
            assert sol.foldings2 == (f2[0][i], f2[1][i])
            assert sol.estimate == est[i]

    def test_general_kernel(self, rng):
        # the canonical moduli, then coprime cofactors (no test can fail) and
        # shared factors at tau = gcd / 2, where some draws leave the guarantee
        cases = [((120, 300, 210, 490), 30.0)] + [
            (ms, math.gcd(*ms) / 2)
            for ms in ((6, 10, 14), (30, 42, 70), (12, 18), (9, 15, 25, 49), (8, 20, 50, 125),
                       (6, 8, 20))]
        for moduli, tau in cases:
            kernel = GeneralKernel(moduli)
            size = 1500
            values = rng.integers(0, math.lcm(*moduli), size=size)
            rts = [values % m + rng.uniform(-tau, tau, size=size) for m in moduli]
            folds, est, consistent = kernel.solve(rts)
            for i in range(0, size, 13):
                sol = general_robust_crt(moduli, [float(rt[i]) for rt in rts])
                assert sol.consistent == consistent[i]
                assert sol.folds == tuple(int(f[i]) for f in folds)
                assert sol.estimate == est[i]

    def test_group_kernel(self, rng):
        from robustrns.multi_mod import ModuliGroup, single_stage_robust_crt
        group = ModuliGroup.from_moduli([30, 42, 66])
        kernel = GroupKernel(group)
        size = 1000
        values = rng.integers(0, group.eta, size=size)
        rts = [values % m + rng.uniform(-2, 2, size=size) for m in group.moduli]
        folds, est = kernel.solve(rts)
        for i in range(0, size, 11):
            h, e, _ = single_stage_robust_crt(group, [float(rt[i]) for rt in rts])
            assert h == tuple(int(f[i]) for f in folds)
            assert e == est[i]


class TestSweeps:
    def test_determinism(self, system):
        cfg = TrialConfig(system=system, level=3, tau_values=(2.0, 11.0),
                          trials_per_point=30_000, seed=123)
        assert run_tau_sweep(cfg) == run_tau_sweep(cfg)

    def test_zero_tau(self, system):
        cfg = TrialConfig(system=system, level=2, tau_values=(0.0,),
                          trials_per_point=10_000, seed=5)
        row = run_tau_sweep(cfg).rows[0]
        assert row.mean_abs_error == 0.0
        assert row.failure_rate == 0.0
        assert row.mean_rel_error == 0.0

    def test_sub_bound_exactness_and_envelope(self, system):
        for j in (1, 3, 5):
            bound = LevelKernel(system, j).robustness_bound
            taus = (0.5 * bound, 0.9 * bound, 0.99 * bound)
            cfg = TrialConfig(system=system, level=j, tau_values=taus,
                              trials_per_point=20_000, seed=77)
            for row in run_tau_sweep(cfg).rows:
                assert row.failure_rate == 0.0
                assert row.mean_abs_error <= row.x

    def test_failures_above_bound(self, system):
        bound = LevelKernel(system, 3).robustness_bound
        cfg = TrialConfig(system=system, level=3, tau_values=(1.5 * bound,),
                          trials_per_point=20_000, seed=9)
        assert run_tau_sweep(cfg).rows[0].failure_rate > 0

    def test_clamp_mode_counts_and_stays_robust(self, system):
        cfg = TrialConfig(system=system, level=1, tau_values=(30.0,),
                          trials_per_point=20_000, seed=3, range_mode="clamp")
        row = run_tau_sweep(cfg).rows[0]
        assert row.clamped_fraction > 0
        assert row.failure_rate == 0.0  # clamping shrinks errors, never grows them
        allow = TrialConfig(system=system, level=1, tau_values=(30.0,),
                            trials_per_point=20_000, seed=3, range_mode="allow")
        row2 = run_tau_sweep(allow).rows[0]
        assert row2.clamped_fraction == row.clamped_fraction  # same out-of-range draws

    def test_integer_error_mode(self, system):
        cfg = TrialConfig(system=system, level=3, tau_values=(12.0,),
                          trials_per_point=20_000, seed=13, error_mode="integer")
        row = run_tau_sweep(cfg).rows[0]
        assert row.failure_rate == 0.0
        assert row.mean_abs_error <= 12.0

    def test_real_value_mode(self):
        system = TwoModSystem.real(2.5, 18, 29)
        cfg = TrialConfig(system=system, level=3, tau_values=(2.0,),
                          trials_per_point=20_000, seed=21, value_mode="real")
        row = run_tau_sweep(cfg).rows[0]
        assert row.failure_rate == 0.0
        assert row.mean_abs_error <= 2.0

    def test_zero_value_exclusion_reported(self, system):
        cfg = TrialConfig(system=system, level=1, tau_values=(1.0,),
                          trials_per_point=50_000, seed=31)
        row = run_tau_sweep(cfg).rows[0]
        # values are uniform over [0, 468): about 1/468 of draws hit zero
        assert row.zero_value_excluded > 0
        assert row.trials == 50_000

    def test_cascade_sweep(self):
        spec = cascade_spec([120, 300], [210, 490], 2)
        cfg = TrialConfig(cascade=spec, level=2, tau_values=(5.0, 14.0),
                          trials_per_point=10_000, seed=8)
        rows = run_tau_sweep(cfg).rows
        assert rows[0].failure_rate == 0.0
        assert rows[1].failure_rate == 0.0
        assert rows[1].mean_abs_error <= 14.0


class TestBoundaryProbe:
    def test_interior_mae_near_third_of_bound(self, system):
        res = run_tau_sweep(TrialConfig(system=system, level=1, probe=(300,),
                                        trials_per_point=40_000, seed=17))
        row = res.rows[0]
        bound = LevelKernel(system, 1).robustness_bound
        assert row.failure_rate == 0.0
        assert row.mean_abs_error == pytest.approx(bound / 3, rel=0.1)

    def test_range_boundary_jump(self, system):
        res = run_tau_sweep(TrialConfig(system=system, level=1, probe=(467, 468),
                                        trials_per_point=40_000, seed=17))
        below, at = res.rows
        assert below.failure_rate == 0.0
        assert at.failure_rate == 1.0
        assert at.mean_abs_error > 20 * below.mean_abs_error

    def test_determinism(self, system):
        cfg = TrialConfig(system=system, level=2, probe=(700, 754), trials_per_point=20_000,
                          seed=4)
        a = run_tau_sweep(cfg)
        b = run_tau_sweep(cfg)
        assert a == b


class TestComparison:
    def test_bracketing_of_bounds(self):
        spec = cascade_spec([120, 300], [210, 490], 2)
        single, two_stage, cascade = run_comparison(TrialConfig(
            cascade=spec, tau_values=(2.0, 10.0, 14.0), trials_per_point=15_000, seed=29))
        assert single.series == "single_stage"
        assert two_stage.series == "two_stage"
        assert cascade.series == "cascade_level2"
        # tau = 2 < 2.5: everything exact
        assert single.rows[0].failure_rate == 0.0
        assert two_stage.rows[0].failure_rate == 0.0
        assert cascade.rows[0].failure_rate == 0.0
        # tau = 10 > 2.5: single stage fails, the level-2 cascade holds
        assert single.rows[1].failure_rate > 0
        assert cascade.rows[1].failure_rate == 0.0
        # tau = 14: only the level-2 cascade is still exact
        assert single.rows[2].failure_rate > 0
        assert two_stage.rows[2].failure_rate > 0
        assert cascade.rows[2].failure_rate == 0.0
        assert cascade.rows[2].mean_abs_error <= 14.0

    def test_envelope_below_all_bounds(self):
        spec = cascade_spec([120, 300], [210, 490], 2)
        for res in run_comparison(TrialConfig(cascade=spec, tau_values=(2.0,),
                                              trials_per_point=10_000, seed=41)):
            assert res.rows[0].mean_abs_error <= 2.0


class TestConfigValidation:
    def test_bad_modes(self, system):
        with pytest.raises(ValueError):
            TrialConfig(system=system, tau_values=(1.0,), value_mode="decimal")
        with pytest.raises(ValueError):
            TrialConfig(system=system, tau_values=(-1.0,))
        with pytest.raises(ValueError):
            TrialConfig(tau_values=(1.0,))
        with pytest.raises(ValueError):
            TrialConfig(system=system, cascade=cascade_spec([120, 300], [210, 490], 2))

    def test_negative_seed_is_refused(self, system):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            TrialConfig(system=system, tau_values=(1.0,), seed=-1)

    def test_level_defaults_to_the_spec_or_the_full_lcm_level(self, system):
        assert TrialConfig(system=system, tau_values=(1.0,)).level == 5
        spec = cascade_spec([120, 300], [210, 490], 2)
        assert TrialConfig(cascade=spec, tau_values=(1.0,)).level == 2
        with pytest.raises(ValueError, match="level 1 is not the cascade's level"):
            TrialConfig(cascade=spec, level=1, tau_values=(1.0,))

    def test_probe_takes_one_tau_that_defaults_to_the_bound(self, system):
        cfg = TrialConfig(system=system, level=2, probe=(753,))
        assert cfg.tau_values == (LevelKernel(system, 2).robustness_bound,)
        with pytest.raises(ValueError, match="a probe at most one"):
            TrialConfig(system=system, level=2, probe=(753,), tau_values=(1.0, 2.0))
        with pytest.raises(ValueError, match="finite"):
            TrialConfig(system=system, level=2, probe=(753,), tau_values=(math.inf,))
        spec = cascade_spec([120, 300], [210, 490], 2)
        with pytest.raises(ValueError, match="with no probe"):
            TrialConfig(cascade=spec, probe=(753,), tau_values=(1.0,))
        with pytest.raises(ValueError, match="needs a cascade"):
            run_comparison(TrialConfig(system=system, tau_values=(1.0,)))

    @pytest.mark.parametrize("taus", [(), (math.nan,), (math.inf,), (1.0, -math.inf)])
    def test_non_finite_taus_and_empty_sweeps_are_refused(self, system, taus):
        with pytest.raises(ValueError, match="tau values"):
            TrialConfig(system=system, tau_values=taus)

    @pytest.mark.parametrize("taus", [(10**400,), (1.0, 10**400), (-10**400,)],
                             ids=["past_float", "second_past_float", "negative_past_float"])
    def test_int_taus_past_the_float_range_are_refused(self, system, taus):
        with pytest.raises(ValueError, match="^TrialConfig: tau values must be finite, "
                                             "nonnegative and within the float range$"):
            TrialConfig(system=system, tau_values=taus)

    @pytest.mark.parametrize("error_mode, tau, limit", [
        ("real", 1e308, "2 tau must be finite"),
        ("real", sys.float_info.max, "2 tau must be finite"),
        ("integer", 2.0**63, "floor(tau) must be below 2^63"),
        ("integer", 1e300, "floor(tau) must be below 2^63"),
    ])
    def test_taus_the_generator_cannot_draw_are_refused(self, system, error_mode, tau, limit):
        with pytest.raises(ValueError, match=f"tau {re.escape(str(tau))} is too large for "
                                             f"{error_mode} errors; {re.escape(limit)}"):
            TrialConfig(system=system, tau_values=(1.0, tau), error_mode=error_mode)

    @pytest.mark.parametrize("error_mode, tau", [("real", sys.float_info.max / 2),
                                                 ("integer", math.nextafter(2.0**63, 0.0))])
    def test_the_largest_drawable_taus_are_drawn(self, system, error_mode, tau):
        assert TrialConfig(system=system, tau_values=(tau,), error_mode=error_mode)
        errors = simkit._sample_errors(np.random.default_rng(0), tau, error_mode, np.empty(1000))
        assert np.isfinite(errors).all() and np.abs(errors).max() <= tau

    def test_real_system_needs_real_values(self):
        real = TwoModSystem.real(2.5, 18, 29)
        with pytest.raises(ValueError, match="value_mode='real'"):
            TrialConfig(system=real, level=3, tau_values=(0.0,))
        cfg = TrialConfig(system=real, level=3, tau_values=(0.0,), trials_per_point=5000,
                          value_mode="real")
        assert run_tau_sweep(cfg).rows[0].mean_abs_error < 1e-9

    def test_integer_ranges_past_int64_are_refused(self):
        wide = TwoModSystem(2**50, 1000, 1001)
        LevelKernel(TwoModSystem(2**40 + 7, 1000, 1001), 1)  # a 60-bit lcm still builds
        with pytest.raises(ValueError, match="more than 64 bits"):
            run_tau_sweep(TrialConfig(system=wide, level=1, tau_values=(0.0,), trials_per_point=10))
        m = 2**58
        spec = cascade_spec([2 * m, 5 * m], [3 * m, 7 * m], 1)
        with pytest.raises(ValueError, match="more than 64 bits"):
            run_tau_sweep(TrialConfig(cascade=spec, level=1, tau_values=(0.0,), trials_per_point=10))
        with pytest.raises(ValueError, match="more than 64 bits"):
            run_comparison(TrialConfig(cascade=spec, tau_values=(0.0,), trials_per_point=10))

    def test_probe_values_past_int64_are_refused(self, system):
        edge = TrialConfig(system=system, level=1, probe=(2**63 - 1,), trials_per_point=10)
        assert run_tau_sweep(edge).rows[0].trials == 10
        for value in (2**63, 20_000_000_000_000_000_000, -2**63 - 1):
            with pytest.raises(ValueError, match="more than 64 bits"):
                run_tau_sweep(TrialConfig(system=system, level=1, probe=(0, value),
                                          trials_per_point=10))

    def test_real_folds_past_int64_are_refused(self):
        real = TwoModSystem.real(2.5, 18, 29)  # smallest modulus 45
        edge = TrialConfig(system=real, level=3, probe=(4 * 10**20,), trials_per_point=10,
                           value_mode="real")
        assert run_tau_sweep(edge).rows[0].trials == 10  # folds near 8.9e18 still fit
        for value in (10**21, -10**21, 10**400):
            with pytest.raises(ValueError, match=r"^real values in \[.*\) have folds past int64 "
                                                 r"modulo 45\.0; int64 holds folds"):
                run_tau_sweep(TrialConfig(system=real, level=3, probe=(value,),
                                          trials_per_point=10, value_mode="real"))
