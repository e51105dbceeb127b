"""Acceptance suite: one test per criterion, each printing a pass line.

Criterion 7 (the Monte Carlo table reproduction) runs a 1e5-trial smoke
version at +-10% by default; set ROBUSTRNS_ACCEPT_FULL=1 to run the full
2e6-trial version at its +-3%/+-5% tolerances (takes a few minutes).
"""

import math
import os
import time
from fractions import Fraction

import numpy as np

import robustrns as rr
from robustrns.cli import main as cli_main
from robustrns.simkit import LevelKernel
from tests_util import random_coprime_pair

FULL = os.environ.get("ROBUSTRNS_ACCEPT_FULL", "") == "1"


def _passed(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def test_c01_level_table_exact(capsys):
    t0 = time.time()
    code = cli_main(["levels", "--m1", "234", "--m2", "377"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    start = lines.index("level sigma bound depth1 depth2 dynamic_range") + 1
    rows = [lines[start + i].split() for i in range(5)]
    assert [r[1] for r in rows] == ["11", "7", "4", "3", "1"]
    assert [r[2] for r in rows] == ["35.75", "22.75", "13", "9.75", "3.25"]
    assert [r[3] for r in rows] == ["1", "3", "4", "8", "28"]
    assert [r[4] for r in rows] == ["1", "1", "3", "4", "17"]
    assert [r[5] for r in rows] == ["468", "754", "1170", "1885", "6786"]
    assert elapsed < 1.0
    with capsys.disabled():
        _passed("criterion 1", f"level table exact in {elapsed:.3f}s")


def test_c02_example_one_exact():
    system = rr.TwoModSystem.from_moduli(40, 136)
    rows = rr.level_table(system)
    assert rows[-1].dynamic_range == 680
    assert rows[-1].robustness_bound == Fraction(8, 4)
    assert rows[0].dynamic_range == 280
    assert rows[0].robustness_bound == Fraction(16, 4)
    _passed("criterion 2", "(40,136): lcm bound 2 vs level-1 range 280 bound 4")


def test_c03_example_three_exact():
    spec = rr.cascade_spec([120, 300], [210, 490], 2)
    assert (spec.group1.eta, spec.group2.eta) == (600, 1470)
    assert spec.cross.m == 30
    chain = rr.sigma_chain(spec.cross)
    assert chain.sigma(2) == 2
    assert rr.ladder_depths(spec.cross, 2) == (22, 8)
    assert rr.cascade_bounds(spec) == (13230, 15)
    single_stage_bound = Fraction(math.gcd(120, 300, 210, 490), 4)
    assert single_stage_bound == Fraction(5, 2)
    two_stage = rr.cascade_spec([120, 300], [210, 490], chain.levels)
    assert rr.cascade_bounds(two_stage)[1] == Fraction(15, 2)
    _passed("criterion 3", "cascade (13230, 15); baselines 2.5 and 7.5")


def test_c04_exhaustive_exactness():
    t0 = time.time()
    system = rr.TwoModSystem.from_moduli(24, 38)
    total = 0
    for j in range(1, rr.sigma_chain(system).levels + 1):
        scan = rr.level_exactness_scan(system, j)
        assert scan.ok, f"level {j}: {scan}"
        total += scan.checked
    elapsed = time.time() - t0
    assert elapsed < 600
    _passed("criterion 4", f"{total} cases, zero failures, {elapsed:.1f}s")


def test_c05_tightness_falsifiers():
    system = rr.TwoModSystem.from_moduli(234, 377)
    for j in range(1, 6):
        inst = rr.range_falsifier(system, j)
        ctx = rr.level_context(system, j)
        assert inst.value == ctx.dynamic_range
        diff = Fraction(inst.dr1 - inst.dr2) / system.m
        assert -Fraction(ctx.sigma, 2) <= diff < Fraction(ctx.sigma, 2)
        sol = rr.solve_level(system, inst.observation(system), j)
        assert sol.n2 != inst.value // system.m2, f"level {j} should misfold n2"
    _passed("criterion 5", "all five levels misfold at their range with legal errors")


def test_c06_closed_form_equals_definition():
    t0 = time.time()
    rng = np.random.default_rng(61)
    mismatches = 0
    for _ in range(50):
        g1, g2 = random_coprime_pair(rng, hi=200)
        system = rr.TwoModSystem(1, g1, g2)
        for j in range(1, rr.sigma_chain(system).levels + 1):
            if rr.ladder_depths(system, j) != rr.ladder_depths_definitional(system, j):
                mismatches += 1
    elapsed = time.time() - t0
    assert mismatches == 0
    assert elapsed < 60
    _passed("criterion 6", f"50 systems, all levels agree, {elapsed:.1f}s")


TABLE_PROBES = {
    # level j: (below-range value, its target, at-range value, its target)
    1: (467, 11.99, 468, 397.0),
    2: (753, 7.6573, 754, 675.4278),
    3: (1169, 4.3072, 1170, 1037.8),
    4: (1884, 3.3012, 1885, 1834.4),
}


def test_c07_boundary_probe_statistics():
    trials = 2_000_000 if FULL else 100_000
    system = rr.TwoModSystem.from_moduli(234, 377)
    details = []
    for j, (below, tgt_below, at, tgt_at) in TABLE_PROBES.items():
        res = rr.run_tau_sweep(rr.TrialConfig(system=system, level=j, probe=(below, at),
                                              trials_per_point=trials, seed=20240201))
        got_below, got_at = res.rows[0].mean_abs_error, res.rows[1].mean_abs_error
        tol_below = 0.10 if not FULL else (0.03 if j == 1 else 0.05)
        tol_at = 0.10 if not FULL else 0.05
        assert abs(got_below - tgt_below) <= tol_below * tgt_below, (j, got_below, tgt_below)
        assert abs(got_at - tgt_at) <= tol_at * tgt_at, (j, got_at, tgt_at)
        details.append(f"L{j}: {got_below:.3f}/{got_at:.1f}")
    mode = "full 2e6" if FULL else "smoke 1e5"
    _passed("criterion 7", f"{mode} trials; " + "  ".join(details))


def test_c08_sweep_envelope_and_breakdown():
    system = rr.TwoModSystem.from_moduli(234, 377)
    for j in range(1, 6):
        bound = float(rr.level_context(system, j).robustness_bound)
        taus = (0.3 * bound, 0.6 * bound, 0.9 * bound, 0.99 * bound)
        cfg = rr.TrialConfig(system=system, level=j, tau_values=taus,
                             trials_per_point=20_000, seed=80 + j)
        for row in rr.run_tau_sweep(cfg).rows:
            assert row.failure_rate == 0.0, (j, row)
            assert row.mean_abs_error <= row.x, (j, row)
        broken = rr.TrialConfig(system=system, level=j, tau_values=(1.5 * bound,),
                                trials_per_point=20_000, seed=90 + j)
        assert rr.run_tau_sweep(broken).rows[0].failure_rate > 0, j
    _passed("criterion 8", "all levels: exact below bound, failures at 1.5x bound")


def test_c09_comparison_brackets():
    spec = rr.cascade_spec([120, 300], [210, 490], 2)
    single, two_stage, cascade = rr.run_comparison(rr.TrialConfig(
        cascade=spec, tau_values=(10.0, 14.0), trials_per_point=20_000, seed=93))
    assert single.rows[0].failure_rate > 0
    assert cascade.rows[0].failure_rate == 0.0
    assert single.rows[1].failure_rate > 0
    assert two_stage.rows[1].failure_rate > 0
    assert cascade.rows[1].failure_rate == 0.0
    _passed("criterion 9", "tau=10: single fails, level-2 holds; tau=14: only level-2 holds")


def test_c10_crt_roundtrip():
    for moduli in ([24, 38], [12, 18]):
        system = rr.crt_system(moduli)
        for n in range(system.lcm):
            rs = rr.remainders_of(n, system)
            assert rr.crt_reconstruct(rs, system) == n
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(0, system.lcm))
            rs = rr.remainders_of(n, system)
            assert rr.crt_scan(rs, moduli) == rr.crt_reconstruct(rs, system)
    _passed("criterion 10", "all values roundtrip for (24,38) and (12,18); formula == scan")


def test_c11_real_mode_property():
    rng = np.random.default_rng(111)
    trials = 10_000
    for _ in range(trials):
        g1, g2 = random_coprime_pair(rng, hi=60)
        m = float(rng.uniform(0.5, 50.0))
        system = rr.TwoModSystem.real(m, g1, g2)
        levels = rr.sigma_chain(system).levels
        j = int(rng.integers(1, levels + 1))
        ctx = rr.level_context(system, j)
        value = float(rng.uniform(0.0, ctx.dynamic_range))
        tau = m * ctx.sigma / 4.0
        d1 = float(rng.uniform(-tau, tau))
        d2 = float(rng.uniform(-tau, tau))
        n1, n2 = rr.true_folds(system, value)
        obs = rr.RemainderObservation(value - n1 * system.m1 + d1,
                                      value - n2 * system.m2 + d2)
        sol = rr.solve_level_real(system, obs, j)
        assert (sol.n1, sol.n2) == (n1, n2), (m, g1, g2, j, value, d1, d2)
        limit = max(abs(d1), abs(d2)) + 1e-9 * max(1.0, value)
        assert abs(sol.estimate - value) <= limit
    _passed("criterion 11", f"{trials} random real-mode trials exact")


def test_c12_solver_equivalence_at_level_one():
    rng = np.random.default_rng(112)
    per_system = 100_000
    for _ in range(20):
        g1, g2 = random_coprime_pair(rng, hi=150)
        m = int(rng.integers(1, 30))
        system = rr.TwoModSystem(m, g1, g2)
        level_kernel = LevelKernel(system, 1)
        tau = level_kernel.robustness_bound * 0.999
        values = rng.integers(0, level_kernel.dynamic_range, size=per_system)
        r1t = (values % system.m1) + rng.uniform(-tau, tau, size=per_system)
        r2t = (values % system.m2) + rng.uniform(-tau, tau, size=per_system)
        n1, n2 = level_kernel.solve(r1t, r2t)
        assert np.array_equal(n1, values // system.m1)
        assert np.array_equal(n2, values // system.m2)
        for i in range(0, per_system, 20):
            sol = rr.solve_basic(system, rr.RemainderObservation(float(r1t[i]), float(r2t[i])))
            assert (sol.n1, sol.n2) == (n1[i], n2[i]), (system, i)
    _passed("criterion 12", "20 systems x 1e5 in-guarantee observations exact, "
            "solve_basic equal on 5,000 each")
