"""The benchmark's three workloads.

Each workload is a closed loop in one process: the next call starts when the
previous one returns.  It is built from the ``--seed`` alone and drives the
package only through its public functions and ``robustrns.cli.main``.  Every
call goes through a module attribute at call time, so the tracer's wrappers
see it.

Every time is measured in segments bracketed by host-speed probes
(``hostspeed``) and reported at the reference speed: pure-Python segments
through the Python gauge, the vectorized CLI sweeps through the numpy gauge.

Per pass a workload reports what the end-to-end metrics need:

* ``trials``/``trial_s``: sampled trials and the wall time of the trial loop
  (vectorized CLI sweeps in the mc workloads, seeded scalar trials in
  exact-verify);
* ``solves``/``solve_s``: scalar reconstructions and the time spent inside
  the solver calls;
* ``latencies_ns``: one entry per integer-input ``solve_level`` call;
* ``cases``/``case_s``: oracle-checked cases and the wall time of that phase;
* ``host_factors``: the gauge factors applied in the pass;
* ``mismatches``: items of the outputs that differ from the first pass's;
* ``cli_calls``: ``cli.main`` invocations;
* ``outputs``: everything the pass computed, compared across passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import hostspeed
import numpy as np
import robustrns as rr
from robustrns import cli, simkit

CANONICAL_SEED = 42
# Seed of the known-defect probes: they are regression probes of fixed inputs,
# so their failure count must not depend on the workload seed.
PROBE_SEED = 20160209
CASCADE_GROUPS = ([120, 300], [210, 490])
CASCADE_LEVEL = 2
# Back-to-back calls per latency sample (see timed_solves).
LATENCY_REPEATS = 3
# Scalar calls between two Python-gauge probes: 15-40 ms of work against a
# probe of about 1 ms.
SOLVE_BLOCK = 200


@dataclass
class PassResult:
    trials: int = 0
    trial_s: float = 0.0
    solves: int = 0
    solve_s: float = 0.0
    cases: int = 0
    case_s: float = 0.0
    cli_calls: int = 0
    latencies_ns: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    host_factors: list[float] = field(default_factory=list)
    mismatches: int = 0

    def scale(self, gauge) -> float:
        factor = gauge.scale()
        self.host_factors.append(factor)
        return factor


class Checks:
    """Correctness accounting: workload checks and known-defect probes apart."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.defect_attempted = 0
        self.defect_failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failed: int, what: str, defect: bool = False) -> None:
        if defect:
            self.defect_attempted += attempted
            self.defect_failed += failed
        else:
            self.attempted += attempted
            self.failed += failed
        if failed:
            kind = "known defect" if defect else "FAILED"
            self.messages.append(f"{kind}: {what}: {failed}/{attempted}")

    def check(self, ok: bool, what: str) -> None:
        self.add(1, 0 if ok else 1, what)

    @property
    def ops_failed_frac(self) -> float:
        return (self.failed + self.defect_failed) / (self.attempted + self.defect_attempted)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def csv_rows(text: str) -> list[dict[str, str]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def strict_int_bound(bound) -> int:
    """Largest integer error magnitude strictly below a robustness bound."""
    return math.ceil(Fraction(bound)) - 1


def two_mod_draws(rnd: random.Random, system, level: int, count: int, beyond: bool = False):
    """Integer (value, observation) draws at one level of an integer system.

    In-guarantee draws keep every error strictly below the robustness bound;
    ``beyond`` draws use errors between one and two bounds, which reaches the
    nearest-element fallback.
    """
    row = rr.level_table(system)[level - 1]
    b = strict_int_bound(row.robustness_bound)
    lo, hi = (b + 1, 2 * b + 2) if beyond else (0, b)
    draws = []
    for _ in range(count):
        value = rnd.randrange(row.dynamic_range)
        d1 = rnd.randint(lo, hi) * rnd.choice((-1, 1))
        d2 = rnd.randint(lo, hi) * rnd.choice((-1, 1))
        obs = rr.RemainderObservation(value % system.m1 + d1, value % system.m2 + d2)
        draws.append((level, value, obs, max(abs(d1), abs(d2))))
    return draws


def gauged_calls(call, items, result: PassResult, block: int = SOLVE_BLOCK):
    """``call(item)`` for every item, in blocks between Python-gauge probes.

    Returns the results, the time spent inside the calls and the wall time
    of the whole loop, both in seconds at the reference speed.
    """
    clock = time.perf_counter_ns
    gauge = hostspeed.PYTHON
    out, spent_s, wall_s = [], 0.0, 0.0
    gauge.start()
    for start in range(0, len(items), block):
        spent = 0
        t_block = clock()
        for item in items[start:start + block]:
            t0 = clock()
            out.append(call(item))
            spent += clock() - t0
        wall = clock() - t_block
        factor = result.scale(gauge)
        spent_s += spent * factor / 1e9
        wall_s += wall * factor / 1e9
    return out, spent_s, wall_s


def timed_solves(system, draws, result: PassResult) -> list:
    """Integer-input ``solve_level`` calls, each timed on its own.

    Every draw is solved ``LATENCY_REPEATS`` times back to back and its
    latency sample is the fastest of them: a host interrupt or a collector
    pause lands in one call of the group, not in all, so the tail percentiles
    follow the cost of the slow inputs instead of those hiccups.  Every call
    counts in ``solves`` and ``solve_s``.  Latencies are scaled by the gauge
    factor of their block.  Returns the results and the wall time of the
    loop in seconds at the reference speed.
    """
    clock = time.perf_counter_ns
    gauge = hostspeed.PYTHON
    out, wall_s = [], 0.0
    gauge.start()
    for start in range(0, len(draws), SOLVE_BLOCK):
        spent, block = 0, []
        t_block = clock()
        for level, _, obs, _ in draws[start:start + SOLVE_BLOCK]:
            best = None
            for _ in range(LATENCY_REPEATS):
                t0 = clock()
                sol = rr.solve_level(system, obs, level)
                took = clock() - t0
                spent += took
                best = took if best is None else min(best, took)
            block.append(best)
            out.append((sol.n1, sol.n2, sol.estimate))
        wall = clock() - t_block
        factor = result.scale(gauge)
        result.latencies_ns += [ns * factor for ns in block]
        result.solve_s += spent * factor / 1e9
        wall_s += wall * factor / 1e9
    result.solves += LATENCY_REPEATS * len(draws)
    return out, wall_s


def fold_failures(system, draws, solved) -> int:
    """In-guarantee draws whose folds or estimate miss the guarantee."""
    bad = 0
    for (_, value, _, err), (n1, n2, est) in zip(draws, solved):
        folds = (value // system.m1, value // system.m2)
        if (n1, n2) != folds or abs(est - value) > err:
            bad += 1
    return bad


def oracle_searches(system, draws, result: PassResult) -> list:
    """Exhaustive fold search below each draw's level range."""
    ranges = {row.j: row.dynamic_range for row in rr.level_table(system)}

    def search(draw):
        level, _, obs, _ = draw
        return rr.exhaustive_fold_search(system, obs, ranges[level])

    found, _, wall_s = gauged_calls(search, draws, result, block=10)
    result.case_s += wall_s
    result.cases += len(draws)
    return [(f.n1, f.n2) for f in found]


def known_defect_probes(checks: Checks) -> dict[str, int]:
    """The two float64 defects listed in ROADMAP, counted as failures.

    1. m = 2^40 + 7, cofactors (1000, 1001): ``LevelKernel`` and the exact
       ``solve_level`` must agree on folds and estimate for 300 in-guarantee
       draws; the lcm needs 60 bits, so the float64 estimate drifts.
    2. ``simulate`` at m = 2^50 must succeed, or refuse with a message of its
       own; today numpy's raw "high is out of bounds for int64" escapes.
    """
    system = rr.TwoModSystem(2**40 + 7, 1000, 1001)
    rnd = random.Random(PROBE_SEED)
    draws = two_mod_draws(rnd, system, 1, 300)
    kernel = simkit.LevelKernel(system, 1)
    r1 = np.array([float(obs.r1) for _, _, obs, _ in draws])
    r2 = np.array([float(obs.r2) for _, _, obs, _ in draws])
    n1, n2 = kernel.solve(r1, r2)
    est = kernel.estimate(n1, n2, r1, r2)
    drift = 0
    for i, (level, _, obs, _) in enumerate(draws):
        sol = rr.solve_level(system, obs, level)
        if (int(n1[i]), int(n2[i]), int(est[i])) != (sol.n1, sol.n2, sol.estimate):
            drift += 1
    checks.add(len(draws), drift, "float64 LevelKernel vs exact solve_level at m=2^40+7", defect=True)

    m = 2**50
    code, _, err = run_cli(["simulate", "--m1", str(m * 1000), "--m2", str(m * 1001),
                            "--tau", "0", "--trials", "1000", "--seed", "0"])
    raw = "out of bounds for int64" in err
    bad = 0 if code == cli.EXIT_OK or (code == cli.EXIT_USAGE and not raw) else 1
    checks.add(1, bad, "simulate at m=2^50", defect=True)
    return {"float64_estimate_drift": drift, "simulate_int64_overflow": bad}


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def sizes(self) -> dict:
        raise NotImplementedError

    def build(self) -> None:
        """Build every system, spec, context and kernel the workload uses."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self, first: PassResult, checks: Checks, baseline: dict) -> None:
        """Validate the first pass's outputs."""
        raise NotImplementedError


class _McWorkload(Workload):
    """Shared loop of the two Monte Carlo workloads.

    A pass runs the workload's CLI sweeps (the trial loop), then solves a
    seeded sample of in-guarantee observations of the sweep's two-modulus
    system with the exact ``solve_level`` and checks a subset against the
    exhaustive oracle, so scalar and oracle metrics exist on these workloads
    too.
    """

    spot_solves = 6000
    spot_oracle = 0

    def commands(self, seed: int) -> dict[str, tuple[list[str], int]]:
        """label -> (argv, sampled trials)."""
        raise NotImplementedError

    def spot_system(self):
        raise NotImplementedError

    def bounded_rows(self, label: str) -> list[tuple[str, float]]:
        """(series, bound): rows with x below the bound must never misfold."""
        raise NotImplementedError

    def prepare(self) -> None:
        system, level = self.spot_system()
        rnd = random.Random(f"{self.seed}:spot")
        self.spot = two_mod_draws(rnd, system, level, self.spot_solves)
        self.argv = self.commands(self.seed)

    def sizes(self):
        return {"commands": {k: " ".join(v[0]) for k, v in self.argv.items()},
                "trials_per_pass": sum(t for _, t in self.argv.values()),
                "spot_solves": self.spot_solves, "spot_oracle": self.spot_oracle}

    def run_pass(self) -> PassResult:
        result = PassResult()
        gauge = hostspeed.NUMPY
        gauge.start()
        for argv, trials in self.argv.values():
            t0 = time.perf_counter()
            code, out, _ = run_cli(argv)
            wall = time.perf_counter() - t0
            result.trial_s += wall * result.scale(gauge)
            result.outputs.append((code, out))
            result.cli_calls += 1
            result.trials += trials
        system, _ = self.spot_system()
        result.outputs.append(timed_solves(system, self.spot, result)[0])
        result.outputs.append(oracle_searches(system, self.spot[: self.spot_oracle], result))
        return result

    def check(self, first: PassResult, checks: Checks, baseline: dict) -> None:
        recorded = baseline["canonical_csv_sha256"][self.name]
        for label, (argv, _) in self.commands(CANONICAL_SEED).items():
            code, out, _ = run_cli(argv)
            checks.check(code == cli.EXIT_OK, f"{label}: exit code at seed {CANONICAL_SEED}")
            checks.check(sha256(out) == recorded[label],
                         f"{label}: CSV sha256 at seed {CANONICAL_SEED}")
        for label, (code, out) in zip(self.argv, first.outputs):
            checks.check(code == cli.EXIT_OK, f"{label}: exit code")
            for series, bound in self.bounded_rows(label):
                rows = [r for r in csv_rows(out)
                        if r.get("series", series) == series and float(r["x"]) < bound]
                bad = sum(1 for r in rows if float(r["failure_rate"]) != 0.0)
                checks.add(len(rows), bad, f"{label}/{series}: misfolds within the bound")
        system, _ = self.spot_system()
        solved, found = first.outputs[-2], first.outputs[-1]
        checks.add(len(solved), fold_failures(system, self.spot, solved),
                   "spot solves: in-guarantee folds")
        bad = sum(1 for s, f in zip(solved, found) if s[:2] != f)
        checks.add(len(found), bad, "spot solves: exhaustive oracle agreement")


class McTwoMod(_McWorkload):
    name = "mc-two-mod"
    system_moduli = (234, 377)
    spot_level = 3
    spot_oracle = 300
    real = {"m": 2.5, "gammas": [18, 29], "level": 3, "tau": "0:3:0.125"}

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.real_config = out_dir / "real_sweep.json"
        out_dir.mkdir(parents=True, exist_ok=True)
        # simulate requires m1/m2 in a config even though real mode uses m and gammas.
        self.real_config.write_text(json.dumps(
            {"m1": 45, "m2": 72.5, "value_mode": "real", **self.real}))
        self.prepare()

    def commands(self, seed):
        s = str(seed)
        return {
            "tau_sweep": (["simulate", "--m1", "234", "--m2", "377", "--level", "3",
                           "--tau", "0:13:0.5", "--trials", "65536", "--seed", s], 27 * 65536),
            "boundary_probe": (["simulate", "--m1", "234", "--m2", "377", "--level", "1",
                                "--probe-boundary", "465:470", "--trials", "131072",
                                "--seed", s], 6 * 131072),
            "real_sweep": (["simulate", "--config", str(self.real_config),
                            "--trials", "65536", "--seed", s], 25 * 65536),
        }

    def spot_system(self):
        return rr.TwoModSystem.from_moduli(*self.system_moduli), self.spot_level

    def build(self):
        system = rr.TwoModSystem.from_moduli(*self.system_moduli)
        simkit.LevelKernel(system, 3)
        simkit.LevelKernel(system, 1)
        real = rr.TwoModSystem.real(self.real["m"], *self.real["gammas"])
        simkit.LevelKernel(real, self.real["level"])

    def bounded_rows(self, label):
        system, _ = self.spot_system()
        if label == "tau_sweep":
            return [("", float(rr.level_table(system)[2].robustness_bound))]
        if label == "boundary_probe":
            # x is the probed value; errors stay within the bound by construction.
            return [("", float(rr.level_table(system)[0].dynamic_range))]
        real = rr.TwoModSystem.real(self.real["m"], *self.real["gammas"])
        return [("", rr.level_table(real)[self.real["level"] - 1].robustness_bound)]


class McCascade(_McWorkload):
    name = "mc-cascade"
    spot_oracle = 30

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.prepare()

    def commands(self, seed):
        s = str(seed)
        groups = "|".join(",".join(map(str, g)) for g in CASCADE_GROUPS)
        return {
            "cascade_sweep": (["simulate", "--groups", groups, "--level", str(CASCADE_LEVEL),
                               "--trials", "65536", "--seed", s], 11 * 65536),
            "compare": (["simulate", "--groups", groups, "--level", str(CASCADE_LEVEL),
                         "--tau", "0:25:1", "--trials", "65536", "--seed", s, "--compare"],
                        26 * 65536),
        }

    def spec(self, level=CASCADE_LEVEL):
        return rr.cascade_spec(*CASCADE_GROUPS, level)

    def spot_system(self):
        return self.spec().cross, CASCADE_LEVEL

    def build(self):
        spec = self.spec()
        top = rr.sigma_chain(spec.cross).levels
        simkit.CascadeKernel(spec)
        simkit.CascadeKernel(spec, level=top)
        simkit.GeneralKernel(spec.group1.moduli + spec.group2.moduli)

    def bounded_rows(self, label):
        spec = self.spec()
        tau = float(rr.cascade_bounds(spec)[1])
        if label == "cascade_sweep":
            return [("", tau)]
        top = self.spec(rr.sigma_chain(spec.cross).levels)
        gcd = math.gcd(*spec.group1.moduli, *spec.group2.moduli)
        return [("single_stage", gcd / 4),
                ("two_stage", float(rr.cascade_bounds(top)[1])),
                (f"cascade_level{CASCADE_LEVEL}", tau)]


class ExactVerify(Workload):
    """Pure-Python exact arithmetic: cold ladder builds, warm solves, oracles."""

    name = "exact-verify"
    gamma_targets = (10**3, 10**4, 10**5, 10**6)
    int_draws_per_level = 1600   # half in the guarantee, half beyond it
    real_draws_per_level = 400
    round_trips = 500
    oracle_draws = 100
    random_systems = 50
    random_gamma_max = 200
    scan_moduli = (24, 38)

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        rnd = random.Random(f"{seed}:exact")
        self.pairs = [self._pair(rnd, t) for t in self.gamma_targets]
        self.system = rr.TwoModSystem.from_moduli(234, 377)
        self.real = rr.TwoModSystem.real(2.5, 18, 29)
        levels = rr.sigma_chain(self.system).levels
        half = self.int_draws_per_level // 2
        self.inside, self.beyond = [], []
        for j in range(1, levels + 1):
            self.inside += two_mod_draws(rnd, self.system, j, half)
            self.beyond += two_mod_draws(rnd, self.system, j, half, beyond=True)
        self.real_draws = []
        for row in rr.level_table(self.real):
            for _ in range(self.real_draws_per_level):
                value = rnd.uniform(0.0, row.dynamic_range)
                d1, d2 = (rnd.uniform(-0.9, 0.9) * row.robustness_bound for _ in range(2))
                obs = rr.RemainderObservation(value % self.real.m1 + d1, value % self.real.m2 + d2)
                self.real_draws.append((row.j, value, obs))
        self.moduli = CASCADE_GROUPS[0] + CASCADE_GROUPS[1]
        spec = rr.cascade_spec(*CASCADE_GROUPS, CASCADE_LEVEL)
        rng_, tau = rr.cascade_bounds(spec)
        lcm = math.lcm(*self.moduli)
        general_err = strict_int_bound(Fraction(math.gcd(*self.moduli), 4))
        self.cascade_draws = [self._noisy(rnd, rnd.randrange(rng_), strict_int_bound(tau))
                              for _ in range(self.round_trips)]
        self.general_draws = [self._noisy(rnd, rnd.randrange(lcm), general_err)
                              for _ in range(self.round_trips)]
        self.crt_values = [rnd.randrange(lcm) for _ in range(self.round_trips)]
        self.crt_inputs = [[value % mk for mk in self.moduli] for value in self.crt_values]
        self.oracle_idx = rnd.sample(range(len(self.inside)), self.oracle_draws)
        self.random_pairs = []
        while len(self.random_pairs) < self.random_systems:
            g1 = rnd.randrange(2, self.random_gamma_max)
            g2 = rnd.randrange(g1 + 1, self.random_gamma_max + 1)
            if math.gcd(g1, g2) == 1:
                self.random_pairs.append((g1, g2))

    @staticmethod
    def _pair(rnd: random.Random, target: int) -> tuple[int, int]:
        """A coprime cofactor pair near ``target`` whose ladders over all levels
        hold 2.00-2.04 x ``target`` elements, so the cold-build working set,
        and with it set-up time and peak memory, is the same size for every
        seed."""
        while True:
            g2 = rnd.randint(target, target + target // 20)
            g1 = rnd.randint(int(0.55 * g2), int(0.95 * g2))
            if math.gcd(g1, g2) != 1:
                continue
            system = rr.TwoModSystem(1, g1, g2)
            levels = rr.sigma_chain(system).levels
            elements = sum(sum(rr.ladder_depths(system, j)) + 2 for j in range(1, levels + 1))
            if 2.0 * target <= elements <= 2.04 * target:
                return g1, g2

    def _noisy(self, rnd, value, err):
        errors = [rnd.randint(-err, err) for _ in self.moduli]
        return value, [value % mk + e for mk, e in zip(self.moduli, errors)], max(map(abs, errors))

    def sizes(self):
        return {
            "cold_pairs": self.pairs,
            "int_solves_per_pass": len(self.inside) + len(self.beyond),
            "real_solves_per_pass": len(self.real_draws),
            "round_trips_per_pass": {"cascade": self.round_trips, "general": self.round_trips,
                                     "crt": self.round_trips},
            "oracle": {"scan_moduli": self.scan_moduli, "fold_searches": self.oracle_draws,
                       "random_systems": self.random_systems,
                       "random_gamma_max": self.random_gamma_max},
        }

    def build(self):
        for g1, g2 in self.pairs:
            system = rr.TwoModSystem(1, g1, g2)
            for j in range(1, rr.sigma_chain(system).levels + 1):
                rr.level_context(system, j)
        for system in (self.system, self.real, rr.TwoModSystem.from_moduli(*self.scan_moduli)):
            for j in range(1, rr.sigma_chain(system).levels + 1):
                rr.level_context(system, j)
        self.spec = rr.cascade_spec(*CASCADE_GROUPS, CASCADE_LEVEL)
        rr.level_context(self.spec.cross, CASCADE_LEVEL)
        self.crt = rr.crt_system(self.moduli)

    def run_pass(self) -> PassResult:
        result = PassResult()
        split = len(CASCADE_GROUPS[0])
        inside, wall_inside = timed_solves(self.system, self.inside, result)
        beyond, wall_beyond = timed_solves(self.system, self.beyond, result)
        real, spent_real, wall_real = gauged_calls(
            lambda d: rr.solve_level_real(self.real, d[2], d[0]), self.real_draws, result)
        cascade, spent_cascade, wall_cascade = gauged_calls(
            lambda d: rr.cascade_reconstruct(self.spec, d[1][:split], d[1][split:]),
            self.cascade_draws, result)
        general, spent_general, wall_general = gauged_calls(
            lambda d: rr.general_robust_crt(self.moduli, d[1]), self.general_draws, result)
        crt_out, spent_crt, wall_crt = gauged_calls(
            lambda rs: rr.crt_reconstruct(rs, self.crt), self.crt_inputs, result)
        result.trial_s = (wall_inside + wall_beyond + wall_real + wall_cascade + wall_general
                          + wall_crt)
        extra = len(real) + len(cascade) + len(general) + len(crt_out)
        result.trials = result.solves + extra
        result.solves += extra
        result.solve_s += spent_real + spent_cascade + spent_general + spent_crt
        real = [(sol.n1, sol.n2) for sol in real]
        cascade = [(sol.foldings1 + sol.foldings2, sol.estimate) for sol in cascade]
        general = [(sol.folds, sol.consistent) for sol in general]

        scan_system = rr.TwoModSystem.from_moduli(*self.scan_moduli)
        levels = list(range(1, rr.sigma_chain(scan_system).levels + 1))
        scans, _, wall_scans = gauged_calls(
            lambda j: rr.level_exactness_scan(scan_system, j), levels, result, block=1)
        falsifiers, _, wall_falsifiers = gauged_calls(
            lambda j: rr.falsifier_report(scan_system, j).agrees, levels, result, block=1)

        def depth_checks(pair):
            system = rr.TwoModSystem(1, *pair)
            return [rr.ladder_depths_definitional(system, j) == rr.ladder_depths(system, j)
                    for j in range(1, rr.sigma_chain(system).levels + 1)]

        per_pair, _, wall_depths = gauged_calls(depth_checks, self.random_pairs, result, block=10)
        scans = [(scan.checked, scan.fold_failures, scan.estimate_failures) for scan in scans]
        depths = [ok for checks in per_pair for ok in checks]
        result.case_s = wall_scans + wall_falsifiers + wall_depths
        result.cases = sum(s[0] for s in scans) + len(falsifiers) + len(depths)
        found = oracle_searches(self.system, [self.inside[i] for i in self.oracle_idx], result)
        result.outputs = [inside, beyond, real, cascade, general, crt_out,
                          scans, falsifiers, depths, found]
        return result

    def check(self, first: PassResult, checks: Checks, baseline: dict) -> None:
        inside, _, real, cascade, general, crt_out, scans, falsifiers, depths, found = first.outputs
        checks.add(len(inside), fold_failures(self.system, self.inside, inside),
                   "solve_level: in-guarantee folds and estimate")
        bad = 0
        for (_, value, _), folds in zip(self.real_draws, real):
            bad += folds != rr.true_folds(self.real, value)
        checks.add(len(real), bad, "solve_level_real: in-guarantee folds")
        bad = 0
        for (value, _, err), (folds, est) in zip(self.cascade_draws, cascade):
            bad += folds != tuple(value // mk for mk in self.moduli) or abs(est - value) > err
        checks.add(len(cascade), bad, "cascade_reconstruct round trip")
        bad = 0
        for (value, _, _), (folds, consistent) in zip(self.general_draws, general):
            bad += not consistent or folds != tuple(value // mk for mk in self.moduli)
        checks.add(len(general), bad, "general_robust_crt round trip")
        bad = sum(1 for value, got in zip(self.crt_values, crt_out) if got != value)
        checks.add(len(crt_out), bad, "crt_reconstruct round trip")
        checks.add(sum(s[0] for s in scans), sum(s[1] + s[2] for s in scans),
                   "level_exactness_scan")
        checks.add(len(falsifiers), falsifiers.count(False), "falsifier_report")
        checks.add(len(depths), depths.count(False), "ladder_depths_definitional")
        bad = sum(1 for i, f in zip(self.oracle_idx, found) if inside[i][:2] != f)
        checks.add(len(found), bad, "exhaustive_fold_search agreement")


WORKLOADS = {w.name: w for w in (McTwoMod, McCascade, ExactVerify)}
