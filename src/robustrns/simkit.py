"""Deterministic Monte Carlo harness: error sweeps, boundary probes, comparisons.

Every sweep runs through one trial loop, vectorized with numpy in fixed-size
chunks.  The generator for chunk ``c`` of point ``p`` is seeded from
``SeedSequence(seed, spawn_key=(p, c))`` and draws, in this order, the values
(none for a probe's fixed value), then one error array per modulus in modulus
order; so results are bit-identical for a given configuration no matter how
the chunks are scheduled.  Every estimator of a sweep (the three series of a
comparison) sees the same noisy remainders, and the two cascade series of a
comparison share one run of the group stages per chunk.  Observed remainders
are left out of range by default (the fraction is reported);
``range_mode="clamp"`` pins them into ``[0, m_i)``.

The ladder-window kernel is one lookup over a signed threshold table
(``LevelKernel``): ladder 1 mirrored onto negative ``q = (r1 - r2) / m``,
ladder 2 on positive ``q``, rung 0 shared.  The rung in the window is the
nearest rung, so ``q`` maps to both folds through thresholds at the midpoints
between rungs, each holding its tie rule in its float value; a floor, four
gathers and a compare find it, with no masking and no fallback search.  The
group and general kernels share one Garner step loop that takes int64
remainders by floor division (``_mod``), not by ``%``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multi_mod import CascadeSpec, _general_steps
from .two_mod import TwoModSystem, level_context, sigma_chain

CHUNK = 1 << 16

_MODES = {"value_mode": ("integer", "real"), "error_mode": ("real", "integer"),
          "range_mode": ("allow", "clamp")}


@dataclass(frozen=True)
class TrialConfig:
    """One sweep: a system (or cascade), a level (by default the spec's, or
    the full-lcm level), error bounds, and a seed.  A ``probe`` fixes the
    values, with at most one tau, by default the level's robustness bound.
    Both defaults are written into the fields when the config is made."""

    system: TwoModSystem | None = None
    cascade: CascadeSpec | None = None
    level: int | None = None
    tau_values: tuple[float, ...] = ()
    probe: tuple[int, ...] = ()
    trials_per_point: int = 100_000
    seed: int = 0
    value_mode: str = "integer"
    error_mode: str = "real"
    range_mode: str = "allow"

    def __post_init__(self):
        if (self.system is None) == (self.cascade is None):
            raise ValueError("TrialConfig: provide exactly one of system / cascade")
        if self.trials_per_point < 1:
            raise ValueError("TrialConfig: trials_per_point must be at least 1")
        if self.seed < 0:
            raise ValueError(f"TrialConfig: seed must be nonnegative, got {self.seed}")
        for name, modes in _MODES.items():
            if getattr(self, name) not in modes:
                raise ValueError(f"TrialConfig: unknown {name} {getattr(self, name)!r}")
        if self.cascade is not None:
            if self.value_mode == "real" or self.probe:
                raise ValueError("TrialConfig: cascade sweeps are integer-valued, with no probe")
            if self.level not in (None, self.cascade.level):
                raise ValueError(f"TrialConfig: level {self.level} is not the cascade's level")
            object.__setattr__(self, "level", self.cascade.level)
        elif self.system.is_real and self.value_mode == "integer":
            raise ValueError("TrialConfig: a real-valued system needs value_mode='real'")
        elif self.level is None:
            object.__setattr__(self, "level", sigma_chain(self.system).levels)
        if self.probe and not self.tau_values:
            bound = level_context(self.system, self.level).robustness_bound
            object.__setattr__(self, "tau_values", (float(bound),))
        if not all(math.isfinite(t) and t >= 0 for t in self.tau_values):
            raise ValueError("TrialConfig: tau values must be finite and nonnegative")
        if not self.tau_values or self.probe and len(self.tau_values) > 1:
            raise ValueError("TrialConfig: a sweep needs tau values, a probe at most one")


@dataclass(frozen=True)
class SweepRow:
    """Statistics of one sweep point (x is the error bound or the probed value)."""

    x: float
    mean_abs_error: float
    mean_rel_error: float
    failure_rate: float
    clamped_fraction: float
    trials: int
    zero_value_excluded: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    series: str = ""


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _chunks(total: int):
    start = 0
    index = 0
    while start < total:
        size = min(CHUNK, total - start)
        yield index, size
        index += 1
        start += size


class LevelKernel:
    """Vectorized ladder-window solver for one (system, level) pair.

    ``q = (r1 - r2) / m`` maps to the folds by a step function over one
    signed ladder: ladder 1 mirrored onto ``q < 0``, rung 0, ladder 2 on
    ``q > 0``.  Rungs are at least sigma apart, so the rung in the window is
    the nearest rung, and the thresholds sit at the midpoints between
    neighbouring rungs.  A threshold's float value holds its tie rule: a tie
    goes toward 0 on ladder 1's side (the window ``[t - h, t + h)`` is closed
    on the left); on ladder 2's side it goes up only where the gap is sigma
    (the window ``(t - h, t + h]`` then holds the midpoint) and down
    otherwise, where the threshold is ``nextafter(T, inf)``.  Buckets of width
    ``2**shift`` hold one threshold at most, so the interval of ``q`` is
    ``after[b] + (q >= threshold[b])`` with ``b = floor(q / 2**shift)``.

    Both folds of an interval come from the exact rung relation.  The
    companion fold equals the solver's rounding
    ``floor((n_i m_i + r_i - r_j) / m_j + 0.5)`` while ``q`` lies within
    ``(gamma_j - 1) / 2`` of the rung, as it does between two rungs; the
    rounding runs only for ``q`` outside ``[q_lo, q_hi]``, past the end
    rungs.  From ``gamma1 * gamma2 = 2**40`` on, float error nears that
    half-unit margin, so the span shrinks to ``[-h, h)``.
    """

    def __init__(self, system: TwoModSystem, level: int):
        ctx = level_context(system, level)
        self.system = system
        self.level = level
        self.m = float(system.m)
        self.m1 = float(system.m1)
        self.m2 = float(system.m2)
        self.dynamic_range = ctx.dynamic_range
        self.robustness_bound = float(ctx.robustness_bound)
        g1, g2, sigma = system.gamma1, system.gamma2, ctx.sigma
        dtype = np.int64 if g2 < 2**31 else object  # rung * inverse < g2**2
        s1 = np.array(ctx.s1[1:], dtype=dtype)
        s2 = np.array(ctx.s2[1:], dtype=dtype)
        f1 = s1 * ctx.inv12 % g2  # n1 of the rung s1: n1 * g1 = n2 * g2 + s1
        f2 = s2 * ctx.inv21 % g1  # n2 of the rung s2: n2 * g2 = n1 * g1 + s2
        rungs = np.concatenate((-s1[::-1], [0], s2))
        self.n1 = np.concatenate((f1[::-1], [0], (f2 * g2 - s2) // g1)).astype(np.int64)
        self.n2 = np.concatenate((((f1 * g1 - s1) // g2)[::-1], [0], f2)).astype(np.int64)
        twice = rungs[1:] + rungs[:-1]
        threshold = twice.astype(np.float64) * 0.5
        tie_down = (rungs[:-1] >= 0) & (rungs[1:] - rungs[:-1] != sigma)
        threshold[tie_down] = np.nextafter(threshold[tie_down], np.inf)
        shift = int(np.diff(twice).min()).bit_length() - 2  # 2**shift <= min gap
        self.scale = 2.0 ** -shift
        # bucket k lives at k mod len, so a negative bucket is a negative index
        bucket = np.floor(threshold * self.scale).astype(np.intp)
        self.first, self.last = float(bucket[0]), float(bucket[-1])
        ks = np.arange(bucket[0], bucket[-1] + 1)
        self.after = np.roll(np.searchsorted(bucket, ks), bucket[0])
        held = np.full(ks.size, np.inf)
        held[bucket - bucket[0]] = threshold
        self.threshold = np.roll(held, bucket[0])
        if g1 * g2 < 2**40:
            self.q_lo = float(rungs[0]) - (g2 - 1) / 2
            self.q_hi = float(rungs[-1]) + (g1 - 1) / 2
        else:
            self.q_lo, self.q_hi = -sigma / 2, np.nextafter(sigma / 2, -np.inf)

    def _folds(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both folds of the rung ``q`` falls to, from the tables."""
        b = q * self.scale
        np.floor(b, out=b)
        np.clip(b, self.first, self.last, out=b)
        b = b.astype(np.intp)
        i = self.after[b]
        i += q >= self.threshold[b]
        return self.n1[i], self.n2[i]

    def solve(self, r1t: np.ndarray, r2t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = r1t - r2t
        q /= self.m
        n1, n2 = self._folds(q)
        hi = np.flatnonzero(q > self.q_hi)
        if hi.size:
            nn1 = np.floor((n2[hi] * self.m2 + r2t[hi] - r1t[hi]) / self.m1 + 0.5)
            n1[hi] = nn1.astype(np.int64)
        lo = np.flatnonzero(q < self.q_lo)
        if lo.size:
            nn2 = np.floor((n1[lo] * self.m1 + r1t[lo] - r2t[lo]) / self.m2 + 0.5)
            n2[lo] = nn2.astype(np.int64)
        return n1, n2

    def estimate(self, n1, n2, r1t, r2t):
        mean = (n1 * self.m1 + r1t + n2 * self.m2 + r2t) * 0.5
        if self.system.is_real:
            return mean
        return np.floor(mean + 0.5)


def _mod(a: np.ndarray, d: int) -> np.ndarray:
    """``a % d`` for int64 ``a`` and ``d > 0``: numpy's ``//`` by a scalar
    multiplies, its ``%`` divides.  Exact even where ``(a // d) * d`` wraps."""
    q = a // d
    q *= d
    return np.subtract(a, q, out=q)


def _garner_folds(rts: list[np.ndarray], m: float, gammas: tuple[int, ...], steps):
    """``multi_mod._garner_folds`` elementwise, over the moduli ``m * gammas``
    with ``steps = _general_steps(gammas)``: the folds, and flags that are
    cleared where a divisibility test fails (never on coprime cofactors).
    Each step updates its arrays in place, so a chunk allocates few of them."""
    xis = []
    for rt in rts[1:]:
        x = rt - rts[0]
        x /= m
        x += 0.5
        xis.append(np.floor(x, out=x).astype(np.int64))
    n1 = None  # zero until the first step sets it
    consistent = np.ones(rts[0].shape, dtype=bool)
    for xi, (g, qk, inv1, gq, step, inv_q, q) in zip(xis, steps):
        if g > 1:
            reduced = xi // g
            consistent &= reduced * g == xi
            xi = reduced
        if qk == 1:
            continue
        diff = _mod(xi * inv1, qk)
        if n1 is None:  # the first step has q = 1, gq = 1 and inv_q = 1
            n1 = diff
            continue
        diff -= n1
        if gq > 1:
            reduced = diff // gq
            consistent &= reduced * gq == diff
            diff = reduced
        if step > 1:
            t = _mod(diff * inv_q, step)
            t *= q
            n1 += t
    if n1 is None:
        n1 = np.zeros(rts[0].shape, dtype=np.int64)
    folds = [n1]
    for xi, gk in zip(xis, gammas[1:]):
        f = n1 * gammas[0]
        f -= xi
        f //= gk
        folds.append(f)
    return folds, consistent


def _estimate(*groups) -> np.ndarray:
    """Rounded mean of ``f * m_k + r_k`` over every ``(folds, moduli, rts)``
    group; each group is summed in place, in the order ``sum`` would take."""
    total = None
    for folds, moduli, rts in groups:
        part = folds[0] * float(moduli[0])
        part += rts[0]
        for f, mk, rt in zip(folds[1:], moduli[1:], rts[1:]):
            term = f * float(mk)
            term += rt
            part += term
        total = part if total is None else np.add(total, part, out=total)
    return np.floor(total / sum(len(rts) for *_, rts in groups) + 0.5)


class GeneralKernel:
    """Vectorized single-stage solver for arbitrary moduli (lcm-wide range)."""

    def __init__(self, moduli):
        ms = tuple(moduli)
        self.moduli = ms
        m = math.gcd(*ms)
        self.m = float(m)
        self.gammas = tuple(mk // m for mk in ms)
        self.steps = _general_steps(self.gammas)

    def solve(self, rts: list[np.ndarray]):
        folds, consistent = _garner_folds(rts, self.m, self.gammas, self.steps)
        for f in folds:
            f *= consistent
        return folds, _estimate((folds, self.moduli, rts)), consistent


class GroupKernel(GeneralKernel):
    """Vectorized within-group solver (pairwise-coprime cofactors)."""

    def __init__(self, group):
        super().__init__(group.moduli)
        self.group = group

    def solve(self, rts: list[np.ndarray]):
        folds, _ = _garner_folds(rts, self.m, self.gammas, self.steps)
        return folds, _estimate((folds, self.moduli, rts))


class CascadeKernel:
    """Vectorized cascade: both group stages followed by the cross stage."""

    def __init__(self, spec: CascadeSpec, level: int | None = None):
        self.spec = spec
        self.level = spec.level if level is None else level
        self.k1 = GroupKernel(spec.group1)
        self.k2 = GroupKernel(spec.group2)
        self.cross = LevelKernel(spec.cross, self.level)
        self.dynamic_range = self.cross.dynamic_range

    def solve(self, rts1: list[np.ndarray], rts2: list[np.ndarray]):
        return self._cross_stage(self.k1.solve(rts1), self.k2.solve(rts2), rts1, rts2)

    def _cross_stage(self, stage1, stage2, rts1, rts2):
        """The cross stage and the assembly, given both group stages'
        ``(folds, estimate)``; cascades of one spec can share those."""
        (f1, est1), (f2, est2) = stage1, stage2
        if self.spec.low_is_group1:
            l_lo, l_hi = self.cross.solve(est1, est2)
            l1, l2 = l_lo, l_hi
        else:
            l_lo, l_hi = self.cross.solve(est2, est1)
            l1, l2 = l_hi, l_lo
        folds1 = [l1 * (self.spec.group1.eta // mk) + h
                  for mk, h in zip(self.spec.group1.moduli, f1)]
        folds2 = [l2 * (self.spec.group2.eta // mk) + h
                  for mk, h in zip(self.spec.group2.moduli, f2)]
        estimate = _estimate((folds1, self.spec.group1.moduli, rts1),
                             (folds2, self.spec.group2.moduli, rts2))
        return folds1, folds2, estimate


class _Accumulator:
    def __init__(self):
        self.trials = 0
        self.abs_sum = 0.0
        self.rel_sum = 0.0
        self.rel_n = 0
        self.failures = 0
        self.clamped = 0

    def add(self, values, estimates, failures, clamped):
        err = estimates - values
        np.abs(err, out=err)
        self.trials += values.size
        self.abs_sum += float(err.sum())
        pos = values >= 1
        self.rel_sum += float((err[pos] / values[pos]).sum())
        self.rel_n += int(pos.sum())
        self.failures += int(failures.sum())
        self.clamped += int(clamped.sum())

    def row(self, x: float) -> SweepRow:
        return SweepRow(
            x=float(x),
            mean_abs_error=self.abs_sum / self.trials,
            mean_rel_error=self.rel_sum / self.rel_n if self.rel_n else 0.0,
            failure_rate=self.failures / self.trials,
            clamped_fraction=self.clamped / self.trials,
            trials=self.trials,
            zero_value_excluded=self.trials - self.rel_n,
        )


def _sample_errors(rng, tau: float, size: int, error_mode: str) -> np.ndarray:
    if error_mode == "integer":
        t = int(math.floor(tau))
        return rng.integers(-t, t + 1, size=size).astype(np.float64)
    return rng.uniform(-tau, tau, size=size)


def _misfolds(folds, true_folds) -> np.ndarray:
    fail = np.zeros(true_folds[0].shape, dtype=bool)
    for f, t in zip(folds, true_folds):
        fail |= f != t
    return fail


def _level_series(kernel: LevelKernel):
    def estimate(rts, true_folds):
        n1, n2 = kernel.solve(*rts)
        yield kernel.estimate(n1, n2, *rts), _misfolds((n1, n2), true_folds)
    return estimate


def _cascade_series(*kernels: CascadeKernel):
    """Cascades of one spec (at different cross levels) run the group stages
    once per chunk and share them."""
    k1, k2 = kernels[0].k1, kernels[0].k2
    split = len(kernels[0].spec.group1.moduli)

    def estimate(rts, true_folds):
        rts1, rts2 = rts[:split], rts[split:]
        stage1, stage2 = k1.solve(rts1), k2.solve(rts2)
        for kernel in kernels:
            folds1, folds2, est = kernel._cross_stage(stage1, stage2, rts1, rts2)
            fail = _misfolds(folds1 + folds2, true_folds)
            del folds1, folds2  # free them before the next series runs
            yield est, fail
    return estimate


def _general_series(kernel: GeneralKernel):
    def estimate(rts, true_folds):
        folds, est, consistent = kernel.solve(rts)
        yield est, ~consistent | _misfolds(folds, true_folds)
    return estimate


def _trial_rows(config: TrialConfig, value_range, estimators, series: int) -> list[list[SweepRow]]:
    """The trial loop behind every sweep: one list of rows per series.

    Each point draws errors on ``[-tau, tau]``; its values are a probed value
    or uniform on ``[0, value_range)``.  Every estimator maps the same noisy
    remainders and the true folds to ``(estimates, failures)`` of one or more
    series, which are accumulated as they are yielded, ``series`` in all.
    Integer values are held as int64, so values past 2^63 are refused here
    with a message of their own instead of numpy's."""
    spec, system = config.cascade, config.system
    moduli = (system.m1, system.m2) if spec is None else spec.group1.moduli + spec.group2.moduli
    points = ([(config.tau_values[0], int(value)) for value in config.probe] if config.probe
              else [(tau, None) for tau in config.tau_values])
    integer = config.value_mode == "integer"
    fmoduli = [float(mk) for mk in moduli]
    imoduli = [int(mk) for mk in moduli]
    rows = [[] for _ in range(series)]
    for p, (tau, fixed) in enumerate(points):
        lo, hi = (0, int(value_range)) if fixed is None else (fixed, fixed + 1)
        if integer and (lo < -2**63 or hi > 2**63):
            raise ValueError(f"integer values in [{lo}, {hi}) need more than 64 bits; "
                             "int64 holds values in [-2^63, 2^63)")
        accs = [_Accumulator() for _ in range(series)]
        for chunk_index, size in _chunks(config.trials_per_point):
            rng = _rng(config.seed, p, chunk_index)
            if integer:
                ints = (rng.integers(0, hi, size=size) if fixed is None
                        else np.full(size, fixed, dtype=np.int64))
                values = ints.astype(np.float64)
                true_folds = [ints // mk for mk in imoduli]
                exact = [(ints - f * mk).astype(np.float64) for f, mk in zip(true_folds, imoduli)]
            elif fixed is None:
                values = rng.uniform(0.0, float(value_range), size=size)
                floors = [np.floor(values / mk) for mk in fmoduli]
                exact = [values - f * mk for f, mk in zip(floors, fmoduli)]
                true_folds = [f.astype(np.int64) for f in floors]
            else:
                values = np.full(size, float(fixed))
                true_folds = [(values // mk).astype(np.int64) for mk in fmoduli]
                exact = [values % mk for mk in fmoduli]
            rts = []
            out_of_range = np.zeros(size, dtype=bool)
            for r, mk in zip(exact, fmoduli):
                rt = _sample_errors(rng, tau, size, config.error_mode)
                rt += r
                out_of_range |= (rt < 0.0) | (rt >= mk)
                if config.range_mode == "clamp":
                    rt = np.clip(rt, 0.0, np.nextafter(mk, 0.0))
                rts.append(rt)
            outputs = (out for estimate in estimators for out in estimate(rts, true_folds))
            for acc, (est, fail) in zip(accs, outputs, strict=True):
                acc.add(values, est, fail, out_of_range)
        for out, acc in zip(rows, accs):
            out.append(acc.row(tau if fixed is None else fixed))
    return rows


def run_tau_sweep(config: TrialConfig) -> SweepResult:
    """Error-bound sweep or probe: errors uniform on [-tau, tau] per point, values
    uniform below the level's range or probed, fold failures and error moments tracked."""
    if config.cascade is not None:
        kernel = CascadeKernel(config.cascade, config.level)
        estimator, series = _cascade_series(kernel), f"cascade_level{config.level}"
    else:
        kernel = LevelKernel(config.system, config.level)
        kind = "probe_level" if config.probe else "level"
        estimator, series = _level_series(kernel), f"{kind}{config.level}"
    (rows,) = _trial_rows(config, kernel.dynamic_range, [estimator], 1)
    return SweepResult(tuple(rows), series=series)


def run_comparison(config: TrialConfig) -> tuple[SweepResult, ...]:
    """Three estimators on identical noisy remainders, values below the
    configured cascade's range: lcm-wide single stage over all moduli, the
    two-stage cascade (coarsest cross level), and the cascade at its level.
    Both cascades share one run of the group stages per chunk."""
    spec = config.cascade
    if spec is None:
        raise ValueError("run_comparison: needs a cascade config")
    cascade_top = CascadeKernel(spec, level=sigma_chain(spec.cross).levels)
    cascade_cfg = CascadeKernel(spec)
    series = ("single_stage", "two_stage", f"cascade_level{spec.level}")
    estimators = [_general_series(GeneralKernel(spec.group1.moduli + spec.group2.moduli)),
                  _cascade_series(cascade_top, cascade_cfg)]
    rows = _trial_rows(config, cascade_cfg.dynamic_range, estimators, len(series))
    return tuple(SweepResult(tuple(r), series=name) for name, r in zip(series, rows))
