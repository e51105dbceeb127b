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
group and general kernels share one Garner step loop that takes integer
remainders by floor division (``_mod``), not by ``%``.

A sweep allocates one ``_Workspace`` of ``min(CHUNK, trials_per_point)``
elements and drops it when it returns; no buffer outlives the sweep.  Each
chunk writes its values, true folds, remainders (exact, then noisy in place),
``LevelKernel``'s scratch and folds, the fail flags and the accumulator's
errors into it; real values and errors are drawn into it as ``range * u`` and
``-tau + (2 tau) u`` from ``Generator.random``, rounded twice as ``uniform``
rounds them.  The cascade kernels ``take`` the rest from it in the first
chunk, each buffer sized to what is live at once: each group stage's folds
and estimate (read by both cross stages), the assembled folds (which the
single-stage kernel's folds share), one Garner scratch, a second partial sum
and the consistency flags (the single-stage kernel's only).  So a chunk
allocates only its integer draws and the accumulator's gather; it must
allocate none of its chunk-sized temporaries, since the first allocation
after a freed one pays for glibc trimming and re-faulting the heap top.

Every integer of a sweep has one dtype, the workspace's: int32 where
``_trial_rows`` proves that every integer the sweep computes stays below
``INT32_LIMIT``, int64 otherwise, refusing past int64.  The proof is one reach
of the values, the moduli and each kernel's ``reach``, which bounds every fold,
Garner intermediate, cross-stage fold and fallback rounding from the moduli,
the step constants and the largest tau or the clamp.  An int32 sweep draws
int32 values (the int64 draw's values and generator state) and holds its true
folds, exact remainders, Garner steps, fold tables and cross-stage folds in
int32, so no operation mixes int32 with int64.  Kernels called without a
workspace work in int64.  In-place steps keep the bytes of the expressions
they replace: the same operations in the same order (``r + err`` equals
``err + r``), and a sum over the same array in the same order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .multi_mod import CascadeSpec, _general_steps
from .two_mod import TwoModSystem, _level_row, sigma_chain

CHUNK = 1 << 16
# Signed rungs a LevelKernel may tabulate.  Its build peaks at 73-79 bytes
# each (tracemalloc), so 2^22 rungs peak near 310 MB and build in about 0.4 s
# on a Xeon core; a simulate run at the cap peaks at 334 MB RSS.
MAX_RUNGS = 1 << 22
# int32 floor division by a scalar takes about a third of int64's time; a
# sweep whose integers all stay below this bound runs in int32
INT32_LIMIT = 1 << 31

_MODES = {"error_mode": ("real", "integer"), "range_mode": ("allow", "clamp")}


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
            if self.probe:
                raise ValueError("TrialConfig: cascade sweeps run with no probe")
            if self.level not in (None, self.cascade.level):
                raise ValueError(f"TrialConfig: level {self.level} is not the cascade's level")
            object.__setattr__(self, "level", self.cascade.level)
        elif self.level is None:
            object.__setattr__(self, "level", sigma_chain(self.system).levels)
        if self.probe and not self.tau_values:
            bound = _level_row(self.system, self.level).robustness_bound
            object.__setattr__(self, "tau_values", (float(bound),))
        try:
            finite = all(math.isfinite(t) and t >= 0 for t in self.tau_values)
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ValueError("TrialConfig: tau values must be finite, nonnegative and "
                             "within the float range")
        for tau in self.tau_values:  # what the generator can draw
            if self.error_mode == "real" and not math.isfinite(tau - -tau):
                raise ValueError(f"TrialConfig: tau {tau} is too large for real errors; "
                                 f"2 tau must be finite, so tau at most {sys.float_info.max / 2}")
            if self.error_mode == "integer" and math.floor(tau) >= 2**63:
                raise ValueError(f"TrialConfig: tau {tau} is too large for integer errors; "
                                 "floor(tau) must be below 2^63")
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


class _Workspace:
    """A sweep's buffers: per modulus the true folds and remainders, and
    scratch; its integers are of dtype ``ints``.  ``LevelKernel`` returns its
    folds in ``c`` and ``a`` (``rem`` for int32) and its estimate in ``f``;
    the cascade kernels keep theirs in buffers they ``take``.  Called without
    a workspace, a kernel builds a throwaway one, so its results are fresh."""

    def __init__(self, shape, moduli: int = 0, ints=np.int64):
        self.values, self.q, self.f = (np.empty(shape) for _ in range(3))
        self.a, self.b = (np.empty(shape, np.intp) for _ in range(2))
        self.flag, self.fail, self.out_of_range = (np.empty(shape, bool) for _ in range(3))
        self.folds = [np.empty(shape, ints) for _ in range(moduli)]
        self.c, self.rem = (np.empty(shape, ints) for _ in range(2))
        self.rts = [np.empty(shape) for _ in range(moduli)]
        self._shape, self._head, self._taken = shape, slice(None), {}

    @property
    def ints(self) -> np.dtype:
        """The dtype of every integer the sweep computes."""
        return self.rem.dtype

    def take(self, key, *dtypes) -> list[np.ndarray]:
        """Buffers of ``dtypes`` held under ``key`` for the whole sweep: made
        at the first call, the same ones at every later call from any view."""
        bufs = self._taken.get((key, dtypes))
        if bufs is None:
            bufs = self._taken[key, dtypes] = [np.empty(self._shape, d) for d in dtypes]
        return [b[self._head] for b in bufs]

    def head(self, size: int) -> _Workspace:
        """Views of every buffer's first ``size`` elements (a chunk's tail)."""
        view = object.__new__(_Workspace)
        for name, buf in vars(self).items():
            if isinstance(buf, list):
                buf = [b[:size] for b in buf]
            elif isinstance(buf, np.ndarray):
                buf = buf[:size]
            setattr(view, name, buf)
        view._head = slice(size)
        return view


def _chunks(total: int):
    for index, start in enumerate(range(0, total, CHUNK)):
        yield index, min(CHUNK, total - start)


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
        row = _level_row(system, level)
        depth1, depth2, sigma = row.depth1, row.depth2, row.sigma
        if depth1 + depth2 + 1 > MAX_RUNGS:
            raise ValueError(f"LevelKernel: level {level} has {depth1 + depth2 + 1} signed rungs; "
                             f"the kernel's tables hold at most {MAX_RUNGS}")
        self.system = system
        self.m = float(system.m)
        self.m1 = float(system.m1)
        self.m2 = float(system.m2)
        self.dynamic_range = row.dynamic_range
        self.robustness_bound = float(row.robustness_bound)
        g1, g2 = system.gamma1, system.gamma2
        dtype = np.int64 if g2 < 2**31 else object  # t * gamma < g1 * g2
        # the fold pairs: ladder 2's side n2 = t (t = 0 is rung 0), ladder 1's n1 = t
        t2 = np.arange(depth2 + 1, dtype=np.int64).astype(dtype)
        t1 = np.arange(1, depth1 + 1, dtype=np.int64).astype(dtype)
        n1 = np.concatenate((t2 * g2 // g1, t1))
        n2 = np.concatenate((t2, t1 * g1 // g2))
        del t1, t2  # spent arrays go at once: the threshold pass below sets the peak
        rungs = n2 * g2 - n1 * g1
        order = np.argsort(rungs, kind="stable")
        rungs = rungs[order]
        self.n1 = n1[order].astype(np.int64, copy=False)
        self.n2 = n2[order].astype(np.int64, copy=False)
        del n1, n2, order
        self.table_reach = int(max(np.abs(self.n1).max(), np.abs(self.n2).max()))
        twice = rungs[1:] + rungs[:-1]
        threshold = twice.astype(np.float64) * 0.5
        tie_down = (rungs[:-1] >= 0) & (rungs[1:] - rungs[:-1] != sigma)
        threshold[tie_down] = np.nextafter(threshold[tie_down], np.inf)
        shift = int(np.diff(twice).min()).bit_length() - 2  # 2**shift <= min gap
        self.scale = 2.0 ** -shift
        # bucket k lives at index k - first, so every index is nonnegative
        bucket = np.floor(threshold * self.scale).astype(np.intp)
        self.first, self.last = float(bucket[0]), float(bucket[-1])
        # each bucket's first threshold: the thresholds in the buckets below it
        self.after = np.zeros(bucket[-1] - bucket[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(bucket - bucket[0])[:-1], out=self.after[1:])
        self.threshold = np.full(self.after.size, np.inf)
        self.threshold[bucket - bucket[0]] = threshold
        if g1 * g2 < 2**40:
            self.q_lo = float(rungs[0]) - (g2 - 1) / 2
            self.q_hi = float(rungs[-1]) + (g1 - 1) / 2
        else:
            self.q_lo, self.q_hi = -sigma / 2, np.nextafter(sigma / 2, -np.inf)

    @cached_property
    def _int32_tables(self) -> tuple[np.ndarray, np.ndarray]:
        return self.n1.astype(np.int32), self.n2.astype(np.int32)

    def reach(self, spans) -> int:
        """The largest magnitude a fold of ``solve`` takes on remainders within
        ``spans`` of 0: a table fold, or a rounding past the end rungs."""
        n, r = self.table_reach, sum(spans)
        m1, m2 = self.system.m1, self.system.m2
        return max(n, (n * m2 + r) // m1 + 2, (n * m1 + r) // m2 + 2)

    def _folds(self, q: np.ndarray, ws=None) -> tuple[np.ndarray, np.ndarray]:
        """Both folds of the rung ``q`` falls to, from the tables."""
        ws = _Workspace(q.shape) if ws is None else ws
        b = np.multiply(q, self.scale, out=ws.f)
        np.floor(b, out=b)
        np.clip(b, self.first, self.last, out=b)
        k = np.subtract(b, self.first, out=ws.a, casting="unsafe")
        i = np.take(self.after, k, out=ws.b, mode="clip")
        i += np.greater_equal(q, np.take(self.threshold, k, out=ws.f, mode="clip"), out=ws.flag)
        n1, n2 = self._int32_tables if ws.ints == np.int32 else (self.n1, self.n2)
        out2 = ws.a if ws.a.dtype == ws.ints else ws.rem  # over the spent index if it can
        return np.take(n1, i, out=ws.c, mode="clip"), np.take(n2, i, out=out2, mode="clip")

    def solve(self, r1t: np.ndarray, r2t: np.ndarray, ws=None) -> tuple[np.ndarray, np.ndarray]:
        """Both folds of every remainder pair.  A direct call (no workspace)
        refuses non-finite remainders; a sweep's draws are finite.  Past the
        end rungs (masks in ``ws.flag`` and ``ws.fail``) the companion fold is
        rounded in the spent ``ws.q``, masked, so no element is gathered."""
        if ws is None:
            if not (np.isfinite(r1t).all() and np.isfinite(r2t).all()):
                raise ValueError("LevelKernel: a remainder is NaN or infinite")
            ws = _Workspace(r1t.shape)
        q = np.subtract(r1t, r2t, out=ws.q)
        q /= self.m
        n1, n2 = self._folds(q, ws)
        hi = np.greater(q, self.q_hi, out=ws.flag)
        lo = np.less(q, self.q_lo, out=ws.fail)
        _round_past(hi, n1, n2, self.m2, r2t, r1t, self.m1, q)
        _round_past(lo, n2, n1, self.m1, r1t, r2t, self.m2, q)
        return n1, n2

    def estimate(self, n1, n2, r1t, r2t, ws=None):
        """``((n1 m1 + r1t) + n2 m2 + r2t) * 0.5``, rounded for integer systems."""
        ws = _Workspace(n1.shape) if ws is None else ws
        mean = np.multiply(n1, self.m1, out=ws.f)
        mean += r1t
        mean += np.multiply(n2, self.m2, out=ws.q)
        mean += r2t
        mean *= 0.5
        if self.system.is_real:
            return mean
        mean += 0.5
        return np.floor(mean, out=mean)


def _round_past(mask, out, fold, m_fold, r_fold, r_out, m_out, x) -> None:
    """``out = floor((fold * m_fold + r_fold - r_out) / m_out + 0.5)`` where
    ``mask`` holds, through the float scratch ``x``."""
    if mask.any():
        np.multiply(fold, m_fold, out=x, where=mask)
        for op, arg in ((np.add, r_fold), (np.subtract, r_out), (np.divide, m_out), (np.add, 0.5)):
            op(x, arg, out=x, where=mask)
        np.floor(x, out=x, where=mask)
        np.copyto(out, x, casting="unsafe", where=mask)


def _mod(a: np.ndarray, d: int, out=None) -> np.ndarray:
    """``a % d`` for integer ``a`` and ``d > 0``, into ``out`` (not ``a``):
    numpy's ``//`` by a scalar multiplies, its ``%`` divides.  Exact even
    where ``(a // d) * d`` wraps."""
    q = np.floor_divide(a, d, out=out)
    q *= d
    return np.subtract(a, q, out=q)


def _garner_folds(rts: list[np.ndarray], m: float, gammas: tuple[int, ...], steps, ws, folds,
                  consistent=None) -> None:
    """``multi_mod._garner_folds`` elementwise into ``folds`` (of dtype
    ``ws.ints``), over the moduli ``m * gammas`` with ``steps =
    _general_steps(gammas)``; ``consistent``, when given, is cleared where a
    divisibility test fails (never on coprime cofactors).  The rounded
    differences go into the tail folds, which are then solved in place; the
    steps run in ``ws.c`` and ``ws.rem``, the float differences in ``ws.q``."""
    for rt, xi in zip(rts[1:], folds[1:]):
        x = np.subtract(rt, rts[0], out=ws.q)
        x /= m
        x += 0.5
        np.copyto(xi, np.floor(x, out=x), casting="unsafe")
    n1, s, t = folds[0], ws.c, ws.rem
    if consistent is not None:
        consistent.fill(True)
        (product,) = ws.take("garner", ws.ints)
    started = False  # n1 is zero until the first step sets it
    for xi, (g, qk, inv1, gq, step, inv_q, q) in zip(folds[1:], steps):
        if g > 1:
            reduced = np.floor_divide(xi, g, out=s)
            if consistent is not None:
                consistent &= np.equal(np.multiply(reduced, g, out=product), xi, out=ws.flag)
            xi = reduced
        if qk == 1:
            continue
        a = np.multiply(xi, inv1, out=t)
        if not started:  # the first step has q = 1, gq = 1 and inv_q = 1
            _mod(a, qk, n1)
            started = True
            continue
        diff = _mod(a, qk, s)
        diff -= n1
        if gq > 1:
            reduced = np.floor_divide(diff, gq, out=t)
            if consistent is not None:
                consistent &= np.equal(np.multiply(reduced, gq, out=product), diff, out=ws.flag)
            diff = reduced
        if step > 1:
            shift = _mod(np.multiply(diff, inv_q, out=s), step, t)
            shift *= q
            n1 += shift
    if not started:
        n1.fill(0)
    for xi, gk in zip(folds[1:], gammas[1:]):
        np.subtract(np.multiply(n1, gammas[0], out=s), xi, out=xi)
        xi //= gk


def _garner_reach(m: int, gammas: tuple[int, ...], steps, spans) -> tuple[int, list[int]]:
    """The largest magnitude an integer of ``_garner_folds`` (constants
    included) takes on remainders within ``spans`` of 0, and a bound on each
    fold's magnitude.  It follows the step loop: ``n1`` stays in ``[0, q)``,
    ``(a // d) * d`` within ``|a| + d`` and a quotient within ``|a| // d + 1``."""
    xis = [(s + spans[0]) // m + 2 for s in spans[1:]]  # float rounding, and 1 to spare
    seen = [*gammas, *xis]
    top = 1  # n1 < top
    for xi, (g, qk, inv1, gq, step, inv_q, q) in zip(xis, steps):
        seen.append(xi + g)
        if qk == 1:
            continue
        product = (xi // g + 1) * inv1
        diff = max(qk, q)  # |product mod qk - n1|
        product_q = (diff // gq + 1) * inv_q
        top = q * step
        seen += [product + qk, diff + gq, product_q + step, top]
    folds = [top, *((top * gammas[0] + xi) // gk + 1 for xi, gk in zip(xis, gammas[1:]))]
    seen += [top * gammas[0] + xi for xi in xis]
    return max(seen + folds), folds


def _estimate(out: np.ndarray, ws, *groups) -> np.ndarray:
    """Rounded mean of ``f * m_k + r_k`` over every ``(folds, moduli, rts)``
    group, into ``out``; each group is summed in place, in the order ``sum``
    would take, the first in ``out``, its terms in ``ws.q``."""
    term = ws.q
    for i, (folds, moduli, rts) in enumerate(groups):
        part = ws.take("part", np.float64)[0] if i else out
        np.multiply(folds[0], float(moduli[0]), out=part)
        part += rts[0]
        for f, mk, rt in zip(folds[1:], moduli[1:], rts[1:]):
            np.multiply(f, float(mk), out=term)
            term += rt
            part += term
        if i:
            out += part
    out /= sum(len(rts) for *_, rts in groups)
    out += 0.5
    return np.floor(out, out=out)


class GeneralKernel:
    """Vectorized single-stage solver for arbitrary moduli (lcm-wide range).
    ``solve`` takes the dtype of its folds from the workspace, and returns
    them in the buffers the cascade assembles its folds in."""

    def __init__(self, moduli):
        ms = tuple(moduli)
        self.moduli = ms
        m = math.gcd(*ms)
        self.m = float(m)
        self.gammas = tuple(mk // m for mk in ms)
        self.steps = _general_steps(self.gammas)

    def bounds(self, spans) -> tuple[int, int]:
        """The largest magnitude an integer of ``solve`` takes on remainders
        within ``spans`` of 0, and a bound on the estimate's magnitude."""
        reach, folds = _garner_reach(int(self.m), self.gammas, self.steps, spans)
        return reach, max(f * mk + s for f, mk, s in zip(folds, self.moduli, spans)) + 1

    def reach(self, spans) -> int:
        return self.bounds(spans)[0]

    def solve(self, rts: list[np.ndarray], ws=None):
        ws = _Workspace(rts[0].shape) if ws is None else ws
        folds = ws.take("assembly", *(ws.ints,) * len(rts))
        (consistent,) = ws.take("consistent", bool)
        _garner_folds(rts, self.m, self.gammas, self.steps, ws, folds, consistent)
        for f in folds:
            f *= consistent
        return folds, _estimate(ws.f, ws, (folds, self.moduli, rts)), consistent


class GroupKernel(GeneralKernel):
    """Vectorized within-group solver (pairwise-coprime cofactors).  Its folds
    and estimate stay in buffers of its own until the next chunk, so both
    cross stages of a comparison read them."""

    def __init__(self, group):
        super().__init__(group.moduli)
        self.group = group

    def solve(self, rts: list[np.ndarray], ws=None):
        ws = _Workspace(rts[0].shape) if ws is None else ws
        *folds, est = ws.take(self, *(ws.ints,) * len(rts), np.float64)
        _garner_folds(rts, self.m, self.gammas, self.steps, ws, folds)
        return folds, _estimate(est, ws, (folds, self.moduli, rts))


class CascadeKernel:
    """Vectorized cascade: both group stages followed by the cross stage."""

    def __init__(self, spec: CascadeSpec, level: int | None = None):
        self.spec = spec
        self.level = spec.level if level is None else level
        self.k1 = GroupKernel(spec.group1)
        self.k2 = GroupKernel(spec.group2)
        self.cross = LevelKernel(spec.cross, self.level)
        self.dynamic_range = self.cross.dynamic_range

    def reach(self, spans) -> int:
        """The largest magnitude an integer of ``solve`` takes on remainders
        within ``spans`` of 0: the group stages', the cross stage's on their
        estimates, and the assembled folds ``l * (eta // m_k) + h``."""
        split = len(self.k1.moduli)
        (h1, est1), (h2, est2) = self.k1.bounds(spans[:split]), self.k2.bounds(spans[split:])
        h, l = max(h1, h2), self.cross.reach((est1, est2))  # its remainders, in either order
        groups = self.spec.group1, self.spec.group2
        return max(h, l, *(l * (g.eta // mk) + h for g in groups for mk in g.moduli))

    def solve(self, rts1: list[np.ndarray], rts2: list[np.ndarray], ws=None):
        stages = self.k1.solve(rts1, ws), self.k2.solve(rts2, ws)
        return self._cross_stage(*stages, rts1, rts2, ws)

    def _cross_stage(self, stage1, stage2, rts1, rts2, ws=None):
        """The cross stage and the assembly, given both group stages'
        ``(folds, estimate)``; cascades of one spec can share those."""
        (f1, est1), (f2, est2) = stage1, stage2
        if self.spec.low_is_group1:
            l1, l2 = self.cross.solve(est1, est2, ws)
        else:
            l2, l1 = self.cross.solve(est2, est1, ws)
        ws = _Workspace(est1.shape) if ws is None else ws
        folds = ws.take("assembly", *(ws.ints,) * (len(f1) + len(f2)))
        folds1, folds2 = folds[:len(f1)], folds[len(f1):]
        for l, group, hs, out in ((l1, self.spec.group1, f1, folds1),
                                  (l2, self.spec.group2, f2, folds2)):
            for fold, mk, h in zip(out, group.moduli, hs):
                np.multiply(l, group.eta // mk, out=fold)
                fold += h
        estimate = _estimate(ws.f, ws, (folds1, self.spec.group1.moduli, rts1),
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

    def add(self, values, estimates, failures, clamped, ws):
        err = np.subtract(estimates, values, out=ws.q)
        np.abs(err, out=err)
        self.trials += values.size
        self.abs_sum += float(err.sum())
        pos = np.greater_equal(values, 1, out=ws.flag)
        n = int(np.count_nonzero(pos))
        # relative errors in place, then one gather only when a value is
        # below 1: the sum is over the same quotients in the same order
        if n == values.size:
            rel = np.divide(err, values, out=err)
        else:
            rel = np.divide(err, values, out=err, where=pos)[pos]
        self.rel_sum += float(rel.sum())
        self.rel_n += n
        self.failures += int(np.count_nonzero(failures))
        self.clamped += int(np.count_nonzero(clamped))

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


def _sample_errors(rng, tau: float, error_mode: str, out: np.ndarray) -> np.ndarray:
    """Errors on ``[-tau, tau]``: real ones as ``rng.uniform`` into ``out``."""
    if error_mode == "integer":
        t = int(math.floor(tau))
        return rng.integers(-t, t + 1, size=out.size)  # added to float64 remainders
    rng.random(out=out)
    out *= tau - -tau
    out += -tau
    return out


def _misfolds(folds, true_folds, ws) -> np.ndarray:
    fail = np.not_equal(folds[0], true_folds[0], out=ws.fail)
    for f, t in zip(folds[1:], true_folds[1:]):
        fail |= np.not_equal(f, t, out=ws.flag)
    return fail


def _level_series(kernel: LevelKernel):
    def estimate(rts, true_folds, ws):
        n1, n2 = kernel.solve(*rts, ws)
        yield kernel.estimate(n1, n2, *rts, ws), _misfolds((n1, n2), true_folds, ws)
    return estimate


def _cascade_series(*kernels: CascadeKernel):
    """Cascades of one spec (at different cross levels) run the group stages
    once per chunk and share them."""
    k1, k2 = kernels[0].k1, kernels[0].k2
    split = len(kernels[0].spec.group1.moduli)

    def estimate(rts, true_folds, ws):
        rts1, rts2 = rts[:split], rts[split:]
        stage1, stage2 = k1.solve(rts1, ws), k2.solve(rts2, ws)
        for kernel in kernels:
            folds1, folds2, est = kernel._cross_stage(stage1, stage2, rts1, rts2, ws)
            yield est, _misfolds(folds1 + folds2, true_folds, ws)
    return estimate


def _general_series(kernel: GeneralKernel):
    def estimate(rts, true_folds, ws):
        folds, est, consistent = kernel.solve(rts, ws)
        fail = _misfolds(folds, true_folds, ws)
        fail |= np.invert(consistent, out=consistent)
        yield est, fail
    return estimate


def _remainder_spans(moduli, tau: float, range_mode: str) -> list[int]:
    """How far from 0 a noisy remainder of each modulus can reach: the
    modulus under clamp, else the modulus plus tau, rounded up, and 1 to spare."""
    if range_mode == "clamp":
        return list(moduli)
    return [mk + math.ceil(tau) + 1 for mk in moduli]


def _trial_rows(config: TrialConfig, value_range, estimators, series: int,
                kernels) -> list[list[SweepRow]]:
    """The trial loop behind every sweep: one list of rows per series.

    Each point draws errors on ``[-tau, tau]``; its values are a probed value
    or uniform on ``[0, value_range)``, real where the system is.  Every
    estimator maps the same noisy remainders and the true folds to
    ``(estimates, failures)`` of one or more series, which are accumulated as
    they are yielded, ``series`` in all.  One reach bounds every integer: the
    integer values and moduli or the real folds, and the ``kernels``' reach.
    Past int64 it is refused with a message of its own instead of numpy's;
    below ``INT32_LIMIT`` an integer sweep runs in int32."""
    spec, system = config.cascade, config.system
    moduli = (system.m1, system.m2) if spec is None else spec.group1.moduli + spec.group2.moduli
    points = ([(float(config.tau_values[0]), int(value)) for value in config.probe]
              if config.probe else [(float(tau), None) for tau in config.tau_values])
    integer = system is None or not system.is_real
    fmoduli = [float(mk) for mk in moduli]
    lo = min(0 if fixed is None else fixed for _, fixed in points)
    hi = max(value_range if fixed is None else fixed + 1 for _, fixed in points)
    # int64 holds [-2^63, 2^63), so an integer value v < 0 reaches ~v; a real sweep holds
    # only folds, and one floored after two float roundings stays below top * (1 + 2^-51)
    top = Fraction(max(-lo, hi)) / Fraction(min(moduli))
    reach = max(hi - 1, ~lo, *moduli) if integer else math.ceil(top + top / 2**50)
    tau = max(t for t, _ in points)
    spans = _remainder_spans(moduli, tau, config.range_mode)
    reach = max(reach, *(kernel.reach(spans) for kernel in kernels))
    if reach >= 2**63:
        raise ValueError(f"{'integer' if integer else 'real'} values in [{lo}, {hi}) with errors "
                         f"up to tau {tau} reach integers of 2^{int(reach).bit_length() - 1} or "
                         "more; a sweep holds its integers in int64, within [-2^63, 2^63)")
    narrow = integer and reach < INT32_LIMIT
    rows = [[] for _ in range(series)]
    workspace = _Workspace(min(CHUNK, config.trials_per_point), len(moduli),
                           np.int32 if narrow else np.int64)
    for p, (tau, fixed) in enumerate(points):
        accs = [_Accumulator() for _ in range(series)]
        for chunk_index, size in _chunks(config.trials_per_point):
            rng = _rng(config.seed, p, chunk_index)
            ws = workspace.head(size)
            values, true_folds, rts = ws.values, ws.folds, ws.rts
            if fixed is not None:  # every trial holds one value
                values.fill(float(fixed))
                for f, rt, mk in zip(true_folds, rts, moduli if integer else fmoduli):
                    fold, rem = divmod(fixed if integer else float(fixed), mk)
                    np.copyto(f, fold, casting="unsafe")
                    rt.fill(rem)
            elif integer:
                ints = rng.integers(0, int(value_range), size=size, dtype=ws.rem.dtype)
                np.copyto(values, ints)
                for f, rt, mk in zip(true_folds, rts, moduli):
                    np.floor_divide(ints, mk, out=f)
                    np.subtract(ints, np.multiply(f, mk, out=ws.rem), out=rt)
                del ints
            else:
                rng.random(out=values)
                values *= float(value_range)
                for f, rt, mk in zip(true_folds, rts, fmoduli):
                    np.floor(np.divide(values, mk, out=rt), out=rt)
                    np.copyto(f, rt, casting="unsafe")
                    rt *= mk
                    np.subtract(values, rt, out=rt)
            ws.out_of_range.fill(False)
            for rt, mk in zip(rts, fmoduli):
                rt += _sample_errors(rng, tau, config.error_mode, ws.q)
                ws.out_of_range |= np.less(rt, 0.0, out=ws.flag)
                ws.out_of_range |= np.greater_equal(rt, mk, out=ws.flag)
                if config.range_mode == "clamp":
                    np.clip(rt, 0.0, np.nextafter(mk, 0.0), out=rt)
            outputs = (out for estimate in estimators for out in estimate(rts, true_folds, ws))
            for acc, (est, fail) in zip(accs, outputs, strict=True):
                acc.add(values, est, fail, ws.out_of_range, ws)
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
    (rows,) = _trial_rows(config, kernel.dynamic_range, [estimator], 1, [kernel])
    return SweepResult(tuple(rows), series=series)


def run_comparison(config: TrialConfig) -> tuple[SweepResult, ...]:
    """Three estimators on identical noisy remainders, values below the
    configured cascade's range: lcm-wide single stage over all moduli, the
    two-stage cascade (coarsest cross level), and the cascade at its level.
    Both cascades share one run of the group stages per chunk."""
    spec = config.cascade
    if spec is None:
        raise ValueError("run_comparison: needs a cascade config")
    kernels = (GeneralKernel(spec.group1.moduli + spec.group2.moduli),
               CascadeKernel(spec, level=sigma_chain(spec.cross).levels), CascadeKernel(spec))
    series = ("single_stage", "two_stage", f"cascade_level{spec.level}")
    estimators = [_general_series(kernels[0]), _cascade_series(*kernels[1:])]
    rows = _trial_rows(config, kernels[2].dynamic_range, estimators, len(series), kernels)
    return tuple(SweepResult(tuple(r), series=name) for name, r in zip(series, rows))
