"""The sweep workspace: chunks reuse one set of buffers, kernels called
without a workspace still return fresh arrays, and sweeps run in int32 where
the kernels' bounds admit it, with the rows of the int64 run.

A sweep allocates its workspace once and draws real values and errors into
it; after that a chunk should allocate only its integer values (int32 or
int64; a probe draws none), an integer error array at a time, and the gather
the accumulator needs when a value is below 1.  The allocation test reads
``tracemalloc`` at each chunk start (``_rng`` is called once per chunk) and
bounds every later chunk's peak above its starting level by 1.25
CHUNK-sized float64 arrays.
"""

import tracemalloc

import numpy as np
import pytest

from robustrns import simkit
from robustrns.multi_mod import cascade_spec
from robustrns.simkit import (CHUNK, CascadeKernel, GeneralKernel, LevelKernel, TrialConfig,
                              run_comparison, run_tau_sweep)
from robustrns.two_mod import TwoModSystem, sigma_chain
from tests_util import int32_tau_limit

SYSTEM = TwoModSystem.from_moduli(234, 377)


def chunk_peaks(monkeypatch, config):
    """Each chunk's peak traced memory above its level at the chunk's start."""
    marks = []
    rng = simkit._rng

    def marked_rng(*args):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return rng(*args)

    monkeypatch.setattr(simkit, "_rng", marked_rng)
    tracemalloc.start()
    try:
        run_tau_sweep(config)
        marks.append(tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return [peak - start for (start, _), (_, peak) in zip(marks, marks[1:])]


@pytest.mark.parametrize("config", [
    TrialConfig(system=SYSTEM, level=3, tau_values=(5.0, 40.0), trials_per_point=2 * CHUNK,
                seed=1),
    TrialConfig(system=TwoModSystem.real(2.5, 18, 29), level=3, tau_values=(0.5, 4.0),
                trials_per_point=2 * CHUNK, seed=2, value_mode="real"),
    TrialConfig(system=SYSTEM, level=1, probe=(466, 467), trials_per_point=2 * CHUNK, seed=3),
], ids=["integer", "real", "probe"])
def test_chunks_after_the_first_allocate_at_most_one_and_a_quarter_arrays(monkeypatch, config):
    peaks = chunk_peaks(monkeypatch, config)
    assert len(peaks) == 4
    arrays = [peak / (CHUNK * 8) for peak in peaks[1:]]
    assert max(arrays) <= 1.25, arrays


def remainders(kernel, size, seed):
    """Remainders far outside ``[0, m_i)``, so ``q`` runs past both end rungs."""
    rng = np.random.default_rng(seed)
    system = kernel.system
    r1t = rng.uniform(-2 * system.m1, 3 * system.m1, size)
    r2t = rng.uniform(-2 * system.m2, 3 * system.m2, size)
    q = (r1t - r2t) / kernel.m
    assert (q < kernel.q_lo).any() and (q > kernel.q_hi).any()  # both fallback branches
    return r1t, r2t


@pytest.mark.parametrize("system", [SYSTEM, TwoModSystem.real(2.5, 18, 29)], ids=str)
def test_kernel_results_without_a_workspace_are_fresh(system):
    kernel = LevelKernel(system, 2)
    first_in = remainders(kernel, 3000, 1)
    first = kernel.solve(*first_in)
    first_est = kernel.estimate(*first, *first_in)
    kept = [a.copy() for a in (*first, first_est)]
    second_in = remainders(kernel, 3000, 2)
    second = kernel.solve(*second_in)
    second_est = kernel.estimate(*second, *second_in)
    for a, b in zip((*first, first_est), (*second, second_est)):
        assert not np.shares_memory(a, b)
    for a, b in zip((*first, first_est), kept):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("system", [SYSTEM, TwoModSystem.real(2.5, 18, 29)], ids=str)
@pytest.mark.parametrize("size", [1000, 357], ids=["whole", "tail"])
def test_kernel_outputs_match_with_and_without_a_workspace(system, size):
    ws = simkit._Workspace(1000).head(size)
    for level in (1, 3):
        kernel = LevelKernel(system, level)
        r1t, r2t = remainders(kernel, size, level)
        n1, n2 = kernel.solve(r1t, r2t)
        est = kernel.estimate(n1, n2, r1t, r2t)
        w1, w2 = kernel.solve(r1t, r2t, ws)
        w_est = kernel.estimate(w1, w2, r1t, r2t, ws)
        for a, b in zip((n1, n2, est), (w1, w2, w_est)):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)


def test_cascade_cross_stage_matches_with_and_without_a_workspace(rng):
    spec = cascade_spec([120, 300], [210, 490], 2)
    values = rng.integers(0, 13230, size=700)
    rts = [values % m + rng.uniform(-20, 20, size=values.size) for m in (120, 300, 210, 490)]
    kernel = CascadeKernel(spec)
    stages = kernel.k1.solve(rts[:2]), kernel.k2.solve(rts[2:])
    plain = kernel._cross_stage(*stages, rts[:2], rts[2:])
    shared = kernel._cross_stage(*stages, rts[:2], rts[2:], simkit._Workspace(1024).head(700))
    for a, b in zip((*plain[0], *plain[1], plain[2]), (*shared[0], *shared[1], shared[2])):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("low", [0.0, 1.0], ids=["with_zero_values", "all_at_least_one"])
def test_accumulator_relative_error_sums_the_gathered_array(rng, low):
    values = np.floor(rng.uniform(low, 50.0, 5000))
    estimates = values + rng.uniform(-3.0, 3.0, values.size)
    acc = simkit._Accumulator()
    acc.add(values, estimates, np.zeros(values.size, bool), np.zeros(values.size, bool),
            simkit._Workspace(values.size))
    pos = values >= 1
    err = np.abs(estimates - values)
    assert acc.rel_sum == float((err[pos] / values[pos]).sum())
    assert acc.rel_n == int(pos.sum()) and acc.abs_sum == float(err.sum())


def rows_and_fold_dtype(monkeypatch, config, run=run_tau_sweep):
    """The rows of ``config``'s sweep and the dtype its true folds were held in."""
    dtypes = []
    init = simkit._Workspace.__init__

    def spied(self, *args):
        init(self, *args)
        dtypes.append(self.rem.dtype)

    with monkeypatch.context() as patch:
        patch.setattr(simkit._Workspace, "__init__", spied)
        result = run(config)
    (dtype,) = dtypes
    return result, dtype


def wide_rows(monkeypatch, config, run=run_tau_sweep):
    """The rows of ``config``'s sweep with every true fold held in int64."""
    with monkeypatch.context() as patch:
        patch.setattr(simkit, "INT32_LIMIT", 0)
        result, dtype = rows_and_fold_dtype(monkeypatch, config, run)
    assert dtype == np.int64
    return result


# m * (4, 7) at level 1 covers [0, 8 m): with m = 2^28 exactly int32's range
EDGE, PAST_EDGE = TwoModSystem(2**28, 4, 7), TwoModSystem(2**28 + 1, 4, 7)


@pytest.mark.parametrize("config, narrow", [
    (TrialConfig(system=SYSTEM, level=3, tau_values=tuple(np.arange(0.0, 13.25, 0.5)),
                 trials_per_point=3000, seed=42), True),
    (TrialConfig(system=SYSTEM, level=1, probe=tuple(range(465, 471)), trials_per_point=3000,
                 seed=42), True),
    (TrialConfig(system=SYSTEM, level=1, tau_values=(0.0, 12.0, 40.0), trials_per_point=70000,
                 seed=42, error_mode="integer", range_mode="clamp"), True),
    (TrialConfig(system=SYSTEM, level=3, tau_values=(1e9,), trials_per_point=5000, seed=5), True),
    (TrialConfig(system=EDGE, level=1, probe=(2**31 - 1,), trials_per_point=3000, seed=6), True),
    (TrialConfig(system=EDGE, level=1, tau_values=(1.0, 2.0**26), trials_per_point=3000,
                 seed=6), True),
    (TrialConfig(system=PAST_EDGE, level=1, probe=(2**31 + 7,), trials_per_point=3000, seed=6),
     False),
    (TrialConfig(system=PAST_EDGE, level=1, tau_values=(1.0, 2.0**26), trials_per_point=3000,
                 seed=6), False),
], ids=["readme_tau_sweep", "boundary_probe", "integer_clamp_multi_chunk", "tau_1e9",
        "range_2_31_probe", "range_2_31_sweep", "range_past_2_31_probe", "range_past_2_31_sweep"])
def test_int32_and_int64_true_folds_give_the_same_rows(monkeypatch, config, narrow):
    result, dtype = rows_and_fold_dtype(monkeypatch, config)
    assert dtype == (np.int32 if narrow else np.int64)
    assert result == wide_rows(monkeypatch, config)


SPEC = cascade_spec([120, 300], [210, 490], 2)
MODULI = SPEC.group1.moduli + SPEC.group2.moduli
# the largest taus whose sweeps the kernels' bounds admit in int32
SWEEP_LIMIT = int32_tau_limit([CascadeKernel(SPEC)], MODULI)
COMPARE_LIMIT = int32_tau_limit([GeneralKernel(MODULI), CascadeKernel(SPEC, 3),
                                 CascadeKernel(SPEC)], MODULI)


def cascade(taus, **kwargs):
    return TrialConfig(cascade=SPEC, tau_values=tuple(map(float, taus)), trials_per_point=3000,
                       seed=7, **kwargs)


@pytest.mark.parametrize("config, run", [
    (cascade([5]), run_tau_sweep),
    (cascade(range(25)), run_comparison),
    (cascade([0, 12, 40], error_mode="integer", range_mode="clamp"), run_comparison),
    (cascade([1e9]), run_tau_sweep),  # far past the guarantee, but every integer fits
    (cascade([SWEEP_LIMIT - 1000, SWEEP_LIMIT]), run_tau_sweep),
    (cascade([COMPARE_LIMIT - 1000, COMPARE_LIMIT]), run_comparison),
    (cascade([COMPARE_LIMIT], error_mode="integer"), run_comparison),
], ids=["sweep", "compare", "compare_integer_clamp", "sweep_tau_1e9", "sweep_at_limit",
        "compare_at_limit", "compare_integer_at_limit"])
def test_cascades_pick_int32_below_the_bound(monkeypatch, config, run):
    assert SPEC.level == 2 and sigma_chain(SPEC.cross).levels == 3
    assert 2**27 < COMPARE_LIMIT < SWEEP_LIMIT < 2**40
    result, dtype = rows_and_fold_dtype(monkeypatch, config, run)
    assert dtype == np.int32
    assert result == wide_rows(monkeypatch, config, run)


@pytest.mark.parametrize("config, run", [
    (cascade([SWEEP_LIMIT + 1]), run_tau_sweep),
    (cascade([0, COMPARE_LIMIT + 1]), run_comparison),
    # the float-to-int cast of the differences already yields garbage in int64
    pytest.param(cascade([1e300]), run_tau_sweep, marks=pytest.mark.filterwarnings(
        "ignore:invalid value encountered in cast:RuntimeWarning")),
    (cascade([1e9]), run_comparison),
    (TrialConfig(system=TwoModSystem.real(2.5, 18, 29), level=3, tau_values=(0.5,),
                 trials_per_point=500, seed=2, value_mode="real"), run_tau_sweep),
], ids=["sweep_past_limit", "compare_past_limit", "sweep_tau_1e300", "compare_tau_1e9",
        "real_values"])
def test_cascades_past_the_bound_and_real_values_pick_int64(monkeypatch, config, run):
    result, dtype = rows_and_fold_dtype(monkeypatch, config, run)
    assert dtype == np.int64
    assert result == wide_rows(monkeypatch, config, run)
