"""Self-tests of the benchmark's tracer.

    python3 -m pytest bench/test_spans.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import robustrns  # noqa: E402
from robustrns import cli  # noqa: E402

import spans  # noqa: E402
from workloads import run_cli  # noqa: E402

SWEEP = ["simulate", "--m1", "234", "--m2", "377", "--level", "3",
         "--tau", "0:13:0.5", "--trials", "3000", "--seed", "7"]


def test_self_time_of_synthetic_nested_spans():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25).
    duration = [100, 30, 10, 40]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(duration, parent).tolist() == [30, 20, 10, 40]


def test_self_times_add_up_to_the_root():
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.pass"):
            run_cli(SWEEP)
    finally:
        tracer.uninstall()
    _, duration, parent, own = tracer.arrays()
    assert parent[0] == -1 and (parent[1:] >= 0).all()
    assert own.sum() == duration[0]
    assert (own >= 0).all()
    names = tracer.per_name()
    assert names["cli.main"]["calls"] == 1
    assert names["simkit.run_tau_sweep"]["calls"] == 1
    assert names["simkit.level_kernel.solve"]["calls"] == 27
    assert tracer.kernel_obs["simkit.level_kernel.solve"] == 27 * 3000


def test_csv_bytes_identical_with_tracing_on_and_off():
    untraced = run_cli(SWEEP)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_cli(SWEEP)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert untraced[0] == cli.EXIT_OK
    assert len(tracer.start) > 0


def test_uninstall_restores_every_binding():
    before = (cli.main, cli.run_tau_sweep, robustrns.solve_level,
              robustrns.oracle.solve_with_context, robustrns.multi_mod.mod_inverse,
              robustrns.simkit.LevelKernel.solve)
    tracer = spans.Tracer()
    tracer.install()
    assert robustrns.multi_mod.mod_inverse is not before[4]
    assert robustrns.level_context.cache_info is not None
    tracer.uninstall()
    after = (cli.main, cli.run_tau_sweep, robustrns.solve_level,
             robustrns.oracle.solve_with_context, robustrns.multi_mod.mod_inverse,
             robustrns.simkit.LevelKernel.solve)
    assert after == before
