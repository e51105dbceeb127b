"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 bench/run.py --workload mc-two-mod --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory and nothing needs installing.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` measures the same work
untraced and then traced, and reports the per-layer metrics.  The metric
names and units are read from ``BENCHMARK.json`` at the repository root.
Outputs other than stdout (manifests, spans, the real-sweep config) go to
``.bench_out/``.  The last stdout line is the result object; every earlier
line is informational.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The first pass is a warm-up (allocator growth after the build, first touches):
# it is validated but left out of the timing statistics.
MIN_PASSES = 4
IMPORT_REPS = 5
SETUP_REPS = {"exact-verify": 5}
DEFAULT_SETUP_REPS = 5
SWEEPS = ("simkit.run_tau_sweep", "simkit.run_boundary_probe", "simkit.run_comparison")
MULTI_MOD_SOLVES = {"multi_mod.cascade_reconstruct", "multi_mod.general_robust_crt",
                    "multi_mod.single_stage_robust_crt"}


def time_import() -> float:
    """Seconds, at the reference speed, to import the package in a fresh
    interpreter, gauged inside that interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import hostspeed; "
            "gauge = hostspeed.PYTHON; gauge.start(); t = time.perf_counter(); "
            "import robustrns; print((time.perf_counter() - t) * gauge.scale())")
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code, str(HERE)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def clear_caches() -> None:
    """Empty every functools cache in the package."""
    import robustrns
    from spans import LAYERS

    seen = set()
    for name in LAYERS:
        for value in vars(getattr(robustrns, name)).values():
            if hasattr(value, "cache_clear") and id(value) not in seen:
                seen.add(id(value))
                value.cache_clear()


def timed_build(workload) -> tuple[float, float]:
    """Seconds to build the workload with empty caches: raw and at the reference speed."""
    import hostspeed

    clear_caches()
    hostspeed.PYTHON.start()
    t0 = time.perf_counter()
    workload.build()
    raw = time.perf_counter() - t0
    return raw, raw * hostspeed.PYTHON.scale()


def run_passes(workload, seconds: float, minimum: int) -> tuple[list, list[float]]:
    """Closed loop of passes until ``seconds`` have passed (and ``minimum`` ran).

    Each later pass is compared with the first as soon as it ends and its
    outputs are dropped, and latencies are kept as packed doubles, so peak
    memory does not grow with the number of passes a run completes.
    """
    passes, walls = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < minimum or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        result = workload.run_pass()
        walls.append(time.perf_counter() - t0)
        result.latencies_ns = array("d", result.latencies_ns)
        if passes:
            result.mismatches = mismatches(passes[0], result)
            result.outputs = []
        passes.append(result)
    return passes, walls


def mismatches(first, later) -> int:
    """Items of a later pass's outputs that differ from the first pass's."""
    bad = 0
    for a, b in zip(first.outputs, later.outputs, strict=True):
        if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            bad += sum(x != y for x, y in zip(a, b))
        else:
            bad += a != b
    return bad


def pass_ops(result) -> int:
    return result.solves + result.cases + result.cli_calls


def pass_summary(result) -> dict[str, float]:
    """Per-pass rates and latency percentiles at the reference speed
    (latencies in microseconds), and the spread of the pass's gauge factors."""
    cuts = statistics.quantiles(result.latencies_ns, n=100)
    return {
        "trials_per_s": result.trials / result.trial_s,
        "solves_per_s": result.solves / result.solve_s,
        "cases_per_s": result.cases / result.case_s,
        "p50_us": cuts[49] / 1000,
        "p99_us": cuts[98] / 1000,
        "host_factor_min": min(result.host_factors),
        "host_factor_max": max(result.host_factors),
    }


def draw_latencies_us(passes) -> list[float]:
    """Each draw's median latency over the passes, in microseconds.

    Every pass solves the same draws in the same order.  A block whose gauge
    probes misread the host's speed skews its draws in that pass only, so a
    draw's median over the passes discards it and the tail percentiles
    follow the slow inputs.
    """
    return [statistics.median(col) / 1000 for col in zip(*(p.latencies_ns for p in passes))]


def end_to_end(summaries, draw_us, setup_s: float, checks) -> dict[str, float]:
    def median(key):
        return statistics.median(s[key] for s in summaries)

    cuts = statistics.quantiles(draw_us, n=100)
    return {
        "setup_s": setup_s,
        "mc_trials_per_s": median("trials_per_s"),
        "solves_per_s": median("solves_per_s"),
        "solve_p50_us": cuts[49],
        "solve_p99_us": cuts[98],
        "verify_cases_per_s": median("cases_per_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_failed_frac": checks.ops_failed_frac,
    }


def per_layer(tracer, wall_s: float, overhead: float, cache, defects: int) -> dict[str, float]:
    from spans import LAYERS

    names = tracer.per_name()

    def get(name, key="s"):
        return names.get(name, {}).get(key, 0)

    layer_self = {layer: 0.0 for layer in (*LAYERS, "bench", "trace")}
    for name, row in names.items():
        layer_self[name.split(".")[0]] += row["self_s"]
    roots, inner = tracer.calls_under("modmath.mod_inverse", MULTI_MOD_SOLVES)
    hits, misses = cache
    metrics = {f"{layer}.self_s": value for layer, value in layer_self.items()}
    metrics.update({
        "simkit.level_kernel.solve_s": get("simkit.level_kernel.solve"),
        "simkit.level_kernel.obs": tracer.kernel_obs.get("simkit.level_kernel.solve", 0),
        "simkit.group_kernel.solve_s": get("simkit.group_kernel.solve"),
        "simkit.group_kernel.obs": tracer.kernel_obs.get("simkit.group_kernel.solve", 0),
        "simkit.group_kernel.unique_frac":
            len(tracer.group_inputs) / tracer.group_calls if tracer.group_calls else 0.0,
        "simkit.general_kernel.solve_s": get("simkit.general_kernel.solve"),
        "simkit.cascade_kernel.self_s": get("simkit.cascade_kernel.solve", "self_s"),
        "simkit.sweep.self_s": sum(get(n, "self_s") for n in SWEEPS),
        "simkit.bytes_computed": tracer.kernel_bytes,
        "two_mod.level_context.build_s": get("two_mod.level_context"),
        "two_mod.level_context.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "two_mod.ladder_elements": sum(tracer.contexts.values()),
        "two_mod.solve_with_context.s": get("two_mod.solve_with_context"),
        "two_mod.solve_with_context.calls": get("two_mod.solve_with_context", "calls"),
        "multi_mod.single_stage_robust_crt.s": get("multi_mod.single_stage_robust_crt"),
        "multi_mod.cascade_reconstruct.self_s": get("multi_mod.cascade_reconstruct", "self_s"),
        "multi_mod.general_robust_crt.s": get("multi_mod.general_robust_crt"),
        "modmath.mod_inverse.calls_per_solve": inner / roots if roots else 0.0,
        "modmath.coprime_factorization.s": get("modmath.coprime_factorization"),
        "crt_core.crt_system.s": get("crt_core.crt_system"),
        "multi_mod.cascade_spec.s": get("multi_mod.cascade_spec"),
        "crt_core.crt_reconstruct.s": get("crt_core.crt_reconstruct"),
        "oracle.level_exactness_scan.self_s": get("oracle.level_exactness_scan", "self_s"),
        "oracle.exhaustive_fold_search.s": get("oracle.exhaustive_fold_search"),
        "oracle.ladder_depths_definitional.s": get("oracle.ladder_depths_definitional"),
        "trace.wall_s": wall_s,
        "trace.spans": len(tracer.start),
        "trace.overhead_frac": overhead,
        "checks.known_defect_failures": defects,
    })
    return metrics


def cache_counts() -> tuple[int, int]:
    import robustrns

    info = getattr(robustrns.level_context, "cache_info", None)
    if info is None:
        return 0, 0
    current = info()
    return current.hits, current.misses


def traced_run(workload, seconds: float, checks):
    """Untraced build and passes, then the same build and one pass traced."""
    import spans

    untraced_setup, _ = timed_build(workload)
    passes, walls = run_passes(workload, seconds / 2, minimum=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        clear_caches()
        t0 = time.perf_counter()
        with tracer.span("bench.setup"):
            workload.build()
        with tracer.span("bench.pass"):
            traced = workload.run_pass()
        wall_s = time.perf_counter() - t0
        cache = cache_counts()
    finally:
        tracer.uninstall()
    overhead = wall_s / (untraced_setup + statistics.median(walls)) - 1
    checks.check(mismatches(passes[0], traced) == 0, "identical outputs with tracing on and off")
    _, _, _, own = tracer.arrays()
    checks.check(abs(own.sum() / 1e9 - wall_s) <= 0.01 * wall_s,
                 "span self times add up to the traced wall time")
    return passes, tracer, wall_s, overhead, cache


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "robustrns").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=60)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "robustrns" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no package source under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    import numpy
    import robustrns

    if Path(robustrns.__file__).resolve().parent != (SRC / "robustrns").resolve():
        print(f"error: robustrns imported from {robustrns.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    baseline = json.loads((HERE / "baseline.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    checks = workloads.Checks()

    if args.trace:
        passes, tracer, wall_s, overhead, cache = traced_run(workload, args.seconds, checks)
    else:
        import_s = statistics.median(time_import() for _ in range(IMPORT_REPS))
        reps = SETUP_REPS.get(workload.name, DEFAULT_SETUP_REPS)
        build_s = statistics.median(timed_build(workload)[1] for _ in range(reps))
        setup_s = import_s + build_s
        passes, _ = run_passes(workload, args.seconds, MIN_PASSES)
    workload.check(passes[0], checks, baseline)
    defects = workloads.known_defect_probes(checks)
    op_failures = sum(p.mismatches for p in passes[1:])
    ops = sum(pass_ops(p) for p in passes)
    summaries = [pass_summary(p) for p in passes[1:]]

    if args.trace:
        values = per_layer(tracer, wall_s, overhead, cache, sum(defects.values()))
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz")
        wanted = spec["per_layer"]
    else:
        values = end_to_end(summaries, draw_latencies_us(passes[1:]), setup_s, checks)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values))}")

    manifest = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "sizes": workload.sizes(),
        "setup": {"import_s": import_s, "build_s": build_s} if not args.trace else None,
        "passes": len(passes),
        "latency_draws": len(passes[0].latencies_ns),
        "latency_samples": sum(len(p.latencies_ns) for p in passes[1:]),
        "per_pass": summaries,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "known_defect_attempted": checks.defect_attempted,
                   "known_defect_failed": checks.defect_failed, "known_defects": defects},
        "operations": {"attempted": ops, "failed": op_failures},
    }
    OUT.mkdir(exist_ok=True)
    name = f"manifest-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(manifest, indent=2) + "\n")
    for message in checks.messages:
        print(message)
    print("manifest " + json.dumps(manifest))
    failed = checks.failed + op_failures
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted + ops,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
