"""Command-line frontend: analysis, reconstruction, simulation, verification, export.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 strict oracle
mismatch.  All commands are non-interactive and deterministic for a given seed;
every file written with ``--out`` gets a sibling ``<out>.manifest.json`` that
records the fully resolved configuration.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import asdict, fields
from decimal import Context, Decimal, ROUND_HALF_UP
from fractions import Fraction
from pathlib import Path

from . import __version__
from .oracle import (
    exhaustive_fold_search,
    falsifier_report,
    ladder_depths_definitional,
    level_exactness_scan,
    range_falsifier,
)
from .multi_mod import cascade_bounds, cascade_reconstruct, cascade_spec
from .simkit import TrialConfig, run_boundary_probe, run_comparison, run_tau_sweep
from .two_mod import (
    RemainderObservation,
    TwoModSystem,
    delta_chain,
    ladder_depths,
    level_context,
    level_table,
    sigma_chain,
    solve_level,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3

_SIX = Context(prec=6, rounding=ROUND_HALF_UP)


class UsageError(Exception):
    pass


def fmt(x) -> str:
    """Serialize a number with six significant digits, halves rounding up."""
    if isinstance(x, bool):
        raise TypeError("fmt: bool")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        x = _float(x, "value")
    if x == 0:
        return "0"
    return format(_SIX.create_decimal(repr(float(x))).normalize(), "f")


def _json_scalar(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else _float(x, "value")
    return x


def _float(x, what: str) -> float:
    """``x`` as the float it is reported as; a value past the float range is
    refused by name instead of raising ``OverflowError``."""
    try:
        return float(x)
    except OverflowError:
        raise UsageError(f"{what} {x} is past the float range") from None


# ---------------------------------------------------------------- manifests

def _write_manifest(out: Path, command: str, config: dict, seed) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "artifact_version": __version__,
        "outputs": [str(out)],
    }
    path = Path(f"{out}.manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _emit(text: str, out: str | None, command: str, config: dict, seed) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        path.write_text(text)
        _write_manifest(path, command, config, seed)


# ---------------------------------------------------------------- levels

def _delta_baseline(system: TwoModSystem):
    ch = delta_chain(system)
    m1, m2 = system.m1, system.m2
    d1 = ch.delta(1)
    base = m1 * (1 + (m2 // m1) * (m1 // d1))
    rows = [(1, d1, Fraction(d1, 4), base, base)]
    lower = base
    for i in range(2, ch.g + 1):
        di = ch.delta(i)
        lower *= ch.delta(i - 1) // di
        upper = max(m1 * (m2 // di), m2 * (m1 // di))
        rows.append((i, di, Fraction(di, 4), lower, upper))
    return rows


def cmd_levels(args) -> int:
    system = TwoModSystem.from_moduli(args.m1, args.m2)
    rows = level_table(system)
    baseline = _delta_baseline(system)
    config = {"m1": args.m1, "m2": args.m2}
    if args.format == "json":
        payload = {
            "system": {"m1": args.m1, "m2": args.m2, "m": system.m,
                       "gamma1": system.gamma1, "gamma2": system.gamma2,
                       "lcm": system.lcm},
            "levels": [
                {"j": r.j, "sigma": r.sigma, "robustness_bound": _json_scalar(r.robustness_bound),
                 "depth1": r.depth1, "depth2": r.depth2, "dynamic_range": r.dynamic_range}
                for r in rows
            ],
            "delta_baseline": [
                {"index": i, "delta": d, "robustness_bound": _json_scalar(b),
                 "range_low": lo, "range_high": hi}
                for i, d, b, lo, hi in baseline
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out, "levels", config, None)
        return EXIT_OK
    buf = io.StringIO()
    if args.format == "csv":
        buf.write("j,sigma,robustness_bound,depth1,depth2,dynamic_range\n")
        for r in rows:
            buf.write(f"{r.j},{r.sigma},{fmt(r.robustness_bound)},"
                      f"{r.depth1},{r.depth2},{r.dynamic_range}\n")
    else:
        buf.write(f"system m1={args.m1} m2={args.m2}: m={system.m} "
                  f"gamma1={system.gamma1} gamma2={system.gamma2} lcm={system.lcm}\n")
        buf.write("level sigma bound depth1 depth2 dynamic_range\n")
        for r in rows:
            buf.write(f"{r.j} {r.sigma} {fmt(r.robustness_bound)} "
                      f"{r.depth1} {r.depth2} {r.dynamic_range}\n")
        buf.write("delta baseline:\n")
        buf.write("index delta bound range_low range_high\n")
        for i, d, b, lo, hi in baseline:
            buf.write(f"{i} {d} {fmt(b)} {lo} {hi}\n")
    _emit(buf.getvalue(), args.out, "levels", config, None)
    return EXIT_OK


# ---------------------------------------------------------------- reconstruct

def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part.strip()) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"could not parse {what} {text!r} as integers") from exc


def _parse_number_list(text: str, what: str) -> list[Decimal]:
    try:
        return [Decimal(part.strip()) for part in text.split(",")]
    except Exception as exc:
        raise UsageError(f"could not parse {what} {text!r} as decimals") from exc


def cmd_reconstruct(args) -> int:
    if args.groups:
        return _reconstruct_cascade(args)
    if not args.moduli:
        raise UsageError("reconstruct: need --moduli or --groups")
    if args.real:
        if args.m is None:
            raise UsageError("reconstruct: real mode needs --m <decimal>")
        m = Decimal(args.m)
        moduli = _parse_number_list(args.moduli, "--moduli")
        if len(moduli) != 2:
            raise UsageError("reconstruct: exactly two moduli")
        gammas = []
        for mi in moduli:
            g = mi / m
            if g != g.to_integral_value():
                raise UsageError(f"modulus {mi} is not an integer multiple of m={m}")
            gammas.append(int(g))
        system = TwoModSystem.real(float(m), gammas[0], gammas[1])
        rs = _parse_number_list(args.remainders, "--remainders")
        if len(rs) != 2:
            raise UsageError("reconstruct: exactly two remainders")
        obs = RemainderObservation(float(rs[0]), float(rs[1]))
    else:
        moduli = _parse_int_list(args.moduli, "--moduli")
        if len(moduli) != 2:
            raise UsageError("reconstruct: exactly two moduli")
        system = TwoModSystem.from_moduli(moduli[0], moduli[1])
        rs = _parse_int_list(args.remainders, "--remainders")
        if len(rs) != 2:
            raise UsageError("reconstruct: exactly two remainders")
        for r, mi in zip(rs, (system.m1, system.m2)):
            if not 0 <= r < mi:
                raise UsageError(f"remainder {r} out of range [0, {mi})")
        obs = RemainderObservation(rs[0], rs[1])
    level = args.level if args.level is not None else sigma_chain(system).levels
    sol = solve_level(system, obs, level)
    payload = {
        "mode": "two_mod",
        "moduli": [_json_scalar(system.m1), _json_scalar(system.m2)],
        "level": level,
        "n_hat": [sol.n1, sol.n2],
        "N_hat": _json_scalar(sol.estimate),
        "mean": _float(sol.mean, "reconstruct: mean"),
    }
    exit_code = EXIT_OK
    if args.oracle:
        if system.is_real:
            raise UsageError("reconstruct: --oracle needs an integer system")
        bound = args.oracle_bound
        if bound is None:
            bound = level_context(system, level).dynamic_range
        found = exhaustive_fold_search(system, obs, bound)
        agrees = (found.n1, found.n2) == (sol.n1, sol.n2)
        payload["oracle"] = {
            "search_bound": bound,
            "folds": [found.n1, found.n2],
            "value": found.value,
            "agrees": agrees,
        }
        if args.strict and not agrees:
            exit_code = EXIT_ORACLE
    config = {k: getattr(args, k) for k in
              ("moduli", "remainders", "level", "real", "m", "oracle", "oracle_bound", "strict")}
    _emit(json.dumps(payload, indent=2) + "\n", args.out, "reconstruct", config, None)
    return exit_code


def _reconstruct_cascade(args) -> int:
    if args.real:
        raise UsageError("reconstruct: cascade mode is integer-valued")
    parts = args.groups.split("|")
    if len(parts) != 2:
        raise UsageError("reconstruct: --groups needs two |-separated lists")
    g1 = _parse_int_list(parts[0], "--groups")
    g2 = _parse_int_list(parts[1], "--groups")
    rs = _parse_int_list(args.remainders, "--remainders")
    if len(rs) != len(g1) + len(g2):
        raise UsageError(
            f"reconstruct: expected {len(g1) + len(g2)} remainders, got {len(rs)}")
    level = args.level if args.level is not None else 1
    spec = cascade_spec(g1, g2, level)
    for r, mk in zip(rs, g1 + g2):
        if not 0 <= r < mk:
            raise UsageError(f"remainder {r} out of range [0, {mk})")
    sol = cascade_reconstruct(spec, rs[: len(g1)], rs[len(g1):])
    rng_, tau = cascade_bounds(spec)
    payload = {
        "mode": "cascade",
        "groups": [list(g1), list(g2)],
        "level": level,
        "h": [list(sol.h1), list(sol.h2)],
        "l": [sol.l1, sol.l2],
        "n_hat": list(sol.foldings1) + list(sol.foldings2),
        "group_estimates": list(sol.group_estimates),
        "N_hat": sol.estimate,
        "mean": _float(sol.mean, "reconstruct: mean"),
        "dynamic_range": rng_,
        "tau_bound": _json_scalar(tau),
        "overlapping": spec.overlapping,
    }
    config = {"groups": args.groups, "remainders": args.remainders, "level": level}
    _emit(json.dumps(payload, indent=2) + "\n", args.out, "reconstruct", config, None)
    return EXIT_OK


# ---------------------------------------------------------------- simulate

_CONFIG_KEYS = {
    "m1", "m2", "m", "gammas", "level", "tau", "trials", "seed", "value_mode",
    "error_mode", "range_mode", "groups", "neighbors", "compare",
}


def _parse_span(text: str, what: str, integer: bool = False) -> list:
    """Either a comma list or an inclusive start:stop[:step] span; integer
    lists and spans are parsed with ``int``, so they stay exact past 2^53."""
    if isinstance(text, (list, tuple)):
        return [int(v) if integer else float(v) for v in text]
    parse = int if integer else float
    if ":" not in text:
        return [parse(p) for p in text.split(",")]
    parts = text.split(":")
    if integer and len(parts) == 2:
        parts.append("1")
    if len(parts) != 3:
        raise UsageError(f"could not parse {what} span {text!r}")
    start, stop, step = (parse(p) for p in parts)
    if step <= 0:
        raise UsageError(f"{what}: step must be positive")
    if integer:
        return list(range(start, stop + 1, step))
    count = int((stop - start) / step + 1e-9) + 1
    return [start + i * step for i in range(count)]


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text())
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        cfg.update(raw)
    for key in ("m1", "m2", "level", "trials", "seed", "value_mode", "error_mode", "range_mode"):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    if args.tau is not None:
        cfg["tau"] = args.tau
    if args.groups is not None:
        cfg["groups"] = args.groups
    if args.probe_boundary is not None:
        cfg["neighbors"] = args.probe_boundary
    if args.compare:
        cfg["compare"] = True
    defaults = {f.name: f.default for f in fields(TrialConfig)}
    cfg.setdefault("trials", defaults["trials_per_point"])
    for key in ("seed", "value_mode", "error_mode", "range_mode"):
        cfg.setdefault(key, defaults[key])
    return cfg


def _sweep_csv(results) -> str:
    buf = io.StringIO()
    multi = len(results) > 1
    header = "x,mean_abs_error,mean_rel_error,failure_rate,clamped_fraction"
    buf.write(("series," if multi else "") + header + "\n")
    for res in results:
        for row in res.rows:
            cells = [fmt(row.x), fmt(row.mean_abs_error), fmt(row.mean_rel_error),
                     fmt(row.failure_rate), fmt(row.clamped_fraction)]
            if multi:
                cells.insert(0, res.series)
            buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def _emit_sweep(results, args, cfg, seed) -> None:
    if args.format == "json":
        payload = [
            {"series": res.series, "rows": [asdict(row) for row in res.rows]}
            for res in results
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.out, "simulate", cfg, seed)
    else:
        _emit(_sweep_csv(results), args.out, "simulate", cfg, seed)


def _parse_groups(value) -> tuple[list[int], list[int]]:
    if isinstance(value, str):
        parts = value.split("|")
        if len(parts) != 2:
            raise UsageError("groups: need two |-separated moduli lists")
        return _parse_int_list(parts[0], "groups"), _parse_int_list(parts[1], "groups")
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return [int(v) for v in value[0]], [int(v) for v in value[1]]
    raise UsageError("groups: need two moduli lists")


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    seed = int(cfg["seed"])
    trials = int(cfg["trials"])
    if cfg.get("compare"):
        if "groups" not in cfg:
            raise UsageError("simulate --compare needs groups")
        g1, g2 = _parse_groups(cfg["groups"])
        level = int(cfg.get("level", 1))
        spec = cascade_spec(g1, g2, level)
        taus = _parse_span(cfg.get("tau", "0:25:1"), "tau")
        results = run_comparison(spec, taus, trials, seed,
                                 error_mode=cfg["error_mode"],
                                 range_mode=cfg["range_mode"])
        _emit_sweep(results, args, cfg, seed)
        return EXIT_OK
    if "groups" in cfg:
        g1, g2 = _parse_groups(cfg["groups"])
        spec = cascade_spec(g1, g2, int(cfg.get("level", 1)))
        config = TrialConfig(
            cascade=spec, level=spec.level,
            tau_values=tuple(_parse_span(cfg.get("tau", "0:10:1"), "tau")),
            trials_per_point=trials, seed=seed,
            error_mode=cfg["error_mode"], range_mode=cfg["range_mode"])
        _emit_sweep([run_tau_sweep(config)], args, cfg, seed)
        return EXIT_OK
    if cfg["value_mode"] == "real":
        if "m" not in cfg or "gammas" not in cfg:
            raise UsageError("simulate: real mode needs m and gammas in the config")
        system = TwoModSystem.real(float(cfg["m"]), int(cfg["gammas"][0]), int(cfg["gammas"][1]))
        for key, gamma in (("m1", system.gamma1), ("m2", system.gamma2)):
            if key in cfg and Decimal(str(cfg[key])) != Decimal(str(cfg["m"])) * gamma:
                raise UsageError(f"simulate: {key}={cfg[key]} is not m*gamma = {cfg['m']}*{gamma}")
    elif "m1" not in cfg or "m2" not in cfg:
        raise UsageError("simulate: need --m1/--m2, groups, or a config file")
    else:
        system = TwoModSystem.from_moduli(int(cfg["m1"]), int(cfg["m2"]))
    level = int(cfg.get("level", sigma_chain(system).levels))
    if "neighbors" in cfg:
        neighbors = _parse_span(cfg["neighbors"], "neighbors", integer=True)
        result = run_boundary_probe(system, level, neighbors, trials, seed,
                                    range_mode=cfg["range_mode"])
        _emit_sweep([result], args, cfg, seed)
        return EXIT_OK
    if "tau" not in cfg:
        raise UsageError("simulate: need tau values (or neighbors for a probe)")
    config = TrialConfig(
        system=system, level=level,
        tau_values=tuple(_parse_span(cfg["tau"], "tau")),
        trials_per_point=trials, seed=seed,
        value_mode=cfg["value_mode"], error_mode=cfg["error_mode"],
        range_mode=cfg["range_mode"])
    _emit_sweep([run_tau_sweep(config)], args, cfg, seed)
    return EXIT_OK


# ---------------------------------------------------------------- verify

def _random_coprime_pair(rng, gamma_max: int) -> tuple[int, int]:
    import math as _math
    while True:
        g1 = int(rng.integers(2, gamma_max))
        g2 = int(rng.integers(g1 + 1, gamma_max + 1))
        if _math.gcd(g1, g2) == 1:
            return g1, g2


def cmd_verify(args) -> int:
    import numpy as np

    failures = 0

    def report(ok: bool, text: str):
        nonlocal failures
        print(("PASS: " if ok else "FAIL: ") + text)
        if not ok:
            failures += 1

    ran_any = False
    if args.m1 is not None and args.m2 is not None:
        system = TwoModSystem.from_moduli(args.m1, args.m2)
        levels = sigma_chain(system).levels
        for j in range(1, levels + 1):
            closed = ladder_depths(system, j)
            definitional = ladder_depths_definitional(system, j)
            report(closed == definitional,
                   f"ladder depths at level {j}: closed form {closed} vs definition {definitional}")
        ran_any = True
        if args.exhaustive:
            for j in range(1, levels + 1):
                scan = level_exactness_scan(system, j)
                report(scan.ok,
                       f"exhaustive level {j}: {scan.checked} cases, "
                       f"{scan.fold_failures} fold failures, {scan.estimate_failures} estimate failures")
        if args.falsify:
            for j in range(1, levels + 1):
                rep = falsifier_report(system, j)
                inst = range_falsifier(system, j)
                report(rep.agrees, f"tightness at level {j}: value {inst.value} misfolds as required")
    if args.random_systems:
        rng = np.random.default_rng(args.seed or 0)
        for _ in range(args.random_systems):
            g1, g2 = _random_coprime_pair(rng, args.gamma_max)
            system = TwoModSystem(1, g1, g2)
            ok = True
            for j in range(1, sigma_chain(system).levels + 1):
                if ladder_depths(system, j) != ladder_depths_definitional(system, j):
                    ok = False
            report(ok, f"ladder depths agree for cofactors ({g1}, {g2})")
        ran_any = True
    if not ran_any:
        raise UsageError("verify: give --m1/--m2 and/or --random-systems")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# ---------------------------------------------------------------- plane

def cmd_plane(args) -> int:
    system = TwoModSystem.from_moduli(args.m1, args.m2)
    if args.max > system.lcm:
        raise UsageError(f"plane: --max {args.max} exceeds the lcm {system.lcm}")
    config = {"m1": args.m1, "m2": args.m2, "max": args.max}
    if args.format == "json":
        rows = [{"N": n, "r1": n % system.m1, "r2": n % system.m2}
                for n in range(args.max)]
        _emit(json.dumps(rows) + "\n", args.out, "plane", config, None)
        return EXIT_OK
    buf = io.StringIO()
    buf.write("N,r1,r2\n")
    for n in range(args.max):
        buf.write(f"{n},{n % system.m1},{n % system.m2}\n")
    _emit(buf.getvalue(), args.out, "plane", config, None)
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed")
    common.add_argument("--out", type=str, default=None, help="output file path")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="override the command's default output format")

    parser = argparse.ArgumentParser(
        prog="robustrns",
        description="Robust reconstruction from erroneous remainders in residue number systems",
    )
    parser.add_argument("--version", action="version", version=f"robustrns {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("levels", parents=[common],
                       help="print the range/error trade-off table")
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="recover fold integers and the value estimate")
    p.add_argument("--moduli", type=str)
    p.add_argument("--groups", type=str, help='cascade groups, e.g. "120,300|210,490"')
    p.add_argument("--remainders", type=str, required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--real", action="store_true")
    p.add_argument("--m", type=str, default=None, help="real-mode common factor (decimal)")
    p.add_argument("--oracle", action="store_true", help="cross-check with the exhaustive search")
    p.add_argument("--oracle-bound", type=int, default=None)
    p.add_argument("--strict", action="store_true", help="exit 3 on oracle disagreement")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo sweeps, probes and comparisons (CSV)")
    p.add_argument("--m1", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--level", type=int)
    p.add_argument("--tau", type=str, help='error bounds: "0:13:0.5" or comma list')
    p.add_argument("--trials", type=int)
    p.add_argument("--probe-boundary", type=str, help='values to probe: "465:470"')
    p.add_argument("--groups", type=str)
    p.add_argument("--compare", action="store_true")
    p.add_argument("--config", type=str, help="JSON config file")
    p.add_argument("--value-mode", dest="value_mode", choices=("integer", "real"))
    p.add_argument("--error-mode", dest="error_mode", choices=("real", "integer"))
    p.add_argument("--range-mode", dest="range_mode", choices=("allow", "clamp"))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[common],
                       help="run oracle equivalence and tightness checks")
    p.add_argument("--m1", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--falsify", action="store_true")
    p.add_argument("--random-systems", type=int, default=0)
    p.add_argument("--gamma-max", type=int, default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plane", parents=[common],
                       help="dump (N, r1, r2) rows for external plotting")
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=cmd_plane)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
