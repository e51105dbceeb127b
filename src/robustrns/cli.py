"""Command-line frontend: analysis, reconstruction, simulation, verification, export.

The commands parse their arguments, call the library and print its results;
they compute nothing of their own.  Each subcommand takes only the flags it
reads (``--seed`` for ``simulate`` and ``verify``; ``--out`` for ``levels``,
``reconstruct``, ``simulate`` and ``plane``; ``--format`` for ``levels``,
``simulate`` and ``plane``), so any other flag is a usage error.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 strict oracle
mismatch.  All commands are non-interactive and deterministic for a given seed;
every file written with ``--out`` gets a sibling ``<out>.manifest.json`` that
records the fully resolved configuration.

numpy loads with ``oracle`` and ``simkit``, so the commands import those on
first use (``simulate``, ``verify`` and ``reconstruct --oracle``) and call
their functions as module attributes; ``levels``, ``plane`` and
``reconstruct`` without ``--oracle`` run on the pure-Python exact core.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import platform
import sys
from dataclasses import asdict, fields
from decimal import Context, Decimal, InvalidOperation, ROUND_HALF_UP
from fractions import Fraction
from functools import partial
from importlib import import_module
from pathlib import Path

from . import __version__
from .multi_mod import cascade_bounds, cascade_reconstruct, cascade_spec
from .two_mod import (
    RemainderObservation,
    TwoModSystem,
    delta_baseline,
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


# the oracle and harness names the commands use, readable as ``cli.<name>``
_LAZY = {name: "oracle" for name in (
    "exhaustive_fold_search", "falsifier_report", "ladder_depths_definitional",
    "level_exactness_scan", "range_falsifier")}
_LAZY.update({name: "simkit" for name in ("TrialConfig", "run_comparison", "run_tau_sweep")})


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__package__}.{_LAZY[name]}"), name)


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
    refused by name and by its size (it has over 300 digits) instead of
    raising ``OverflowError``."""
    try:
        return float(x)
    except OverflowError:
        digits = len(str(abs(x.numerator)))
        size = (f"{digits}-digit integer" if x.denominator == 1
                else f"fraction with a {digits}-digit numerator")
        raise UsageError(f"{what} (a {size}) is past the float range") from None


# ---------------------------------------------------------------- manifests

def _emit(text: str, out: str | None, command: str, config: dict, seed, **versions) -> None:
    """Print ``text``, or write it to ``out`` next to its manifest."""
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    path.write_text(text)
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "artifact_version": __version__,
        "outputs": [str(path)],
        **versions,
    }
    Path(f"{path}.manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- levels

def cmd_levels(args) -> int:
    system = TwoModSystem.from_moduli(args.m1, args.m2)
    rows = level_table(system)
    baseline = delta_baseline(system)
    buf = io.StringIO()
    if args.format == "json":
        json.dump({
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
        }, buf, indent=2)
        buf.write("\n")
    elif args.format == "csv":
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
    _emit(buf.getvalue(), args.out, "levels", {"m1": args.m1, "m2": args.m2}, None)
    return EXIT_OK


# ---------------------------------------------------------------- reconstruct

def _parse_list(text: str, what: str, kind=int) -> list:
    """A comma list of ``kind`` values (``int`` or ``Decimal``)."""
    try:
        return [kind(part.strip()) for part in text.split(",")]
    except (ValueError, InvalidOperation):
        raise UsageError(f"could not parse {what} {text!r} as {kind.__name__} values") from None


def _check_remainders(rs: list, moduli: list) -> None:
    for r, mi in zip(rs, moduli):
        if not 0 <= r < mi:
            raise UsageError(f"remainder {r} out of range [0, {mi})")


def cmd_reconstruct(args) -> int:
    if not args.oracle and (args.strict or args.oracle_bound is not None):
        raise UsageError("reconstruct: --strict and --oracle-bound need --oracle")
    if args.real != (args.m is not None):
        raise UsageError("reconstruct: real mode takes --real with --m <decimal>")
    if args.groups:
        if args.moduli or args.real or args.oracle:
            raise UsageError("reconstruct: cascade mode is integer-valued and takes no "
                             "--moduli or --oracle")
        return _reconstruct_cascade(args)
    if not args.moduli:
        raise UsageError("reconstruct: need --moduli or --groups")
    kind = Decimal if args.real else int
    moduli = _parse_list(args.moduli, "--moduli", kind)
    rs = _parse_list(args.remainders, "--remainders", kind)
    for what, values in (("moduli", moduli), ("remainders", rs)):
        if len(values) != 2:
            raise UsageError(f"reconstruct: exactly two {what}")
    if args.real:
        ms = _parse_list(args.m, "--m", Decimal)
        if len(ms) != 1 or not ms[0].is_finite() or ms[0] <= 0:
            raise UsageError(f"reconstruct: --m {args.m!r} is not one positive decimal")
        m = ms[0]
        gammas = [mi / m for mi in moduli]
        for mi, g in zip(moduli, gammas):
            if g != g.to_integral_value():
                raise UsageError(f"modulus {mi} is not an integer multiple of m={m}")
        system = TwoModSystem.real(float(m), int(gammas[0]), int(gammas[1]))
        obs = RemainderObservation(float(rs[0]), float(rs[1]))
    else:
        system = TwoModSystem.from_moduli(*moduli)
        _check_remainders(rs, moduli)
        obs = RemainderObservation(*rs)
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
        from . import oracle
        found = oracle.exhaustive_fold_search(system, obs, bound)
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
    g1, g2 = _parse_groups(args.groups)
    rs = _parse_list(args.remainders, "--remainders")
    if len(rs) != len(g1) + len(g2):
        raise UsageError(
            f"reconstruct: expected {len(g1) + len(g2)} remainders, got {len(rs)}")
    level = args.level if args.level is not None else 1
    spec = cascade_spec(g1, g2, level)
    _check_remainders(rs, g1 + g2)
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_INTEGER = (_is_int, "an integer")
_NUMBER = (lambda v: _is_int(v) or isinstance(v, float), "a number")
# the check and JSON kind of each scalar config field; m1/m2 are numbers in real mode
_KINDS = {"level": _INTEGER, "trials": _INTEGER, "seed": _INTEGER, "m": _NUMBER,
          "gammas": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)),
                     "two integers"),
          "compare": (lambda v: isinstance(v, bool), "true or false"),
          "value_mode": (lambda v: v in ("integer", "real"), '"integer" or "real"')}


# Points a start:stop[:step] span expands to at most, counted before any is built.
_SPAN_POINTS_MAX = 1 << 20


def _parse_span(text, what: str, integer: bool = False) -> list:
    """Either a comma list or an inclusive start:stop[:step] span; integer
    lists and spans are parsed with ``int``, so they stay exact past 2^53.
    A config may also give a JSON list of values, or a bare value, which is
    the one-value list.  A list or span without values is refused, and so is
    a span past ``_SPAN_POINTS_MAX`` points."""
    parse = int if integer else float
    is_kind, kind = _INTEGER if integer else _NUMBER
    if is_kind(text):
        text = [text]
    if isinstance(text, list):
        if not text or not all(map(is_kind, text)):
            raise UsageError(f"{what}: need a list, each element {kind}, got {text!r}")
        return [v if integer else _float(v, what) for v in text]
    if not isinstance(text, str):
        raise UsageError(f"{what}: need a list, a span or a number, got {text!r}")
    if ":" not in text:
        return _parse_list(text, what, parse)
    parts = text.split(":")
    if integer and len(parts) == 2:
        parts.append("1")
    if len(parts) != 3:
        raise UsageError(f"could not parse {what} span {text!r}")
    start, stop, step = (parse(p) for p in parts)
    if not (step > 0 and stop >= start and (integer or math.isfinite((stop - start) / step))):
        raise UsageError(f"{what}: span {text!r} needs finite ends and step count, start <= "
                         "stop and step > 0")
    count = (stop - start) // step + 1 if integer else int((stop - start) / step + 1e-9) + 1
    if count > _SPAN_POINTS_MAX:
        raise UsageError(f"{what}: span {text!r} has {count} points, past the limit of "
                         f"{_SPAN_POINTS_MAX}")
    return [start + i * step for i in range(count)]


def _load_config(args) -> dict:
    """The flags over the config file over the library's defaults, each field of its JSON kind."""
    cfg: dict = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text())
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        cfg.update(raw)
    cfg.update({k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None})
    from . import simkit
    defaults = {f.name: f.default for f in fields(simkit.TrialConfig)}
    cfg.setdefault("trials", defaults["trials_per_point"])
    for key in ("seed", "error_mode", "range_mode"):
        cfg.setdefault(key, defaults[key])
    cfg.setdefault("value_mode", "integer")  # it picks the keys that build the system
    if "groups" in cfg:  # a cascade's error bounds; a two-modulus sweep names its own
        cfg.setdefault("tau", "0:25:1" if cfg.get("compare") else "0:10:1")
    modulus = _NUMBER if cfg["value_mode"] == "real" else _INTEGER
    for key, (is_kind, kind) in {**_KINDS, "m1": modulus, "m2": modulus}.items():
        if key in cfg and not is_kind(cfg[key]):
            raise UsageError(f"{key}: {cfg[key]!r} is not {kind}")
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


def _parse_groups(value) -> list[list[int]]:
    """Two moduli lists, as ``"a,b|c,d"`` or as two JSON lists of ints."""
    if isinstance(value, str):
        value = [_parse_list(group, "groups") for group in value.split("|")]
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(g, list) and all(map(_is_int, g)) for g in value)):
        return value
    raise UsageError(f"groups: need two lists of integer moduli, got {value!r}")


def cmd_simulate(args) -> int:
    from . import simkit
    cfg = _load_config(args)
    config = _trial_config(cfg)
    results = (simkit.run_comparison(config) if cfg.get("compare")
               else [simkit.run_tau_sweep(config)])
    if args.format == "json":
        payload = [
            {"series": res.series, "rows": [asdict(row) for row in res.rows]}
            for res in results
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _sweep_csv(results)
    # the sweep as run, so that the manifest's config reruns it byte for byte
    cfg.update(level=config.level, tau=list(config.tau_values))
    if config.probe:
        cfg["neighbors"] = list(config.probe)
    _emit(text, args.out, "simulate", cfg, config.seed,
          python=platform.python_version(), numpy=import_module("numpy").__version__)
    return EXIT_OK


def _system(cfg: dict) -> TwoModSystem | None:
    """The two-modulus system ``cfg`` gives, if any: ``m1`` and ``m2``, or in
    real mode ``m`` and ``gammas``, which ``m1``/``m2`` must then match."""
    if cfg["value_mode"] != "real":
        given = [key for key in ("m1", "m2", "m", "gammas") if key in cfg]
        if given and given != ["m1", "m2"]:
            raise UsageError(f"simulate: integer systems take only m1 and m2, got {given}")
        return TwoModSystem.from_moduli(cfg["m1"], cfg["m2"]) if given else None
    if "m" not in cfg or "gammas" not in cfg:
        raise UsageError("simulate: real mode needs m and gammas in the config")
    system = TwoModSystem.real(_float(cfg["m"], "m"), *cfg["gammas"])
    for key, gamma in (("m1", system.gamma1), ("m2", system.gamma2)):
        if key in cfg and Decimal(str(cfg[key])) != Decimal(str(cfg["m"])) * gamma:
            raise UsageError(f"simulate: {key}={cfg[key]} is not m*gamma = {cfg['m']}*{gamma}")
    return system


def _trial_config(cfg: dict):
    """The sweep of ``cfg``; ``TrialConfig`` refuses what it cannot run, such
    as a system next to groups, or a probe on a cascade."""
    groups = _parse_groups(cfg["groups"]) if "groups" in cfg else None
    cascade = groups and cascade_spec(*groups, cfg.get("level", 1))
    taus = _parse_span(cfg["tau"], "tau") if "tau" in cfg else []
    probe = _parse_span(cfg["neighbors"], "neighbors", integer=True) if "neighbors" in cfg else []
    from . import simkit
    return simkit.TrialConfig(
        system=_system(cfg), cascade=cascade, level=cfg.get("level"),
        tau_values=tuple(taus), probe=tuple(probe), trials_per_point=cfg["trials"],
        seed=cfg["seed"], error_mode=cfg["error_mode"], range_mode=cfg["range_mode"])


# ---------------------------------------------------------------- verify

def _random_coprime_pair(rng, gamma_max: int) -> tuple[int, int]:
    while True:
        g1 = int(rng.integers(2, gamma_max))
        g2 = int(rng.integers(g1 + 1, gamma_max + 1))
        if math.gcd(g1, g2) == 1:
            return g1, g2


def _depth_pair(system: TwoModSystem, j: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Closed-form and definitional ladder depths at level ``j``."""
    from . import oracle
    return ladder_depths(system, j), oracle.ladder_depths_definitional(system, j)


def _falsified(system: TwoModSystem, j: int):
    """The falsifier's report and its adversarial instance at level ``j``."""
    from . import oracle
    return oracle.falsifier_report(system, j), oracle.range_falsifier(system, j)


def _level_major(tasks: list[list]) -> list[list]:
    """Each task's results, one per call; level 1 of every task runs before
    level 2 of any.  Each oracle sizes its work when called and refuses past
    its limit, so a task that would refuse does so at its first call, before
    the other tasks' deeper levels, and the first refusal is the one the
    tasks' order gives."""
    results = [[] for _ in tasks]
    for j in range(max(map(len, tasks), default=0)):
        for calls, done in zip(tasks, results):
            if j < len(calls):
                done.append(calls[j]())
    return results


def cmd_verify(args) -> int:
    if (args.m1 is None) != (args.m2 is None):
        raise UsageError("verify: give both --m1 and --m2")
    if args.m1 is None and not args.random_systems:
        raise UsageError("verify: give --m1/--m2 and/or --random-systems")
    if args.m1 is None and (args.exhaustive or args.falsify):
        raise UsageError("verify: --exhaustive and --falsify need --m1/--m2")
    if args.random_systems and not 3 <= args.gamma_max < 2**63:
        raise UsageError("verify: --gamma-max must be at least 3 (cofactors 2 and 3) and below "
                         "2^63 (the int64 limit of the cofactor draws)")
    from . import oracle
    drawn = []
    if args.random_systems:
        import numpy as np
        rng = np.random.default_rng(args.seed or 0)
        drawn = [TwoModSystem(1, *_random_coprime_pair(rng, args.gamma_max))
                 for _ in range(args.random_systems)]

    tasks = []  # one call per level: depths, scans, falsifiers, then each drawn system's depths
    if args.m1 is not None:
        system = TwoModSystem.from_moduli(args.m1, args.m2)
        levels = range(1, sigma_chain(system).levels + 1)
        tasks.append([partial(_depth_pair, system, j) for j in levels])
        if args.exhaustive:
            tasks.append([partial(oracle.level_exactness_scan, system, j) for j in levels])
        if args.falsify:
            tasks.append([partial(_falsified, system, j) for j in levels])
    for s in drawn:
        tasks.append([partial(_depth_pair, s, j) for j in range(1, sigma_chain(s).levels + 1)])
    results = iter(_level_major(tasks))
    checks = []  # (ok, text), printed once every check has run, so a refusal prints nothing
    if args.m1 is not None:
        for j, (closed, definitional) in enumerate(next(results), 1):
            checks.append((closed == definitional, f"ladder depths at level {j}: closed form "
                           f"{closed} vs definition {definitional}"))
        if args.exhaustive:
            for j, scan in enumerate(next(results), 1):
                checks.append((scan.ok, f"exhaustive level {j}: {scan.checked} cases, "
                               f"{scan.fold_failures} fold failures, "
                               f"{scan.estimate_failures} estimate failures"))
        if args.falsify:
            for j, (rep, inst) in enumerate(next(results), 1):
                checks.append((rep.agrees,
                               f"tightness at level {j}: value {inst.value} misfolds as required"))
    for s, pairs in zip(drawn, results):
        checks.append((all(closed == definitional for closed, definitional in pairs),
                       f"ladder depths agree for cofactors ({s.gamma1}, {s.gamma2})"))
    for ok, text in checks:
        print(("PASS: " if ok else "FAIL: ") + text)
    return EXIT_OK if all(ok for ok, _ in checks) else EXIT_VERIFY


# ---------------------------------------------------------------- plane

# Rows ``plane`` builds in memory before it prints any: about 230 MB as CSV
# and 410 MB as JSON at the limit.
_PLANE_ROWS_MAX = 1 << 20


def cmd_plane(args) -> int:
    system = TwoModSystem.from_moduli(args.m1, args.m2)
    if args.max > system.lcm:
        raise UsageError(f"plane: --max {args.max} exceeds the lcm {system.lcm}")
    if args.max > _PLANE_ROWS_MAX:
        raise UsageError(f"plane: --max {args.max} rows are past the limit of {_PLANE_ROWS_MAX}")
    rows = [(n, n % system.m1, n % system.m2) for n in range(args.max)]
    if args.format == "json":
        text = json.dumps([{"N": n, "r1": r1, "r2": r2} for n, r1, r2 in rows]) + "\n"
    else:
        text = "N,r1,r2\n" + "".join(f"{n},{r1},{r2}\n" for n, r1, r2 in rows)
    _emit(text, args.out, "plane", {"m1": args.m1, "m2": args.m2, "max": args.max}, None)
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _nonnegative_int(text: str) -> int:
    """A nonnegative integer flag value; argparse refuses anything else by the flag's name."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"need a nonnegative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    # one parent parser per shared flag; each subcommand takes the ones it reads
    seed, out, form = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    seed.add_argument("--seed", type=_nonnegative_int, default=None, help="RNG seed")
    out.add_argument("--out", type=str, default=None, help="output file path")
    form.add_argument("--format", choices=("csv", "json"), default=None,
                      help="override the command's default output format")

    parser = argparse.ArgumentParser(
        prog="robustrns",
        description="Robust reconstruction from erroneous remainders in residue number systems",
    )
    parser.add_argument("--version", action="version", version=f"robustrns {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("levels", parents=[out, form],
                       help="print the range/error trade-off table")
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("reconstruct", parents=[out],
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

    p = sub.add_parser("simulate", parents=[seed, out, form],
                       help="Monte Carlo sweeps, probes and comparisons (CSV)")
    p.add_argument("--m1", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--level", type=int)
    p.add_argument("--tau", type=str, help='error bounds: "0:13:0.5" or comma list')
    p.add_argument("--trials", type=int)
    p.add_argument("--probe-boundary", dest="neighbors", type=str, help='values to probe: "465:470"')
    p.add_argument("--groups", type=str)
    p.add_argument("--compare", action="store_true", default=None)
    p.add_argument("--config", type=str, help="JSON config file")
    p.add_argument("--value-mode", dest="value_mode", choices=("integer", "real"))
    p.add_argument("--error-mode", dest="error_mode", choices=("real", "integer"))
    p.add_argument("--range-mode", dest="range_mode", choices=("allow", "clamp"))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[seed],
                       help="run oracle equivalence and tightness checks")
    p.add_argument("--m1", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--falsify", action="store_true")
    p.add_argument("--random-systems", type=_nonnegative_int, default=0)
    p.add_argument("--gamma-max", type=int, default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plane", parents=[out, form],
                       help="dump (N, r1, r2) rows for external plotting")
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--max", type=_nonnegative_int, required=True)
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
