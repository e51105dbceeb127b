import dataclasses
import hashlib
import json
import platform
import shlex
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from robustrns import cli, oracle
from robustrns.cli import (EXIT_OK, EXIT_ORACLE, EXIT_USAGE, EXIT_VERIFY, _parse_span, _sweep_csv, fmt,
                           main)
from robustrns.simkit import SweepRow, TrialConfig, run_tau_sweep
from robustrns.two_mod import TwoModSystem, level_table
from tests_util import run_cli_bounded


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_levels(out: str):
    lines = out.splitlines()
    start = lines.index("level sigma bound depth1 depth2 dynamic_range") + 1
    rows = []
    for line in lines[start:]:
        if line.startswith("delta baseline"):
            break
        rows.append(line.split())
    return rows


class TestFmt:
    def test_six_significant_digits(self):
        assert fmt(397.05801) == "397.058"
        assert fmt(Fraction(143, 4)) == "35.75"
        assert fmt(Fraction(13, 1)) == "13"
        assert fmt(0.0) == "0"
        assert fmt(1037.84) == "1037.84"
        assert fmt(1234567.0) == "1234570"
        assert fmt(0.00213490123) == "0.0021349"


class TestParseSpan:
    def test_integer_lists_and_spans_are_exact_past_2_53(self):
        big = 2**53 + 1
        assert _parse_span(str(big), "n", integer=True) == [big]
        assert _parse_span(f"{big},{big + 2}", "n", integer=True) == [big, big + 2]
        assert _parse_span(f"{big}:{big + 2}", "n", integer=True) == [big, big + 1, big + 2]
        assert _parse_span(f"{big}:{big + 6}:3", "n", integer=True) == [big, big + 3, big + 6]

    def test_canonical_probe_and_tau_spans(self):
        assert _parse_span("465:470", "neighbors", integer=True) == list(range(465, 471))
        assert _parse_span("0:1:0.25", "tau") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert _parse_span("0.5,2", "tau") == [0.5, 2.0]
        assert _parse_span("0:13:0.5", "tau") == [0.5 * i for i in range(27)]

    @pytest.mark.parametrize("flag, span, key, count", [
        ("--tau", "0:1e9:1", "tau", 1_000_000_001),
        ("--probe-boundary", "0:100000000", "neighbors", 100_000_001),
    ])
    def test_huge_spans_refuse_in_bounded_memory_and_time(self, flag, span, key, count):
        # both once died with a MemoryError and exit 1 under a 1 GB address space
        argv = ["simulate", "--m1", "234", "--m2", "377", flag, span, "--trials", "1"]
        assert run_cli_bounded(argv) == (
            EXIT_USAGE, "", f"error: {key}: span {span!r} has {count} points, past the limit "
                            "of 1048576\n")

    def test_span_points_past_the_limit_are_refused_before_any_is_built(self, capsys, tmp_path,
                                                                        monkeypatch):
        monkeypatch.setattr(cli, "_SPAN_POINTS_MAX", 5)
        assert _parse_span("0:1:0.25", "tau") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert _parse_span("465:469", "neighbors", integer=True) == list(range(465, 470))
        assert _parse_span("0,1,2,3,4,5", "tau") == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]  # lists are given
        assert run_cli(capsys, "simulate", "--m1", "234", "--m2", "377", "--level", "1",
                       "--trials", "10", "--probe-boundary", "465:470") == (
            EXIT_USAGE, "", "error: neighbors: span '465:470' has 6 points, past the limit of 5\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m1": 234, "m2": 377, "tau": "0:1.25:0.25", "trials": 10}))
        assert run_cli(capsys, "simulate", "--config", str(cfg)) == (
            EXIT_USAGE, "", "error: tau: span '0:1.25:0.25' has 6 points, past the limit of 5\n")

    def test_non_integer_neighbors_are_a_usage_error(self, capsys):
        for text in ("465.5", "465:470:0.5"):
            code, out, err = run_cli(capsys, "simulate", "--m1", "234", "--m2", "377",
                                     "--level", "1", "--probe-boundary", text, "--trials", "10")
            assert code == EXIT_USAGE and out == "", text
            assert "Traceback" not in err


class TestLevels:
    def test_reference_table(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "--m1", "234", "--m2", "377")
        assert code == EXIT_OK
        rows = parse_levels(out)
        assert [r[1] for r in rows] == ["11", "7", "4", "3", "1"]
        assert [r[2] for r in rows] == ["35.75", "22.75", "13", "9.75", "3.25"]
        assert [r[3] for r in rows] == ["1", "3", "4", "8", "28"]
        assert [r[4] for r in rows] == ["1", "1", "3", "4", "17"]
        assert [r[5] for r in rows] == ["468", "754", "1170", "1885", "6786"]

    def test_example_one(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "--m1", "40", "--m2", "136")
        rows = parse_levels(out)
        assert code == EXIT_OK
        assert rows[0][2] == "4" and rows[0][5] == "280"
        assert rows[-1][2] == "2" and rows[-1][5] == "680"

    def test_delta_baseline_section(self, capsys):
        _, out, _ = run_cli(capsys, "levels", "--m1", "234", "--m2", "377")
        lines = out.splitlines()
        i = lines.index("index delta bound range_low range_high")
        assert lines[i + 1].split() == ["1", "143", "35.75", "468", "468"]
        assert lines[i + 2].split() == ["2", "52", "13", "936", "1638"]

    @pytest.mark.parametrize("fmt_name", ["csv", "json"])
    def test_bound_past_float_range_is_refused(self, capsys, fmt_name):
        m = 2**1030 + 1  # the bound m * sigma / 4 is a non-integer past the float range
        bounds = [r.robustness_bound for r in level_table(TwoModSystem(m, 3, 5))]
        first = next(b for b in bounds if b.denominator != 1)
        code, out, err = run_cli(capsys, "levels", "--m1", str(3 * m), "--m2", str(5 * m),
                                 "--format", fmt_name)
        assert code == EXIT_USAGE and out == ""
        digits = len(str(first.numerator))
        assert err == f"error: value (a fraction with a {digits}-digit numerator) is past the float range\n"

    @pytest.mark.parametrize("fmt_name", ["csv", "json"])
    def test_bound_inside_float_range_answers(self, capsys, fmt_name):
        m = 2**1000 + 1
        bounds = [r.robustness_bound for r in level_table(TwoModSystem(m, 3, 5))]
        code, out, _ = run_cli(capsys, "levels", "--m1", str(3 * m), "--m2", str(5 * m),
                               "--format", fmt_name)
        assert code == EXIT_OK
        if fmt_name == "json":
            got = [row["robustness_bound"] for row in json.loads(out)["levels"]]
            assert got == [int(b) if b.denominator == 1 else float(b) for b in bounds]
        else:
            got = [line.split(",")[2] for line in out.splitlines()[1:]]
            assert got == [fmt(b) for b in bounds] and all(got)

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "levels", "--m1", "377", "--m2", "234")[0] == EXIT_USAGE
        assert run_cli(capsys, "levels", "--m1", "12", "--m2", "24")[0] == EXIT_USAGE

    def test_valid_small_cofactors(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "--m1", "24", "--m2", "36")
        assert code == EXIT_OK  # cofactors (2, 3) are fine
        assert parse_levels(out)[0][5] == "72"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "--m1", "234", "--m2", "377",
                               "--format", "json")
        payload = json.loads(out)
        assert payload["levels"][2]["robustness_bound"] == 13
        assert payload["levels"][4]["dynamic_range"] == 6786

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "--m1", "234", "--m2", "377",
                               "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "j,sigma,robustness_bound,depth1,depth2,dynamic_range"
        assert lines[1] == "1,11,35.75,1,1,468"
        assert len(lines) == 6


class TestReconstruct:
    def test_two_mod(self, capsys):
        code, out, _ = run_cli(capsys, "reconstruct", "--moduli", "234,377",
                               "--remainders", "69,240", "--level", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["n_hat"] == [4, 2]
        assert payload["N_hat"] == 1000

    def test_zero_error_level_one(self, capsys):
        code, out, _ = run_cli(capsys, "reconstruct", "--moduli", "40,136",
                               "--remainders", "30,14", "--level", "1")
        payload = json.loads(out)
        assert payload["n_hat"] == [3, 1] and payload["N_hat"] == 150

    def test_oracle_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "reconstruct", "--moduli", "234,377",
                               "--remainders", "69,240", "--level", "3",
                               "--oracle", "--strict")
        assert code == EXIT_OK
        assert json.loads(out)["oracle"]["agrees"] is True

    def test_oracle_strict_mismatch(self, capsys):
        # a deliberately truncated search bound cannot contain the true folds
        code, out, _ = run_cli(capsys, "reconstruct", "--moduli", "234,377",
                               "--remainders", "64,246", "--level", "5",
                               "--oracle", "--oracle-bound", "100", "--strict")
        assert code == EXIT_ORACLE
        assert json.loads(out)["oracle"]["agrees"] is False

    def test_oracle_bound_must_be_positive(self, capsys):
        for bound in ("0", "-3"):
            code, out, err = run_cli(capsys, "reconstruct", "--moduli", "234,377",
                                     "--remainders", "69,240", "--level", "3",
                                     "--oracle", "--oracle-bound", bound)
            assert code == EXIT_USAGE
            assert out == ""
            assert f"search bound {bound} must be at least 1" in err

    @pytest.mark.parametrize("bound", ["1170.0", "1e3", "true", "3/2"])
    def test_oracle_bound_must_be_an_integer(self, capsys, bound):
        code, out, err = run_cli(capsys, "reconstruct", "--moduli", "234,377",
                                 "--remainders", "69,240", "--level", "3",
                                 "--oracle", "--oracle-bound", bound)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--oracle-bound" in err and "Traceback" not in err

    def test_cascade(self, capsys):
        value = 13000
        rems = ",".join(str(value % m) for m in (120, 300, 210, 490))
        code, out, _ = run_cli(capsys, "reconstruct", "--groups", "120,300|210,490",
                               "--remainders", rems, "--level", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["N_hat"] == value
        assert payload["n_hat"] == [value // m for m in (120, 300, 210, 490)]
        assert payload["dynamic_range"] == 13230

    def test_real_mode(self, capsys):
        code, out, _ = run_cli(capsys, "reconstruct", "--real", "--m", "2.5",
                               "--moduli", "45,72.5", "--remainders", "19.7,55.2",
                               "--level", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["moduli"] == [45.0, 72.5]
        assert isinstance(payload["N_hat"], float)

    @pytest.mark.parametrize("remainders", ["NaN,55.2", "19.7,NaN", "Infinity,55.2", "19.7,-Infinity"])
    def test_non_finite_remainders_exit_2(self, capsys, remainders):
        code, out, err = run_cli(capsys, "reconstruct", "--real", "--m", "2.5",
                                 "--moduli", "45,72.5", "--remainders", remainders, "--level", "3")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: non-finite value ")

    def test_mean_past_float_range_is_refused(self, capsys):
        big = 2**1030
        value = big + 9  # every remainder is the value itself, so the mean is too
        cases = {
            "two_mod": ("--moduli", f"{3 * big},{5 * big}", "--remainders", f"7,{value}"),
            "cascade": ("--groups", f"{3 * big},{5 * big}|{7 * big},{11 * big}",
                        "--remainders", ",".join([str(value)] * 4)),
        }
        for mode, argv in cases.items():
            code, out, err = run_cli(capsys, "reconstruct", *argv)
            assert code == EXIT_USAGE and out == "", mode
            assert err.startswith("error: reconstruct: mean ") and "past the float range" in err, mode
        # the same moduli with a mean inside the float range still answer
        code, out, _ = run_cli(capsys, "reconstruct", "--moduli", f"{3 * big},{5 * big}",
                               "--remainders", "7,9")
        assert code == EXIT_OK and json.loads(out)["mean"] == 8.0

    def test_tau_bound_past_float_range_is_refused(self, capsys):
        g = 2**1030 + 1  # the cascade's tau bound is a non-integer past the float range
        code, out, err = run_cli(capsys, "reconstruct", "--groups",
                                 f"{3 * g},{5 * g}|{7 * g},{11 * g}", "--remainders", "1,1,1,1")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: value (a fraction with a ")
        assert err.endswith("-digit numerator) is past the float range\n")

    @pytest.mark.parametrize("argv, refusal", [
        (["--moduli", "234,377", "--remainders", "69"], "reconstruct: exactly two remainders"),
        (["--moduli", "234,377", "--remainders", "500,240"], "remainder 500 out of range [0, 234)"),
        (["--moduli", "234,377,40", "--remainders", "1,2,3"], "reconstruct: exactly two moduli"),
        (["--remainders", "69,240"], "reconstruct: need --moduli or --groups"),
        *[(["--real", "--m", m, "--moduli", "45,72.5", "--remainders", "19.7,55.2"],
           f"reconstruct: --m {m!r} is not one positive decimal") for m in ("0", "1,2")],
        (["--real", "--m", "2.5", "--moduli", "45,72.4", "--remainders", "19.7,55.2"],
         "modulus 72.4 is not an integer multiple of m=2.5"),
        (["--real", "--m", "2.5", "--moduli", "45,72.5", "--remainders", "19.7,55.2", "--oracle"],
         "reconstruct: --oracle needs an integer system"),
        (["--groups", "120,300|210,490", "--remainders", "40,100,160"],
         "reconstruct: expected 4 remainders, got 3"),
    ], ids=["one-remainder", "remainder-out-of-range", "three-moduli", "no-moduli", "real-m-0",
            "real-two-m", "real-modulus-not-a-multiple", "real-oracle", "groups-three-remainders"])
    def test_bad_input(self, capsys, argv, refusal):
        assert run_cli(capsys, "reconstruct", *argv) == (EXIT_USAGE, "", f"error: {refusal}\n")


# well-formed configs of each kind, for the type refusals to spoil one field of
_INTEGER = {"m1": 234, "m2": 377, "level": 1, "tau": [1.0], "trials": 10}
_CASCADE = {"groups": "120,300|210,490", "trials": 10}
_REAL = {"value_mode": "real", "m": 2.5, "gammas": [18, 29], "tau": [1.0], "trials": 10}


class TestSimulate:
    @pytest.mark.parametrize("system", [["--m1", "234", "--m2", "377", "--level", "3"],
                                        ["--groups", "120,300|210,490", "--level", "2"],
                                        ["--groups", "120,300|210,490", "--compare"]],
                             ids=["two_modulus", "cascade", "compare"])
    def test_sweeps_past_int64_are_a_usage_error(self, capsys, system):
        code, out, err = run_cli(capsys, "simulate", *system, "--tau", "1e300", "--trials", "10")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: integer values in [0, ")
        assert " with errors up to tau 1e+300 reach integers of 2^" in err
        assert "a sweep holds its integers in int64" in err and "Traceback" not in err

    def test_real_config_past_int64_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "real.json"
        cfg.write_text(json.dumps({**_REAL, "level": 3, "tau": [1e300]}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: real values in [0, ")
        assert " with errors up to tau 1e+300 reach integers of 2^" in err
        assert "a sweep holds its integers in int64" in err
        assert "Traceback" not in err

    def test_real_config_past_the_float_range_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "real.json"
        cfg.write_text(json.dumps({"value_mode": "real", "m": 1e307, "gammas": [18, 29],
                                   "level": 3, "tau": [1.0]}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("error: TwoModSystem(m=1e+307, gamma1=18, gamma2=29): m * 90 is past "
                       "the float range\n")

    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--m1", "234", "--m2", "377",
                               "--level", "3", "--tau", "0:13:0.5",
                               "--trials", "500", "--seed", "42")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "x,mean_abs_error,mean_rel_error,failure_rate,clamped_fraction"
        assert len(lines) == 1 + 27

    def test_deterministic_output(self, capsys):
        args = ("simulate", "--m1", "234", "--m2", "377", "--level", "2",
                "--tau", "1,5", "--trials", "2000", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_out_file_and_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "simulate", "--m1", "234", "--m2", "377",
                             "--level", "2", "--tau", "1,5", "--trials", "1000",
                             "--seed", "7", "--out", str(out_path))
        assert code == EXIT_OK
        assert out_path.exists()
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7
        assert manifest["config"]["m1"] == 234
        assert manifest["outputs"] == [str(out_path)]
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__

    def test_probe_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--m1", "234", "--m2", "377",
                               "--level", "1", "--probe-boundary", "467:468",
                               "--trials", "5000", "--seed", "1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 3
        below = float(lines[1].split(",")[1])
        at = float(lines[2].split(",")[1])
        assert at > 10 * below

    def test_probe_honours_tau_and_error_mode(self, capsys):
        base = ["--m1", "234", "--m2", "377", "--level", "1", "--probe-boundary", "467",
                "--trials", "200", "--seed", "1"]
        code, out, err = run_cli(capsys, "simulate", *base, "--tau", "100",
                                 "--error-mode", "integer")
        assert code == EXIT_OK, err
        assert out != run_cli(capsys, "simulate", *base)[1]
        config = TrialConfig(system=TwoModSystem.from_moduli(234, 377), level=1, probe=(467,),
                             tau_values=(100.0,), trials_per_point=200, seed=1,
                             error_mode="integer")
        assert out == _sweep_csv([run_tau_sweep(config)])

    def test_compare_series(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--groups", "120,300|210,490",
                               "--level", "2", "--tau", "10", "--trials", "3000",
                               "--seed", "1", "--compare")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("series,x,")
        series = {line.split(",")[0] for line in lines[1:]}
        assert series == {"single_stage", "two_stage", "cascade_level2"}

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m1": 234, "m2": 377, "level": 3,
                                   "tau": [1.0, 2.0], "trials": 500, "seed": 3}))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 3

    def test_range_past_int64_is_a_usage_error(self, capsys):
        m = 2**50
        code, out, err = run_cli(capsys, "simulate", "--m1", str(m * 1000), "--m2", str(m * 1001),
                                 "--tau", "0", "--trials", "1000", "--seed", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: integer values in [0, 1127025806749466624000) with errors up "
                              "to tau 0.0 reach integers of 2^69 or more; a sweep holds its "
                              "integers in int64")
        assert "out of bounds" not in err

    @pytest.mark.parametrize("tau, error_mode", [("1e308", "real"), ("1e300", "integer")])
    def test_tau_past_the_generator_is_a_usage_error(self, capsys, tau, error_mode):
        code, out, err = run_cli(capsys, "simulate", "--m1", "234", "--m2", "377", "--tau", tau,
                                 "--error-mode", error_mode, "--trials", "10")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: TrialConfig: tau {float(tau)} is too large for "
                              f"{error_mode} errors")
        assert "Traceback" not in err and "bounds" not in err

    def test_probe_past_int64_is_a_usage_error(self, capsys):
        big = 20_000_000_000_000_000_000
        code, out, err = run_cli(capsys, "simulate", "--m1", "234", "--m2", "377", "--level", "1",
                                 "--probe-boundary", f"{big}:{big + 1}", "--trials", "10")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: integer values in [{big}, {big + 2}) with errors up to tau "
                              "35.75 reach integers of 2^64 or more")
        assert "Traceback" not in err

    def test_real_config_needs_only_m_and_gammas(self, capsys, tmp_path):
        real = {"value_mode": "real", "m": 2.5, "gammas": [18, 29], "level": 3,
                "tau": [0.5, 2.0], "trials": 500, "seed": 3}
        outs = []
        for extra in ({}, {"m1": 45, "m2": 72.5}):
            cfg = tmp_path / "real.json"
            cfg.write_text(json.dumps({**real, **extra}))
            code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
            assert code == EXIT_OK, err
            outs.append(out)
        assert len(outs[0].strip().splitlines()) == 3
        assert outs[0] == outs[1]

    def test_real_config_rejects_inconsistent_moduli(self, capsys, tmp_path):
        cfg = tmp_path / "real.json"
        cfg.write_text(json.dumps({"value_mode": "real", "m": 2.5, "gammas": [18, 29],
                                   "m1": 45, "m2": 72, "tau": [1.0], "trials": 10}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert "m2=72" in err and "m1" not in err

    @pytest.mark.parametrize("key, value, flag", [
        ("tau", 5, ["--tau", "5"]),
        ("tau", 2.5, ["--tau", "2.5"]),
        ("neighbors", 467, ["--probe-boundary", "467"]),
    ])
    def test_config_number_is_a_one_value_span(self, capsys, tmp_path, key, value, flag):
        base = ["--m1", "234", "--m2", "377", "--level", "1", "--trials", "300", "--seed", "3"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), *base)
        assert code == EXIT_OK, err
        assert len(out.strip().splitlines()) == 2
        assert out == run_cli(capsys, "simulate", *base, *flag)[1]

    @pytest.mark.parametrize("value", [True, None, {"start": 0}])
    @pytest.mark.parametrize("key", ["tau", "neighbors"])
    def test_config_span_of_another_type_is_refused(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m1": 234, "m2": 377, "trials": 10, key: value}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert f"{key}: need a list" in err and "Traceback" not in err

    @pytest.mark.parametrize("raw, name", [
        ({**_INTEGER, "neighbors": [465.7, True]}, "neighbors"),
        ({**_INTEGER, "neighbors": [465, True]}, "neighbors"),
        ({**_INTEGER, "tau": [1.0, "2"]}, "tau"),
        ({**_INTEGER, "tau": [1.0, False]}, "tau"),
        ({**_INTEGER, "level": 2.9}, "level"),
        ({**_INTEGER, "trials": 100.7}, "trials"),
        ({**_INTEGER, "seed": True}, "seed"),
        ({**_INTEGER, "m1": 234.0}, "m1"),
        ({**_INTEGER, "m2": "377"}, "m2"),
        ({**_CASCADE, "groups": [[120.9, 300], [210, 490]]}, "groups"),
        ({**_CASCADE, "groups": [120, 300]}, "groups"),
        ({**_CASCADE, "compare": "no"}, "compare"),
        ({**_REAL, "gammas": [18, 29.0]}, "gammas"),
        ({**_REAL, "m": "2.5"}, "m"),
        ({**_INTEGER, "value_mode": "decimal"}, "value_mode"),
    ])
    def test_config_values_of_the_wrong_type_are_refused(self, capsys, tmp_path, raw, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: {name}: ") and "Traceback" not in err, err

    def test_integer_config_refuses_m_and_gammas(self, capsys, tmp_path):
        for extra in ({"m": 13}, {"gammas": [18, 29]}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**_INTEGER, **extra}))
            code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
            assert code == EXIT_USAGE and out == ""
            assert "integer systems take only m1 and m2" in err

    @pytest.mark.parametrize("argv, refusal", [
        *[(["--tau", tau], "TrialConfig: tau values must be finite, nonnegative and within the "
                           "float range") for tau in ("nan", "inf", "1,-inf")],
        *[(["--tau", span], f"tau: span {span!r} needs finite ends and step count, start <= "
                            "stop and step > 0") for span in ("0:inf:1", "0:1:1e-309", "5:0:1")],
        (["--probe-boundary", "470:465"], "neighbors: span '470:465' needs finite ends and step "
                                          "count, start <= stop and step > 0"),
        (["--probe-boundary", "467", "--tau", "1,2"],
         "TrialConfig: a sweep needs tau values, a probe at most one"),
        (["--tau", "1:2:3:4"], "could not parse tau span '1:2:3:4'"),
    ])
    def test_empty_and_non_finite_sweeps_are_refused(self, capsys, argv, refusal):
        code, out, err = run_cli(capsys, "simulate", "--m1", "234", "--m2", "377",
                                 "--level", "1", "--trials", "10", *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {refusal}\n")

    @pytest.mark.parametrize("raw, name", [
        ({**_INTEGER, "tau": [10**400]}, "tau"),
        ({**_INTEGER, "tau": 10**400}, "tau"),
        ({**_REAL, "m": 10**400}, "m"),
        ({**_INTEGER, "tau": [-10**400]}, "tau"),
    ])
    def test_config_numbers_past_the_float_range_are_refused(self, capsys, tmp_path, raw, name):
        """The refusal names the field and the number's size, not its digits."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {name} (a 401-digit integer) is past the float range\n"
        assert len(err) < 120

    def test_negative_config_seed_is_refused(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**_INTEGER, "seed": -1}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert "seed must be nonnegative" in err and "Traceback" not in err

    def test_config_rejects_unknown_fields(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m1": 234, "m2": 377, "tau": [1.0], "bogus": 1}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "bogus" in err


_GROUPS = "120,300|210,490"
# sha256 of the CSV printed by one seeded run per simulate mode.  They pin the
# draw order (values, then one error array per modulus in modulus order, per
# (point, chunk) generator) and the shared remainders of --compare; the
# multi-chunk case has more trials than one chunk (65536).
GOLDEN_SIMULATE = {
    "tau_sweep": (
        ["--m1", "234", "--m2", "377", "--level", "3", "--tau", "0:13:0.5", "--trials", "400"],
        "e5d02ac241591b1c954c653a016d9d19f171fcbefea0096f639da6c74e3b799a"),
    "real_sweep": (
        ["--config", "{real_config}", "--trials", "400"],
        "cf294ed4e09c5d132691b9b5ced29ee00eb699872c5432b9f800facea72d8568"),
    "boundary_probe": (
        ["--m1", "234", "--m2", "377", "--level", "1", "--probe-boundary", "465:470",
         "--trials", "400"],
        "1ebb9bc9b7aa42cf91a26ae339e8b8f2ec9e7b6abe87df9832033d089555a3e2"),
    "cascade_sweep": (
        ["--groups", _GROUPS, "--level", "2", "--trials", "400"],
        "0b28c843b1c442633c54fa8551c60e326d09a5bb4c3cdd3c6be0dfff730f6ee3"),
    "compare": (
        ["--groups", _GROUPS, "--level", "2", "--tau", "0:25:5", "--trials", "400", "--compare"],
        "2c01f9282c2f0c6cd334e38bf4d614f64f6b96ce8c2b09ef1343dd6cd86c995c"),
    "integer_clamp_multi_chunk": (
        ["--m1", "234", "--m2", "377", "--level", "1", "--tau", "0,12,40",
         "--error-mode", "integer", "--range-mode", "clamp", "--trials", "70000"],
        "0dd8dc0e3223577528a37612ed0dfdd07cc3d791285c8660e493abc6f73ca8b5"),
    "integer_clamp_compare": (
        ["--groups", _GROUPS, "--level", "2", "--tau", "0:30:10", "--error-mode", "integer",
         "--range-mode", "clamp", "--trials", "400", "--compare"],
        "5058c0bca4600490492a7cfc882adbc3dfc9f99b7b1f6b46a6741dde8efcc9b6"),
}


def golden_case(tmp_path, case):
    """The argv (with the real config written under ``tmp_path``) and digest of ``case``."""
    real_config = tmp_path / "real.json"
    real_config.write_text(json.dumps({
        "m": 2.5, "gammas": [18, 29], "m1": 45, "m2": 72.5, "value_mode": "real",
        "level": 3, "tau": "0:3:0.5"}))
    argv, digest = GOLDEN_SIMULATE[case]
    return [a.replace("{real_config}", str(real_config)) for a in argv], digest


class TestSimulateGolden:
    @pytest.mark.parametrize("case", sorted(GOLDEN_SIMULATE))
    def test_csv_sha256(self, capsys, tmp_path, case):
        argv, digest = golden_case(tmp_path, case)
        code, out, err = run_cli(capsys, "simulate", *argv, "--seed", "42")
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("case", sorted(GOLDEN_SIMULATE))
    def test_manifest_config_reruns_the_sweep(self, capsys, tmp_path, case):
        argv, digest = golden_case(tmp_path, case)
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "simulate", *argv, "--seed", "42", "--out", str(out_path))
        assert code == EXIT_OK, err
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert {"level", "tau"} <= set(manifest["config"])
        rerun = tmp_path / "rerun.json"
        rerun.write_text(json.dumps(manifest["config"]))
        code, out, err = run_cli(capsys, "simulate", "--config", str(rerun))
        assert code == EXIT_OK, err
        assert out == out_path.read_text()
        assert hashlib.sha256(out.encode()).hexdigest() == digest


    @pytest.mark.parametrize("case", ["tau_sweep", "boundary_probe", "compare"])
    def test_json_holds_the_csv(self, capsys, tmp_path, case):
        """``--format json`` lists the CSV's series in its order, each row with
        every ``SweepRow`` field, and ``fmt`` of its fields gives the CSV."""
        argv, _ = golden_case(tmp_path, case)
        code, csv_out, err = run_cli(capsys, "simulate", *argv, "--seed", "42")
        assert code == EXIT_OK, err
        code, json_out, err = run_cli(capsys, "simulate", *argv, "--seed", "42", "--format", "json")
        assert code == EXIT_OK, err
        payload = json.loads(json_out)
        header, *lines = csv_out.splitlines()
        multi = header.startswith("series,")
        if multi:
            assert [res["series"] for res in payload] == list(dict.fromkeys(
                line.split(",")[0] for line in lines))
        else:
            assert len(payload) == 1
        trials = int(argv[argv.index("--trials") + 1])
        cells = []
        for res in payload:
            for row in res["rows"]:
                assert set(row) == {f.name for f in dataclasses.fields(SweepRow)}
                assert row["trials"] == trials
                cells.append([res["series"]] * multi + [fmt(row[name]) for name in header.split(",")
                                                        if name != "series"])
        assert cells == [line.split(",") for line in lines]


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of every ``robustrns ...`` line of the README's CLI block,
    continuation lines joined."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("robustrns ")]


# The stdout of the README's levels and reconstruct examples, byte for byte.
GOLDEN_README = {
    "levels --m1 234 --m2 377": """\
system m1=234 m2=377: m=13 gamma1=18 gamma2=29 lcm=6786
level sigma bound depth1 depth2 dynamic_range
1 11 35.75 1 1 468
2 7 22.75 3 1 754
3 4 13 4 3 1170
4 3 9.75 8 4 1885
5 1 3.25 28 17 6786
delta baseline:
index delta bound range_low range_high
1 143 35.75 468 468
2 52 13 936 1638
3 13 3.25 3744 6786
""",
    "reconstruct --moduli 234,377 --remainders 69,240 --level 3 --oracle": json.dumps({
        "mode": "two_mod", "moduli": [234, 377], "level": 3, "n_hat": [4, 2],
        "N_hat": 1000, "mean": 999.5,
        "oracle": {"search_bound": 1170, "folds": [4, 2], "value": 999, "agrees": True},
    }, indent=2) + "\n",
    'reconstruct --groups "120,300|210,490" --remainders 40,100,160,370 --level 2': json.dumps({
        "mode": "cascade", "groups": [[120, 300], [210, 490]], "level": 2,
        "h": [[3, 1], [1, 0]], "l": [0, 0], "n_hat": [3, 1, 1, 0], "group_estimates": [400, 370],
        "N_hat": 385, "mean": 385.0, "dynamic_range": 13230, "tau_bound": 15, "overlapping": False,
    }, indent=2) + "\n",
    "reconstruct --real --m 2.5 --moduli 45,72.5 --remainders 19.7,55.2 --level 3": json.dumps({
        "mode": "two_mod", "moduli": [45.0, 72.5], "level": 3, "n_hat": [4, 2],
        "N_hat": 199.95, "mean": 199.95,
    }, indent=2) + "\n",
}


class TestReadmeGolden:
    def test_pinned_commands_are_the_readme_ones(self):
        pinned = [shlex.split(command) for command in GOLDEN_README]
        assert [argv for argv in readme_commands() if argv[0] in ("levels", "reconstruct")] == pinned

    @pytest.mark.parametrize("command", list(GOLDEN_README))
    def test_stdout(self, capsys, command):
        assert run_cli(capsys, *shlex.split(command)) == (EXIT_OK, GOLDEN_README[command], "")


def _at(at, change):
    """A fault that changes an oracle's result on the system of cofactors
    ``at[:2]`` at level ``at[2]`` and passes every other result through."""
    return lambda result, system, j: change(result) if (system.gamma1, system.gamma2, j) == at else result


def _estimate_past_both_at_level_3(sol, ctx, obs):
    """A fault of ``solve_with_context``: at level 3 its estimate lands m2
    past both reconstructions ``x1 = r1 + n1*m1`` and ``x2 = r2 + n2*m2``."""
    if ctx.j != 3:
        return sol
    s = ctx.system
    x1, x2 = obs.r1 + sol.n1 * s.m1, obs.r2 + sol.n2 * s.m2
    return SimpleNamespace(n1=sol.n1, n2=sol.n2, estimate=max(x1, x2) + s.m2)


class TestVerify:
    def test_falsify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m1", "234", "--m2", "377", "--falsify")
        assert code == EXIT_OK
        assert out.count("PASS: tightness") == 5
        for value in (468, 754, 1170, 1885, 6786):
            assert f"value {value} misfolds" in out

    def test_exhaustive_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m1", "12", "--m2", "18", "--exhaustive")
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_random_systems(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--random-systems", "5",
                               "--gamma-max", "60", "--seed", "2")
        assert code == EXIT_OK
        assert out.count("PASS") == 5

    @pytest.mark.parametrize("gamma_max", [2**63, 10**23])
    def test_gamma_max_past_int64_is_refused(self, capsys, gamma_max):
        code, out, err = run_cli(capsys, "verify", "--random-systems", "1",
                                 "--gamma-max", str(gamma_max))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: verify: --gamma-max must be")
        assert "below 2^63 (the int64 limit of the cofactor draws)" in err

    def test_gamma_max_below_3_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--random-systems", "1", "--gamma-max", "2")
        assert code == EXIT_USAGE and out == ""
        assert "--gamma-max must be at least 3" in err
        assert run_cli(capsys, "verify", "--random-systems", "1", "--gamma-max", "3")[0] == EXIT_OK

    def test_needs_a_scope(self, capsys):
        assert run_cli(capsys, "verify")[0] == EXIT_USAGE

    # every check on (24, 38), cofactors (12, 19), levels 1-4, plus the drawn (50, 53) and (28, 31)
    ALL_CHECKS = ["verify", "--m1", "24", "--m2", "38", "--exhaustive", "--falsify",
                  "--random-systems", "2", "--gamma-max", "60", "--seed", "2"]

    @pytest.mark.parametrize("attr, fault, failed", [
        ("ladder_depths_definitional", _at((12, 19, 2), lambda d: (d[0] + 1, d[1])),
         "FAIL: ladder depths at level 2: closed form (3, 1) vs definition (4, 1)"),
        ("level_exactness_scan", _at((12, 19, 3), lambda scan: dataclasses.replace(scan, fold_failures=1)),
         "FAIL: exhaustive level 3: 14384 cases, 1 fold failures, 0 estimate failures"),
        ("solve_with_context", _estimate_past_both_at_level_3,
         "FAIL: exhaustive level 3: 14384 cases, 0 fold failures, 14216 estimate failures"),
        ("falsifier_report", _at((12, 19, 4),
                                 lambda rep: dataclasses.replace(rep, computed=("recovered", rep.computed[1]))),
         "FAIL: tightness at level 4: value 456 misfolds as required"),
        ("ladder_depths_definitional", _at((50, 53, 1), lambda d: (d[0], d[1] + 1)),
         "FAIL: ladder depths agree for cofactors (50, 53)"),
    ], ids=["depths", "exhaustive", "estimate", "falsify", "random-systems"])
    def test_a_faulted_check_prints_one_fail_line_and_exits_1(self, capsys, monkeypatch, attr, fault,
                                                            failed):
        """A function of ``oracle`` whose real result is faulted at one system
        and level turns exactly that check's line into a FAIL line; every
        other line is as in the unfaulted run, and the exit code is
        ``EXIT_VERIFY``."""
        code, clean, _ = run_cli(capsys, *self.ALL_CHECKS)
        assert code == EXIT_OK and "FAIL" not in clean
        real = getattr(oracle, attr)
        monkeypatch.setattr(oracle, attr, lambda *args: fault(real(*args), *args))
        code, out, err = run_cli(capsys, *self.ALL_CHECKS)
        assert (code, err) == (EXIT_VERIFY, "")
        lines, want = out.splitlines(), clean.splitlines()
        assert [line for line in lines if line.startswith("FAIL:")] == [failed]
        i = lines.index(failed)
        assert len(lines) == len(want) and lines[:i] + lines[i + 1:] == want[:i] + want[i + 1:]


class TestPlane:
    def test_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "plane", "--m1", "24", "--m2", "38", "--max", "76")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "N,r1,r2"
        assert len(lines) == 1 + 76
        assert lines[1] == "0,0,0"
        assert lines[49] == "48,0,10"

    def test_json_gives_the_csv_rows(self, capsys):
        argv = ["plane", "--m1", "24", "--m2", "38", "--max", "76"]
        code, csv_out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        header, *lines = csv_out.splitlines()
        rows = [dict(zip(header.split(","), map(int, line.split(",")))) for line in lines]
        assert json.loads(json_out) == rows and len(rows) == 76

    def test_max_validation(self, capsys):
        assert run_cli(capsys, "plane", "--m1", "24", "--m2", "38",
                       "--max", "457")[0] == EXIT_USAGE

    def test_rows_past_the_limit_are_refused_before_any_is_built(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_PLANE_ROWS_MAX", 76)
        assert run_cli(capsys, "plane", "--m1", "24", "--m2", "38", "--max", "76")[0] == EXIT_OK
        assert run_cli(capsys, "plane", "--m1", "24", "--m2", "38", "--max", "77") == (
            EXIT_USAGE, "", "error: plane: --max 77 rows are past the limit of 76\n")

    def test_2_40_moduli_refuse_in_bounded_memory_and_time(self):
        # 10^11 rows once died with a MemoryError under a 1 GB address space
        argv = ["plane", "--m1", "1099511627777", "--m2", "1099511627779", "--max", "100000000000"]
        assert run_cli_bounded(argv) == (
            EXIT_USAGE, "", "error: plane: --max 100000000000 rows are past the limit of 1048576\n")


_RECONSTRUCT = ["reconstruct", "--moduli", "234,377", "--remainders", "69,240", "--level", "3"]
_GROUPS_RECONSTRUCT = ["reconstruct", "--groups", _GROUPS, "--remainders", "40,100,160,370"]
_VERIFY = ["verify", "--m1", "24", "--m2", "38"]
_PLANE = ["plane", "--m1", "24", "--m2", "38", "--max", "76"]
_LEVELS = ["levels", "--m1", "234", "--m2", "377"]
_CASCADE_SWEEP = ["simulate", "--groups", _GROUPS, "--level", "2", "--trials", "10",
                  "--out", "{tmp}/s.csv"]

# A flag the subcommand would not read, with the arguments it runs on.
UNREAD_FLAGS = {
    "levels --seed": [*_LEVELS, "--seed", "5"],
    "reconstruct --seed": [*_RECONSTRUCT, "--seed", "5"],
    "reconstruct --format": [*_RECONSTRUCT, "--format", "csv"],
    "verify --out": [*_VERIFY, "--out", "{tmp}/v.txt"],
    "verify --format": [*_VERIFY, "--format", "json"],
    "plane --seed": [*_PLANE, "--seed", "5"],
    "reconstruct --strict without --oracle": [*_RECONSTRUCT, "--strict"],
    "reconstruct --oracle-bound without --oracle": [*_RECONSTRUCT, "--oracle-bound", "100"],
    "reconstruct --m without --real": [*_RECONSTRUCT, "--m", "2.5"],
    "reconstruct --groups with --moduli": [*_GROUPS_RECONSTRUCT, "--moduli", "234,377"],
    "reconstruct --groups with --oracle": [*_GROUPS_RECONSTRUCT, "--oracle"],
    "simulate --groups with --probe-boundary": [*_CASCADE_SWEEP, "--probe-boundary", "465:470"],
    "simulate --groups with --value-mode real": [*_CASCADE_SWEEP, "--value-mode", "real"],
    "simulate --groups with --m1/--m2": [*_CASCADE_SWEEP, "--m1", "234", "--m2", "377"],
    "simulate --compare with --m1/--m2": [*_CASCADE_SWEEP, "--compare", "--m1", "234", "--m2", "377"],
    "simulate --compare without --groups": ["simulate", "--m1", "234", "--m2", "377", "--tau", "1",
                                            "--trials", "10", "--compare"],
    "verify --random-systems with --exhaustive": ["verify", "--random-systems", "1", "--exhaustive"],
    "verify --random-systems with --falsify": ["verify", "--random-systems", "1", "--falsify"],
    "verify --m1 without --m2": ["verify", "--m1", "24", "--random-systems", "1"],
}


class TestUsage:
    @pytest.mark.parametrize("case", list(UNREAD_FLAGS))
    def test_unread_flag_is_refused(self, capsys, tmp_path, case):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in UNREAD_FLAGS[case]]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == "", err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--random-systems", "-1"], "--random-systems"),
        (["plane", "--m1", "4", "--m2", "6", "--max", "-3"], "--max"),
        (["simulate", "--m1", "234", "--m2", "377", "--tau", "1", "--trials", "10", "--seed", "-1"],
         "--seed"),
        (["simulate", "--m1", "234", "--m2", "377", "--tau", "1", "--trials", "10", "--seed", "abc"],
         "--seed"),
        ([*_VERIFY, "--seed", "-1"], "--seed"),
    ])
    def test_negative_counts_and_seeds_are_refused(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.endswith(f": error: argument {flag}: need a nonnegative integer, "
                            f"got {argv[-1]!r}\n"), err

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_version(self, capsys):
        assert run_cli(capsys, "--version")[0] == EXIT_OK
