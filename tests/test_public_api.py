"""The package's public names: ``__all__`` is the API, and the README lists it.
The exact core and the CLI commands that use only it load no numpy."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import robustrns

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports the package from ``src``; its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from robustrns import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(robustrns.__all__)
    assert len(set(robustrns.__all__)) == len(robustrns.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


def test_readme_public_api_lists_all():
    section = README.read_text().split("## Public API", 1)[1].split("\n## ", 1)[0]
    assert sorted(set(re.findall(r"`([A-Za-z_]\w*)`", section))) == sorted(robustrns.__all__)


def test_exact_core_loads_no_numpy():
    out = _fresh("""
import sys
import robustrns as rr
system = rr.TwoModSystem.from_moduli(234, 377)
sol = rr.solve_level(system, rr.RemainderObservation(69, 240), 3)
spec = rr.cascade_spec([120, 300], [210, 490], 2)
cascade = rr.cascade_reconstruct(spec, [40, 100], [160, 20])  # 1000
crt = rr.crt_reconstruct([1, 2, 3], rr.crt_system([3, 5, 7]))
print((sol.n1, sol.n2, sol.estimate), cascade.estimate, crt, "numpy" in sys.modules)
""")
    assert out == "(4, 2, 1000) 1000 52 False"


@pytest.mark.parametrize("argv, numpy", [
    (["levels", "--m1", "234", "--m2", "377"], False),
    (["plane", "--m1", "24", "--m2", "38", "--max", "76"], False),
    (["reconstruct", "--moduli", "234,377", "--remainders", "69,240", "--level", "3"], False),
    (["reconstruct", "--groups", "120,300|210,490", "--remainders", "40,100,160,370"], False),
    (["reconstruct", "--real", "--m", "2.5", "--moduli", "45,72.5", "--remainders", "19.7,55.2"],
     False),
    (["reconstruct", "--moduli", "234,377", "--remainders", "69,240", "--oracle"], True),
], ids=["levels", "plane", "reconstruct", "cascade", "real", "oracle"])
def test_cli_commands_load_numpy_only_for_an_oracle(argv, numpy):
    out = _fresh(f"""
import contextlib, io, sys
from robustrns import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(code, "numpy" in sys.modules)
""")
    assert out == f"0 {numpy}"


def test_every_public_name_and_lazy_submodule_resolves_first():
    out = _fresh("""
import sys
import robustrns
values = {name: getattr(robustrns, name) for name in robustrns.__all__}
homes = {name: sys.modules[value.__module__] for name, value in values.items()}
assert all(getattr(homes[name], name) is value for name, value in values.items())
assert all(name in vars(robustrns) for name in robustrns.__all__)  # bound, no hook next time
mods = [robustrns.oracle, robustrns.simkit, robustrns.cli]
print(all(m is sys.modules[m.__name__] for m in mods), len(values))
""")
    assert out == f"True {len(robustrns.__all__)}"


def test_submodules_resolve_before_their_names():
    out = _fresh("""
import robustrns
print(robustrns.cli.__name__, robustrns.oracle.__name__, robustrns.simkit.__name__)
""")
    assert out == "robustrns.cli robustrns.oracle robustrns.simkit"


def test_cli_names_are_readable_before_main_runs():
    out = _fresh("""
from robustrns import cli
sweep = cli.run_tau_sweep
from robustrns import oracle, simkit
print(sweep is simkit.run_tau_sweep, cli.TrialConfig is simkit.TrialConfig,
      cli.exhaustive_fold_search is oracle.exhaustive_fold_search)
""")
    assert out == "True True True"


def test_dir_lists_all():
    out = _fresh("""
import robustrns
print(sorted(set(robustrns.__all__) - set(dir(robustrns))), "oracle" in dir(robustrns))
""")
    assert out == "[] True"


def test_unknown_names_raise_attribute_error():
    out = _fresh("""
import robustrns
from robustrns import cli
for module in (robustrns, cli):
    try:
        module.no_such_name
    except AttributeError as exc:
        print(exc)
""")
    assert out.splitlines() == ["module 'robustrns' has no attribute 'no_such_name'",
                                "module 'robustrns.cli' has no attribute 'no_such_name'"]
