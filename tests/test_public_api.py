"""The package's public names: ``__all__`` is the API, and the README lists it."""

import re
import types
from pathlib import Path

import robustrns

README = Path(__file__).resolve().parents[1] / "README.md"


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
