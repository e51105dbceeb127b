"""Robust reconstruction from erroneous remainders in residue number systems."""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .modmath import mod_inverse
from .crt_core import (
    CrtSystem,
    InconsistentRemainders,
    crt_reconstruct,
    crt_system,
    remainders_of,
)
from .two_mod import (
    DeltaChain,
    FoldingSolution,
    LevelContext,
    RemainderObservation,
    RobustnessLevel,
    SigmaChain,
    TwoModSystem,
    delta_baseline,
    delta_chain,
    ladder_depths,
    level_context,
    level_table,
    sigma_chain,
    solve_basic,
    solve_level,
    solve_level_real,
    solve_with_context,
    true_folds,
)
from .multi_mod import (
    CascadeSolution,
    CascadeSpec,
    GeneralCrtSolution,
    ModuliGroup,
    cascade_bounds,
    cascade_reconstruct,
    cascade_spec,
    general_robust_crt,
    single_stage_robust_crt,
)
# numpy loads with the oracles and the Monte Carlo harness, so those names
# and submodules resolve on first use (PEP 562); the exact core above is pure
# Python.  A resolved name is bound here, so later lookups skip the hook.
_LAZY = {
    "oracle": (
        "AdversarialInstance", "ExactnessScan", "FoldSearchResult", "OracleReport", "crt_scan",
        "exhaustive_fold_search", "falsifier_report", "ladder_depths_definitional",
        "level_exactness_scan", "range_falsifier", "range_falsifier_basic",
    ),
    "simkit": ("SweepResult", "SweepRow", "TrialConfig", "run_comparison", "run_tau_sweep"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = ("oracle", "simkit", "cli")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")  # the import binds the submodule here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})


__all__ = [
    "mod_inverse",
    "CrtSystem", "InconsistentRemainders", "crt_reconstruct", "crt_system", "remainders_of",
    "DeltaChain", "FoldingSolution", "LevelContext", "RemainderObservation", "RobustnessLevel",
    "SigmaChain", "TwoModSystem", "delta_baseline", "delta_chain", "ladder_depths",
    "level_context", "level_table", "sigma_chain", "solve_basic", "solve_level",
    "solve_level_real", "solve_with_context", "true_folds",
    "CascadeSolution", "CascadeSpec", "GeneralCrtSolution", "ModuliGroup", "cascade_bounds",
    "cascade_reconstruct", "cascade_spec", "general_robust_crt", "single_stage_robust_crt",
    "AdversarialInstance", "ExactnessScan", "FoldSearchResult", "OracleReport", "crt_scan",
    "exhaustive_fold_search", "falsifier_report", "ladder_depths_definitional",
    "level_exactness_scan", "range_falsifier", "range_falsifier_basic",
    "SweepResult", "SweepRow", "TrialConfig", "run_comparison", "run_tau_sweep",
]
