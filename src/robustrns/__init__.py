"""Robust reconstruction from erroneous remainders in residue number systems."""

__version__ = "0.1.0"

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
from .oracle import (
    AdversarialInstance,
    ExactnessScan,
    FoldSearchResult,
    OracleReport,
    crt_scan,
    exhaustive_fold_search,
    falsifier_report,
    ladder_depths_definitional,
    level_exactness_scan,
    range_falsifier,
    range_falsifier_basic,
)
from .simkit import (
    SweepResult,
    SweepRow,
    TrialConfig,
    run_comparison,
    run_tau_sweep,
)

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
