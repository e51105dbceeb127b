"""Reference copy of the exhaustive fold search as a plain Python loop.

This is ``oracle.exhaustive_fold_search`` as it stood before the scan moved
to numpy blocks: one candidate at a time, the scalar deviation expression,
and a strict comparison so ties keep the smallest value.
``test_oracle.py`` requires the package's search to return equal results
with a deviation of the same type.
"""

from __future__ import annotations

from robustrns.oracle import FoldSearchResult
from robustrns.two_mod import RemainderObservation, TwoModSystem


def exhaustive_fold_search(system: TwoModSystem, obs: RemainderObservation, search_bound: int) -> FoldSearchResult:
    """Scan every candidate value below the bound for the best remainder fit.

    Minimizes ``max(|r1~ - r1|, |r2~ - r2|)``; ties go to the smallest value.
    """
    if system.is_real:
        raise ValueError("exhaustive_fold_search: integer systems only")
    if search_bound > system.lcm:
        raise ValueError("exhaustive_fold_search: bound exceeds the lcm")
    best_n, best_dev = 0, None
    m1, m2 = system.m1, system.m2
    for n in range(search_bound):
        dev = max(abs(obs.r1 - n % m1), abs(obs.r2 - n % m2))
        if best_dev is None or dev < best_dev:
            best_n, best_dev = n, dev
    return FoldSearchResult(best_n // m1, best_n // m2, best_n, best_dev)
