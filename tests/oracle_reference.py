"""Reference copies of two oracles as plain Python loops.

``exhaustive_fold_search`` is ``oracle.exhaustive_fold_search`` as it stood
before the scan moved to numpy blocks: one candidate at a time, the scalar
deviation expression, and a strict comparison so ties keep the smallest
value.  ``test_oracle.py`` requires the package's search to return equal
results with a deviation of the same type.

``level_exactness_scan`` is ``oracle.level_exactness_scan`` as it stood
before it solved each observation once and counted cases in numpy: one
``solve_with_context`` call per case.  ``test_oracle.py`` requires the
package's scan to return an equal ``ExactnessScan``.

``ladder_depths_definitional`` is ``oracle.ladder_depths_definitional`` as it
stood before it placed rungs in cells of width sigma_j: each ladder grows as a
sorted list, one ``bisect`` and one ``list.insert`` per rung.
``test_oracle.py`` requires the package's depths to be equal.
"""

from __future__ import annotations

import bisect

from robustrns.oracle import ExactnessScan, FoldSearchResult
from robustrns.two_mod import (
    RemainderObservation,
    TwoModSystem,
    level_context,
    sigma_chain,
    solve_with_context,
)


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


def level_exactness_scan(system: TwoModSystem, j: int) -> ExactnessScan:
    """Try every value below the level's range and every in-range integer error
    pair whose scaled difference stays in the guarantee window; the solver must
    recover the exact folds and keep the estimate within the largest error."""
    if system.is_real:
        raise ValueError("level_exactness_scan: integer systems only")
    ctx = level_context(system, j)
    m, m1, m2 = system.m, system.m1, system.m2
    window = m * ctx.sigma  # error differences allowed in [-window/2, window/2)
    lo_diff = -(window // 2)
    hi_diff = (window - 1) // 2 if window % 2 else window // 2 - 1
    checked = fold_fail = est_fail = 0
    for value in range(ctx.dynamic_range):
        r1, r2 = value % m1, value % m2
        n1, n2 = value // m1, value // m2
        for d1 in range(-r1, m1 - r1):
            lo = max(-r2, d1 - hi_diff)
            hi = min(m2 - 1 - r2, d1 - lo_diff)
            for d2 in range(lo, hi + 1):
                checked += 1
                sol = solve_with_context(ctx, RemainderObservation(r1 + d1, r2 + d2))
                if (sol.n1, sol.n2) != (n1, n2):
                    fold_fail += 1
                elif abs(sol.estimate - value) > max(abs(d1), abs(d2)):
                    est_fail += 1
    return ExactnessScan(j, checked, fold_fail, est_fail)


def ladder_depths_definitional(system: TwoModSystem, j: int) -> tuple[int, int]:
    """Ladder depths straight from the definition: grow each ladder until its
    minimum gap drops below sigma_j, and return the last depth that held."""
    chain = sigma_chain(system)
    if not 1 <= j <= chain.levels:
        raise ValueError(f"ladder_depths_definitional: level {j} out of range")
    target = chain.sigma(j)

    def grow(base: int, mod: int) -> int:
        elems = [0]
        for t in range(1, mod):
            x = t * base % mod
            i = bisect.bisect_left(elems, x)
            elems.insert(i, x)
            worst = mod
            if i + 1 < len(elems):
                worst = min(worst, elems[i + 1] - x)
            if i > 0:
                worst = min(worst, x - elems[i - 1])
            if worst < target:
                return t - 1
        return mod - 1

    return grow(system.gamma1, system.gamma2), grow(system.gamma2, system.gamma1)
