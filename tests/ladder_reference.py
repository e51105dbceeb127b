"""Reference copy of the tabulated residue ladder, kept to test the searched
one: every ladder is built as its sorted rungs (``range(mod)`` at full depth,
a sorted tuple otherwise) and ranked by ``bisect``, whatever its size.

``build(base, mod, depth)`` is the tuple ``Ladder.build`` as it stood before
ladders above ``two_mod.LADDER_TABLE_MAX`` rungs were searched, and its
``rank``, ``neighbours`` and ``nearest`` the bisect versions.  ``rungs``
lists the sorted rungs of any ``two_mod.Ladder`` through this copy.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Ladder:
    rungs: Sequence[int]
    depth: int
    inverse: int
    mod: int

    def rank(self, edge: int) -> int:
        if type(self.rungs) is range:
            return min(max(edge, 0), self.mod)
        return bisect.bisect_left(self.rungs, edge)

    def neighbours(self, edge: int) -> tuple[int, int]:
        i = self.rank(edge)
        return self.rungs[max(i - 1, 0)], self.rungs[min(i, self.depth)]

    def fold(self, rung):
        return rung * self.inverse % self.mod

    def nearest(self, num: int, scale: int, sigma: int, left_open: bool) -> int:
        rungs = self.rungs
        edge = -(-num // scale)
        if rungs[-1] < edge:
            return self.fold(rungs[-1])
        i = max(edge, 0) if type(rungs) is range else bisect.bisect_left(rungs, edge)
        lo, hi = rungs[max(i - 1, 0)], rungs[i]
        side = 2 * num - (lo + hi) * scale
        rung = hi if side > 0 or side == 0 and left_open and hi - lo == sigma else lo
        return rung * self.inverse % self.mod


@lru_cache(maxsize=64)
def build(base: int, mod: int, depth: int) -> Ladder:
    rungs = range(mod) if depth == mod - 1 else tuple(sorted(t * base % mod for t in range(depth + 1)))
    return Ladder(rungs, depth, pow(base, -1, mod), mod)


def rungs(ladder) -> Sequence[int]:
    """The sorted rungs of a ``two_mod.Ladder``, tabulated or searched."""
    return build(ladder.base, ladder.mod, ladder.depth).rungs
