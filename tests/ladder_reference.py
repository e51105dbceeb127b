"""Reference copy of the tabulated residue ladder, kept to test the walks of
``two_mod.Ladder``: every ladder is built as its sorted rungs (``range(mod)``
at full depth, a sorted tuple otherwise) and ranked by ``bisect``, whatever
its size.

``build(base, mod, depth)`` is the tabulated ladder as it stood before
``two_mod`` kept only ``base, mod, depth, inverse`` per ladder, and its
``rank``, ``neighbours`` and ``nearest`` the bisect versions.  ``rungs``
lists the sorted rungs of any ``two_mod.Ladder`` through this copy.

``SearchedLadder`` is the searched ladder as it stood before one walk
answered its queries: ``first_multiple`` finds the first rung in a window,
and ``neighbours`` doubles, then halves, a window's width on top of it.  It
needs no table, so it is the reference at sizes no table or brute force
reaches.
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


def first_multiple(base: int, mod: int, lo: int, hi: int) -> int:
    """The smallest ``t >= 0`` with ``lo <= t * base % mod <= hi``, for
    ``0 <= lo <= hi < mod`` and coprime ``base``, ``mod``: the question on
    ``(mod % a, a)`` when ``[lo, hi]`` holds no multiple of ``a = base % mod``."""
    a, frames = base % mod, []
    while lo:
        t = -(-lo // a)
        if t * a <= hi:
            break
        frames.append((a, mod, lo))
        a, mod, lo, hi = mod % a, a, -hi % a, -lo % a
    else:
        t = 0
    for a, mod, lo in reversed(frames):
        t = -(-(t * mod + lo) // a)
    return t


@dataclass(frozen=True)
class SearchedLadder:
    base: int
    mod: int
    depth: int
    inverse: int

    def fold(self, rung):
        return rung * self.inverse % self.mod

    def _first(self, lo: int, hi: int) -> int | None:
        lo, hi = max(lo, 0), min(hi, self.mod - 1)
        if lo > hi:
            return None
        t = first_multiple(self.base, self.mod, lo, hi)
        return t if t <= self.depth else None

    def _reach(self, edge: int, up: bool) -> int | None:
        def hit(w):
            return self._first(edge, edge + w) if up else self._first(edge - w, edge)
        room = self.mod - 1 - edge if up else edge
        miss, w = -1, 0
        while hit(w) is None:
            if w >= room:
                return None
            miss, w = w, min(2 * w + 1, room)
        while w - miss > 1:
            mid = (miss + w) // 2
            miss, w = (miss, mid) if hit(mid) is not None else (mid, w)
        return edge + w if up else edge - w

    def neighbours(self, edge: int) -> tuple[int, int]:
        if edge <= 0:
            return 0, 0
        lo = self._reach(edge - 1, up=False)
        hi = self._reach(edge, up=True)
        return lo, lo if hi is None else hi

    def nearest(self, num: int, scale: int, sigma: int, left_open: bool) -> int:
        twice, reach = 2 * num, sigma * scale
        t = self._first((twice - reach) // (2 * scale) + 1, -((-twice - reach) // (2 * scale)) - 1)
        if t is not None:
            return t
        lo, hi = self.neighbours(-(-num // scale))
        side = 2 * num - (lo + hi) * scale
        return self.fold(hi if side > 0 or side == 0 and left_open and hi - lo == sigma else lo)
