"""Host-speed gauges: fixed reference loops timed between measured segments.

On a shared host the speed of this process drifts for seconds to minutes at a
time.  On the 2-vCPU KVM guest the benchmark was tuned on, pure-Python code
ran up to 2x slower in the slow state and numpy kernels up to 1.35x, so a
run's timings depended more on which state it met than on the code.  A gauge
times a short loop that never touches the package right before and right
after each measured segment.  The segment's time is multiplied by
``reference / probe``: it then reads as if the host had run at the
reference speed, the probe loop's time in the fast state of that host.  A
change to the package moves the corrected time exactly as it moves the raw
time, because the probe loops do not depend on the package.

Two gauges exist because the two kinds of code slow down differently: the
Python gauge corrects pure-Python work (exact solves, oracles, ladder builds,
imports), the numpy gauge corrects the vectorized CLI sweeps.  The module
imports nothing beyond ``time`` until the numpy gauge first runs, so a fresh
interpreter can gauge the import of the package with it.
"""

from __future__ import annotations

import time

# Probe-loop times (ns) in the fast state of a 2-vCPU KVM guest on a shared
# Xeon host, Python 3.11.7, numpy 2.4.6.  They only fix the scale of the
# corrected times; any host can use them.
PYTHON_REFERENCE_NS = 300_000
NUMPY_REFERENCE_NS = 2_300_000
PROBE_REPS = 2


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def python_loop() -> int:
    """Integer, tuple, dict and call work, as in the exact solvers."""
    table = {}
    x = 12345
    for _ in range(500):
        x = (x * 1103515245 + 12345) % 2147483648
        q, r = divmod(x, 977)
        table[r & 255] = (q, _gcd(q, r + 1))
    return len(table)


_numpy_base = None


def numpy_loop() -> float:
    """Sampling, rounding, modular and masked array work, as in simkit."""
    import numpy as np

    global _numpy_base
    if _numpy_base is None:
        _numpy_base = np.random.default_rng(0).random(65536) * 1000.0
    rng = np.random.default_rng(7)
    r = rng.random(65536) * 377.0
    q = np.floor(r / 13.0 + 0.5).astype(np.int64)
    m = (q * 7) % 29
    hi = r >= 150.0
    return float(np.abs(r[hi] - _numpy_base[hi]).sum() + m.sum())


class Gauge:
    """Converts the raw time of a segment into time at the reference speed.

    Call ``start()`` right before a segment (or a run of back-to-back
    segments) and ``scale()`` right after each one; ``scale`` returns the
    factor for the segment that just ended, from the probes on both sides
    of it.  Each probe is the fastest of ``PROBE_REPS`` loops, since an
    interrupt only ever lengthens a loop.
    """

    def __init__(self, loop, reference_ns: int):
        self.loop = loop
        self.reference_ns = reference_ns
        self.last = None

    def _probe(self) -> int:
        best = None
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter_ns()
            self.loop()
            spent = time.perf_counter_ns() - t0
            best = spent if best is None else min(best, spent)
        return best

    def start(self) -> None:
        self.last = self._probe()

    def scale(self) -> float:
        now = self._probe()
        factor = 2 * self.reference_ns / (self.last + now)
        self.last = now
        return factor


PYTHON = Gauge(python_loop, PYTHON_REFERENCE_NS)
NUMPY = Gauge(numpy_loop, NUMPY_REFERENCE_NS)
