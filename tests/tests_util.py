"""Shared helpers for randomized tests and bounded CLI runs."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from robustrns.two_mod import TwoModSystem


def random_coprime_pair(rng, lo=2, hi=200):
    while True:
        g1 = int(rng.integers(lo, hi))
        g2 = int(rng.integers(g1 + 1, hi + 1))
        if math.gcd(g1, g2) == 1:
            return g1, g2


def random_system(rng, gamma_max=120, m_max=20) -> TwoModSystem:
    g1, g2 = random_coprime_pair(rng, hi=gamma_max)
    return TwoModSystem(int(rng.integers(1, m_max)), g1, g2)


def int32_tau_limit(kernels, moduli, range_mode="allow", top=2**50):
    """The largest integer tau at which every kernel's ``reach`` stays below
    ``simkit.INT32_LIMIT`` (``top`` when even that tau fits, -1 when none
    does).  ``simkit._trial_rows`` joins these reaches with the values' and
    the moduli's into one reach, so an integer sweep at this tau runs in
    int32 where its values and moduli stay below the limit too."""
    from robustrns import simkit

    def fits(tau):
        spans = simkit._remainder_spans(moduli, tau, range_mode)
        return max(k.reach(spans) for k in kernels) < simkit.INT32_LIMIT

    if fits(top):
        return top
    if not fits(0):
        return -1
    lo, hi = 0, top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def run_cli_bounded(argv, seconds=5):
    """``robustrns.cli.main(argv)`` in a child process under a 1 GB
    address-space limit, as ``(exit code, stdout, stderr)``; the test fails
    if the child takes more than ``seconds`` of wall clock."""
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from robustrns.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        done = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True,
                              text=True, timeout=seconds)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{' '.join(argv)} did not finish within {seconds} s")
    return done.returncode, done.stdout, done.stderr
