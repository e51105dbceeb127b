import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import crt_reference as reference
from robustrns.crt_core import (
    InconsistentRemainders,
    crt_reconstruct,
    crt_system,
    remainders_of,
)
from robustrns.oracle import crt_scan


def test_remainders_of_examples():
    sys2438 = crt_system([24, 38])
    assert remainders_of(100, sys2438) == (4, 24)
    assert remainders_of(0, sys2438) == (0, 0)
    assert remainders_of(150, crt_system([40, 136])) == (30, 14)
    with pytest.raises(ValueError):
        remainders_of(-1, sys2438)


def test_reconstruct_examples():
    sys2438 = crt_system([24, 38])
    assert crt_reconstruct([4, 24], sys2438) == 100
    assert crt_reconstruct([0, 0], sys2438) == 0
    assert crt_reconstruct([30, 14], crt_system([40, 136])) == 150


def test_system_fields():
    for moduli in ([24, 38], [12, 18], [40, 136], [120, 300, 210, 490], [7], [1, 1]):
        system = crt_system(moduli)
        assert system.moduli == tuple(moduli)
        assert system.gcd == math.gcd(*moduli)
        assert all(system.gcd * c == m for c, m in zip(system.cofactors, moduli, strict=True))
        assert system.lcm == math.lcm(*moduli)


@pytest.mark.parametrize("moduli", [[24, 38], [12, 18]])
def test_roundtrip_exhaustive(moduli):
    system = crt_system(moduli)
    for n in range(system.lcm):
        assert crt_reconstruct(remainders_of(n, system), system) == n


def test_formula_matches_scan_oracle(rng):
    for _ in range(25):
        k = int(rng.integers(2, 4))
        moduli = [int(rng.integers(2, 40)) for _ in range(k)]
        if math.lcm(*moduli) > 10_000:
            continue
        system = crt_system(moduli)
        n = int(rng.integers(0, system.lcm))
        rs = remainders_of(n, system)
        assert crt_reconstruct(rs, system) == crt_scan(rs, moduli) == n


def test_inconsistent_remainders_rejected():
    system = crt_system([12, 18])
    with pytest.raises(InconsistentRemainders):
        crt_reconstruct([1, 2], system)
    with pytest.raises(InconsistentRemainders):
        crt_scan([1, 2], [12, 18])


def test_out_of_range_remainder_rejected():
    system = crt_system([12, 18])
    with pytest.raises(ValueError):
        crt_reconstruct([12, 0], system)


def test_inconsistency_names_the_disagreeing_pair():
    # Both pairs with r_1 agree and the overall gcd is 1: only (10, 15)
    # disagrees, which a later Garner step finds.
    with pytest.raises(InconsistentRemainders, match=r"^remainders 2 and 3 disagree modulo gcd\(10, 15\) = 5$"):
        crt_reconstruct([0, 2, 3], crt_system([6, 10, 15]))


@pytest.mark.parametrize("moduli, remainders, message", [
    ([12, 18], [1, 2], r"remainders 1 and 2 disagree modulo gcd\(12, 18\) = 6"),
    ([4, 6, 10], [0, 0, 1], r"remainders 0 and 1 disagree modulo gcd\(4, 10\) = 2"),
    ([8, 12, 20, 30], [0, 0, 0, 2], r"remainders 0 and 2 disagree modulo gcd\(12, 30\) = 6"),
    ([8, 12, 20, 30], [0, 0, 0, 6], r"remainders 0 and 6 disagree modulo gcd\(20, 30\) = 10"),
])
def test_inconsistency_message_names_the_first_disagreeing_pair(moduli, remainders, message):
    """Whichever Garner step finds the clash, the message names the first
    disagreeing pair in the moduli's order, as the pairwise scan finds it."""
    with pytest.raises(InconsistentRemainders, match=f"^{message}$"):
        crt_reconstruct(remainders, crt_system(moduli))


def test_system_rejects_invalid_moduli():
    for moduli in ([], [0, 5], [3, -5], [3, 5.0], [True, 5]):
        with pytest.raises(ValueError, match="crt_system"):
            crt_system(moduli)


def test_reconstruct_rejects_float_remainders():
    with pytest.raises(ValueError, match="crt_reconstruct"):
        crt_reconstruct([1.0, 2], crt_system([3, 5]))
    with pytest.raises(ValueError, match="crt_reconstruct"):
        crt_reconstruct([True, 2], crt_system([3, 5]))


def test_reconstruct_rejects_a_remainder_too_few():
    with pytest.raises(ValueError, match="^crt_reconstruct: remainder/modulus count mismatch$"):
        crt_reconstruct([1], crt_system([3, 5]))


def test_remainders_of_rejects_non_int_values():
    for value in (7.5, 7.0, True):
        with pytest.raises(ValueError, match="remainders_of"):
            remainders_of(value, crt_system([3, 5]))


def test_scan_rejects_count_mismatch():
    with pytest.raises(ValueError, match="crt_scan"):
        crt_scan([1], [3, 5])
    with pytest.raises(ValueError, match="crt_scan"):
        crt_scan([1, 2, 4], [3, 5])


def test_scan_rejects_empty_moduli():
    with pytest.raises(ValueError, match="crt_scan"):
        crt_scan([0], [])
    with pytest.raises(ValueError, match="crt_scan"):
        crt_scan([], [])


def test_scan_rejects_invalid_moduli():
    for moduli in ([0, 5], [3, -5], [3, 5.0], [True, 5]):
        with pytest.raises(ValueError, match="crt_scan"):
            crt_scan([0, 0], moduli)


def test_scan_refuses_past_its_lcm_limit():
    with pytest.raises(ValueError, match=r"crt_scan: lcm \d+ is past the scan's limit"):
        crt_scan([1, 2], [2**61 - 1, 3])
    assert crt_scan([0], [1 << 20]) == 0  # the limit itself is scanned


def _outcome(reconstruct, rs, system):
    try:
        return reconstruct(rs, system)
    except InconsistentRemainders:
        return InconsistentRemainders


@st.composite
def crt_cases(draw):
    """``(moduli, remainders, value)``: the remainders of a drawn value, or
    independent remainders (often inconsistent) with value None."""
    moduli = draw(st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=5))
    if draw(st.booleans()):
        value = draw(st.integers(min_value=0, max_value=math.lcm(*moduli) - 1))
        return moduli, tuple(value % m for m in moduli), value
    return moduli, tuple(draw(st.integers(min_value=0, max_value=m - 1)) for m in moduli), None


@settings(max_examples=3 * settings.default.max_examples, deadline=None)
@given(crt_cases())
@example(([6, 10, 15], (0, 2, 3), None))
def test_matches_reference_and_scan(case):
    moduli, rs, value = case
    system = crt_system(moduli)
    got = _outcome(crt_reconstruct, rs, system)
    if value is not None:
        assert got == value
    assert got == _outcome(reference.crt_reconstruct, rs, reference.crt_system(moduli))
    if system.lcm <= 10_000:
        assert got == _outcome(crt_scan, rs, moduli)


# Moduli sharing a prime factor near 2^61, 2^64 and 2^100: trial division of
# any of them runs to that prime's square root.
EDGE_MODULI = {
    "2^61": [(2**61 - 1) * 3, (2**61 - 1) * 5],
    "2^64": [(2**64 - 59) * 6, (2**64 - 59) * 10, (2**64 - 59) * 15],
    "2^100": [(2**100 - 15) * 12, (2**100 - 15) * 18, 2**100],
}

_EDGE_ROUNDTRIP = """
import math, random, sys
from robustrns.crt_core import InconsistentRemainders, crt_reconstruct, crt_system, remainders_of

moduli = [int(m) for m in sys.argv[1:]]
system = crt_system(moduli)
assert system.lcm == math.lcm(*moduli)
rnd = random.Random(17)
for value in [0, system.lcm - 1] + [rnd.randrange(system.lcm) for _ in range(200)]:
    rs = remainders_of(value, system)
    assert crt_reconstruct(rs, system) == value
    # every gcd here exceeds 1, so moving one remainder by 1 breaks consistency
    try:
        crt_reconstruct(((rs[0] + 1) % moduli[0],) + rs[1:], system)
    except InconsistentRemainders:
        pass
    else:
        sys.exit(f"inconsistent remainders accepted at value {value}")
"""


@pytest.mark.parametrize("moduli", list(EDGE_MODULI.values()), ids=list(EDGE_MODULI))
def test_edge_size_roundtrip(moduli):
    # In a child process with a wall-clock limit, so a hang fails this test
    # instead of stalling the run.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        done = subprocess.run([sys.executable, "-c", _EDGE_ROUNDTRIP, *map(str, moduli)],
                              env=env, capture_output=True, text=True, timeout=10)
    except subprocess.TimeoutExpired:
        pytest.fail(f"crt round trip on {moduli} did not finish within 10 s")
    assert done.returncode == 0, done.stderr
