import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from robustrns.modmath import mod_inverse, round_half_up


def test_mod_inverse_known_values():
    # brute-force checks: 29*5 = 145 = 8*18 + 1 and 18*21 = 378 = 13*29 + 1
    assert mod_inverse(29, 18) == 5
    assert mod_inverse(18, 29) == 21
    assert mod_inverse(5, 1) == 0


def test_mod_inverse_brute_force_agreement():
    for a, n in [(29, 18), (18, 29), (7, 12), (49, 20)]:
        expected = next(x for x in range(n) if a * x % n == 1)
        assert mod_inverse(a, n) == expected


def test_mod_inverse_rejects_non_coprime():
    with pytest.raises(ValueError):
        mod_inverse(6, 9)
    with pytest.raises(ValueError):
        mod_inverse(4, 0)


@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=1, max_value=10_000))
def test_mod_inverse_roundtrip(a, n):
    if math.gcd(a, n) != 1:
        return
    x = mod_inverse(a, n)
    assert 0 <= x < max(n, 1)
    assert a * x % n == 1 % n


def test_round_half_up_examples():
    assert round_half_up(100.5) == 101
    assert round_half_up(-0.5) == 0
    assert round_half_up(1.875) == 2
    assert round_half_up(Fraction(-1, 2)) == 0
    assert round_half_up(Fraction(199, 2)) == 100
    assert round_half_up(7) == 7


def test_round_half_up_rejects_non_finite():
    with pytest.raises(ValueError):
        round_half_up(float("nan"))
    with pytest.raises(ValueError):
        round_half_up(float("inf"))


def test_round_half_up_window_bulk(rng):
    import numpy as np

    xs = rng.uniform(-1e9, 1e9, size=100_000)
    rounded = np.floor(xs + 0.5)
    diff = xs - rounded
    assert np.all(diff >= -0.5)
    assert np.all(diff < 0.5)
    spot = [round_half_up(float(x)) for x in xs[:200]]
    assert spot == [int(r) for r in rounded[:200]]


@given(st.fractions(min_value=-1000, max_value=1000))
def test_round_half_up_window_exact(x):
    r = round_half_up(x)
    assert Fraction(-1, 2) <= x - r < Fraction(1, 2)
