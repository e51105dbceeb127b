import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from robustrns.modmath import _checked_moduli, common_denominator, mod_inverse, round_div
from robustrns.multi_mod import general_robust_crt
from robustrns.two_mod import RemainderObservation, TwoModSystem, solve_level


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


def test_round_div_examples():
    assert round_div(201, 2) == 101
    assert round_div(-1, 2) == 0
    assert round_div(15, 8) == 2
    assert round_div(199, 2) == 100
    assert round_div(7, 1) == 7


def test_round_div_window_bulk(rng):
    import numpy as np

    xs = rng.uniform(-1e9, 1e9, size=100_000)
    rounded = np.floor(xs + 0.5)
    diff = xs - rounded
    assert np.all(diff >= -0.5)
    assert np.all(diff < 0.5)
    spot = [round_div(*float(x).as_integer_ratio()) for x in xs[:200]]
    assert spot == [int(r) for r in rounded[:200]]


@given(st.fractions(min_value=-1000, max_value=1000))
def test_round_div_window_exact(x):
    r = round_div(x.numerator, x.denominator)
    assert Fraction(-1, 2) <= x - r < Fraction(1, 2)


def test_checked_moduli():
    assert _checked_moduli("caller", iter([4, 1, 6])) == (4, 1, 6)
    with pytest.raises(ValueError, match="^caller: need at least one modulus$"):
        _checked_moduli("caller", [])
    for bad in (0, -5, 5.0, True, "5", None):
        with pytest.raises(ValueError, match=f"^caller: invalid modulus {bad!r}$"):
            _checked_moduli("caller", [3, bad])


@pytest.mark.parametrize("call, caller, bad", [
    (lambda: general_robust_crt([10, 12], ["3", 2]), "general_robust_crt", "'3'"),
    (lambda: solve_level(TwoModSystem(1, 2, 3), RemainderObservation("1", 2), 1), "solve_level", "'1'"),
    (lambda: general_robust_crt([10, 12], [1j, 2]), "general_robust_crt", "1j"),
    (lambda: common_denominator((Fraction(1, 2), None), "caller"), "caller", "None"),
])
def test_a_remainder_that_is_not_a_number_is_refused(call, caller, bad):
    with pytest.raises(ValueError, match=f"^{caller}: {bad} is not an int, a rational or a float$"):
        call()
