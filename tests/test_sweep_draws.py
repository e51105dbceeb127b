"""The numpy draw identities the sweep loop rests on.

Sweeps draw into their workspace instead of calling ``Generator.uniform``:
real errors as ``-tau + (2 tau) u`` and real values as ``range * u`` from
``Generator.random``, and the integer values of a two-modulus sweep below
``INT32_LIMIT`` as int32 instead of int64.  Each draw must give the bits of the
call it replaces and leave the generator where that call leaves it, or every
seeded result changes.  A numpy that rounds or streams these draws differently
fails here by name, before the golden hashes of ``tests/test_cli.py`` do.
"""

import numpy as np
import pytest

from robustrns import simkit

SIZE = 4099  # odd, so no draw ends on a buffer boundary by chance
SEEDS = range(6)
TAUS = [0.0, 5e-324, 0.125, 6.0, 1e300, *map(float, np.random.default_rng(7).uniform(0, 50, 4)),
        *map(float, 10.0 ** np.random.default_rng(8).uniform(-300, 300, 4))]
HIGHS = [1, 2, 3, 255, 256, 257, 468, 6786, 2**16 + 1, 2**30, 2**31 - 1, 2**31,
         *map(int, np.random.default_rng(9).integers(1, 2**31, 6))]


def pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("tau", TAUS, ids=repr)
def test_real_errors_are_the_bits_of_uniform(tau):
    for seed in SEEDS:
        ours, numpys = pair(seed)
        out = np.empty(SIZE)
        errors = simkit._sample_errors(ours, tau, "real", out)
        assert errors is out
        assert_same_bits(errors, numpys.uniform(-tau, tau, SIZE))
        assert ours.random() == numpys.random()


@pytest.mark.parametrize("value_range", [1.0, 468.0, 1885.0, 0.75 * 2**53, 1e300])
def test_real_values_are_the_bits_of_uniform(value_range):
    for seed in SEEDS:
        ours, numpys = pair(seed)
        values = np.empty(SIZE)
        ours.random(out=values)
        values *= value_range
        assert_same_bits(values, numpys.uniform(0.0, value_range, SIZE))
        assert ours.random() == numpys.random()


@pytest.mark.parametrize("high", HIGHS)
def test_int32_values_are_the_int64_draw(high):
    for seed in SEEDS:
        ours, numpys = pair(seed)
        narrow = ours.integers(0, high, size=SIZE, dtype=np.int32)
        assert narrow.dtype == np.int32
        np.testing.assert_array_equal(narrow, numpys.integers(0, high, size=SIZE))
        assert ours.random() == numpys.random()
