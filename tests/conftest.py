import math
import os

import numpy as np
import pytest
from hypothesis import settings

# ``HYPOTHESIS_PROFILE=ci`` runs every property test with ten times the
# default examples (tests that ask for a multiple of the default keep it);
# Tier-1 runs the default profile.
settings.register_profile("ci", max_examples=10 * settings.get_profile("default").max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def random_coprime_pair(rng, lo=2, hi=200):
    """Cofactor pair (g1, g2) with 1 < g1 < g2 <= hi and gcd 1."""
    while True:
        g1 = int(rng.integers(lo, hi))
        g2 = int(rng.integers(g1 + 1, hi + 1))
        if math.gcd(g1, g2) == 1:
            return g1, g2


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
