import numpy as np
import pytest
from hypothesis import settings

from coupledfp import get_builtin

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 run is reproducible.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def linear():
    return get_builtin("linear_demo")


@pytest.fixture
def affine():
    return get_builtin("affine_demo")


@pytest.fixture
def integral():
    return get_builtin("integral_demo")


def rand_points(rng, lo, hi, count, dim):
    return rng.uniform(lo, hi, size=(count, dim))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
