import tracemalloc

import numpy as np
import pytest

from monowave.directions import DirectionSet, generate_uniform_directions
from monowave.field import MonochromaticWave, make_wave


@pytest.fixture(scope="session")
def cosine_wave():
    """Single-frequency fixture: f(x) = sqrt(2) cos(2 pi x1)."""
    return MonochromaticWave(DirectionSet(np.array([[1.0, 0.0]])), np.array([1.0 + 0j]))


@pytest.fixture(scope="session")
def wave64():
    # the workhorse deterministic wave used across the statistical tests
    dirs = generate_uniform_directions(2, 64, 5)
    return make_wave(dirs, seed=105)


def traced_peak(fn) -> int:
    """Peak traced heap, in bytes, while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
