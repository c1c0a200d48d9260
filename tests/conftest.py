import math
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


def fill_rounding(origin, shape, h) -> float:
    """Rounding of a lattice fill relative to the coefficient scale.

    Both fills round phases of size up to 2 pi |x| on the lattice, so each
    value may differ by a few eps (1 + 2 pi |x|) times the scale.
    """
    far = np.linalg.norm(np.abs(origin) + h * (np.asarray(shape) - 1))
    return 4 * np.finfo(float).eps * (1 + 2 * math.pi * far)


def chebyshev_tail(omega: float, L: int) -> float:
    """4 sum_{k >= L} (omega/2)^k / k!, summed until the terms fall below rounding."""
    half = omega / 2
    if half == 0:
        return 0.0
    k, term, total = L, math.exp(L * math.log(half) - math.lgamma(L + 1)), 0.0
    while term > 1e-20 * total or k <= half:
        total += term
        k += 1
        term *= half / k
    return 4 * total
