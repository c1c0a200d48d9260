import math

import numpy as np
import pytest

from monowave.directions import generate_uniform_directions
from monowave.field import PlaneWaveSum, make_wave
from monowave.growth import (
    DoublingStats,
    characteristic_function,
    doubling_index,
    doubling_tail,
    scaling_factor,
    small_value_fraction,
)
from monowave.nodal import DegenerateSampleError


def test_scaling_factor():
    assert scaling_factor(2) == 2 * math.sqrt(2)
    assert scaling_factor(3) == 2 * math.sqrt(3)


def test_doubling_index_of_cosine(cosine_wave):
    # period-1 field, probe lattice anchored at multiples of 1/density: both
    # suprema hit 1 exactly and the index collapses to its floor value
    assert doubling_index(cosine_wave, np.zeros(2), 1.0) == 1.0
    with pytest.raises(ValueError):
        doubling_index(cosine_wave, np.zeros(2), 0.5)
    with pytest.raises(ValueError):
        doubling_index(cosine_wave, np.zeros(2), 1.0, density=10)


def test_doubling_index_degenerate_field():
    flat = PlaneWaveSum(np.array([[1.0, 0.0]]), np.zeros(1, dtype=complex))
    with pytest.raises(DegenerateSampleError):
        doubling_index(flat, np.zeros(2), 1.0)


def test_doubling_tail_statistics():
    w = make_wave(generate_uniform_directions(2, 16, 1), seed=2)
    with pytest.raises(ValueError):
        doubling_tail(w, 5.0, 1.0, 10, 0)  # R < 10 W
    stats = doubling_tail(w, 12.0, 1.0, 40, 3)
    assert stats.samples.shape == (40,)
    assert np.all(stats.samples >= 1.0)  # outer ball contains the inner one
    q = np.linspace(1.0, 4.0, 13)
    tail = stats.tail(q)
    assert np.all(np.diff(tail) <= 1e-15)  # nonincreasing
    assert stats.tail(0.0) == 1.0


def test_doubling_tail_and_reference_shapes():
    s = DoublingStats(W=1.0, kappa=2 * math.sqrt(2), samples=np.array([1.0, 2.0, 3.0]))
    assert s.tail(2.0) == pytest.approx(1 / 3)  # strictly above
    assert s.tail(0.5) == 1.0
    for Q, D in [(2.0, 1.5), (5.0, 1.5), (9.0, 2.0)]:
        expect = min(1.0, Q**-D + Q ** (2 * D) * math.exp(-Q))
        assert DoublingStats.reference_tail(Q, D) == pytest.approx(expect, rel=1e-15)


def test_small_value_fraction(wave64):
    with pytest.raises(ValueError):
        small_value_fraction(wave64, 200.0, -0.1, 100, 0)
    rep = small_value_fraction(wave64, 200.0, 0.25, 20000, 7)
    # erf(beta/sqrt 2), frozen with mpmath
    assert rep.gaussian_limit == pytest.approx(0.19741265136584746, rel=1e-12)
    assert abs(rep.fraction - rep.gaussian_limit) <= 4 * rep.stderr
    assert small_value_fraction(wave64, 200.0, 0.1, 100, 0).gaussian_limit == pytest.approx(
        0.07965567455405796, rel=1e-12
    )
    assert small_value_fraction(wave64, 200.0, 1.0, 100, 0).gaussian_limit == pytest.approx(
        0.6826894921370859, rel=1e-12
    )


def test_characteristic_function_report(wave64):
    with pytest.raises(ValueError):
        characteristic_function(wave64, 200.0, 11.0, 5, 100, 0)
    rep = characteristic_function(wave64, 200.0, 2.0, 3, 2000, 12345)
    assert np.array_equal(rep.t, [0.0, 1.0, 2.0])
    assert rep.empirical[0] == 1.0 + 0j  # e(0) exactly
    assert rep.stderr[0] == 0.0
    assert rep.predicted[0] == 1.0
    # J0(sqrt 2 * 2 pi / 8)^64, frozen with mpmath
    assert rep.predicted[1] == pytest.approx(4.553621881613217e-10, rel=1e-10)
    assert rep.sup_error == pytest.approx(float(np.max(np.abs(rep.empirical - rep.predicted))))
    assert rep.n_samples == 2000
