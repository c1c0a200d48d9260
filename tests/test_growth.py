import math

import numpy as np
import pytest

from monowave.directions import generate_uniform_directions
from monowave.field import _LOWRANK_TOL, PlaneWaveSum, make_wave
from monowave.gaussian import child_rng
from monowave.grid import lattice_ball
from monowave.growth import (
    PROBE_DENSITY,
    DoublingStats,
    characteristic_function,
    doubling_index,
    doubling_tail,
    scaling_factor,
    small_value_fraction,
)
from monowave.nodal import DegenerateSampleError

from conftest import fill_rounding


def test_scaling_factor():
    assert scaling_factor(2) == 2 * math.sqrt(2)
    assert scaling_factor(3) == 2 * math.sqrt(3)


def test_doubling_index_of_cosine(cosine_wave):
    # period-1 field, probe lattice anchored at multiples of 1/PROBE_DENSITY: both
    # suprema hit 1 exactly and the index collapses to its floor value
    assert doubling_index(cosine_wave, np.zeros(2), 1.0) == 1.0
    with pytest.raises(ValueError):
        doubling_index(cosine_wave, np.zeros(2), 0.5)


def _doubling_oracle(field, x, W):
    """Brute force: every point of the box of (1/PROBE_DENSITY) Z^m around the
    outer ball, each kept by its own norm test, then both suprema with x added.
    Returns the index and the inner supremum."""
    h = 1.0 / PROBE_DENSITY
    R = scaling_factor(len(x)) * W
    ks = [np.arange(math.floor((c - R) / h), math.ceil((c + R) / h) + 1) for c in x]
    pts = h * np.stack(np.meshgrid(*ks, indexing="ij"), axis=-1).reshape(-1, len(x))
    dist = np.linalg.norm(pts - x, axis=1)
    keep = dist <= R
    vals = np.abs(field.value(np.concatenate([pts[keep], x[None, :]])))
    sup_inner = vals[np.append(dist[keep] <= W, True)].max()
    return math.log(vals.max() / sup_inner) + 1.0, sup_inner


class _PointwiseOnly:
    """A wave seen only through .dirs and .value, as the benchmark's traced proxy sees it."""

    def __init__(self, wave):
        self.dirs, self.value = wave.dirs, wave.value


BRUTE_FORCE_CASES = pytest.mark.parametrize("m, W", [(2, 1.5), (3, 1.0)])
OFF_LATTICE = np.array([0.3137, -1.2718, 0.0421])  # no coordinate on the probe lattice


@BRUTE_FORCE_CASES
def test_doubling_index_matches_brute_force(m, W):
    # an evaluator that is not a PlaneWaveSum is probed pointwise: bitwise the oracle
    w = make_wave(generate_uniform_directions(m, 12, 4), seed=6)
    x = OFF_LATTICE[:m]
    assert doubling_index(_PointwiseOnly(w), x, W) == _doubling_oracle(w, x, W)[0]  # bitwise


@BRUTE_FORCE_CASES
def test_doubling_index_fill_within_bound_of_brute_force(m, W):
    w = make_wave(generate_uniform_directions(m, 12, 4), seed=6)
    x = OFF_LATTICE[:m]
    want, sup_inner = _doubling_oracle(w, x, W)
    # A PlaneWaveSum fills the probe box through on_grid. Each filled value is
    # within delta of the pointwise one: the low-rank fill's truncation
    # _LOWRANK_TOL plus the rounding of the fill and of the pointwise
    # evaluation, each fill_rounding of the box, all times sum_j |c_j|. A
    # supremum over a set moves by at most the largest move of its values, so
    # each log supremum moves by at most delta / sup_inner (the outer
    # supremum is the larger), and the index by at most 2 delta / sup_inner.
    axes, _ = lattice_ball(x, scaling_factor(m) * W, 1.0 / PROBE_DENSITY)
    box = ([ax[0] for ax in axes], tuple(map(len, axes)), 1.0 / PROBE_DENSITY)
    delta = (_LOWRANK_TOL + 2 * fill_rounding(*box)) * np.abs(w.amps).sum()
    got = doubling_index(w, x, W)
    assert abs(got - want) <= 2 * delta / sup_inner


# the tails of the benchmark's wave-report doubling (m = 2, N = 64, uniform
# directions, R = 200, W = 2, 20 centres) on the CLI's Q grid, as counts of
# the 20 centres above each Q, frozen from the pointwise probe: the lattice
# fill moves the indices only at rounding, and no index crosses a Q
WAVE_REPORT_TAIL_COUNTS = {
    1: [16, 14, 12, 10, 10, 6, 2, 2, 1],
    9: [17, 17, 15, 12, 8, 7, 7, 3, 1, 1, 1, 1],
}


@pytest.mark.parametrize("seed", [1, 9], ids=["1", "9"])
def test_doubling_tails_frozen_on_benchmark_config(seed):
    dirs = generate_uniform_directions(2, 64, seed)
    # the CLI's coefficient stream for generator = uniform
    wave = make_wave(dirs, seed=int(child_rng(seed, 1).integers(2**63)))
    q_grid = np.arange(1.0, 4.0 + 1e-9, 0.05)
    counts = WAVE_REPORT_TAIL_COUNTS[seed]
    want = np.array(counts + [0] * (len(q_grid) - len(counts))) / 20
    assert np.array_equal(doubling_tail(wave, 200.0, 2.0, 20, seed).tail(q_grid), want)


def test_doubling_index_degenerate_field():
    flat = PlaneWaveSum(np.array([[1.0, 0.0]]), np.zeros(1, dtype=complex))
    with pytest.raises(DegenerateSampleError) as info:
        doubling_index(flat, np.zeros(2), 1.0)
    assert info.value.reason == "vanished_supremum"


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
    s = DoublingStats(samples=np.array([1.0, 2.0, 3.0]))
    assert s.tail(2.0) == pytest.approx(1 / 3)  # strictly above
    assert s.tail(0.5) == 1.0


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
