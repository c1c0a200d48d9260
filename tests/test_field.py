import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monowave.directions import DirectionSet, empirical_measure, generate_uniform_directions
from monowave.field import (
    CoefficientSet,
    PlaneWaveSum,
    all_ones_coefficients,
    bessel_j,
    covariance_kernel,
    eval_bk,
    make_wave,
    random_phase_coefficients,
)
from monowave.gaussian import child_rng, uniform_measure
from monowave.partition import build_partition

# frozen with mpmath at 30 digits
BESSEL_TABLE = [
    (0, 0.5, 0.9384698072408129),
    (0, 1.0, 0.7651976865579666),
    (0, 2 * math.pi, 0.22027690853993442),
    (0, 12.0, 0.047689310796833535),
    (1, 5.0, -0.32757913759146523),
    (2, 7.0, -0.30141722008594013),
    (3, 2.5, 0.21660039103911352),
    (10, 20.0, 0.1864825580239451),
]


def test_coefficient_sets():
    c = random_phase_coefficients(32, 4)
    assert np.max(np.abs(np.abs(c.values) - 1.0)) < 1e-12
    assert np.array_equal(c.values, random_phase_coefficients(32, 4).values)
    assert not np.array_equal(c.values, random_phase_coefficients(32, 5).values)
    assert np.all(all_ones_coefficients(7).values == 1.0 + 0j)
    with pytest.raises(ValueError):
        CoefficientSet(2, np.array([1.0 + 0j, 0.5 + 0j]))


def test_make_wave_modes():
    dirs = generate_uniform_directions(2, 16, 0)
    w = make_wave(dirs, mode="all-ones")
    assert np.all(w.coeffs.values == 1.0 + 0j)
    with pytest.raises(ValueError):
        make_wave(dirs, mode="white-noise")
    # amplitude normalization |c_n| = sqrt(2/N)
    freqs, c = w.plane_waves()
    assert freqs.shape == (16, 2)
    assert np.max(np.abs(np.abs(c) - math.sqrt(2.0 / 16))) < 1e-14


def test_value_batches_match_scalars():
    w = make_wave(generate_uniform_directions(3, 12, 3), seed=8)
    pts = child_rng(1, 0).uniform(-5, 5, (9, 3))
    batch = w.value(pts)
    singles = np.array([w.value(p) for p in pts])
    assert np.allclose(batch, singles, atol=1e-13)
    assert w(pts[0]) == w.value(pts[0])


def test_wave_solves_helmholtz():
    """Central-difference Laplacian against -4 pi^2 f, both ambient dimensions."""
    for m in (2, 3):
        w = make_wave(generate_uniform_directions(m, 20, m), seed=m)
        pts = child_rng(2, m).uniform(-4, 4, (5, m))
        h = 1e-3
        for x in pts:
            lap = -2 * m * w.value(x)
            for a in range(m):
                e = np.zeros(m)
                e[a] = h
                lap += w.value(x + e) + w.value(x - e)
            lap /= h * h
            assert lap == pytest.approx(-4 * math.pi**2 * w.value(x), rel=2e-5)


def test_gradient_matches_finite_differences():
    w = make_wave(generate_uniform_directions(2, 10, 6), seed=1)
    x = np.array([0.7, -2.3])
    g = w.gradient(x)
    h = 1e-6
    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        fd = (w.value(x + e) - w.value(x - e)) / (2 * h)
        assert g[a] == pytest.approx(fd, abs=1e-6)
    assert np.allclose(w.gradient(x[None, :])[0], g)


def _random_sum(seed: int, m: int) -> tuple[PlaneWaveSum, np.ndarray, tuple, float]:
    """A random unit-frequency sum of O(1) size, plus a lattice to fill it on."""
    rng = np.random.default_rng(seed)
    J = int(rng.integers(1, 65))
    freqs = rng.standard_normal((J, m))
    freqs /= np.linalg.norm(freqs, axis=1, keepdims=True)
    amps = math.sqrt(1.0 / J) * (rng.standard_normal(J) + 1j * rng.standard_normal(J))
    origin = rng.uniform(-10.0, 10.0, m)
    shape = tuple(int(n) for n in rng.integers(2, 12, m))
    return PlaneWaveSum(freqs, amps), origin, shape, float(rng.uniform(0.02, 0.25))


def _lattice(origin, shape, h) -> np.ndarray:
    axes = [origin[a] + h * np.arange(shape[a]) for a in range(len(shape))]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_on_grid_matches_pointwise_value(seed, m):
    F, origin, shape, h = _random_sum(seed, m)
    grid = F.on_grid(origin, shape, h)
    assert grid.shape == shape
    assert np.max(np.abs(grid - F.value(_lattice(origin, shape, h)))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_derivative_sums_on_grid_match_gradient(seed, m):
    # d/dx_a Re sum c e(<v, x>) = Re sum (2 pi i v_a c) e(<v, x>)
    F, origin, shape, h = _random_sum(seed, m)
    grad = F.gradient(_lattice(origin, shape, h))
    freqs, c = F.plane_waves()
    for a in range(m):
        part = PlaneWaveSum(freqs, 2j * math.pi * freqs[:, a] * c).on_grid(origin, shape, h)
        assert np.max(np.abs(part - grad[..., a])) < 1e-12 * 2 * math.pi


def test_eval_bk_against_direct_sum():
    dirs = generate_uniform_directions(2, 64, 2)
    w = make_wave(dirs, seed=11)
    part = build_partition(dirs, 4, 1e-4)
    x = child_rng(5, 0).uniform(-30, 30, (7, 2))
    fast = eval_bk(w, part, x)
    atoms = np.vstack([dirs.vectors, -dirs.vectors])
    a_signed = np.concatenate([w.coeffs.values, np.conj(w.coeffs.values)])
    slow = np.empty_like(fast)
    for i, k in enumerate(part.selected):
        sel = np.nonzero(part.atom_cells == k)[0]
        phases = np.exp(2j * np.pi * (x @ atoms[sel].T))
        slow[:, i] = (phases @ a_signed[sel]) / math.sqrt(2 * dirs.count * part.masses[k])
    assert np.max(np.abs(fast - slow)) < 1e-12


def test_eval_bk_twin_cells_are_conjugate():
    dirs = generate_uniform_directions(2, 64, 2)
    w = make_wave(dirs, seed=11)
    part = build_partition(dirs, 4, 1e-4)
    x = child_rng(6, 0).uniform(-20, 20, (5, 2))
    b = eval_bk(w, part, x)
    col = {int(k): i for i, k in enumerate(part.selected)}
    for k in part.selected:
        twin = int(part.pair[k])
        if twin != int(k):
            assert np.allclose(b[:, col[int(k)]], np.conj(b[:, col[twin]]), atol=1e-12)


def test_eval_bk_rejects_foreign_partition():
    dirs = generate_uniform_directions(2, 16, 0)
    other = generate_uniform_directions(2, 16, 1)
    w = make_wave(dirs, seed=0)
    part = build_partition(other, 4, 1e-4)
    with pytest.raises(ValueError):
        eval_bk(w, part, np.zeros(2))


def test_bessel_frozen_values():
    # gate at the documented 1e-10 absolute-accuracy contract; near the
    # series/asymptotic switch cancellation eats the digits below that
    for nu, z, val in BESSEL_TABLE:
        assert bessel_j(nu, z) == pytest.approx(val, abs=1e-10)
    # vectorized call agrees with scalars
    z = np.array([x[1] for x in BESSEL_TABLE if x[0] == 0])
    v = np.array([x[2] for x in BESSEL_TABLE if x[0] == 0])
    assert np.allclose(bessel_j(0, z), v, rtol=0.0, atol=1e-10)


def test_bessel_against_scipy_sweep():
    special = pytest.importorskip("scipy.special")
    z = np.linspace(0.01, 60.0, 700)
    for nu in (0, 1, 2, 5, 10):
        ours = bessel_j(nu, z)
        ref = special.jv(nu, z)
        assert np.max(np.abs(ours - ref)) < 1e-10


def test_covariance_kernels():
    # uniform kernels, frozen with mpmath: J0(2 pi 1.3) and sinc-type in 3d
    assert covariance_kernel(uniform_measure(2), np.array([1.3, 0.0])) == pytest.approx(
        0.13038742135321305, rel=1e-12
    )
    assert covariance_kernel(uniform_measure(3), np.array([0.0, 1.3, 0.0])) == pytest.approx(
        0.11643488132933183, rel=1e-12
    )
    cos_dirs = DirectionSet(2, 1, np.array([[1.0, 0.0]]))
    mu = empirical_measure(cos_dirs)
    tau = np.array([0.37, 5.0])
    assert covariance_kernel(mu, tau) == pytest.approx(math.cos(2 * math.pi * 0.37), rel=1e-12)
    # kernel(0) = 1 in both regimes
    assert covariance_kernel(uniform_measure(3), np.zeros(3)) == pytest.approx(1.0, rel=1e-12)
    assert covariance_kernel(mu, np.zeros(2)) == pytest.approx(1.0, rel=1e-15)


def test_bessel_input_guards():
    with pytest.raises(ValueError):
        bessel_j(0.3, 1.0)
    with pytest.raises(ValueError):
        bessel_j(11, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, -0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_value_and_gradient_equal_separate_calls(seed, m):
    F, origin, shape, h = _random_sum(seed, m)
    pts = _lattice(origin, shape, h).reshape(-1, m)
    val, grad = F.value_and_gradient(pts)
    assert val.tobytes() == F.value(pts).tobytes()
    assert grad.tobytes() == F.gradient(pts).tobytes()
