import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monowave import field
from monowave.directions import generate_uniform_directions, empirical_measure
from monowave.field import PlaneWaveSum, _circle_factors, _LowRankLattice, bessel_j
from monowave.gaussian import (
    SpectralMeasure,
    _sphere_mesh,
    atomic_cloud,
    check_nondegenerate,
    child_rng,
    measure_from_partition,
    sample_atomic,
    sample_uniform,
    uniform_measure,
)
from monowave.partition import build_partition, positive_side

from conftest import traced_peak


def _ball_points(rng, m, radius, n):
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * (radius * rng.uniform(0, 1, n) ** (1.0 / m))[:, None]


def test_child_rng_streams():
    assert child_rng(7, 3).integers(2**63) == child_rng(7, 3).integers(2**63)
    assert child_rng(7, 3).integers(2**63) != child_rng(7, 4).integers(2**63)
    assert child_rng(8, 3).integers(2**63) != child_rng(7, 3).integers(2**63)


def test_spectral_measure_validation():
    with pytest.raises(ValueError):  # pair masses must sum to 1
        SpectralMeasure(dim=2, freqs=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        weights=np.array([0.5, 0.4]))
    with pytest.raises(ValueError):  # one weight per atom in R^dim
        SpectralMeasure(dim=3, freqs=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        weights=np.array([0.5, 0.5]))
    mu = SpectralMeasure(dim=2, freqs=np.array([[1.0, 0.0]]), weights=np.array([1.0]))
    assert mu.kind == "atomic"
    assert not mu.hyperplane_ok  # one +- pair on one line
    mu2 = SpectralMeasure(dim=2, freqs=np.array([[1.0, 0.0], [0.0, 1.0]]),
                          weights=np.full(2, 0.5))
    assert mu2.hyperplane_ok


def _two_sided_reference(atoms, weights, seed):
    """The two-sided rule: atoms closed under negation, each pair found by its
    nearest antipode, one coefficient pair per +- pair at the positive-side atom
    (sorted atom indices), c = sqrt(2 w) (g - i h) with w the atom's own weight."""
    pair = np.full(len(atoms), -1)
    for i in range(len(atoms)):
        if pair[i] < 0:
            j = int(np.argmin(np.linalg.norm(atoms + atoms[i], axis=1)))
            pair[i], pair[j] = j, i
    reps = sorted({i if positive_side(atoms[i]) else j for i, j in enumerate(pair) if i <= j})
    rng = np.random.default_rng(seed)
    g, h = rng.standard_normal(len(reps)), rng.standard_normal(len(reps))
    return atoms[reps], np.sqrt(2.0 * weights[reps]) * (g - 1j * h)


def _two_sided_empirical(dirs):
    atoms = np.vstack([dirs.vectors, -dirs.vectors])
    return atoms, np.full(len(atoms), 1.0 / len(atoms))


def _two_sided_partition(part):
    """Selected cell centers with weights mu_k / kappa^2, a self-paired cell split into +-c."""
    kappa_sq = float(part.masses[part.selected].sum())
    atoms, weights = [], []
    for k in part.selected:
        gamma = part.masses[k] / kappa_sq
        if part.pair[k] == k:
            atoms += [part.centers[k], -part.centers[k]]
            weights += [gamma / 2, gamma / 2]
        else:
            atoms.append(part.centers[k])
            weights.append(gamma)
    return np.array(atoms), np.array(weights)


def test_one_sided_draws_match_the_two_sided_rule():
    cases = []
    for m in (2, 3):
        dirs = generate_uniform_directions(m, 64, 5)
        cases.append((empirical_measure(dirs), _two_sided_empirical(dirs)))
    dirs = generate_uniform_directions(2, 64, 5)
    for K, delta in ((1, 0.5), (4, 2**-8)):
        part = build_partition(dirs, K, delta)
        cases.append((measure_from_partition(part), _two_sided_partition(part)))
    assert len(cases[2][1][0]) == 2  # K = 1: one self-paired cell, split into +-c
    tau = np.array([[0.0, 0.0], [0.37, -1.2], [2.5, 4.0]])
    for mu, (atoms, weights) in cases:
        for seed in (0, 7, 2**40 + 3):
            want_freqs, want_amps = _two_sided_reference(atoms, weights, seed)
            freqs, amps = sample_atomic(mu, seed).plane_waves()
            assert freqs.tobytes() == want_freqs.tobytes()
            assert amps.tobytes() == want_amps.tobytes()
        # the covariance kernel and the Kac-Rice gradient covariance, against their two-sided sums
        m = mu.dim
        lags = np.zeros((3, m))
        lags[:, :2] = tau
        one = PlaneWaveSum(mu.freqs, mu.weights).value(lags)
        two = np.cos(2 * np.pi * lags @ atoms.T) @ weights
        assert np.max(np.abs(one - two)) <= 1e-15 * np.max(np.abs(two))
        cov_one = (mu.freqs.T * mu.weights) @ mu.freqs
        cov_two = (atoms.T * weights) @ atoms
        assert np.max(np.abs(cov_one - cov_two)) <= 1e-15 * np.max(np.abs(cov_two))


def test_uniform_measure():
    mu = uniform_measure(3)
    assert mu.kind == "uniform" and mu.dim == 3
    assert mu.freqs is None and mu.hyperplane_ok


def test_measure_from_partition_weights():
    dirs = generate_uniform_directions(2, 64, 5)
    part = build_partition(dirs, 8, 2**-8)
    mu = measure_from_partition(part)
    assert mu.kind == "atomic"
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert mu.hyperplane_ok
    # one atom per selected pair of cells, at the positive-side center
    assert np.array_equal(mu.freqs, part.centers[part.selected_positive])
    assert 2 * len(mu.freqs) == len(part.selected)
    # K = 1: the single self-paired cell is one pair, its center on the positive side
    part1 = build_partition(generate_uniform_directions(2, 8, 1), 1, 0.5)
    mu1 = measure_from_partition(part1)
    assert np.array_equal(mu1.freqs, [-part1.centers[0]])
    assert positive_side(mu1.freqs[0]) and not positive_side(part1.centers[0])
    assert np.array_equal(mu1.weights, [1.0])


def test_sample_atomic_determinism_and_energy():
    mu = empirical_measure(generate_uniform_directions(2, 16, 3))
    F = sample_atomic(mu, 99)
    G = sample_atomic(mu, 99)
    pts = _ball_points(np.random.default_rng(0), 2, 10.0, 64)
    assert np.array_equal(F.value(pts), G.value(pts))
    assert not np.array_equal(F.value(pts), sample_atomic(mu, 100).value(pts))
    # spatial mean square approaches the realization's own kernel at lag 0
    freqs, coeffs = F.plane_waves()
    own0 = float(np.sum(np.abs(coeffs) ** 2) / 2)
    x = _ball_points(np.random.default_rng(5), 2, 60.0, 60000)
    assert np.mean(F.value(x) ** 2) == pytest.approx(own0, abs=0.02)


def test_sample_atomic_gradient():
    mu = empirical_measure(generate_uniform_directions(3, 8, 2))
    F = sample_atomic(mu, 4)
    x = np.array([0.3, -1.1, 0.8])
    g = F.gradient(x)
    h = 1e-6
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        assert g[a] == pytest.approx((F.value(x + e) - F.value(x - e)) / (2 * h), abs=1e-6)


def test_atomic_cloud_matches_per_draw_values():
    # Bound fixed before the run: at |y| <= 1 the loop's phase t + arg c is at
    # most 3 pi and rounds by about eps (|t| + pi) absolute, and its cosine,
    # the products and the term sums add a few eps per term more; the cloud
    # rounds its cosine, sine and sums alike. 16 eps sum_k sqrt(w_k)
    # (|g_k| + |h_k|) per draw covers both sides with room.
    part = build_partition(generate_uniform_directions(2, 64, 5), 8, 2**-8)
    part1 = build_partition(generate_uniform_directions(2, 8, 1), 1, 0.5)  # one self-paired cell
    cases = [
        ("empirical m=2", empirical_measure(generate_uniform_directions(2, 64, 3))),
        ("empirical m=3", empirical_measure(generate_uniform_directions(3, 64, 3))),
        ("partition K=8", measure_from_partition(part)),
        ("partition K=1", measure_from_partition(part1)),
        # A = 2048 atoms: a row block holds 16 draws
        ("empirical A=2048", empirical_measure(generate_uniform_directions(2, 2048, 1))),
    ]
    S = 40
    for label, mu in cases:
        m, A = mu.dim, len(mu.weights)
        y = np.zeros((3, m))
        y[1, 0] = 1.0
        y[2, :2] = [0.3, -0.6]
        seeds = child_rng(4, 2).integers(2**63, size=S)
        got = atomic_cloud(mu, seeds, y)
        assert got.shape == (S, 3), label
        for s, vals in zip(seeds.tolist(), got):
            rng = np.random.default_rng(s)  # the stream as two calls: g, then h
            g, h = rng.standard_normal(A), rng.standard_normal(A)
            bound = 16 * np.finfo(float).eps * np.sum(np.sqrt(mu.weights) * (np.abs(g) + np.abs(h)))
            assert np.max(np.abs(vals - sample_atomic(mu, s).value(y))) <= bound, label
    # the last case's blocks hold fewer draws than S, and the last one is partial
    assert S > field._TABLE_ENTRIES // (2 * A) and S % (field._TABLE_ENTRIES // (2 * A))
    with pytest.raises(ValueError):
        atomic_cloud(uniform_measure(2), seeds, y)


def test_atomic_cloud_memory():
    # 20,000 draws at A = 64: the (S, 2A) rows alone would be 20 MiB; in row
    # blocks one buffer of _TABLE_ENTRIES doubles is reused, next to the
    # (S, Y) output. The 128 KiB allow for the (2A, Y) table, a block's 512
    # seeds as Python ints (22 KB) and a generator; all of them read 50 KB
    mu = empirical_measure(generate_uniform_directions(2, 64, 3))
    seeds = child_rng(1, 2).integers(2**63, size=20_000)
    y = [[0.0, 0.0], [1.0, 0.0]]
    out_bytes = 8 * len(seeds) * len(y)
    peak = traced_peak(lambda: atomic_cloud(mu, seeds, y))
    assert peak < out_bytes + 8 * field._TABLE_ENTRIES + 128 * 1024


def test_sample_uniform_self_consistency():
    with pytest.raises(ValueError):
        sample_uniform(2, M=8, seed=0)
    F = sample_uniform(2, 256, 40)
    freqs, coeffs = F.plane_waves()
    tau = np.array([1.3, 0.0])
    own = float(np.sum(np.abs(coeffs) ** 2 * np.cos(2 * np.pi * (freqs @ tau))) / 2)
    x = _ball_points(child_rng(9, 0), 2, 40.0, 60000)
    est = float(np.mean(F.value(x) * F.value(x + tau)))
    # the spatial average reproduces the draw's own atom kernel; the J0 target
    # is only reached as M grows (atom sampling noise ~ M^{-1/2})
    assert est == pytest.approx(own, abs=0.01)
    fr2, c2 = sample_uniform(2, 4096, 41).plane_waves()
    own2 = float(np.sum(np.abs(c2) ** 2 * np.cos(2 * np.pi * (fr2 @ tau))) / 2)
    assert own2 == pytest.approx(bessel_j(0, 2 * math.pi * 1.3), abs=0.03)


def test_check_nondegenerate(cosine_wave):
    rep = check_nondegenerate(cosine_wave, 4.0, 0.1)
    assert rep.passed
    assert rep.min_bulk > rep.threshold
    flat = PlaneWaveSum(np.array([[1.0, 0.0]]), np.zeros(1, dtype=complex))
    assert not check_nondegenerate(flat, 4.0, 0.1).passed
    with pytest.raises(ValueError):
        check_nondegenerate(cosine_wave, 4.0, h=0.2)
    with pytest.raises(ValueError):
        check_nondegenerate(cosine_wave, 4.0, 0.1, tau0=0.0)


def _pointwise_min_bulk(F, W: float, h: float) -> float:
    """Oracle: min of |F| + |grad F| over h Z^m within B(W+1), point by point."""
    coords = h * np.arange(-np.ceil((W + 1) / h), np.ceil((W + 1) / h) + 1)
    mesh = np.meshgrid(*([coords] * F.dim), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in mesh], axis=-1)
    pts = pts[np.linalg.norm(pts, axis=1) <= W + 1]
    min_bulk = np.inf
    for lo in range(0, len(pts), 1 << 13):
        block = pts[lo : lo + (1 << 13)]
        psi = np.abs(F.value(block)) + np.linalg.norm(F.gradient(block), axis=-1)
        min_bulk = min(min_bulk, float(psi.min()))
    return min_bulk


def _circle_points(W: float, h: float) -> np.ndarray:
    """The probe's circle, point by point: n = max(64, ceil(2 pi W / h)) equispaced angles."""
    n = max(64, int(np.ceil(2 * np.pi * W / h)))
    a = 2 * np.pi * np.arange(n) / n
    return W * np.column_stack([np.cos(a), np.sin(a)])


def _separate_min_spherical(F, W: float, h: float) -> float:
    """Oracle: the spherical minimum with value and gradient evaluated separately."""
    sph = _circle_points(W, h) if F.dim == 2 else _sphere_mesh(W, h)
    min_sph = np.inf
    for lo in range(0, len(sph), 1 << 13):
        block = sph[lo : lo + (1 << 13)]
        vals = F.value(block)
        grads = F.gradient(block)
        radial = (np.sum(block * grads, axis=-1) / W**2)[:, None] * block
        slashed = np.abs(vals) + np.linalg.norm(grads - radial, axis=-1)
        min_sph = min(min_sph, float(slashed.min()))
    return min_sph


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("atomic", [False, True])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_check_nondegenerate_bulk_matches_pointwise(m, atomic, seed):
    if atomic:
        mu = empirical_measure(generate_uniform_directions(m, 32, seed % 1000))
        F = sample_atomic(mu, seed)
    else:
        F = sample_uniform(m, 64, seed)
    W, h = (3.0, 0.1) if m == 2 else (1.5, 0.1)
    rep = check_nondegenerate(F, W, h)
    ref = _pointwise_min_bulk(F, W, h)
    assert rep.min_bulk == pytest.approx(ref, rel=1e-12)
    if m == 2:  # the circle is a Fourier series, not the pointwise kernel
        scale = np.abs(F.plane_waves()[1]).sum()
        assert abs(rep.min_spherical - _separate_min_spherical(F, W, h)) <= 1e-12 * scale
    else:
        assert rep.min_spherical == _separate_min_spherical(F, W, h)  # bitwise


def _circle_of(F, W: float, h: float, half_width: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """F's circle of radius W about 0, read from a lattice over a cover centred at 0.

    The cover (origin (-a, 0), shape (2, 1), pitch 2a) has half-widths
    (a, 0), a = half_width (W by default), so its disc's orders are the
    circle's own when a = W.
    """
    a = W if half_width is None else half_width
    freqs, c = F.plane_waves()
    return _LowRankLattice(freqs, c, np.array([-a, 0.0]), (2, 1), 2 * a).circle(W, h)


@pytest.mark.parametrize("W", [0.5, 1.0, 4.0, 12.0])  # W = 1: 59 orders on 64 points
@pytest.mark.parametrize("atomic", [False, True])
def test_circle_series_matches_pointwise(W, atomic):
    if atomic:
        F = sample_atomic(empirical_measure(generate_uniform_directions(2, 64, 3)), 11)
    else:
        F = sample_uniform(2, 1024, 7)
    h = 0.1
    pts = _circle_points(W, h)
    val, grad = F.value(pts), F.gradient(pts)
    tangential = (pts[:, 0] * grad[:, 1] - pts[:, 1] * grad[:, 0]) / W
    scale = np.abs(F.plane_waves()[1]).sum()
    # a cover with the circle's own orders, and a wider one with more, such
    # as the probe box
    for half_width in (W, W + 20.0):
        series_val, series_tangential = _circle_of(F, W, h, half_width)
        assert len(series_val) == len(pts)
        assert np.max(np.abs(series_val - val)) <= 1e-12 * scale
        assert np.max(np.abs(series_tangential - tangential)) <= 1e-12 * scale
    with pytest.raises(ValueError, match="orders"):
        _circle_of(F, W, h, W / 2)


def test_circle_series_with_cached_factors():
    # the Bessel factors are computed once per W: repeated and interleaved calls,
    # in either order of W, read the factors of a fresh computation and give
    # the pointwise circle values
    F = sample_uniform(2, 1024, 7)
    h = 0.1
    scale = np.abs(F.plane_waves()[1]).sum()
    Ws = [0.5, 1.0, 4.0, 12.0]
    for order in (Ws, Ws[::-1]):
        _circle_factors.cache_clear()
        for W in order + order:
            assert np.array_equal(_circle_factors(W), _circle_factors.__wrapped__(W))
            pts = _circle_points(W, h)
            val, grad = F.value(pts), F.gradient(pts)
            tangential = (pts[:, 0] * grad[:, 1] - pts[:, 1] * grad[:, 0]) / W
            series_val, series_tangential = _circle_of(F, W, h)
            assert np.max(np.abs(series_val - val)) <= 1e-12 * scale
            assert np.max(np.abs(series_tangential - tangential)) <= 1e-12 * scale
        assert _circle_factors.cache_info().misses == len(Ws)
    factors = _circle_factors(4.0)
    assert not factors.flags.writeable
    with pytest.raises(ValueError):
        factors[0] = 0


def test_probe_refuses_pitch_and_radius_out_of_range():
    # h <= 0 and W <= 0 once failed deep inside the probe (OverflowError,
    # IndexError, a math domain error, or min_spherical NaN with divide
    # warnings); they and NaN are refused up front, as is a circle of
    # radius not > 0
    F = sample_uniform(2, 64, 1)
    for h in (0.0, -0.1, math.nan, 0.2):
        with pytest.raises(ValueError, match="h <= 0.1"):
            check_nondegenerate(F, 4.0, h)
    for W in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="W > 0"):
            check_nondegenerate(F, W, 0.1)
    lattice = check_nondegenerate(F, 1.0, 0.1).lattice
    for radius in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="radius"):
            lattice.circle(radius, 0.1)


def test_circle_probe_refuses_non_unit_frequencies():
    off = PlaneWaveSum(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]]), np.ones(2, dtype=complex))
    with pytest.raises(ValueError, match="unit"):
        check_nondegenerate(off, 4.0, 0.1)
    near = PlaneWaveSum(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-13]]), np.ones(2, dtype=complex))
    assert check_nondegenerate(near, 4.0, 0.1).min_spherical >= 0


@pytest.mark.parametrize("W", [4.0, 16.0])
def test_min_spherical_from_the_shared_spectrum(W):
    # the probe box's lattice computes S_k once, to the order K of the box's
    # disc (89 at W = 4, 237 at W = 16), for its compressed core and for its
    # circle, which reads its own orders from it. Tolerance, fixed before the
    # run: the series drops terms below 1e-15 sum_j |c_j|, the ladder powers
    # of S_k round by about |k| eps sum_j |c_j| each, and the pointwise
    # oracle rounds by about eps (1 + 2 pi W) sum_j |c_j|; all of it lies
    # well inside 1e-12 sum_j |c_j|
    h = 0.1  # the pitch ns_constant_estimate probes at
    for j in range(3 if W == 4.0 else 2):
        F = sample_uniform(2, 1024, int(child_rng(9, j).integers(2**63)))
        scale = np.abs(F.plane_waves()[1]).sum()
        rep = check_nondegenerate(F, W, h)
        assert abs(rep.min_spherical - _separate_min_spherical(F, W, h)) <= 1e-12 * scale
        # the report's lattice reads the same circle from its cached S_k
        val, tangential = rep.lattice.circle(W, h)
        assert float((np.abs(val) + np.abs(tangential)).min()) == rep.min_spherical

