import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monowave import field
from monowave.directions import DirectionSet, empirical_measure, generate_uniform_directions
from monowave.field import (
    _LOWRANK_TOL,
    MonochromaticWave,
    PlaneWaveSum,
    _chebyshev_count,
    _LowRankLattice,
    bessel_j,
    bessel_sequence,
    eval_bk,
    make_wave,
)
from monowave.gaussian import (
    check_nondegenerate,
    child_rng,
    measure_from_partition,
    sample_atomic,
    sample_uniform,
)
from monowave.grid import lattice_ball, plane_wave_grid
from monowave.growth import PROBE_DENSITY, scaling_factor
from monowave.partition import build_partition

from conftest import chebyshev_tail, fill_rounding, traced_peak

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


def test_wave_coefficients():
    dirs = generate_uniform_directions(2, 32, 0)
    c = make_wave(dirs, seed=4).coeffs
    assert c.shape == (32,) and c.dtype == complex
    assert np.max(np.abs(np.abs(c) - 1.0)) < 1e-12
    assert np.array_equal(c, make_wave(dirs, seed=4).coeffs)
    assert not np.array_equal(c, make_wave(dirs, seed=5).coeffs)
    assert np.all(make_wave(generate_uniform_directions(2, 7, 0), mode="all-ones").coeffs == 1.0 + 0j)
    two = generate_uniform_directions(2, 2, 0)
    with pytest.raises(ValueError, match="unit modulus"):
        MonochromaticWave(two, np.array([1.0 + 0j, 0.5 + 0j]))
    with pytest.raises(ValueError, match="one coefficient per direction"):
        MonochromaticWave(two, np.ones(3, dtype=complex))


def test_make_wave_modes():
    dirs = generate_uniform_directions(2, 16, 0)
    w = make_wave(dirs, mode="all-ones")
    assert np.all(w.coeffs == 1.0 + 0j)
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


def _complex_sum(freqs, amps, x):
    """Re sum_j c_j e(<v_j, x>) and its gradient straight from the complex exponentials."""
    E = np.exp(2j * np.pi * x @ freqs.T)
    grad = (E * amps) @ (2j * np.pi * freqs)
    return (E @ amps).real, grad.real


# complex, positive-real, negative-real and zero amplitudes
AMPLITUDES = {
    "complex": np.array([0.3 - 0.4j, -0.2 + 0.1j, 1.1j, -0.7 - 0.05j, 0.25 + 0j, 0j]),
    "positive": np.array([0.1, 0.4, 0.2, 0.05, 0.15, 0.1]),
    "negative": np.array([-0.3, -1.2, 0.5, -0.01, 0.0, 0.2]),
    "zero": np.zeros(6, dtype=complex),
}


@pytest.mark.parametrize("kind", AMPLITUDES)
@pytest.mark.parametrize("batch", [(), (5,), (3, 4)])
def test_value_and_gradient_match_complex_sum(kind, batch):
    rng = np.random.default_rng(17)
    freqs = rng.standard_normal((6, 2))
    freqs /= np.linalg.norm(freqs, axis=1, keepdims=True)
    amps = AMPLITUDES[kind]
    x = rng.uniform(-20, 20, (*batch, 2))
    F = PlaneWaveSum(freqs, amps)
    want_val, want_grad = _complex_sum(freqs, amps, x)
    val, grad = F.value(x), F.gradient(x)
    tol = 1e-12 * np.abs(amps).sum()
    assert np.shape(val) == batch and grad.shape == x.shape
    assert isinstance(val, float) == (batch == ())
    assert np.max(np.abs(val - want_val), initial=0.0) <= tol
    assert np.max(np.abs(grad - want_grad)) <= 2 * np.pi * tol


def test_blocks_are_evaluated_independently():
    # a batch across the block boundary reads each block as its own call would;
    # a block holds _TABLE_ENTRIES // J rows, and a row's bits may depend on the
    # size of the block it lands in, so the split is at that boundary
    w = make_wave(generate_uniform_directions(2, 24, 7), seed=2)
    rows = field._TABLE_ENTRIES // 24
    n = rows + 64
    x = child_rng(4, 0).uniform(-50, 50, (n, 2))
    whole = w.value(x)
    parts = np.concatenate([w.value(x[:rows]), w.value(x[rows:])])
    assert whole.tobytes() == parts.tobytes()
    grad = w.gradient(x)
    assert grad.tobytes() == np.concatenate([w.gradient(x[:rows]),
                                             w.gradient(x[rows:])]).tobytes()
    assert w.value(x.reshape(-1, 2, 2)).tobytes() == whole.tobytes()


@pytest.mark.parametrize("J", [64, 1024])
def test_pointwise_tables_stay_within_the_entry_budget(J):
    # 40k points: one (points, J) phase table would be 20 MiB at J = 64 and
    # 312 MiB at J = 1024; a block's table holds at most _TABLE_ENTRIES doubles,
    # and every block's phases are formed in one buffer (traced: 1.13 tables
    # above the output; 2.13 while each block had a table of its own)
    rng = np.random.default_rng(J)
    F = PlaneWaveSum(rng.standard_normal((J, 2)), rng.standard_normal(J) + 1j * rng.standard_normal(J))
    x = rng.uniform(-20, 20, (40_000, 2))
    table = 8 * field._TABLE_ENTRIES
    assert traced_peak(lambda: F.value(x)) < 8 * len(x) + 2 * table
    assert traced_peak(lambda: F.gradient(x)) < x.nbytes + 2 * table


def test_eval_bk_tables_stay_within_the_entry_budget():
    # 20k points at N = 64: the former whole (points, N) complex table took 20 MiB
    # and its phase and exp temporaries as much again; a block holds at most
    # _TABLE_ENTRIES complex entries per table, and a few of them are alive at once
    dirs = generate_uniform_directions(2, 64, 2)
    w = make_wave(dirs, seed=11)
    part = build_partition(dirs, 4, 1e-4)
    x = child_rng(7, 0).uniform(-30, 30, (20_000, 2))
    out_bytes = 16 * len(x) * len(part.selected)
    assert traced_peak(lambda: eval_bk(w, part, x)) < out_bytes + 4 * 16 * field._TABLE_ENTRIES


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


@pytest.mark.parametrize("K", [0, 1, 3, 8, 15, 89, 237])  # ladder widths 1, 2, 2, 3, 4, 10, 16
def test_circle_spectrum_matches_direct_powers(K):
    # S_k = sum_j c_j e^{-ik theta_j}, k = -K..K, against exp of k theta_j; both
    # round phases of size |k| pi, so they agree within a few (1 + K) eps sum_j |c_j|
    F = sample_uniform(2, 1024, K)
    freqs, c = F.plane_waves()
    theta = np.arctan2(freqs[:, 1], freqs[:, 0])
    want = np.exp(-1j * np.outer(np.arange(-K, K + 1), theta)) @ c
    got = field._circle_spectrum(freqs, c, K)
    assert got.shape == (2 * K + 1,)
    assert np.abs(got - want).max() <= 4 * (1 + K) * np.finfo(float).eps * np.abs(c).sum()


@pytest.mark.parametrize("W", [4.0, 16.0])
def test_compressed_fill_stays_within_its_bound(W, monkeypatch):
    # a Gaussian draw at M = 1024 over the probe's box of B(W + 1): its core
    # sums P = 2K + 1 < J equispaced directions (179 at W = 4, 475 at W = 16),
    # and the fills on the box and on an off-centre sub-lattice at half the
    # pitch stay within the bound of the Compression paragraph of
    # _LowRankLattice against the direct rank-J fill
    F = sample_uniform(2, 1024, 7)
    freqs, c = F.plane_waves()
    axes, inside = lattice_ball(np.zeros(2), W + 1, 0.1)
    cover = (np.array([ax[0] for ax in axes]), inside.shape, 0.1)
    R = cover[2] * (np.asarray(cover[1]) - 1) / 2
    w = 2 * math.pi * math.hypot(*R)
    K = _chebyshev_count(w, 2)
    P = 2 * K + 1
    spectra = []
    circle_spectrum = field._circle_spectrum

    def spy(*args):
        spectra.append(circle_spectrum(*args))
        return spectra[-1]

    monkeypatch.setattr(field, "_circle_spectrum", spy)
    lattice = _LowRankLattice(freqs, c, *cover)
    assert len(spectra) == 1 and len(spectra[0]) == P < len(c)
    assert lattice._spectrum is spectra[0]

    # the spectrum S_k of the coefficients with the centre's phase, straight
    # from exp; the compressed sum, c'_p the inverse FFT of the lattice's
    # S_k, has S_{k mod P} at every order
    theta = np.arctan2(freqs[:, 1], freqs[:, 0])
    centred = c * np.exp(2j * math.pi * (freqs @ (cover[0] + R)))
    S = np.exp(-1j * np.outer(np.arange(-K, K + 1), theta)) @ centred
    p_coeffs = np.fft.ifft(np.fft.ifftshift(spectra[0]))
    p_freqs = field._equispaced_directions(P)
    k = np.arange(-K - P, K + P + 1)
    aliased = np.exp(-1j * np.outer(k, np.arctan2(p_freqs[:, 1], p_freqs[:, 0]))) @ p_coeffs
    total = np.abs(c).sum()
    assert np.abs(aliased - S[(k + K) % P]).max() <= 1e-12 * total

    # sum_p |c'_p| <= (sum_k |S_k|^2)^{1/2}; the aliased orders, the spectrum's
    # rounding and both fills' rounding weigh on sum_j |c_j|, the core's
    # interpolation and rounding on sum_p |c'_p|
    weight = math.sqrt(np.sum(np.abs(S) ** 2))
    assert np.abs(p_coeffs).sum() <= weight <= math.sqrt(P) * total
    eps = np.finfo(float).eps
    spectrum = 4 * eps * (1 + w / math.sqrt(2)) * math.sqrt(2 * K + 1)
    rounding = fill_rounding(*cover)
    value_tol = ((chebyshev_tail(w, K + 1) + spectrum + rounding) * total
                 + (_LOWRANK_TOL + rounding) * weight)
    # a sub-lattice at half the pitch, its centre off the cover's
    shifted = (cover[0] + 0.1 * np.array([13, 5]), (cover[1][0] // 3, cover[1][1] // 4), 0.05)
    for box in (cover, shifted):
        val, grads = lattice.grid_and_gradient(*box)
        assert np.array_equal(val, lattice.on_grid(*box))
        assert np.abs(val - plane_wave_grid(freqs, c, *box)).max() <= value_tol
        for a, grad in enumerate(grads):
            L = lattice.core.shape[a]
            interpolation = chebyshev_tail(2 * math.pi * R[a], L - 1) + _LOWRANK_TOL
            grad_tol = 2 * math.pi * ((chebyshev_tail(w, K) + spectrum + rounding) * total
                                      + (interpolation + rounding) * weight)
            want = plane_wave_grid(freqs, 2j * math.pi * freqs[:, a] * c, *box)
            assert np.abs(grad - want).max() <= grad_tol


def test_circle_about_an_off_centre_cover():
    # the lattice reads its circle about its cover's centre, wherever that
    # lies: the value and tangential derivative equal pointwise value and
    # gradient on that circle within 1e-12 sum_j |c_j|, for a compressed
    # uniform draw and an atomic draw kept with its J = 64 terms; a circle
    # that needs more orders than the cover's disc (|R| = 5) is refused
    atomic = sample_atomic(empirical_measure(generate_uniform_directions(2, 64, 3)), 11)
    h = 0.1
    for F in (sample_uniform(2, 1024, 7), atomic):
        freqs, c = F.plane_waves()
        lattice = _LowRankLattice(freqs, c, np.array([3.3, -1.7]), (61, 81), h)
        assert np.allclose(lattice.centre, [6.3, 2.3])
        scale = np.abs(c).sum()
        for r in (0.7, 2.5, 5.0):
            n = max(64, math.ceil(2 * math.pi * r / h))
            a = 2 * math.pi * np.arange(n) / n
            d = r * np.column_stack([np.cos(a), np.sin(a)])
            pts = lattice.centre + d
            val, tangential = lattice.circle(r, h)
            grad = F.gradient(pts)
            assert np.abs(val - F.value(pts)).max() <= 1e-12 * scale
            want = (d[:, 0] * grad[:, 1] - d[:, 1] * grad[:, 0]) / r
            assert np.abs(tangential - want).max() <= 1e-12 * scale
        with pytest.raises(ValueError, match="orders"):
            lattice.circle(6.0, h)


def test_circle_spectrum_is_computed_once_and_only_when_read(monkeypatch):
    # S_k is computed at most once per lattice, and only when the compression
    # or the circle reads it: once per 2D probe, for a compressed uniform
    # draw (M = 1024, W = 4) and a kept draw of the 4-atom K = 8 partition
    # measure; never for a fill of a kept 64-term wave on a doubling box, or
    # for a 3D probe
    calls = []
    circle_spectrum = field._circle_spectrum

    def spy(freqs, coeffs, K):
        calls.append((len(coeffs), K))
        return circle_spectrum(freqs, coeffs, K)

    monkeypatch.setattr(field, "_circle_spectrum", spy)
    check_nondegenerate(sample_uniform(2, 1024, 5), 4.0, 0.1)
    assert calls == [(1024, 89)]
    mu = measure_from_partition(build_partition(generate_uniform_directions(2, 64, 1), 8, 0.004))
    assert len(mu.weights) == 4
    calls.clear()
    check_nondegenerate(sample_atomic(mu, 3), 4.0, 0.1)
    assert calls == [(4, 89)]

    calls.clear()
    wave = make_wave(generate_uniform_directions(2, 64, 9), seed=1)
    axes, _ = lattice_ball(np.array([37.0, -11.0]), scaling_factor(2) * 2.0, 1 / PROBE_DENSITY)
    origin, shape = np.array([ax[0] for ax in axes]), tuple(map(len, axes))
    lattice = _LowRankLattice(*wave.plane_waves(), origin, shape, 1 / PROBE_DENSITY)
    assert shape == (229, 229) and 2 * field._disc_order(lattice.radius) + 1 == 197
    lattice.on_grid(origin, shape, 1 / PROBE_DENSITY)
    wave.on_grid(origin, shape, 1 / PROBE_DENSITY)
    check_nondegenerate(sample_uniform(3, 64, 1), 1.0, 0.1)
    assert calls == []


def test_eval_bk_against_direct_sum():
    dirs = generate_uniform_directions(2, 64, 2)
    w = make_wave(dirs, seed=11)
    part = build_partition(dirs, 4, 1e-4)
    x = child_rng(5, 0).uniform(-30, 30, (7, 2))
    fast = eval_bk(w, part, x)
    atoms = np.vstack([dirs.vectors, -dirs.vectors])
    a_signed = np.concatenate([w.coeffs, np.conj(w.coeffs)])
    slow = np.empty_like(fast)
    for i, k in enumerate(part.selected):
        sel = np.nonzero(part.atom_cells == k)[0]
        phases = np.exp(2j * np.pi * (x @ atoms[sel].T))
        slow[:, i] = (phases @ a_signed[sel]) / math.sqrt(2 * dirs.count * part.masses[k])
    assert np.max(np.abs(fast - slow)) < 1e-12


def _eval_bk_two_sided(wave, part, x):
    """eval_bk over the full signed atom list [r; -r] with coefficients [a; conj(a)]."""
    atoms = np.vstack([wave.dirs.vectors, -wave.dirs.vectors])
    coeffs = np.concatenate([wave.coeffs, np.conj(wave.coeffs)])
    order = np.argsort(part.atom_cells, kind="stable")
    sorted_cells = part.atom_cells[order]
    E = np.exp(2j * np.pi * (x @ atoms[order].T)) * coeffs[order]
    out = np.empty(x.shape[:-1] + (len(part.selected),), dtype=complex)
    for col, k in enumerate(part.selected):
        lo = np.searchsorted(sorted_cells, k, side="left")
        hi = np.searchsorted(sorted_cells, k, side="right")
        out[..., col] = E[..., lo:hi].sum(axis=-1) / math.sqrt(2 * wave.dirs.count * part.masses[k])
    return out


@pytest.mark.parametrize("m, N, K", [(2, 64, 4), (2, 200, 8), (3, 64, 2)])
@pytest.mark.parametrize("batch", [(), (7,), (3, 5), (2000,)])
def test_eval_bk_bitwise_equals_two_sided_sum(m, N, K, batch):
    dirs = generate_uniform_directions(m, N, N + K)
    w = make_wave(dirs, seed=N)
    part = build_partition(dirs, K, 1e-4)
    x = child_rng(N, K).uniform(-300, 300, (*batch, m))
    assert eval_bk(w, part, x).tobytes() == _eval_bk_two_sided(w, part, x).tobytes()


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
    # the Miller recurrence is accurate to rounding: gate at 1e-14 absolute
    for nu, z, val in BESSEL_TABLE:
        assert bessel_j(nu, z) == pytest.approx(val, abs=1e-14)
    # vectorized call agrees with scalars
    z = np.array([x[1] for x in BESSEL_TABLE if x[0] == 0])
    v = np.array([x[2] for x in BESSEL_TABLE if x[0] == 0])
    assert np.allclose(bessel_j(0, z), v, rtol=0.0, atol=1e-14)
    assert bessel_j(0, np.zeros((2, 3))).shape == (2, 3)
    # z = 0 is evaluated at the 1e-100 floor: J_0 rounds to 1
    assert bessel_j(0, 0.0) == 1.0


def test_bessel_against_scipy_sweep():
    special = pytest.importorskip("scipy.special")
    z = np.linspace(0.0, 70.0, 3501)
    for nu in range(11):
        assert np.max(np.abs(bessel_j(nu, z) - special.jv(nu, z))) < 1e-14, nu
    # tiny arguments: the recurrence rescales instead of overflowing
    tiny = np.geomspace(1e-300, 1e-3, 60)
    for nu in (0, 1, 10):
        assert np.max(np.abs(bessel_j(nu, tiny) - special.jv(nu, tiny))) < 1e-14, nu


@pytest.mark.parametrize("W", [0.5, 1.0, 4.0, 12.0])
def test_bessel_sequence_at_circle_probe_orders(W):
    # the orders the circle probe reads: J_0..J_K(2 pi W), K from the tail bound
    special = pytest.importorskip("scipy.special")
    z = 2 * math.pi * W
    K = _chebyshev_count(z, 2)
    ours = bessel_sequence(z, K)
    assert ours.shape == (K + 1,)
    assert np.max(np.abs(ours - special.jv(np.arange(K + 1), z))) < 1e-14


def _tail_bound_holds(omega: float, m: int, count: int) -> bool:
    """The tail bound of _chebyshev_count at count: 4 m (omega/2)^L / L! / (1 - omega / (2 (L + 1))).

    Valid from L = max(2, ceil(omega/2)) on, where the terms fall geometrically.
    """
    half = omega / 2
    return (math.log(4 * m) + count * math.log(half) - math.lgamma(count + 1)
            - math.log1p(-half / (count + 1))) <= math.log(field._LOWRANK_TOL)


@pytest.mark.parametrize("m", [2, 3])
def test_chebyshev_count_is_the_first_count_meeting_the_bound(m):
    # from max(2, ceil(omega/2)) on, the returned L meets the tail bound and
    # L - 1 does not; on every 20th omega the exact tail 4 m e^(omega/2)
    # P(L, omega/2), P the regularized lower incomplete gamma, is within the
    # tolerance (mpmath)
    mpmath = pytest.importorskip("mpmath")
    omegas = np.concatenate([
        np.linspace(0.0, 2000.0, 1601),  # step 1.25: coarse and fine counts alike
        np.linspace(0.0, 64.0, 2561),  # every count the fills and circle probes use
        [5e-324, 1e-300], np.geomspace(1e-12, 1.0, 121),  # tiny: L = 2, 3, 4, ...
        [2 * math.pi * 4, 2 * math.pi * 5],
    ])
    for i, omega in enumerate(omegas.tolist()):
        L = _chebyshev_count(omega, m)
        start = max(2, math.ceil(omega / 2))
        assert L >= start, omega
        if omega / 2 == 0:  # 5e-324 halves to 0 too
            assert L == 2
            continue
        assert _tail_bound_holds(omega, m, L), omega
        assert L == start or not _tail_bound_holds(omega, m, L - 1), omega
        if i % 20 == 0:
            half = mpmath.mpf(omega) / 2
            tail = 4 * m * mpmath.exp(half) * mpmath.gammainc(L, 0, half, regularized=True)
            assert tail <= field._LOWRANK_TOL, omega


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_memoized_set_up_equals_a_fresh_computation(seed):
    # every memo of the lattice set-up, on keys it has not seen, returns what
    # its function computes afresh, bit for bit, and hands out that one
    # read-only array on the next call with the same key
    rng = np.random.default_rng(seed)
    count, P = int(rng.integers(2, 40)), 2 * int(rng.integers(2, 40)) + 1
    table_key = (float(rng.uniform(0.5, 1.0)), count, int(rng.integers(1, 50)),
                 float(rng.uniform(0.01, 0.25)), float(rng.uniform(-0.1, 0.1)))
    cases = [
        (field._chebyshev_count, (float(rng.uniform(0.0, 200.0)), int(rng.integers(2, 4)))),
        (field._axis_table, table_key),
        (field._axis_derivative_table, table_key),
        (field._equispaced_directions, (P,)),
        (field._equispaced_weights, (P, int(rng.integers(0, 2)), count)),
    ]
    for memo, key in cases:
        memo.cache_clear()
        got = memo(*key)
        assert memo(*key) is got
        assert memo.cache_info()[:2] == (1, 1)  # one hit, one miss
        want = memo.__wrapped__(*key)
        if isinstance(want, int):
            assert got == want
            continue
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0


def test_covariance_kernels():
    # the atomic kernel is the plane-wave sum of the measure's atoms and weights
    cos_dirs = DirectionSet(np.array([[1.0, 0.0]]))
    mu = empirical_measure(cos_dirs)
    kernel = PlaneWaveSum(mu.freqs, mu.weights)
    tau = np.array([0.37, 5.0])
    assert kernel.value(tau) == pytest.approx(math.cos(2 * math.pi * 0.37), rel=1e-12)
    # kernel(0) = 1
    assert kernel.value(np.zeros(2)) == pytest.approx(1.0, rel=1e-15)


def test_bessel_input_guards():
    with pytest.raises(ValueError):
        bessel_j(0.3, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(11, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, -0.5)
    with pytest.raises(ValueError):
        bessel_sequence(-1.0, 3)
