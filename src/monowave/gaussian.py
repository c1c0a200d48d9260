"""Gaussian comparison fields and the nondegeneracy check.

Every draw is a PlaneWaveSum. Atomic measures sample F(y) = sum_k sqrt(w_k)
[g_k cos(2 pi <z_k, y>) + h_k sin(2 pi <z_k, y>)] over their one atom z_k per
+- pair, with w_k the mass of the pair; the uniform measure is approximated by
M random plane waves with uniform phases.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import (
    PlaneWaveSum,
    _chebyshev_count,
    _circle_spectrum,
    _disc_order,
    _LowRankLattice,
    _on_unit_circle,
    bessel_sequence,
)
from .grid import lattice_ball
from .partition import SpherePartition, positive_side

TWO_PI = 2 * np.pi


def child_rng(seed: int, j: int) -> np.random.Generator:
    """Counter-based child stream j of a master seed; order-independent.

    Stream layout under one seed:
      0      growth.spatial_sample, the uniform points of every spatial average
      1      the CLI wave's coefficient phases
      2      stats.pushforward_distance's Gaussian draw seeds, one stream for all n
      j      draw j of the ns_constant_estimate and discrepancy_estimate trials
      10**6  stats.pushforward_distance's permutations
    Trial streams reuse the small keys, but those commands draw no spatial
    sample, wave phases or pushforward cloud.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))


@dataclass
class SpectralMeasure:
    """Symmetric probability measure on S^{m-1}: uniform, or atomic stored by +- pairs.

    An atomic measure keeps one atom per +- pair, on the side that
    partition.positive_side accepts, and the mass of the pair: the measure
    puts w_k / 2 on each of z_k and -z_k. freqs None is the uniform measure.
    """

    dim: int
    freqs: np.ndarray | None = None  # (A, m), one atom z_k per pair
    weights: np.ndarray | None = None  # (A,), pair masses w_k summing to 1

    def __post_init__(self):
        if self.freqs is None:
            if self.weights is not None:
                raise ValueError("uniform measure carries no weights")
            return
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1 or self.freqs.shape != (len(self.weights), self.dim):
            raise ValueError("need one weight per atom in R^dim")
        if np.any(self.weights <= 0):
            raise ValueError("atom weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("atom weights must sum to 1 within 1e-12")

    @property
    def kind(self) -> str:
        return "uniform" if self.freqs is None else "atomic"

    @property
    def hyperplane_ok(self) -> bool:
        """The atoms span R^m (always, for uniform)."""
        return self.freqs is None or bool(np.linalg.matrix_rank(self.freqs) == self.dim)


def uniform_measure(m: int) -> SpectralMeasure:
    return SpectralMeasure(dim=m)


def measure_from_partition(part: SpherePartition) -> SpectralMeasure:
    """One atom per selected +- cell pair: its positive-side center, weight 2 mu_k / kappa^2.

    A self-paired cell (K = 1) is a pair by itself: its center is flipped to
    the positive side and carries mu_k / kappa^2.
    """
    if len(part.selected) == 0:
        raise ValueError("no selected cells; partition is degenerate")
    reps = part.selected_positive
    gamma = part.masses[reps] / float(part.masses[part.selected].sum())
    freqs = np.array([c if positive_side(c) else -c for c in part.centers[reps]])
    weights = np.where(part.pair[reps] == reps, gamma, 2 * gamma)
    return SpectralMeasure(dim=part.dim, freqs=freqs, weights=weights)


def sample_atomic(measure: SpectralMeasure, seed: int) -> PlaneWaveSum:
    """Draw g_k, h_k iid N(0,1) per atom pair; c_k = sqrt(w_k) (g_k - i h_k), so E F(y)^2 = 1."""
    if measure.kind != "atomic":
        raise ValueError("sample_atomic needs an atomic measure")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(len(measure.weights))
    h = rng.standard_normal(len(measure.weights))
    coeffs = np.sqrt(measure.weights) * (g - 1j * h)
    return PlaneWaveSum(measure.freqs, coeffs)


def sample_uniform(m: int, M: int = 1024, seed: int = 0) -> PlaneWaveSum:
    """F(y) = sqrt(2/M) sum_j cos(2 pi <xi_j, y> + phi_j), xi uniform on the sphere."""
    if M < 16:
        raise ValueError("fewer than 16 plane waves is too degenerate")
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((M, m))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    phi = rng.uniform(0.0, TWO_PI, M)
    coeffs = math.sqrt(2.0 / M) * np.exp(1j * phi)
    return PlaneWaveSum(xi, coeffs)


@dataclass
class NondegeneracyReport:
    min_bulk: float  # min of |g| + |grad g| over B(W+1)
    min_spherical: float  # min of |g| + |tangential grad g| over the sphere of radius W
    threshold: float
    passed: bool
    # the low-rank fill of the field over the probe's box, which covers B(W+1)
    lattice: _LowRankLattice = dc_field(repr=False, compare=False)


def _sphere_mesh(radius: float, h: float) -> np.ndarray:
    """Fibonacci points on the sphere of the given radius in R^3: a near-uniform covering."""
    n = max(256, int(np.ceil(4 * np.pi * radius**2 / h**2)))
    k = np.arange(n) + 0.5
    phi = np.arccos(1 - 2 * k / n)
    theta = np.pi * (1 + math.sqrt(5.0)) * k
    return radius * np.column_stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
    )


@functools.lru_cache(maxsize=8)
def _circle_factors(W: float) -> np.ndarray:
    """i^|k| J_|k|(2 pi W) for k = -K..K, K = _chebyshev_count(2 pi W, 2): read-only, once per W."""
    w = TWO_PI * W
    K = _chebyshev_count(w, 2)
    k = np.abs(np.arange(-K, K + 1))
    factors = np.array([1, 1j, -1, -1j])[k % 4] * bessel_sequence(w, K)[k]
    factors.flags.writeable = False
    return factors


def _circle_series(spectrum: np.ndarray, W: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """f and its tangential derivative at W (cos a_p, sin a_p), a_p = 2 pi p / n, from f's S_k.

    n = max(64, ceil(2 pi W / h)) equispaced angles. With
    v_j = (cos theta_j, sin theta_j) and w = 2 pi W, the Jacobi-Anger
    expansion e^{i w cos t} = sum_k i^k J_k(w) e^{ikt} gives
    f(W cos a, W sin a) = Re sum_k i^k J_k(w) S_k e^{ika} with
    S_k = sum_j c_j e^{-ik theta_j}. The tangential derivative, d/da over W,
    is the same series with terms times ik / W. Since J_{-k} = (-1)^k J_k,
    the factor of order k is i^|k| J_|k|(w); the factors depend on W alone
    and are computed once per W (_circle_factors). spectrum holds S_k for
    k = -K'..K' (field._circle_spectrum) with K' at least the circle's
    K = _chebyshev_count(w, 2), such as the S_k to the probe box's larger K
    that also compresses the box's core in check_nondegenerate; the series
    reads its central orders -K..K, and a shorter spectrum is refused. Each
    series is one inverse FFT of the spectrum folded mod n, which is exact
    at n equispaced angles, so 2K + 1 may exceed n. Since
    |J_k(w)| <= (w/2)^k / k!, the dropped terms weigh at most
    2 sum_{k > K} (w/2)^k / k! sum_j |c_j| in the value and
    2 pi sum_{k >= K} (w/2)^k / k! sum_j |c_j| in the derivative, both below
    1e-15 sum_j |c_j|; the rounding of S_k (within about |k| eps sum_j |c_j|,
    see field._circle_spectrum) comes on top. The powers behind S_k need
    |v_j| = 1, so check_nondegenerate refuses frequencies off the unit
    circle by more than 1e-12 before it computes the spectrum.
    """
    factors = _circle_factors(W)
    K, mid = len(factors) // 2, len(spectrum) // 2
    if mid < K:
        raise ValueError("the spectrum stops below the circle's orders")
    k = np.arange(-K, K + 1)
    terms = factors * spectrum[mid - K : mid + K + 1]
    n = max(64, int(np.ceil(TWO_PI * W / h)))
    spec = np.zeros((2, n), dtype=complex)
    np.add.at(spec[0], k % n, terms)
    np.add.at(spec[1], k % n, 1j * k / W * terms)
    val, tangential = np.fft.ifft(spec, norm="forward").real
    return val, tangential


def check_nondegenerate(field: PlaneWaveSum, W: float, h: float = 0.05,
                        tau0: float = 1e-3) -> NondegeneracyReport:
    """Probe |g| + |grad g| over B(W+1) and the spherical part on the boundary of B(W).

    The bulk points are grid.lattice_ball's h Z^m within B(W+1): its box gives
    the fill's origin and shape, its mask the points that count. g and each
    partial derivative (the same sum with coefficients 2 pi i v_a c) come from
    one Chebyshev core over that box (field._LowRankLattice), contracted once
    with the interpolation tables and once per axis with that axis's
    differentiated table. In R^2 a sum of unit frequencies with more than
    P = 2K + 1 terms, such as a draw of sample_uniform, builds that core
    from P equispaced directions with the same circular spectrum up to the
    order K that the box's disc needs (Rokhlin, J. Comput. Phys. 86, 1990;
    Appl. Comput. Harmon. Anal. 1, 1993): 179 directions instead of 1024 at
    W = 4. The report keeps the core as its lattice: any grid inside the
    box, such as the measurement grid on B(W), is filled from it by
    sample_on_grid(report.lattice, ...) without a second core.
    The spherical part is |g|
    plus the tangential gradient: in R^2 on max(64, ceil(2 pi W / h)) equispaced
    points of the circle, from the field's Jacobi-Anger series
    (_circle_series; within 1e-15 sum_j |c_j| of pointwise evaluation before
    rounding, so the field's frequencies must be unit vectors); in R^3
    pointwise on a Fibonacci sphere. In R^2 the spectrum
    S_k = sum_j c_j e^{-ik theta_j} is computed once per draw, to the order
    K of the box's disc (field._disc_order, 89 at W = 4): the box is
    centred exactly at 0, so the core's compression reads it as it is, and
    the circle series reads its own orders from it. A fail is a valid
    report: the thresholded minima are a finite-sample convention, not an
    almost-sure statement.
    """
    if h > 0.1:
        raise ValueError("need h <= 0.1 for the nondegeneracy probe")
    if tau0 <= 0:
        raise ValueError("threshold must be positive")
    m = field.dim

    freqs, c = field.plane_waves()
    axes, inside = lattice_ball(np.zeros(m), W + 1, h)
    origin = np.array([ax[0] for ax in axes])
    spectrum = None
    if m == 2:
        # the box is centred exactly at 0: one S_k, to its disc's orders,
        # compresses its core and gives the circle series
        if not _on_unit_circle(freqs):
            raise ValueError("the circle probe needs unit frequencies (within 1e-12)")
        spectrum = _circle_spectrum(freqs, c, _disc_order(h * (np.asarray(inside.shape) - 1) / 2))
    lattice = _LowRankLattice(freqs, c, origin, inside.shape, h, spectrum)
    val, grads = lattice.grid_and_gradient(origin, inside.shape, h)
    psi = np.abs(val) + np.sqrt(sum(g**2 for g in grads))
    min_bulk = float(psi[inside].min())

    if m == 2:
        val_c, tangential = _circle_series(spectrum, W, h)
        min_sph = float((np.abs(val_c) + np.abs(tangential)).min())
    else:
        sph = _sphere_mesh(W, h)
        vals_s, grads_s = field.value(sph), field.gradient(sph)
        radial = (np.sum(sph * grads_s, axis=-1) / W**2)[:, None] * sph
        min_sph = float((np.abs(vals_s) + np.linalg.norm(grads_s - radial, axis=-1)).min())

    return NondegeneracyReport(
        min_bulk=min_bulk,
        min_spherical=min_sph,
        threshold=tau0,
        passed=bool(min_bulk > tau0 and min_sph > tau0),
        lattice=lattice,
    )
