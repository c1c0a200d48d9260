"""Gaussian comparison fields and the nondegeneracy check.

Every draw is a PlaneWaveSum. Atomic measures sample F(y) = sum_k sqrt(w_k)
[g_k cos(2 pi <z_k, y>) + h_k sin(2 pi <z_k, y>)] over their one atom z_k per
+- pair, with w_k the mass of the pair; the uniform measure is approximated by
M random plane waves with uniform phases. An atomic draw's g and h are one
row [g | h] of standard normals from its own seeded generator (_normal_row);
atomic_cloud evaluates many such draws at a few points as row blocks of that
layout times one (2A, points) table, without building their PlaneWaveSums.
The nondegeneracy check fills a draw's probe box through one low-rank
lattice (field._LowRankLattice) and, in R^2, reads the circle |x| = W from
the same lattice, which owns the circular spectrum behind both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import PlaneWaveSum, _LowRankLattice, _row_blocks
from .grid import lattice_ball
from .partition import SpherePartition, positive_side

TWO_PI = 2 * np.pi


def child_rng(seed: int, j: int) -> np.random.Generator:
    """Counter-based child stream j of a master seed; order-independent.

    Stream layout under one seed:
      0      growth.spatial_sample, the uniform points of every spatial average
      1      the CLI wave's coefficient phases
      2      stats.pushforward_distance's Gaussian draw seeds, one stream for all n,
             one seed per draw in order
      j      draw j of stats._kept_draws, the one trial loop of ns_constant_estimate
             and discrepancy_estimate: both probe draw j at h = 0.1 and keep
             or exclude it alike
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


def _normal_row(seed: int, row: np.ndarray) -> np.ndarray:
    """Fill row, [g | h] of one atomic draw, from the generator of its seed: g first, then h."""
    return np.random.default_rng(seed).standard_normal(out=row)


def sample_atomic(measure: SpectralMeasure, seed: int) -> PlaneWaveSum:
    """Draw g_k, h_k iid N(0,1) per atom pair; c_k = sqrt(w_k) (g_k - i h_k), so E F(y)^2 = 1.

    g and h are the two halves of _normal_row(seed), the row that atomic_cloud
    reads for the same seed.
    """
    if measure.kind != "atomic":
        raise ValueError("sample_atomic needs an atomic measure")
    A = len(measure.weights)
    g, h = np.split(_normal_row(seed, np.empty(2 * A)), 2)
    coeffs = np.sqrt(measure.weights) * (g - 1j * h)
    return PlaneWaveSum(measure.freqs, coeffs)


def atomic_cloud(measure: SpectralMeasure, seeds, y_points) -> np.ndarray:
    """(S, Y) values of the draws sample_atomic(measure, s), s in seeds, at the Y y_points.

    Draw i's row [g | h] comes from _normal_row(seeds[i]), so every draw is
    the one sample_atomic makes from its seed; its values are the real
    product of that row with the (2A, Y) table [sqrt(w) cos t ; sqrt(w) sin t],
    t = 2 pi <z_k, y>, since Re(sqrt(w) (g - ih) e(t)) = sqrt(w) (g cos t + h sin t).
    The rows are taken in field._row_blocks(S, 2A) blocks through one reused
    buffer, so no temporary grows with the draw count beyond the output.
    """
    if measure.kind != "atomic":
        raise ValueError("atomic_cloud needs an atomic measure")
    y_points = np.atleast_2d(np.asarray(y_points, dtype=float))
    seeds = np.asarray(seeds)
    phase = y_points @ (TWO_PI * measure.freqs).T  # (Y, A)
    root = np.sqrt(measure.weights)
    table = np.concatenate([root * np.cos(phase), root * np.sin(phase)], axis=1).T
    out = np.empty((len(seeds), len(y_points)))
    buf = None
    for rows in _row_blocks(len(seeds), len(table)):
        block = seeds[rows].tolist()
        if buf is None:
            buf = np.empty((len(block), len(table)))
        for row, s in zip(buf, block):
            _normal_row(s, row)
        np.matmul(buf[: len(block)], table, out=out[rows])
    return out


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
    The spherical part is |g| plus the tangential gradient: in R^2 on
    max(64, ceil(2 pi W / h)) equispaced points of the circle, from the
    lattice's Jacobi-Anger series about the box's centre (lattice.circle;
    within 1e-15 sum_j |c_j| of pointwise evaluation before rounding, so the
    field's frequencies must be unit vectors); in R^3 pointwise on a
    Fibonacci sphere. The box is centred exactly at 0, so that circle is
    |x| = W. In R^2 the lattice computes the spectrum
    S_k = sum_j c_j e^{-ik theta_j} once per draw, to the order K of the
    box's disc (89 at W = 4), and both the compression and the circle read
    it. A pitch outside 0 < h <= 0.1, a radius W that is not finite and > 0
    and a threshold tau0 <= 0 are refused. A fail is a valid
    report: the thresholded minima are a finite-sample convention, not an
    almost-sure statement.
    """
    if not 0 < h <= 0.1:
        raise ValueError("need 0 < h <= 0.1 for the nondegeneracy probe")
    if not 0 < W < math.inf:
        raise ValueError("need a finite W > 0 for the nondegeneracy probe")
    if tau0 <= 0:
        raise ValueError("threshold must be positive")
    m = field.dim

    freqs, c = field.plane_waves()
    axes, inside = lattice_ball(np.zeros(m), W + 1, h)
    origin = np.array([ax[0] for ax in axes])
    lattice = _LowRankLattice(freqs, c, origin, inside.shape, h)
    val, grads = lattice.grid_and_gradient(origin, inside.shape, h)
    psi = np.abs(val) + np.sqrt(sum(g**2 for g in grads))
    min_bulk = float(psi[inside].min())

    if m == 2:
        val_c, tangential = lattice.circle(W, h)
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
