"""Plane-wave sums: the PlaneWaveSum kernel, waves, packets, kernels.

Every field in the package is a PlaneWaveSum, F(x) = Re sum_j c_j e(<v_j, x>)
with e(t) = exp(2*pi*i*t), evaluated pointwise (value, gradient) or on a
regular lattice (on_grid). Pointwise evaluation reads the polar form
F(x) = sum_j |c_j| cos(2 pi <v_j, x> + arg c_j): one cosine per plane wave,
in blocks of points. The lattice fill is low rank: Chebyshev
interpolation in the frequency turns the J-term sum into a small core tensor
contracted with per-axis tables (_lowrank_grid); plane_wave_grid is the direct
rank-J product it is checked against. The deterministic wave is
f(x) = (2N)^{-1/2} * sum over |n| <= N of a_n e(<r_n, x>) with
a_{-n} = conj(a_n), r_{-n} = -r_n; MonochromaticWave folds it to the one-sided
form c_n = sqrt(2/N) a_n, so results are exactly real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .directions import DirectionSet
from .partition import SpherePartition

TWO_PI = 2 * np.pi
# Points per pointwise evaluation block: bounds each (points, J) phase table.
_BLOCK = 1 << 13


@dataclass
class CoefficientSet:
    count: int
    values: np.ndarray  # complex, |a_n| = 1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.count,):
            raise ValueError("coefficient array shape does not match count")
        if np.any(np.abs(np.abs(self.values) - 1.0) > 1e-12):
            raise ValueError("coefficients must have unit modulus within 1e-12")


def random_phase_coefficients(N: int, seed: int) -> CoefficientSet:
    rng = np.random.default_rng(seed)
    return CoefficientSet(N, np.exp(2j * np.pi * rng.random(N)))


def all_ones_coefficients(N: int) -> CoefficientSet:
    return CoefficientSet(N, np.ones(N, dtype=complex))


class PlaneWaveSum:
    """F(x) = Re sum_j c_j e(<v_j, x>): the one kernel behind waves and Gaussian draws.

    value and gradient evaluate pointwise (last axis of x is the coordinate
    axis) in the polar form F(x) = sum_j w_j cos psi_j, psi_j = 2 pi <v_j, x>
    + phi_j, with weights w_j = |c_j| and offsets phi_j = arg c_j fixed at
    construction; the gradient is -sum_j 2 pi w_j v_j sin psi_j. Points are
    taken in blocks of _BLOCK rows, each block one (points, J) phase table.
    on_grid fills a regular lattice through the low-rank _lowrank_grid.
    """

    def __init__(self, freqs, amps):
        self.freqs = np.asarray(freqs, dtype=float)  # (J, m)
        self.amps = np.asarray(amps)  # (J,), complex or real
        self._omega = TWO_PI * self.freqs  # (J, m)
        self._offset = np.angle(self.amps)  # (J,)
        self._weight = np.abs(self.amps).astype(float)  # (J,)
        self._slope = -self._weight[:, None] * self._omega  # (J, m)

    @property
    def dim(self) -> int:
        return self.freqs.shape[1]

    def plane_waves(self):
        """(freqs, amps) of the one-sided form."""
        return self.freqs, self.amps

    def value(self, x) -> np.ndarray | float:
        pts, batch = self._points(x)
        val = np.empty(len(pts))
        for rows, psi in self._phases(pts):
            val[rows] = np.cos(psi, out=psi) @ self._weight
        return float(val[0]) if batch == () else val.reshape(batch)

    __call__ = value

    def gradient(self, x) -> np.ndarray:
        """Exact term-by-term gradient, shape x.shape."""
        pts, batch = self._points(x)
        grad = np.empty(pts.shape)
        for rows, psi in self._phases(pts):
            grad[rows] = np.sin(psi, out=psi) @ self._slope
        return grad.reshape(*batch, self.dim)

    def value_and_gradient(self, x) -> tuple[np.ndarray, np.ndarray]:
        """value and gradient, bitwise, from one phase table per block."""
        pts, batch = self._points(x)
        val, grad = np.empty(len(pts)), np.empty(pts.shape)
        for rows, psi in self._phases(pts):
            val[rows] = np.cos(psi) @ self._weight
            grad[rows] = np.sin(psi, out=psi) @ self._slope
        return val.reshape(batch), grad.reshape(*batch, self.dim)

    def _points(self, x) -> tuple[np.ndarray, tuple]:
        """x as a (P, m) array of points, and its leading batch shape."""
        x = _check_dim(self, x)
        return x.reshape(-1, self.dim), x.shape[:-1]

    def _phases(self, pts: np.ndarray):
        """(rows, psi) per block of _BLOCK points: psi[i, j] = 2 pi <v_j, x_i> + phi_j."""
        for lo in range(0, len(pts), _BLOCK):
            psi = pts[lo : lo + _BLOCK] @ self._omega.T
            psi += self._offset
            yield slice(lo, lo + len(psi)), psi

    def on_grid(self, origin, shape, h: float) -> np.ndarray:
        """Values at origin + h * index over a grid of the given shape."""
        return _lowrank_grid(self.freqs, self.amps, origin, shape, h)


def _lattice_origin(freqs: np.ndarray, origin, shape) -> np.ndarray:
    """The origin as floats; a lattice whose dimension is not the field's is refused."""
    origin = np.asarray(origin, dtype=float)
    m = freqs.shape[1]
    if len(shape) != m or origin.shape != (m,):
        raise ValueError(f"grid shape and origin must have one entry per axis of R^{m}")
    return origin


def plane_wave_grid(freqs: np.ndarray, coeffs: np.ndarray, origin, shape, h: float) -> np.ndarray:
    """Re sum_j c_j exp(2 pi i <v_j, x>) on a regular grid, factored per axis.

    exp(2 pi i v.x) splits into a product of per-axis phase vectors, so the
    grid fill is a (chunked) complex matrix product of rank J instead of
    pointwise trigonometry; values match pointwise evaluation to rounding. A
    (K, J) stack of coefficient vectors gives K grids, shape (K, *shape), that
    share the phase tables. A lattice whose dimension is not the field's is
    refused. This direct product is the reference for the low-rank
    _lowrank_grid, which fills the lattices of the pipeline.
    """
    origin = _lattice_origin(freqs, origin, shape)
    m = freqs.shape[1]
    axes = []
    for a in range(m):
        coords = origin[a] + h * np.arange(shape[a])
        axes.append(np.exp(2j * np.pi * np.outer(freqs[:, a], coords)))  # (J, n_a)
    stack = np.atleast_2d(coeffs)
    out = np.zeros((len(stack), shape[0], int(np.prod(shape[1:]))))
    step = 128
    for k, c in enumerate(stack):
        if m == 2:
            out[k] = ((axes[0] * c[:, None]).T @ axes[1]).real
        else:
            for lo in range(0, len(c), step):
                u = axes[0][lo : lo + step] * c[lo : lo + step, None]
                vw = (
                    axes[1][lo : lo + step, :, None] * axes[2][lo : lo + step, None, :]
                ).reshape(-1, shape[1] * shape[2])
                out[k] += (u.T @ vw).real
    out = out.reshape(len(stack), *shape)
    return out if np.ndim(coeffs) == 2 else out[0]


# Truncation error of the low-rank fill, relative to sum_j |c_j|.
_LOWRANK_TOL = 1e-15


def _lowrank_grid(freqs: np.ndarray, coeffs: np.ndarray, origin, shape, h: float) -> np.ndarray:
    """plane_wave_grid by Chebyshev interpolation in the frequency: same arguments and refusals.

    Centre the box at c = origin + r, r_a = h (n_a - 1) / 2, so that
    F(c + y) = Re sum_j c_j e(<v_j, c>) prod_a e(v_ja y_a) with |y_a| <= r_a.
    On axis a, with rho_a = max_j |v_ja| and t_j = v_ja / rho_a in [-1, 1],
    e(v_ja y) is a function of t_j and is replaced by its interpolant at L_a
    Chebyshev points x_l of the second kind (barycentric form, Berrut &
    Trefethen 2004): e(v_ja y_i) ~ sum_l Lam_a[l, j] T_a[l, i] with
    T_a[l, i] = e(rho_a x_l y_i). The J-term sum then collapses onto the core
    tensor sum_j c_j e(<v_j, c>) (x)_a Lam_a[:, j] of shape (L_1, ..., L_m),
    contracted with the tables T_a: the low-rank NUFFT of Ruiz-Antolin &
    Townsend (SIAM J. Sci. Comput. 2018) on a uniform grid. The cost is about
    J prod L_a + n^m L instead of J n^m.

    Bound. As a function of t, e(rho_a t y) = exp(i w t) with |w| <= omega_a =
    2 pi rho_a r_a has the Chebyshev coefficients eps_k i^k J_k(w), eps_k <= 2
    (Jacobi-Anger), and |J_k(w)| <= (omega_a/2)^k / k!. Interpolation at L
    points errs by at most twice the coefficient tail from degree L on
    (Trefethen, ATAP, Thm 8.2), so each axis factor errs by at most
    eps_a = 4 sum_{k >= L_a} (omega_a/2)^k / k!, and the product of m unit
    factors by at most (1 + eps)^m - 1, about m eps. L_a is the fewest points,
    at least 2, with 4 m sum_{k >= L_a} (omega_a/2)^k / k! <= _LOWRANK_TOL:
    every value errs by at most about 1e-15 sum_j |c_j| before rounding (at
    rho = 1: 61 points for r = 4, 70 for r = 5). Rounding adds a few
    1e-15 sum_j |c_j|, as it does in plane_wave_grid.
    """
    origin = _lattice_origin(freqs, origin, shape)
    m = freqs.shape[1]
    n = np.asarray(shape)
    r = h * (n - 1) / 2
    stack = np.atleast_2d(coeffs) * np.exp(2j * np.pi * (freqs @ (origin + r)))  # (K, J)
    rho = np.abs(freqs).max(axis=0, initial=0.0)
    rho[rho == 0] = 1.0  # an axis without frequency content: every t_j is 0
    lams, tabs = [], []
    for a in range(m):
        count = _chebyshev_count(TWO_PI * rho[a] * r[a], m)
        lam, nodes = _barycentric_weights(freqs[:, a] / rho[a], count)
        lams.append(lam)  # (L_a, J)
        y = h * (np.arange(n[a]) - (n[a] - 1) / 2)
        tabs.append(np.exp(2j * np.pi * rho[a] * np.outer(nodes, y)))  # (L_a, n_a)

    # the core by real products, one block per (real or imaginary part, k);
    # 2D keeps each weighted table small, 3D chunks the (J, L_2 L_3) pair table
    K, L = len(stack), [len(lam) for lam in lams]
    parts = np.concatenate([stack.real, stack.imag])  # (2K, J)
    if m == 2:
        core = np.stack([(lams[0] * p) @ lams[1].T for p in parts])
    else:
        rows = (parts[:, None, :] * lams[0]).reshape(2 * K * L[0], -1)
        core = np.zeros((len(rows), L[1] * L[2]))
        step = 128
        for lo in range(0, len(freqs), step):
            pair = lams[1][:, None, lo : lo + step] * lams[2][None, :, lo : lo + step]
            core += rows[:, lo : lo + step] @ pair.reshape(L[1] * L[2], -1).T
    core = core.reshape(2, K, L[0], -1)
    core = core[0] + 1j * core[1]

    # contract the trailing axes, then the first by a real product that keeps only Re
    first = np.concatenate([tabs[0].real, -tabs[0].imag]).T  # (n_1, 2 L_1)
    out = np.empty((K, n[0], int(np.prod(n[1:]))))
    for k in range(K):
        if m == 2:
            rest = core[k] @ tabs[1]
        else:
            rest = (core[k].reshape(L[0] * L[1], L[2]) @ tabs[2]).reshape(L[0], L[1], n[2])
            rest = np.matmul(tabs[1].T, rest).reshape(L[0], -1)
        np.matmul(first, np.concatenate([rest.real, rest.imag]), out=out[k])
    out = out.reshape(K, *shape)
    return out if np.ndim(coeffs) == 2 else out[0]


def _chebyshev_count(omega: float, m: int) -> int:
    """Fewest points L >= 2 with 4 m sum_{k >= L} (omega/2)^k / k! <= _LOWRANK_TOL.

    Once L + 1 > omega/2 the terms fall geometrically, so the tail is at most
    its first term over 1 - omega / (2 (L + 1)); logs keep large omega finite.
    """
    half = omega / 2
    count = max(2, math.ceil(half))
    if half == 0:
        return count
    while (math.log(4 * m) + count * math.log(half) - math.lgamma(count + 1)
           - math.log1p(-half / (count + 1))) > math.log(_LOWRANK_TOL):
        count += 1
    return count


def _barycentric_weights(t: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange weights (count, len(t)) at t over second-kind Chebyshev points, and the points.

    Second barycentric form with weights (-1)^l, halved at both ends; column
    j interpolates at t_j. A t that equals a point gets that point's unit
    column.
    """
    l = np.arange(count)
    # cos(pi l / (count - 1)), written so the points are exactly odd about 0
    nodes = np.sin(np.pi * (count - 1 - 2 * l) / (2 * (count - 1)))
    w = np.where(l % 2, -1.0, 1.0)
    w[[0, -1]] /= 2
    diff = np.subtract.outer(nodes, t)  # the sign cancels in the normalisation
    hit = diff == 0
    diff[hit] = 1.0
    q = np.divide(w[:, None], diff, out=diff)
    on_node = hit.any(axis=0)
    q[:, on_node] = hit[:, on_node]
    q /= q.sum(axis=0)
    return q, nodes


class MonochromaticWave(PlaneWaveSum):
    """Finite symmetric plane-wave sum; a weak solution of Delta f = -4 pi^2 f.

    One-sided complex form: f(x) = Re sum_n c_n e(<r_n, x>), c_n = sqrt(2/N) a_n.
    """

    def __init__(self, dirs: DirectionSet, coeffs: CoefficientSet):
        if coeffs.count != dirs.count:
            raise ValueError("coefficient count must match direction count")
        super().__init__(dirs.vectors, np.sqrt(2.0 / dirs.count) * coeffs.values)
        self.dirs = dirs
        self.coeffs = coeffs


def make_wave(dirs: DirectionSet, coeffs: CoefficientSet | None = None, seed: int = 0,
              mode: str = "random-phase") -> MonochromaticWave:
    if coeffs is None:
        if mode == "random-phase":
            coeffs = random_phase_coefficients(dirs.count, seed)
        elif mode == "all-ones":
            coeffs = all_ones_coefficients(dirs.count)
        else:
            raise ValueError(f"unknown coefficient mode {mode!r}")
    return MonochromaticWave(dirs, coeffs)


def _check_dim(field: PlaneWaveSum, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != field.dim:
        raise ValueError("point dimension does not match the field")
    return x


def eval_bk(wave: MonochromaticWave, part: SpherePartition, x) -> np.ndarray:
    """Wave packets b_k(x) for k in the selected set, batched over x.

    b_k(x) = (2N mu_k)^{-1/2} * sum over signed atoms in cell k of a_n e(<r_n, x>).
    Conjugate pairing b_{-k} = conj(b_k) holds because cell -k carries exactly
    the negated atoms with conjugated coefficients.
    """
    if part.dirs is not wave.dirs and not np.array_equal(part.dirs.vectors, wave.dirs.vectors):
        raise ValueError("partition was not built from this wave's directions")
    if len(part.selected) == 0:
        raise ValueError("no cell exceeds the mass threshold; degenerate partition")
    x = _check_dim(wave, x)
    # e(<r_n, x>) a_n for the N positive atoms only; the negated atom N + n
    # carries conj(a_n), and e(<-r_n, x>) conj(a_n) is the conjugate of that term
    n_dirs = wave.dirs.count
    E = np.exp(2j * np.pi * (x @ wave.dirs.vectors.T))
    E *= wave.coeffs.values

    order = np.argsort(part.atom_cells, kind="stable")  # over the signed atoms [r; -r]
    sorted_cells = part.atom_cells[order]
    out = np.empty(x.shape[:-1] + (len(part.selected),), dtype=complex)
    for col, k in enumerate(part.selected):
        lo = np.searchsorted(sorted_cells, k, side="left")
        hi = np.searchsorted(sorted_cells, k, side="right")
        if hi == lo:
            raise AssertionError("selected cell has no atoms despite positive mass")
        norm = 1.0 / math.sqrt(2 * n_dirs * part.masses[k])
        atoms = order[lo:hi]
        terms = np.take(E, atoms % n_dirs, axis=-1)  # C order, so each row sums as before
        terms.imag[..., atoms >= n_dirs] *= -1
        out[..., col] = norm * terms.sum(axis=-1)
    return out


# ---------------------------------------------------------------------------
# Bessel functions of the first kind, integer and half-integer order

_SERIES_MAX_TERMS = 200


def _bessel_series(nu: float, z: np.ndarray) -> np.ndarray:
    # sum_k (-1)^k (z/2)^(2k+nu) / (k! Gamma(k+nu+1))
    half = z / 2.0
    with np.errstate(divide="ignore"):
        log_first = nu * np.log(np.where(z > 0, half, 1.0))
    first = np.where(z > 0, np.exp(log_first) / math.gamma(nu + 1), 1.0 if nu == 0 else 0.0)
    term = first.astype(float)
    acc = term.copy()
    z2 = half * half
    for k in range(1, _SERIES_MAX_TERMS):
        term = term * (-z2) / (k * (k + nu))
        acc += term
        if np.all(np.abs(term) <= 1e-18 * np.maximum(np.abs(acc), 1e-30)):
            break
    return acc


def _bessel_asymptotic(nu: float, z: np.ndarray) -> np.ndarray:
    # sqrt(2/(pi z)) [cos(omega) P(z) - sin(omega) Q(z)], omega = z - nu pi/2 - pi/4.
    # The correction series is asymptotic: terms may grow briefly (large nu near
    # the cutoff) before decaying, so each element keeps the partial sum
    # snapshotted at its smallest term so far (optimal truncation).
    mu = 4.0 * nu * nu
    omega = z - nu * np.pi / 2 - np.pi / 4
    p = np.ones_like(z)
    q = np.zeros_like(z)
    best_p = p.copy()
    best_q = q.copy()
    term = np.ones_like(z)
    smallest = np.full_like(z, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, 80):
            term = term * (mu - (2 * j - 1) ** 2) / (j * 8.0 * z)
            if j % 4 == 1:
                q = q + term
            elif j % 4 == 2:
                p = p - term
            elif j % 4 == 3:
                q = q - term
            else:
                p = p + term
            mag = np.abs(term)
            better = mag < smallest
            smallest = np.where(better, mag, smallest)
            best_p = np.where(better, p, best_p)
            best_q = np.where(better, q, best_q)
            if np.all(smallest <= 1e-18):
                break
    return np.sqrt(2.0 / (np.pi * z)) * (np.cos(omega) * best_p - np.sin(omega) * best_q)


def bessel_j(nu: float, z) -> np.ndarray | float:
    """J_nu(z) for nu in {0, 1/2, 1, ..., 10}, z >= 0.

    Power series up to z = max(12, 2 nu), the asymptotic cosine form with
    correction series beyond; absolute accuracy 1e-10 on [0, 50].
    """
    two_nu = 2 * nu
    if two_nu != int(two_nu) or nu < 0 or nu > 10:
        raise ValueError("order must be a half-integer in [0, 10]")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("argument must be nonnegative")
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    cut = max(12.0, 2.0 * nu)
    out = np.empty_like(z)
    small = z <= cut
    if np.any(small):
        out[small] = _bessel_series(float(nu), z[small])
    if np.any(~small):
        out[~small] = _bessel_asymptotic(float(nu), z[~small])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Covariance kernels


def covariance_kernel(measure, tau) -> np.ndarray | float:
    """E[F(x) conj(F(y))] at lag tau = x - y for a spectral measure; kernel(0) = 1."""
    tau = np.asarray(tau, dtype=float)
    scalar = tau.ndim == 1
    tau = np.atleast_2d(tau)
    if measure.kind == "atomic":
        val = PlaneWaveSum(measure.atoms, measure.weights).value(tau)
    else:
        m = measure.dim
        lam = (m - 2) / 2.0
        # C_m = Gamma(m/2) 2^lambda makes the uniform kernel equal 1 at 0
        c_m = math.gamma(m / 2.0) * 2.0**lam
        w = TWO_PI * np.linalg.norm(tau, axis=-1)
        val = np.empty_like(w)
        tiny = w < 1e-6
        # series limit: C_m J_lam(w)/w^lam -> 1 - w^2/(2m) + O(w^4)
        val[tiny] = 1.0 - w[tiny] ** 2 / (2.0 * m)
        big = ~tiny
        if np.any(big):
            val[big] = c_m * bessel_j(lam, w[big]) / w[big] ** lam
    return float(val[0]) if scalar else val
