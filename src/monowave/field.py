"""Plane-wave sums: the PlaneWaveSum kernel, waves, packets, kernels.

Every field in the package is a PlaneWaveSum, F(x) = Re sum_j c_j e(<v_j, x>)
with e(t) = exp(2*pi*i*t), evaluated pointwise (value, gradient) or on a
regular lattice (on_grid, through plane_wave_grid). The deterministic wave is
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
    axis); on_grid fills a regular lattice through the separable factorization
    of plane_wave_grid.
    """

    def __init__(self, freqs, amps):
        self.freqs = np.asarray(freqs, dtype=float)  # (J, m)
        self.amps = np.asarray(amps)  # (J,), complex or real

    @property
    def dim(self) -> int:
        return self.freqs.shape[1]

    def plane_waves(self):
        """(freqs, amps) of the one-sided form."""
        return self.freqs, self.amps

    def value(self, x) -> np.ndarray | float:
        x = _check_dim(self, x)
        phases = TWO_PI * (x @ self.freqs.T)
        val = np.cos(phases) @ self.amps.real - np.sin(phases) @ self.amps.imag
        return float(val) if val.ndim == 0 else val

    __call__ = value

    def gradient(self, x) -> np.ndarray:
        """Exact term-by-term gradient, shape x.shape."""
        x = _check_dim(self, x)
        phases = TWO_PI * (x @ self.freqs.T)
        s = -np.sin(phases) * self.amps.real - np.cos(phases) * self.amps.imag
        return TWO_PI * (s @ self.freqs)

    def value_and_gradient(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Batch value and gradient by the formulas above, from one cos and sin.

        Both trig tables stay alive together, so value alone keeps its own
        path with one table at a time.
        """
        x = _check_dim(self, x)
        phases = TWO_PI * (x @ self.freqs.T)
        cos = np.cos(phases)
        sin = np.sin(phases, out=phases)  # the phases are not needed again
        val = cos @ self.amps.real - sin @ self.amps.imag
        return val, TWO_PI * ((-sin * self.amps.real - cos * self.amps.imag) @ self.freqs)

    def on_grid(self, origin, shape, h: float) -> np.ndarray:
        """Values at origin + h * index over a grid of the given shape."""
        return plane_wave_grid(self.freqs, self.amps, origin, shape, h)


def plane_wave_grid(freqs: np.ndarray, coeffs: np.ndarray, origin, shape, h: float) -> np.ndarray:
    """Re sum_j c_j exp(2 pi i <v_j, x>) on a regular grid, factored per axis.

    exp(2 pi i v.x) splits into a product of per-axis phase vectors, so the
    grid fill is a (chunked) complex matrix product instead of pointwise
    trigonometry; values match pointwise evaluation to rounding. A (K, J)
    stack of coefficient vectors gives K grids, shape (K, *shape), that share
    the phase tables.
    """
    origin = np.asarray(origin, dtype=float)
    m = len(shape)
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
    # the full signed atom list [r; -r] with coefficients [a; conj(a)]
    atoms = np.vstack([wave.dirs.vectors, -wave.dirs.vectors])
    coeffs = np.concatenate([wave.coeffs.values, np.conj(wave.coeffs.values)])
    two_n = 2 * wave.dirs.count

    order = np.argsort(part.atom_cells, kind="stable")
    sorted_cells = part.atom_cells[order]
    E = np.exp(2j * np.pi * (x @ atoms[order].T)) * coeffs[order]
    out = np.empty(x.shape[:-1] + (len(part.selected),), dtype=complex)
    for col, k in enumerate(part.selected):
        lo = np.searchsorted(sorted_cells, k, side="left")
        hi = np.searchsorted(sorted_cells, k, side="right")
        if hi == lo:
            raise AssertionError("selected cell has no atoms despite positive mass")
        norm = 1.0 / math.sqrt(two_n * part.masses[k])
        out[..., col] = norm * E[..., lo:hi].sum(axis=-1)
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
