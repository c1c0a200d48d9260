"""Growth and distribution diagnostics for a fixed wave.

Doubling indices compare suprema over concentric balls (probed on a fixed
lattice, never optimized); small-value fractions and the characteristic
function are plain Monte Carlo over uniform centers in the big ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import MonochromaticWave, bessel_j
from .gaussian import child_rng
from .nodal import DegenerateSampleError

TWO_PI = 2 * math.pi
PROBE_DENSITY = 20  # doubling-index probe points per unit length


def scaling_factor(m: int) -> float:
    """Radius ratio between the outer and inner balls of the doubling index."""
    return 2.0 * math.sqrt(m)


def _uniform_ball(rng: np.random.Generator, m: int, radius: float, n: int) -> np.ndarray:
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = radius * rng.uniform(0.0, 1.0, n) ** (1.0 / m)
    return x * r[:, None]


def _lattice_ball(center: np.ndarray, radius: float, h: float) -> np.ndarray:
    """Absolute lattice h*Z^m clipped to the closed ball B(center, radius).

    Anchoring at multiples of h (not at the center) keeps the probe set
    consistent across centers and hits period-aligned extrema exactly.
    """
    axes = [
        h * np.arange(math.floor((c - radius) / h), math.ceil((c + radius) / h) + 1)
        for c in center
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in mesh], axis=-1)
    return pts[np.linalg.norm(pts - center, axis=1) <= radius]


def doubling_index(field, x, W: float) -> float:
    """log of sup|f| over B(x, 2 sqrt(m) W) against sup|f| over B(x, W), plus 1.

    Probed on the lattice (1/PROBE_DENSITY) Z^m in the outer ball, plus x itself.
    """
    if W < 1:
        raise ValueError("need W >= 1")
    x = np.asarray(x, dtype=float)
    m = len(x)
    kappa = scaling_factor(m)
    pts = np.concatenate([_lattice_ball(x, kappa * W, 1.0 / PROBE_DENSITY), x[None, :]])
    vals = np.abs(field.value(pts))
    inner = vals[np.linalg.norm(pts - x, axis=1) <= W]
    sup_inner = float(inner.max())
    sup_outer = float(vals.max())
    if sup_inner < 1e-300:
        raise DegenerateSampleError("inner supremum vanished; field is degenerate here")
    return math.log(sup_outer / sup_inner) + 1.0


@dataclass
class DoublingStats:
    W: float
    kappa: float
    samples: np.ndarray  # one doubling index per center

    def tail(self, Q) -> np.ndarray | float:
        """Empirical fraction of samples strictly above Q."""
        Q = np.asarray(Q, dtype=float)
        frac = np.mean(self.samples[None, ...] > np.atleast_1d(Q)[:, None], axis=1)
        return float(frac[0]) if Q.ndim == 0 else frac


def doubling_tail(wave: MonochromaticWave, R: float, W: float, n_samples: int,
                  seed: int) -> DoublingStats:
    if R < 10 * W:
        raise ValueError("need R >= 10 W so windows decorrelate")
    m = wave.dirs.dim
    rng = child_rng(seed, 0)
    centers = _uniform_ball(rng, m, R, n_samples)
    vals = np.array([doubling_index(wave, c, W) for c in centers])
    return DoublingStats(W=W, kappa=scaling_factor(m), samples=vals)


@dataclass
class SmallValueReport:
    beta: float
    fraction: float
    stderr: float
    gaussian_limit: float  # 2 Phi(beta) - 1
    n_samples: int


def small_value_fraction(wave: MonochromaticWave, R: float, beta: float, n_samples: int,
                         seed: int) -> SmallValueReport:
    """Volume fraction of {|f| <= beta} in B(R), with the Gaussian-limit target."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    rng = child_rng(seed, 0)
    x = _uniform_ball(rng, wave.dirs.dim, R, n_samples)
    hits = np.abs(wave.value(x)) <= beta
    frac = float(np.mean(hits))
    stderr = math.sqrt(max(frac * (1 - frac), 1e-300) / n_samples)
    return SmallValueReport(
        beta=beta,
        fraction=frac,
        stderr=stderr,
        gaussian_limit=math.erf(beta / math.sqrt(2.0)),
        n_samples=n_samples,
    )


@dataclass
class CharFnReport:
    t: np.ndarray
    empirical: np.ndarray  # complex
    predicted: np.ndarray
    stderr: np.ndarray  # per-t Monte Carlo error of the real part
    sup_error: float
    n_samples: int


def characteristic_function(wave: MonochromaticWave, R: float, t_max: float, n_t: int,
                            n_samples: int, seed: int) -> CharFnReport:
    """Spatial characteristic function t -> mean over B(R) of e(t f(x)).

    The product prediction J_0(sqrt(2) 2 pi t / sqrt(N))^N relies on the
    coefficient normalization |c_n|^2 = 2/N and on nearly-orthogonal phases;
    agreement is a distributional statement, not pointwise in x.
    """
    if t_max > 10:
        raise ValueError("t_max above 10 is outside the calibrated range")
    rng = child_rng(seed, 0)
    x = _uniform_ball(rng, wave.dirs.dim, R, n_samples)
    fx = wave.value(x)
    t = np.linspace(0.0, t_max, n_t)
    phases = np.exp(2j * np.pi * np.outer(t, fx))
    emp = phases.mean(axis=1)
    stderr = phases.real.std(axis=1, ddof=1) / math.sqrt(n_samples)
    N = wave.dirs.count
    pred = bessel_j(0, math.sqrt(2.0) * TWO_PI * t / math.sqrt(N)) ** N
    return CharFnReport(
        t=t,
        empirical=emp,
        predicted=pred,
        stderr=stderr,
        sup_error=float(np.max(np.abs(emp - pred))),
        n_samples=n_samples,
    )
