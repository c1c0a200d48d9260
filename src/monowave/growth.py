"""Growth and distribution diagnostics for a fixed wave.

Doubling indices compare suprema over concentric balls, probed on the
absolute lattice of grid.lattice_ball: a PlaneWaveSum fills that box once per
centre through its low-rank on_grid, with the centre itself evaluated
pointwise, and any other evaluator is probed pointwise; small-value
fractions and the characteristic function are plain Monte Carlo over uniform
centers in the big ball. spatial_sample is that one draw of uniform centers,
shared by every spatial average here and in stats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import MonochromaticWave, PlaneWaveSum, bessel_j
from .gaussian import child_rng
from .grid import lattice_ball, lattice_points, within_ball
from .nodal import DegenerateSampleError

TWO_PI = 2 * math.pi
PROBE_DENSITY = 20  # doubling-index probe points per unit length


def scaling_factor(m: int) -> float:
    """Radius ratio between the outer and inner balls of the doubling index."""
    return 2.0 * math.sqrt(m)


def spatial_sample(m: int, R: float, n: int, seed: int) -> np.ndarray:
    """n points uniform in B(R) in R^m, from child stream 0 of seed.

    The spatial average that stands in for the ensemble average: every
    fixed-wave report averages over these points, so reports with one seed
    share one sample. R must be positive.
    """
    if not R > 0:
        raise ValueError("radius R must be positive")
    rng = child_rng(seed, 0)
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = R * rng.uniform(0.0, 1.0, n) ** (1.0 / m)
    return x * r[:, None]


def doubling_index(field, x, W: float) -> float:
    """log of sup|f| over B(x, 2 sqrt(m) W) against sup|f| over B(x, W), plus 1.

    Probed on grid.lattice_ball's (1/PROBE_DENSITY) Z^m in the outer ball,
    plus x itself; the inner ball's points are picked out of the same box by
    the same squared-distance rule. A PlaneWaveSum fills the box once through
    on_grid (within the low-rank fill's bound of pointwise values) and both
    suprema are read from that one fill; x, not a lattice point, is
    evaluated pointwise. Any other evaluator is probed pointwise through
    .value at the box's in-ball points. m must be 2 or 3.
    """
    if W < 1:
        raise ValueError("need W >= 1")
    x = np.asarray(x, dtype=float)
    if len(x) not in (2, 3):
        raise ValueError("grid geometry supports m in {2, 3}")
    kappa = scaling_factor(len(x))
    h = 1.0 / PROBE_DENSITY
    axes, outer = lattice_ball(x, kappa * W, h)
    inner = within_ball(axes, x, W)
    if isinstance(field, PlaneWaveSum):
        box = np.abs(field.on_grid([ax[0] for ax in axes], tuple(map(len, axes)), h))
        at_x = abs(float(field.value(x)))
        sup_inner = max(float(box[inner & outer].max()), at_x)
        sup_outer = max(float(box[outer].max()), at_x)
    else:  # the benchmark's traced wave proxy exposes only .dirs and .value
        vals = np.abs(field.value(np.concatenate([lattice_points(axes, outer), x[None, :]])))
        sup_inner = float(vals[np.append(inner[outer], True)].max())
        sup_outer = float(vals.max())
    if sup_inner < 1e-300:
        raise DegenerateSampleError("inner supremum vanished; field is degenerate here",
                                    "vanished_supremum")
    return math.log(sup_outer / sup_inner) + 1.0


@dataclass
class DoublingStats:
    samples: np.ndarray  # one doubling index per center

    def tail(self, Q) -> np.ndarray | float:
        """Empirical fraction of samples strictly above Q."""
        Q = np.asarray(Q, dtype=float)
        frac = np.mean(self.samples[None, ...] > np.atleast_1d(Q)[:, None], axis=1)
        return float(frac[0]) if Q.ndim == 0 else frac


def doubling_tail(wave: MonochromaticWave, R: float, W: float, n_samples: int,
                  seed: int) -> DoublingStats:
    """Doubling indices at n_samples centres of spatial_sample(m, R, n_samples, seed).

    The wave is a MonochromaticWave, the PlaneWaveSum whose DirectionSet
    gives m, so doubling_index fills each centre's box through on_grid.
    """
    if R < 10 * W:
        raise ValueError("need R >= 10 W so windows decorrelate")
    centers = spatial_sample(wave.dirs.dim, R, n_samples, seed)
    vals = np.array([doubling_index(wave, c, W) for c in centers])
    return DoublingStats(samples=vals)


@dataclass
class SmallValueReport:
    beta: float
    fraction: float
    stderr: float
    gaussian_limit: float  # 2 Phi(beta) - 1


def small_value_fraction(wave: MonochromaticWave, R: float, beta: float, n_samples: int,
                         seed: int) -> SmallValueReport:
    """Volume fraction of {|f| <= beta} in B(R), with the Gaussian-limit target."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    x = spatial_sample(wave.dirs.dim, R, n_samples, seed)
    hits = np.abs(wave.value(x)) <= beta
    frac = float(np.mean(hits))
    stderr = math.sqrt(max(frac * (1 - frac), 1e-300) / n_samples)
    return SmallValueReport(
        beta=beta,
        fraction=frac,
        stderr=stderr,
        gaussian_limit=math.erf(beta / math.sqrt(2.0)),
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
    x = spatial_sample(wave.dirs.dim, R, n_samples, seed)
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
