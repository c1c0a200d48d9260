"""Estimator-versus-prediction comparisons.

Monte Carlo comparisons pass at 4 standard errors; geometric densities carry
percent-level tolerances because linear interpolation biases them. Every
report records the tolerance it was judged against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import nodal
from .field import MonochromaticWave, covariance_kernel, eval_bk
from .gaussian import (
    SpectralMeasure,
    check_nondegenerate,
    child_rng,
    sample_atomic,
    sample_uniform,
)
from .grid import ScalarGrid, sample_on_grid
from .growth import _lattice_ball, _uniform_ball
from .nodal import DegenerateSampleError
from .partition import SpherePartition


@dataclass
class ComparisonReport:
    name: str
    estimate: np.ndarray
    predicted: np.ndarray
    prediction_source: str  # where the predicted values come from
    stderr: np.ndarray
    tolerance: np.ndarray
    passed: bool
    n_samples: int
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.estimate = np.atleast_1d(np.asarray(self.estimate, dtype=float))
        self.predicted = np.atleast_1d(np.asarray(self.predicted, dtype=float))
        self.stderr = np.atleast_1d(np.asarray(self.stderr, dtype=float))
        self.tolerance = np.broadcast_to(
            np.asarray(self.tolerance, dtype=float), self.estimate.shape
        ).copy()
        if np.any(self.stderr < 0):
            raise ValueError("negative standard error")


def _judge(name, source, estimate, predicted, stderr, tolerance, n, **meta) -> ComparisonReport:
    est = np.atleast_1d(np.asarray(estimate, dtype=float))
    pred = np.atleast_1d(np.asarray(predicted, dtype=float))
    tol = np.broadcast_to(np.asarray(tolerance, dtype=float), est.shape)
    passed = bool(np.all(np.abs(est - pred) <= tol))
    return ComparisonReport(
        name=name, estimate=est, predicted=pred, prediction_source=source,
        stderr=stderr, tolerance=tol, passed=passed, n_samples=n, meta=meta,
    )


@dataclass
class ConstantEstimate:
    kind: str
    W: float
    trials: int
    mean: float
    stderr: float
    excluded: int = 0
    class_density: dict[str, tuple[float, float]] = dc_field(default_factory=dict)
    tree_density: dict[str, tuple[float, float]] = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.mean < 0:
            raise ValueError("densities are nonnegative")


def _gaussian_moment(p: int) -> float:
    if p % 2:
        return 0.0
    q = p // 2
    return math.factorial(2 * q) / (math.factorial(q) * 2**q)


def window_moment_report(wave: MonochromaticWave, R: float, W: float, y_points,
                         p_max: int, n_samples: int, seed: int) -> ComparisonReport:
    """Empirical window moments E_x[f(x+y)^p] against the Gaussian values."""
    if p_max > 12:
        raise ValueError("moments above order 12 need more samples than desk scale allows")
    y_points = np.atleast_2d(np.asarray(y_points, dtype=float))
    if np.any(np.linalg.norm(y_points, axis=1) > W):
        raise ValueError("window points must lie in B(W)")
    rng = child_rng(seed, 0)
    x = _uniform_ball(rng, wave.dirs.dim, R, n_samples)
    est, pred, se = [], [], []
    for y in y_points:
        vals = wave.value(x + y)
        for p in range(1, p_max + 1):
            vp = vals**p
            est.append(vp.mean())
            pred.append(_gaussian_moment(p))
            se.append(vp.std(ddof=1) / math.sqrt(n_samples))
    se = np.array(se)
    return _judge("window-moments", "standard normal moments, closed form",
                  est, pred, se, 4 * se, n_samples, R=R, W=W, p_max=p_max, seed=seed)


def bk_moment_report(wave: MonochromaticWave, part: SpherePartition, R: float,
                     moments, n_samples: int, seed: int) -> ComparisonReport:
    """Mixed packet moments E_x[prod b_k^s conj(b_k)^t] vs prod delta_st s!.

    moments: list of index tuples, each a list of (cell, s, t) entries.
    """
    for entry in moments:
        if sum(s + t for _, s, t in entry) > 6:
            raise ValueError("total moment order above 6 is not calibrated")
    rng = child_rng(seed, 0)
    x = _uniform_ball(rng, wave.dirs.dim, R, n_samples)
    b = eval_bk(wave, part, x)  # (n, #selected)
    col = {int(k): i for i, k in enumerate(part.selected)}
    est, pred, se = [], [], []
    for entry in moments:
        term = np.ones(n_samples, dtype=complex)
        expected = 1.0
        for k, s, t in entry:
            bk = b[:, col[k]]
            term *= bk**s * np.conj(bk) ** t
            expected *= math.factorial(s) if s == t else 0.0
        est.append(term.real.mean())
        pred.append(expected)
        se.append(term.real.std(ddof=1) / math.sqrt(n_samples))
    se = np.array(se)
    return _judge("bk-moments", "complex normal mixed moments, closed form",
                  est, pred, se, 4 * se, n_samples, R=R, seed=seed)


def covariance_compare(wave: MonochromaticWave, R: float, W: float, lags,
                       n_samples: int, seed: int) -> ComparisonReport:
    from .directions import empirical_measure

    lags = np.atleast_2d(np.asarray(lags, dtype=float))
    if np.any(np.linalg.norm(lags, axis=1) > 2 * W):
        raise ValueError("lags must lie in B(2W)")
    rng = child_rng(seed, 0)
    x = _uniform_ball(rng, wave.dirs.dim, R, n_samples)
    f0 = wave.value(x)
    mu = empirical_measure(wave.dirs)
    est, pred, se = [], [], []
    for tau in lags:
        prod = f0 * wave.value(x + tau)
        est.append(prod.mean())
        pred.append(covariance_kernel(mu, tau))
        se.append(prod.std(ddof=1) / math.sqrt(n_samples))
    se = np.array(se)
    rep = _judge("covariance", "atomic spectral kernel of the wave's directions",
                 est, pred, se, 4 * se, n_samples, R=R, W=W, seed=seed)
    rep.meta["max_abs_error"] = float(np.max(np.abs(rep.estimate - rep.predicted)))
    return rep


# ---------------------------------------------------------------------------
# pushforward comparison (documented proxy for the weak-convergence metric)


def _ks_to_standard_normal(sample: np.ndarray) -> float:
    s = np.sort(sample)
    n = len(s)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(s / math.sqrt(2.0)))
    upper = np.abs(np.arange(1, n + 1) / n - cdf)
    lower = np.abs(cdf - np.arange(0, n) / n)
    return float(max(upper.max(), lower.max()))


def _energy_statistics(pts: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Energy statistic of each split of pts given by a +-1 column s of signs.

    With k entries of each sign, 2 mean_AB - mean_AA - mean_BB = -s^T D s / k^2
    over the distance matrix D, whose diagonal zeros the within-cloud means keep
    on purpose: the convention cancels in the null. D is streamed in row blocks.
    """
    k = len(pts) // 2
    quad = np.zeros(signs.shape[1])
    step = 256
    for lo in range(0, len(pts), step):
        block = np.linalg.norm(pts[lo : lo + step, None, :] - pts[None, :, :], axis=-1)
        quad += np.einsum("ip,ip->p", signs[lo : lo + step], block @ signs)
    return -quad / k**2


def _resolve_sampler(sampler, m: int):
    if isinstance(sampler, SpectralMeasure):
        if sampler.kind == "atomic":
            return lambda s: sample_atomic(sampler, s)
        return lambda s: sample_uniform(m, 1024, s)
    return sampler


def pushforward_distance(wave: MonochromaticWave, R: float, sampler, y_points,
                         n_samples: int, seed: int, subsample: int = 2000,
                         permutations: int = 200) -> ComparisonReport:
    """KS marginals vs N(0,1) plus calibrated energy distance of the joint clouds.

    Not the weak-convergence metric itself: that is not computable from finite
    samples. The permutation threshold is the 95th percentile of the pooled
    null. The observed split and every permuted one are +-1 label columns, so
    the whole null is one matrix product streamed over row blocks of the
    pairwise distances (see _energy_statistics).
    """
    y_points = np.atleast_2d(np.asarray(y_points, dtype=float))
    if len(y_points) > 5:
        raise ValueError("at most 5 window points")
    m = wave.dirs.dim
    rng = child_rng(seed, 0)
    x = _uniform_ball(rng, m, R, n_samples)
    cloud_a = np.stack([wave.value(x + y) for y in y_points], axis=1)

    draw = _resolve_sampler(sampler, m)
    cloud_b = np.empty_like(cloud_a)
    for j in range(n_samples):
        cloud_b[j] = draw(int(child_rng(seed, j + 1).integers(2**63)))(y_points)

    ks = np.array([_ks_to_standard_normal(cloud_a[:, i]) for i in range(len(y_points))])

    keep = min(subsample, n_samples)
    prng = child_rng(seed, 10**6)
    idx = prng.permutation(n_samples)[:keep]
    # column 0 is the observed split; column i puts permutation i's first keep rows on +
    labels = np.repeat([1.0, -1.0], keep)
    signs = np.empty((2 * keep, permutations + 1))
    signs[:, 0] = labels
    for i in range(1, permutations + 1):
        signs[prng.permutation(2 * keep), i] = labels
    stat = _energy_statistics(np.concatenate([cloud_a[idx], cloud_b[idx]]), signs)
    energy, null = float(stat[0]), stat[1:]
    threshold = float(np.quantile(null, 0.95))

    est = np.concatenate([ks, [energy]])
    pred = np.zeros(len(ks) + 1)
    tol = np.concatenate([np.full(len(ks), np.inf), [threshold]])
    rep = _judge("pushforward", "zero distance under the Gaussian null; "
                 "energy threshold from the permutation null",
                 est, pred, np.zeros_like(est), tol, n_samples,
                 R=R, seed=seed, ks=ks, energy=energy, threshold=threshold)
    rep.meta["gaussian_indistinguishable"] = energy <= threshold
    return rep


# ---------------------------------------------------------------------------
# geometric constants


def kac_rice_density(measure: SpectralMeasure, n_mc: int = 10**6, seed: int = 0):
    """Expected zero-set volume per unit volume: E||grad F|| / sqrt(2 pi).

    Closed form for the uniform (isotropic) measure; Monte Carlo over the
    exact gradient covariance for atomic measures (returns value, stderr).
    """
    m = measure.dim
    if measure.kind == "uniform":
        sigma = 2 * math.pi / math.sqrt(m)
        e_norm = sigma * math.sqrt(2.0) * math.gamma((m + 1) / 2) / math.gamma(m / 2)
        return e_norm / math.sqrt(2 * math.pi)
    if not measure.hyperplane_ok:
        raise ValueError("measure is hyperplane-supported; the zero set is degenerate")
    cov = 4 * math.pi**2 * (measure.atoms.T * measure.weights) @ measure.atoms
    chol = np.linalg.cholesky(cov)
    rng = np.random.default_rng(seed)
    norms = np.linalg.norm(rng.standard_normal((n_mc, m)) @ chol.T, axis=1)
    val = norms.mean() / math.sqrt(2 * math.pi)
    err = norms.std(ddof=1) / math.sqrt(n_mc) / math.sqrt(2 * math.pi)
    return float(val), float(err)


def _ball_volume(m: int, r: float) -> float:
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1) * r**m


def _map_trials(fn, trials: int, workers: int) -> list:
    """Run fn(0..trials-1), optionally on a thread pool; order is fixed either way."""
    if workers <= 1:
        return [fn(j) for j in range(trials)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


def ns_constant_estimate(sampler, W: float, trials: int, seed: int, h: float = 0.05,
                         m: int | None = None, with_topology: bool = False,
                         workers: int = 1) -> ConstantEstimate:
    """Mean interior nodal-domain count per unit volume over sampled fields.

    Degenerate draws (failed nondegeneracy probe, unresolved adjacency) are
    excluded and counted; more than 20% exclusions aborts.
    """
    if W < 4:
        raise ValueError("need W >= 4")
    if trials < 50:
        raise ValueError("need at least 50 trials")
    if isinstance(sampler, SpectralMeasure):
        if m is None:
            m = sampler.dim
    elif m is None:
        raise ValueError("pass m when the sampler is a bare callable")
    draw = _resolve_sampler(sampler, m)
    vol = _ball_volume(m, W)

    def one_trial(j: int):
        realization = draw(int(child_rng(seed, j).integers(2**63)))
        try:
            # probe at the coarsest permitted pitch: it gates outliers, it is
            # not the measurement grid
            if not check_nondegenerate(realization, W, 0.1).passed:
                raise DegenerateSampleError("nondegeneracy probe failed")
            g = sample_on_grid(realization, np.zeros(m), W, h)
            dec = nodal.label_domains(g)
            classes: dict[str, int] = {}
            trees: dict[str, int] = {}
            if with_topology:
                classes = dict(nodal.classify_topology(dec).histogram)
                tree = nodal.build_nesting_tree(dec)
                for c in dec.components:
                    if not c.touches_boundary:
                        code = tree.codes[c.id]
                        trees[code] = trees.get(code, 0) + 1
        except DegenerateSampleError:
            return None
        return dec.interior_count / vol, classes, trees

    results = _map_trials(one_trial, trials, workers)
    densities = []
    per_class: dict[str, list[float]] = {}
    per_tree: dict[str, list[float]] = {}
    excluded = 0
    for res in results:
        if res is None:
            excluded += 1
            continue
        density, classes, trees = res
        densities.append(density)
        for tag, cnt in classes.items():
            per_class.setdefault(tag, []).append(cnt / vol)
        for code, cnt in trees.items():
            per_tree.setdefault(code, []).append(cnt / vol)
    if excluded > 0.2 * trials:
        raise DegenerateSampleError(
            f"{excluded}/{trials} draws degenerate; refine h or enlarge W"
        )
    arr = np.array(densities)
    n = len(arr)

    def summarize(vals: list[float]) -> tuple[float, float]:
        padded = np.zeros(n)
        padded[: len(vals)] = vals  # absent trials contribute zero counts
        return float(padded.mean()), float(padded.std(ddof=1) / math.sqrt(n))

    return ConstantEstimate(
        kind="nodal-count density",
        W=W,
        trials=trials,
        mean=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(n)),
        excluded=excluded,
        class_density={k: summarize(v) for k, v in per_class.items()},
        tree_density={k: summarize(v) for k, v in per_tree.items()},
    )


# ---------------------------------------------------------------------------
# sandwich and semilocal checks


class _ZeroClipper:
    """Measure of the zero set inside arbitrary balls, built once per grid.

    m=2: exact quadratic clipping of each segment. m=3: each triangle is
    split into 16 congruent subtriangles and scored by centroid membership;
    only triangles whose reach touches the ball are examined.
    """

    def __init__(self, grid: ScalarGrid):
        geom = nodal.nodal_volume(grid)
        self.dim = grid.dim
        if grid.dim == 2:
            segs = geom.segments
            self.a = segs[:, 0, :]
            self.d = segs[:, 1, :] - segs[:, 0, :]
            self.dd = np.einsum("ij,ij->i", self.d, self.d)
            self.len = np.sqrt(self.dd)
        else:
            tri = geom.vertices[geom.triangles]  # (T, 3, 3)
            cross = np.cross(tri[:, 1, :] - tri[:, 0, :], tri[:, 2, :] - tri[:, 0, :])
            self.area = 0.5 * np.linalg.norm(cross, axis=-1)
            self.centroid = tri.mean(axis=1)
            self.reach = np.linalg.norm(tri - self.centroid[:, None, :], axis=-1).max(axis=1)
            k = 4
            pts = []
            for i in range(k):
                for j in range(k - i):
                    pts.append((i + 1 / 3, j + 1 / 3))
                    if i + j <= k - 2:
                        pts.append((i + 2 / 3, j + 2 / 3))
            bary = np.array(pts) / k  # (16, 2) in (e1, e2) coordinates
            e1 = tri[:, 1, :] - tri[:, 0, :]
            e2 = tri[:, 2, :] - tri[:, 0, :]
            self.probes = (
                tri[:, None, 0, :]
                + bary[None, :, 0, None] * e1[:, None, :]
                + bary[None, :, 1, None] * e2[:, None, :]
            )  # (T, 16, 3)

    def measure_in_ball(self, center: np.ndarray, r: float) -> float:
        if self.dim == 2:
            a = self.a - center
            ad = np.einsum("ij,ij->i", a, self.d)
            aa = np.einsum("ij,ij->i", a, a)
            with np.errstate(invalid="ignore", divide="ignore"):
                disc = ad * ad - self.dd * (aa - r * r)
                sq = np.sqrt(np.maximum(disc, 0.0))
                t0 = np.clip((-ad - sq) / self.dd, 0.0, 1.0)
                t1 = np.clip((-ad + sq) / self.dd, 0.0, 1.0)
            inside = (disc > 0) & (self.dd > 0)
            return float(np.sum(np.where(inside, t1 - t0, 0.0) * self.len))
        dist = np.linalg.norm(self.centroid - center, axis=1)
        total = float(self.area[dist <= r - self.reach].sum())
        cross = np.nonzero((dist > r - self.reach) & (dist < r + self.reach))[0]
        if len(cross):
            hit = np.linalg.norm(self.probes[cross] - center, axis=-1) <= r
            total += float((self.area[cross] * hit.mean(axis=1)).sum())
        return total


def volume_sandwich_check(grid: ScalarGrid, R: float, r: float) -> ComparisonReport:
    """Locality sandwich: V(R-r) <= avg local volume <= V(R+r), within quadrature slack."""
    if not 0 < r < R:
        raise ValueError("need 0 < r < R")
    if grid.ball_radius is None or grid.ball_radius < R + r - 1e-9:
        raise ValueError("grid must cover B(R+r)")
    clip = _ZeroClipper(grid)
    origin = np.zeros(grid.dim)
    v_minus = clip.measure_in_ball(origin, R - r)
    v_plus = clip.measure_in_ball(origin, R + r)

    spacing = r / 4.0
    centers = _lattice_ball(origin, R, spacing)
    total = 0.0
    for c in centers:
        total += clip.measure_in_ball(c, r)
    middle = total * spacing**grid.dim / _ball_volume(grid.dim, r)

    tol = 0.02 * v_plus
    passed = (v_minus <= middle + tol) and (middle <= v_plus + tol)
    return ComparisonReport(
        name="volume-sandwich",
        estimate=np.array([middle]),
        predicted=np.array([0.5 * (v_minus + v_plus)]),
        prediction_source="bracketed by the clipped volumes at R-r and R+r",
        stderr=np.zeros(1),
        tolerance=np.array([tol]),
        passed=passed,
        n_samples=len(centers),
        meta={"lower": v_minus, "upper": v_plus, "middle": middle, "R": R, "r": r},
    )


def semilocal_count_check(wave: MonochromaticWave, R: float, W: float,
                          h: float = 0.05) -> ComparisonReport:
    """Global count density vs the average over local windows of radius W.

    The windows are centred on the lattice W Z^m inside B(R - W). The gap must
    be covered by the average boundary-component correction plus an O(1/W)
    allowance, 5 / W.
    """
    if R < 10 * W:
        raise ValueError("need R >= 10 W")
    m = wave.dirs.dim
    big = sample_on_grid(wave, np.zeros(m), R, h)
    dec = nodal.label_domains(big)
    global_density = dec.interior_count / _ball_volume(m, R)

    centers = _lattice_ball(np.zeros(m), R - W, W)
    vol_w = _ball_volume(m, W)
    local, boundary = [], []
    for c in centers:
        g = sample_on_grid(wave, c, W, h)
        d = nodal.label_domains(g)
        local.append(d.interior_count / vol_w)
        boundary.append(d.boundary_count / vol_w)
    local_mean = float(np.mean(local))
    correction = float(np.mean(boundary))
    gap = abs(global_density - local_mean)
    allowance = 5.0 / W
    tol = correction + allowance
    return ComparisonReport(
        name="semilocal-count",
        estimate=np.array([local_mean]),
        predicted=np.array([global_density]),
        prediction_source="global interior count over B(R)",
        stderr=np.array([float(np.std(local, ddof=1) / math.sqrt(len(local)))]),
        tolerance=np.array([tol]),
        passed=gap <= tol,
        n_samples=len(centers),
        meta={"gap": gap, "correction": correction, "allowance": allowance,
              "R": R, "W": W},
    )


@dataclass
class DiscrepancyReport:
    W: float
    trials: int
    mean_abs_deviation: float
    stderr: float
    mean_density: float


def discrepancy_estimate(sampler, W: float, trials: int, seed: int, h: float = 0.05,
                         m: int | None = None, workers: int = 1) -> DiscrepancyReport:
    """Mean absolute deviation of per-draw count densities around their mean."""
    if trials < 50:
        raise ValueError("need at least 50 trials")
    if isinstance(sampler, SpectralMeasure) and m is None:
        m = sampler.dim
    if m is None:
        raise ValueError("pass m when the sampler is a bare callable")
    draw = _resolve_sampler(sampler, m)
    vol = _ball_volume(m, W)

    def one_trial(j: int) -> float:
        realization = draw(int(child_rng(seed, j).integers(2**63)))
        g = sample_on_grid(realization, np.zeros(m), W, h)
        return nodal.label_domains(g).interior_count / vol

    dens = np.array(_map_trials(one_trial, trials, workers))
    dev = np.abs(dens - dens.mean())
    return DiscrepancyReport(
        W=W,
        trials=trials,
        mean_abs_deviation=float(dev.mean()),
        stderr=float(dev.std(ddof=1) / math.sqrt(trials)),
        mean_density=float(dens.mean()),
    )
