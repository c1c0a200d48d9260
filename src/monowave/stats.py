"""Estimator-versus-prediction comparisons.

Monte Carlo comparisons pass at 4 standard errors (_mc_judge); geometric
densities carry percent-level tolerances because linear interpolation biases
them. Every report records the tolerance it was judged against and, per row,
whether the estimate fell within it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import nodal
from .directions import empirical_measure
from .field import MonochromaticWave, PlaneWaveSum, eval_bk
from .gaussian import (
    SpectralMeasure,
    check_nondegenerate,
    child_rng,
    sample_atomic,
    sample_uniform,
)
from .grid import ScalarGrid, lattice_ball, lattice_points, sample_on_grid
from .growth import spatial_sample
from .nodal import DegenerateSampleError
from .partition import SpherePartition


@dataclass
class ComparisonReport:
    estimate: np.ndarray
    predicted: np.ndarray
    stderr: np.ndarray
    tolerance: np.ndarray
    within: np.ndarray  # per row: the estimate is within tolerance of the prediction
    n_samples: int
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if np.any(self.stderr < 0):
            raise ValueError("negative standard error")

    @property
    def passed(self) -> bool:
        return bool(self.within.all())


def _judge(estimate, predicted, stderr, tolerance, n, **meta) -> ComparisonReport:
    """The one pass rule: row i passes when |estimate - predicted| <= tolerance."""
    est = np.atleast_1d(np.asarray(estimate, dtype=float))
    pred = np.atleast_1d(np.asarray(predicted, dtype=float))
    se = np.atleast_1d(np.asarray(stderr, dtype=float))
    tol = np.broadcast_to(np.asarray(tolerance, dtype=float), est.shape).copy()
    return ComparisonReport(est, pred, se, tol, np.abs(est - pred) <= tol, n, meta)


def _mc_judge(draws, predicted, n: int) -> ComparisonReport:
    """Each statistic's mean over its n draws against its prediction, at 4 standard errors.

    draws: one 1-D array of n per-sample values per statistic, read once in order,
    so a generator keeps a single statistic's draws in memory at a time.
    """
    est, se = [], []
    for d in draws:
        est.append(d.mean())
        se.append(d.std(ddof=1) / math.sqrt(n))
    se = np.array(se)
    return _judge(est, predicted, se, 4 * se, n)


@dataclass
class ConstantEstimate:
    trials: int
    mean: float
    stderr: float
    # excluded draws per DegenerateSampleError.reason
    excluded_by_reason: dict[str, int] = dc_field(default_factory=dict)
    class_density: dict[str, tuple[float, float]] = dc_field(default_factory=dict)
    tree_density: dict[str, tuple[float, float]] = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.mean < 0:
            raise ValueError("densities are nonnegative")

    @property
    def excluded(self) -> int:
        return sum(self.excluded_by_reason.values())


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
    x = spatial_sample(wave.dirs.dim, R, n_samples, seed)
    orders = range(1, p_max + 1)
    vals = [wave.value(x + y) for y in y_points]
    return _mc_judge((v**p for v in vals for p in orders),
                     [_gaussian_moment(p) for _ in vals for p in orders], n_samples)


def bk_moment_report(wave: MonochromaticWave, part: SpherePartition, R: float,
                     moments, n_samples: int, seed: int) -> ComparisonReport:
    """Mixed packet moments E_x[prod b_k^s conj(b_k)^t] vs prod delta_st s!.

    moments: list of index tuples, each a list of (cell, s, t) entries.
    """
    for entry in moments:
        if sum(s + t for _, s, t in entry) > 6:
            raise ValueError("total moment order above 6 is not calibrated")
    x = spatial_sample(wave.dirs.dim, R, n_samples, seed)
    b = eval_bk(wave, part, x)  # (n, #selected)
    col = {int(k): i for i, k in enumerate(part.selected)}

    def draws():
        for entry in moments:
            term = np.ones(n_samples, dtype=complex)
            for k, s, t in entry:
                bk = b[:, col[k]]
                term *= bk**s * np.conj(bk) ** t
            yield term.real

    pred = [math.prod(math.factorial(s) if s == t else 0 for _, s, t in entry)
            for entry in moments]
    return _mc_judge(draws(), pred, n_samples)


def covariance_compare(wave: MonochromaticWave, R: float, W: float, lags,
                       n_samples: int, seed: int) -> ComparisonReport:
    lags = np.atleast_2d(np.asarray(lags, dtype=float))
    if np.any(np.linalg.norm(lags, axis=1) > 2 * W):
        raise ValueError("lags must lie in B(2W)")
    x = spatial_sample(wave.dirs.dim, R, n_samples, seed)
    f0 = wave.value(x)
    mu = empirical_measure(wave.dirs)
    kernel = PlaneWaveSum(mu.atoms, mu.weights)  # E[F(x) F(x - tau)], kernel(0) = 1
    rep = _mc_judge((f0 * wave.value(x + tau) for tau in lags),
                    [kernel.value(tau) for tau in lags], n_samples)
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


# Side of the square tiles of the distance matrix in _energy_statistics
_TILE = 128


def _energy_statistics(pts: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Energy statistic of each split of pts given by a +-1 column s of signs.

    With k entries of each sign, 2 mean_AB - mean_AA - mean_BB = -s^T D s / k^2
    over the distance matrix D, whose diagonal zeros the within-cloud means keep
    on purpose: the convention cancels in the null. D is symmetric, so it is
    streamed over the _TILE x _TILE tiles of its upper triangle, each
    off-diagonal tile counted twice, and each tile's squared distances are
    summed one coordinate column at a time: the temporaries are a few tiles,
    (_TILE, _TILE) and (_TILE, columns), at any point count.
    """
    k = len(pts) // 2
    coords = np.ascontiguousarray(pts.T)  # (coordinates, points)
    quad = np.zeros(signs.shape[1])
    for lo in range(0, len(pts), _TILE):
        rows = slice(lo, lo + _TILE)
        for lo2 in range(lo, len(pts), _TILE):
            cols = slice(lo2, lo2 + _TILE)
            a, b = coords[:, rows], coords[:, cols]
            tile = np.zeros((a.shape[1], b.shape[1]))
            for ca, cb in zip(a, b):
                diff = np.subtract.outer(ca, cb)
                diff *= diff
                tile += diff
            np.sqrt(tile, out=tile)
            part = np.einsum("ip,ip->p", signs[rows], tile @ signs[cols])
            quad += part if lo2 == lo else 2 * part
    return -quad / k**2


def _resolve_sampler(sampler):
    """seed -> field: draws of a SpectralMeasure, or a callable passed through."""
    if isinstance(sampler, SpectralMeasure):
        if sampler.kind == "atomic":
            return lambda s: sample_atomic(sampler, s)
        return lambda s: sample_uniform(sampler.dim, 1024, s)
    return sampler


def pushforward_distance(wave: MonochromaticWave, R: float, sampler, y_points,
                         n_samples: int, seed: int, subsample: int = 2000,
                         permutations: int = 200) -> ComparisonReport:
    """KS marginals vs N(0,1) plus calibrated energy distance of the joint clouds.

    Not the weak-convergence metric itself: that is not computable from finite
    samples. The permutation threshold is the 95th percentile of the pooled
    null. The observed split and every permuted one are +-1 label columns, so
    the whole null is one matrix product streamed over square tiles of the
    symmetric pairwise distances (see _energy_statistics).
    """
    y_points = np.atleast_2d(np.asarray(y_points, dtype=float))
    if len(y_points) > 5:
        raise ValueError("at most 5 window points")
    x = spatial_sample(wave.dirs.dim, R, n_samples, seed)
    cloud_a = np.stack([wave.value(x + y) for y in y_points], axis=1)

    draw = _resolve_sampler(sampler)
    cloud_b = np.empty_like(cloud_a)
    for j, s in enumerate(child_rng(seed, 2).integers(2**63, size=n_samples)):
        cloud_b[j] = draw(int(s))(y_points)

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
    rep = _judge(est, pred, np.zeros_like(est), tol, n_samples,
                 ks=ks, energy=energy, threshold=threshold)
    rep.meta["gaussian_indistinguishable"] = energy <= threshold
    return rep


# ---------------------------------------------------------------------------
# geometric constants


def kac_rice_density(measure: SpectralMeasure, n_mc: int = 10**6, seed: int = 0):
    """Expected zero-set volume per unit volume: E||grad F|| / sqrt(2 pi).

    Returns (value, stderr): the closed form with stderr 0.0 for the uniform
    (isotropic) measure; Monte Carlo over the exact gradient covariance for
    atomic measures.
    """
    m = measure.dim
    if measure.kind == "uniform":
        sigma = 2 * math.pi / math.sqrt(m)
        e_norm = sigma * math.sqrt(2.0) * math.gamma((m + 1) / 2) / math.gamma(m / 2)
        return e_norm / math.sqrt(2 * math.pi), 0.0
    if not measure.hyperplane_ok:
        raise ValueError("measure is hyperplane-supported; the zero set is degenerate")
    cov = 4 * math.pi**2 * (measure.atoms.T * measure.weights) @ measure.atoms
    chol = np.linalg.cholesky(cov)
    rng = np.random.default_rng(seed)
    norms = np.linalg.norm(rng.standard_normal((n_mc, m)) @ chol.T, axis=1)
    val = norms.mean() / math.sqrt(2 * math.pi)
    err = norms.std(ddof=1) / math.sqrt(n_mc) / math.sqrt(2 * math.pi)
    return float(val), float(err)


def format_reasons(by_reason: dict[str, int]) -> str:
    """Exclusion counts as "reason: count" pairs sorted by reason, e.g. "not_a_tree: 1"."""
    return ", ".join(f"{reason}: {count}" for reason, count in sorted(by_reason.items()))


def _ball_volume(m: int, r: float) -> float:
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1) * r**m


def _map_trials(fn, trials: int, workers: int) -> list:
    """Run fn(0..trials-1), optionally on a thread pool; order is fixed either way."""
    if workers <= 1:
        return [fn(j) for j in range(trials)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


def ns_constant_estimate(measure: SpectralMeasure, W: float, trials: int, seed: int,
                         h: float = 0.05, workers: int = 1) -> ConstantEstimate:
    """Mean interior nodal-domain count per unit volume over draws of the measure.

    The fields, grids and balls live in R^m with m = measure.dim. Each kept
    draw also counts its topology classes and interior nesting-tree codes.
    Degenerate draws (failed nondegeneracy probe, unresolved adjacency or
    topology) are excluded and counted; more than 20% exclusions aborts.
    """
    if W < 4:
        raise ValueError("need W >= 4")
    if trials < 50:
        raise ValueError("need at least 50 trials")
    m = measure.dim
    draw = _resolve_sampler(measure)
    vol = _ball_volume(m, W)

    def one_trial(j: int):
        realization = draw(int(child_rng(seed, j).integers(2**63)))
        try:
            # probe at the coarsest permitted pitch: it gates outliers, it is
            # not the measurement grid, which is filled from the probe's
            # low-rank core (its box over B(W+1) holds the grid over B(W))
            report = check_nondegenerate(realization, W, 0.1)
            if not report.passed:
                raise DegenerateSampleError("nondegeneracy probe failed", "probe_failed")
            g = sample_on_grid(report.lattice, np.zeros(m), W, h)
            dec = nodal.label_domains(g)
            classes = dict(nodal.classify_topology(dec))
            tree = nodal.build_nesting_tree(dec)
            trees: dict[str, int] = {}
            for c in dec.components:
                if not c.touches_boundary:
                    code = tree.codes[c.id]
                    trees[code] = trees.get(code, 0) + 1
        except DegenerateSampleError as exc:
            return exc.reason or "other"
        return dec.interior_count / vol, classes, trees

    results = _map_trials(one_trial, trials, workers)
    densities = []
    # per tag or code: (index among the kept trials, density) of each nonzero count
    per_class: dict[str, list[tuple[int, float]]] = {}
    per_tree: dict[str, list[tuple[int, float]]] = {}
    by_reason: dict[str, int] = {}
    for res in results:
        if isinstance(res, str):
            by_reason[res] = by_reason.get(res, 0) + 1
            continue
        density, classes, trees = res
        k = len(densities)
        densities.append(density)
        for tag, cnt in classes.items():
            per_class.setdefault(tag, []).append((k, cnt / vol))
        for code, cnt in trees.items():
            per_tree.setdefault(code, []).append((k, cnt / vol))
    excluded = sum(by_reason.values())
    if excluded > 0.2 * trials:
        raise DegenerateSampleError(
            f"{excluded}/{trials} draws degenerate ({format_reasons(by_reason)}); "
            "refine h or enlarge W", "too_many_excluded"
        )
    arr = np.array(densities)
    n = len(arr)

    def summarize(vals: list[tuple[int, float]]) -> tuple[float, float]:
        # each value at its trial's place, so the sum runs in the density
        # row's order; absent trials contribute zero counts
        padded = np.zeros(n)
        for k, v in vals:
            padded[k] = v
        return float(padded.mean()), float(padded.std(ddof=1) / math.sqrt(n))

    return ConstantEstimate(
        trials=trials,
        mean=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(n)),
        excluded_by_reason=by_reason,
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
        self.measure = geom.element_measure  # segment lengths or triangle areas
        if grid.dim == 2:
            segs = geom.segments
            self.a = segs[:, 0, :]
            self.d = segs[:, 1, :] - segs[:, 0, :]
            self.dd = np.einsum("ij,ij->i", self.d, self.d)
        else:
            tri = geom.vertices[geom.triangles]  # (T, 3, 3)
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
            return float(np.sum(np.where(inside, t1 - t0, 0.0) * self.measure))
        dist = np.linalg.norm(self.centroid - center, axis=1)
        total = float(self.measure[dist <= r - self.reach].sum())
        cross = np.nonzero((dist > r - self.reach) & (dist < r + self.reach))[0]
        if len(cross):
            hit = np.linalg.norm(self.probes[cross] - center, axis=-1) <= r
            total += float((self.measure[cross] * hit.mean(axis=1)).sum())
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
    centers = lattice_points(*lattice_ball(origin, R, spacing))
    total = 0.0
    for c in centers:
        total += clip.measure_in_ball(c, r)
    middle = total * spacing**grid.dim / _ball_volume(grid.dim, r)

    tol = 0.02 * v_plus
    return ComparisonReport(
        estimate=np.array([middle]),
        predicted=np.array([0.5 * (v_minus + v_plus)]),
        stderr=np.zeros(1),
        tolerance=np.array([tol]),
        within=np.array([(v_minus <= middle + tol) and (middle <= v_plus + tol)]),
        n_samples=len(centers),
        meta={"lower": v_minus, "upper": v_plus, "middle": middle},
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

    centers = lattice_points(*lattice_ball(np.zeros(m), R - W, W))
    vol_w = _ball_volume(m, W)
    local, boundary = [], []
    for c in centers:
        g = sample_on_grid(wave, c, W, h)
        d = nodal.label_domains(g)
        local.append(d.interior_count / vol_w)
        boundary.append(d.boundary_count / vol_w)
    local_mean = float(np.mean(local))
    correction = float(np.mean(boundary))
    allowance = 5.0 / W
    stderr = float(np.std(local, ddof=1) / math.sqrt(len(local)))
    return _judge(local_mean, global_density, stderr, correction + allowance, len(centers),
                  gap=abs(global_density - local_mean), correction=correction,
                  allowance=allowance)


@dataclass
class DiscrepancyReport:
    trials: int
    mean_abs_deviation: float
    stderr: float
    mean_density: float


def discrepancy_estimate(measure: SpectralMeasure, W: float, trials: int, seed: int,
                         h: float = 0.05, workers: int = 1) -> DiscrepancyReport:
    """Mean absolute deviation of per-draw count densities on B(W) in R^measure.dim."""
    if trials < 50:
        raise ValueError("need at least 50 trials")
    m = measure.dim
    draw = _resolve_sampler(measure)
    vol = _ball_volume(m, W)

    def one_trial(j: int) -> float:
        realization = draw(int(child_rng(seed, j).integers(2**63)))
        g = sample_on_grid(realization, np.zeros(m), W, h)
        return nodal.label_domains(g).interior_count / vol

    dens = np.array(_map_trials(one_trial, trials, workers))
    dev = np.abs(dens - dens.mean())
    return DiscrepancyReport(
        trials=trials,
        mean_abs_deviation=float(dev.mean()),
        stderr=float(dev.std(ddof=1) / math.sqrt(trials)),
        mean_density=float(dens.mean()),
    )
