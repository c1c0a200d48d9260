import dataclasses
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from monowave import field, stats
from monowave.directions import generate_uniform_directions, empirical_measure
from monowave.field import make_wave
from monowave.gaussian import (
    SpectralMeasure,
    check_nondegenerate,
    child_rng,
    sample_atomic,
    sample_uniform,
    uniform_measure,
)
from monowave.grid import sample_on_grid
from monowave.growth import doubling_tail
from monowave import nodal
from monowave.nodal import DegenerateSampleError, label_domains
from monowave.partition import build_partition
from monowave.stats import (
    _energy_statistics,
    bk_moment_report,
    covariance_compare,
    kac_rice_density,
    ns_constant_estimate,
    pushforward_distance,
    semilocal_count_check,
    volume_sandwich_check,
    window_moment_report,
)

from conftest import traced_peak

PI_OVER_SQRT2 = 2.221441469079183  # closed form, m = 2
FOUR_OVER_SQRT3 = 2.3094010767585034  # closed form, m = 3


def test_window_moment_guards(wave64):
    with pytest.raises(ValueError):
        window_moment_report(wave64, 200.0, 1.0, [[0.0, 0.0]], 13, 100, 0)
    with pytest.raises(ValueError):
        window_moment_report(wave64, 200.0, 1.0, [[2.0, 0.0]], 4, 100, 0)


def test_window_moments_match_gaussian(wave64):
    rep = window_moment_report(wave64, 200.0, 1.0, [[0.0, 0.0]], 6, 20000, 12345)
    assert np.array_equal(rep.predicted, [0.0, 1.0, 0.0, 3.0, 0.0, 15.0])
    assert rep.passed
    assert np.array_equal(rep.tolerance, 4 * rep.stderr)


def test_bk_moment_report(wave64):
    dirs = generate_uniform_directions(2, 64, 2)
    from monowave.field import make_wave

    w = make_wave(dirs, seed=11)
    part = build_partition(dirs, 4, 1e-4)
    k0 = int(part.selected_positive[0])
    with pytest.raises(ValueError):
        bk_moment_report(w, part, 150.0, [[(k0, 4, 3)]], 100, 0)
    rep = bk_moment_report(w, part, 150.0, [[(k0, 1, 1)], [(k0, 2, 0)]], 5000, 9)
    assert rep.passed
    assert np.array_equal(rep.predicted, [1.0, 0.0])


def test_covariance_compare(cosine_wave):
    with pytest.raises(ValueError):
        covariance_compare(cosine_wave, 50.0, 2.0, [[4.1, 0.0]], 100, 0)
    rep = covariance_compare(
        cosine_wave, 50.0, 2.0, [[0.3, 0.0], [0.0, 1.1], [1.3, 0.9]], 20000, 3
    )
    assert rep.passed
    # the single-frequency kernel is cos(2 pi tau_1), independent of tau_2
    assert np.allclose(
        rep.predicted,
        [math.cos(2 * math.pi * 0.3), 1.0, math.cos(2 * math.pi * 1.3)],
        atol=1e-12,
    )
    assert np.max(np.abs(rep.estimate - rep.predicted)) < 0.02


def test_kac_rice_closed_forms():
    val2, err2 = kac_rice_density(uniform_measure(2))
    val3, err3 = kac_rice_density(uniform_measure(3))
    assert val2 == pytest.approx(PI_OVER_SQRT2, rel=1e-12) and err2 == 0.0
    assert val3 == pytest.approx(FOUR_OVER_SQRT3, rel=1e-12) and err3 == 0.0


def test_kac_rice_atomic_agrees_with_isotropic_lattice():
    # the four-atom axis measure shares the uniform second moments, so its
    # Monte Carlo route must land on pi/sqrt 2 as well: a two-way oracle
    mu = SpectralMeasure(dim=2, freqs=np.array([[1.0, 0], [0, 1.0]]), weights=np.full(2, 0.5))
    val, err = kac_rice_density(mu, n_mc=200000, seed=11)
    assert err < 0.01
    assert abs(val - PI_OVER_SQRT2) <= 4 * err


def test_kac_rice_rejects_degenerate_support():
    flat = SpectralMeasure(dim=2, freqs=np.array([[1.0, 0.0]]), weights=np.array([1.0]))
    with pytest.raises(ValueError):
        kac_rice_density(flat)


def test_ns_constant_guards():
    # the W >= 4 refusal belongs to the ns-estimate command (test_cli), since
    # discrepancy reads the same estimate on smaller balls
    mu = empirical_measure(generate_uniform_directions(2, 8, 0))
    with pytest.raises(ValueError):
        ns_constant_estimate(mu, 4.0, 20, 0)


def test_ns_constant_frozen_mean():
    from monowave.directions import log_rational_directions
    from monowave.gaussian import measure_from_partition

    mu = measure_from_partition(build_partition(log_rational_directions(8), 4, 1e-3))
    est = ns_constant_estimate(mu, 4.0, 50, seed=6, h=0.2)
    # frozen run; 0.2379366399223835 while negatives were 4-connected: this
    # nearly periodic field has many saddles, and joining negatives across
    # them halves its count
    assert est.mean == pytest.approx(0.12613029240032705, rel=1e-12)


@pytest.mark.parametrize("seed, mean", [(1, 0.12931339126216498), (9, 0.12294719353848914)])
def test_ns_constant_benchmark_config_frozen(seed, mean):
    # the density row of ns.csv on the benchmark's ns-estimate config (uniform
    # m = 2, W = 4, h = 0.05, 50 trials), frozen exactly from the fill of all
    # J = 1024 plane waves: the core over 179 equispaced directions moves the
    # fills by rounding only, and leaves every count and exclusion as it was
    est = ns_constant_estimate(uniform_measure(2), 4.0, 50, seed=seed, h=0.05)
    assert est.excluded == 0
    assert est.mean == mean


# the memos of the lattice set-up in field; _clear_set_up_memos also clears the
# circle's Bessel factors
SET_UP_MEMOS = (field._axis_table, field._axis_derivative_table, field._equispaced_weights,
                field._equispaced_directions, field._chebyshev_count)


def _clear_set_up_memos():
    for memo in SET_UP_MEMOS + (field._circle_factors,):
        memo.cache_clear()


def test_ns_constant_estimate_independent_of_the_set_up_memos():
    # the 2D set-up that depends on the lattice geometry alone is memoized in
    # field; a cold run, a warm one, and one after a W = 16 run and a
    # doubling_tail have put other geometries through the memos all give the
    # same estimate, field by field and bit by bit
    _clear_set_up_memos()
    mu = uniform_measure(2)
    cold = ns_constant_estimate(mu, 4.0, 50, seed=9, h=0.05)
    # one set-up per geometry, not per draw (50 draws): on each of the two axes
    # a table of the probe box and one of the measurement grid, a derivative
    # table of the probe box, and the weights of the one set of P = 179
    # directions; the orders of the probe box's disc, of the circle and of
    # the two axes
    assert [memo.cache_info().misses for memo in SET_UP_MEMOS] == [4, 2, 2, 1, 4]
    warm = ns_constant_estimate(mu, 4.0, 50, seed=9, h=0.05)
    assert [memo.cache_info().misses for memo in SET_UP_MEMOS] == [4, 2, 2, 1, 4]
    ns_constant_estimate(mu, 16.0, 50, seed=9, h=0.05)
    wave = make_wave(generate_uniform_directions(2, 64, 9), seed=int(child_rng(9, 1).integers(2**63)))
    doubling_tail(wave, 200.0, 2.0, 20, 9)
    after = ns_constant_estimate(mu, 4.0, 50, seed=9, h=0.05)
    assert cold.mean == 0.12294719353848914  # test_ns_constant_benchmark_config_frozen[9]
    for est in (warm, after):
        assert repr(dataclasses.asdict(est)) == repr(dataclasses.asdict(cold))


def test_set_up_memos_shared_by_threads():
    # every thread of a process reads the same memos (the traced benchmark
    # replays its trials on a thread pool): more threads than cores, from cold
    # memos and with a short switch interval, give each draw the probe minima
    # and measurement grid of a run on one thread, bit for bit
    draws = [sample_uniform(2, 1024, int(child_rng(9, j).integers(2**63))) for j in range(8)]

    def trial(F):
        report = check_nondegenerate(F, 4.0, 0.1)
        grid = sample_on_grid(report.lattice, np.zeros(2), 4.0, 0.05)
        return report.min_bulk, report.min_spherical, grid.values.tobytes()

    want = [trial(F) for F in draws]
    _clear_set_up_memos()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(trial, F) for F in draws]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_ns_constant_with_topology():
    mu = empirical_measure(generate_uniform_directions(2, 32, 12))
    # the labeling and the zero set agree at saddle cells and at the rim, so
    # every draw has a tree, even at the coarse pitch h = 0.15 that once
    # excluded more than 20% of the draws, and in 2D the circle count is the
    # interior count, draw by draw
    for h in (0.08, 0.15):
        est = ns_constant_estimate(mu, 5.0, 50, seed=6, h=h)
        assert est.excluded == 0
        dens, se = est.class_density["circle"]
        assert dens > 0 and se >= 0
        # the same per-draw values, summed in the same trial order
        assert (dens, se) == (est.mean, est.stderr)


def test_ns_constant_exclusion_reasons(monkeypatch):
    # every probe fails: each trial is counted as probe_failed without an
    # exception of its own, then the run aborts with the one it raises
    reasons = []

    class Recorded(DegenerateSampleError):
        def __init__(self, message, reason=None):
            super().__init__(message, reason)
            reasons.append(reason)

    monkeypatch.setattr(stats, "DegenerateSampleError", Recorded)
    monkeypatch.setattr(stats, "check_nondegenerate",
                        lambda *args: SimpleNamespace(passed=False))
    with pytest.raises(DegenerateSampleError) as info:
        ns_constant_estimate(uniform_measure(2), 4.0, 50, seed=1, h=0.2)
    assert info.value.reason == "too_many_excluded"
    assert "50/50 draws degenerate (probe_failed: 50)" in str(info.value)
    assert reasons == ["too_many_excluded"]

    # the first 7 probes fail: the estimate counts them under their reason;
    # the passing ones are real reports, whose lattice fills the grid
    calls = iter(range(10**6))
    monkeypatch.setattr(stats, "check_nondegenerate",
                        lambda *args: check_nondegenerate(*args) if next(calls) >= 7
                        else SimpleNamespace(passed=False))
    est = ns_constant_estimate(uniform_measure(2), 4.0, 50, seed=1, h=0.2)
    assert est.excluded_by_reason == {"probe_failed": 7}
    assert est.excluded == 7


def test_discrepancy_excludes_the_draws_ns_estimate_excludes(monkeypatch):
    # discrepancy reads ns-estimate's one report: the first 7 probes fail, the
    # report counts exactly those 7 under probe_failed, and its deviation is
    # over the 43 kept draws' densities, whose mean is the report's mean
    def failing_first(k):
        calls = iter(range(10**6))
        return lambda *args: (check_nondegenerate(*args) if next(calls) >= k
                              else SimpleNamespace(passed=False))

    counts = []
    label = nodal.label_domains

    def recording(g):
        dec = label(g)
        counts.append(dec.interior_count)
        return dec

    mu = uniform_measure(2)
    monkeypatch.setattr(nodal, "label_domains", recording)
    monkeypatch.setattr(stats, "check_nondegenerate", failing_first(7))
    est = ns_constant_estimate(mu, 4.0, 50, seed=1, h=0.2)
    assert est.excluded_by_reason == {"probe_failed": 7}
    assert est.trials == 50
    assert len(counts) == 43
    dens = np.array(counts) / (math.pi * 4.0**2)
    dev = np.abs(dens - dens.mean())
    assert est.mean == dens.mean()
    assert est.mean_abs_deviation == dev.mean()
    assert est.deviation_stderr == dev.std(ddof=1) / math.sqrt(43) > 0

    # every probe fails: the one report aborts under the 20% rule
    monkeypatch.setattr(stats, "check_nondegenerate", failing_first(51))
    with pytest.raises(DegenerateSampleError) as info:
        ns_constant_estimate(mu, 4.0, 50, seed=1, h=0.2)
    assert info.value.reason == "too_many_excluded"
    assert "50/50 draws degenerate (probe_failed: 50)" in str(info.value)


def test_discrepancy_mean_density_is_the_ns_estimate_mean():
    # the benchmark's ns-estimate config at seed 9: ns.csv's density row and
    # discrepancy.csv's row come from one report, frozen exactly from the runs
    # of the two commands when each had an estimator of its own
    est = ns_constant_estimate(uniform_measure(2), 4.0, 50, seed=9, h=0.05)
    assert est.excluded_by_reason == {}
    assert (est.mean, est.stderr) == (0.12294719353848914, 0.007137796745091266)
    assert (est.mean_abs_deviation, est.deviation_stderr) == (0.038658735677021376,
                                                              0.00452196709090854)


def test_ns_constant_against_separate_probe_and_fill(monkeypatch):
    # each trial fills its grid from the probe's low-rank core; an explicit
    # loop that probes and then fills through the field itself must see the
    # same interior count on every trial and the same exclusions. Both sides
    # probe at the threshold 0.075, which fails 5 of the 50 draws at seed 1,
    # so there are exclusions to compare
    W, h, seed, tau0 = 4.0, 0.05, 1, 0.075
    counts = []
    label = nodal.label_domains

    def recording(g):
        dec = label(g)
        counts.append(dec.interior_count)
        return dec

    monkeypatch.setattr(nodal, "label_domains", recording)
    monkeypatch.setattr(stats, "check_nondegenerate",
                        lambda F, W, h: check_nondegenerate(F, W, h, tau0=tau0))
    est = ns_constant_estimate(uniform_measure(2), W, 50, seed=seed, h=h)
    monkeypatch.undo()
    want, reasons, dens = [], {}, []
    for j in range(50):
        F = sample_uniform(2, 1024, int(child_rng(seed, j).integers(2**63)))
        if not check_nondegenerate(F, W, 0.1, tau0=tau0).passed:
            reasons["probe_failed"] = reasons.get("probe_failed", 0) + 1
            continue
        dec = label_domains(sample_on_grid(F, np.zeros(2), W, h))
        want.append(dec.interior_count)
        try:
            nodal.classify_topology(dec)
            nodal.build_nesting_tree(dec)
        except DegenerateSampleError as exc:
            reasons[exc.reason] = reasons.get(exc.reason, 0) + 1
            continue
        dens.append(dec.interior_count / (math.pi * W**2))
    assert counts == want
    assert reasons == {"probe_failed": 5}
    assert est.excluded_by_reason == reasons
    assert est.mean == pytest.approx(np.mean(dens), rel=1e-12)


def test_interior_count_converges_under_refinement():
    # Resolution oracle for the count: 30 frozen uniform draws in B(12), each
    # filled at h, h/2 and h/4 from the one Chebyshev core its probe built.
    # The consistent labeling converges at O(h), so halving h should about
    # halve the gap between successive mean counts; the margin, fixed before
    # the gaps were measured, lets the second gap reach 3/4 of the first.
    # Measured: means 73.40, 74.43 and 74.90; paired gaps 1.03 and 0.47, with
    # standard errors over the draws of 0.40 and 0.21
    W, hs = 12.0, (0.1, 0.05, 0.025)
    counts = []
    for j in range(30):
        F = sample_uniform(2, 1024, int(child_rng(42, j).integers(2**63)))
        lattice = check_nondegenerate(F, W, 0.1).lattice
        counts.append([label_domains(sample_on_grid(lattice, np.zeros(2), W, h)).interior_count
                       for h in hs])
    c = np.mean(counts, axis=0)
    assert abs(c[2] - c[1]) <= 0.75 * abs(c[1] - c[0])
    assert c[1] - c[0] > 0.5  # so that the ratio is not one of two noise terms


def test_discrepancy_against_direct_loop():
    mu = empirical_measure(generate_uniform_directions(2, 16, 3))
    with pytest.raises(ValueError):
        ns_constant_estimate(mu, 4.0, 10, 0)
    est = ns_constant_estimate(mu, 4.0, 50, seed=3, h=0.2)
    # oracle: the same child streams drawn, sampled and labelled one by one
    dens = []
    for j in range(50):
        F = sample_atomic(mu, int(child_rng(3, j).integers(2**63)))
        g = sample_on_grid(F, np.zeros(2), 4.0, 0.2)
        dens.append(label_domains(g).interior_count / (math.pi * 4.0**2))
    dens = np.array(dens)
    assert dens.std() > 0  # the draws differ, so the deviation is not trivially 0
    dev = np.abs(dens - dens.mean())
    assert est.trials == 50 and est.excluded == 0
    assert est.mean == pytest.approx(dens.mean(), rel=1e-12)
    assert est.mean_abs_deviation == pytest.approx(dev.mean(), rel=1e-12)
    assert est.deviation_stderr == pytest.approx(dev.std(ddof=1) / math.sqrt(50), rel=1e-12)


def test_volume_sandwich(cosine_wave):
    g = sample_on_grid(cosine_wave, np.zeros(2), 7.5, 0.05)
    rep = volume_sandwich_check(g, 6.0, 1.5)
    assert rep.passed
    # frozen from this exact grid
    assert rep.meta["lower"] == pytest.approx(127.74729839152721, rel=1e-12)
    assert rep.meta["middle"] == pytest.approx(222.10067349264054, rel=1e-12)
    assert rep.meta["upper"] == pytest.approx(350.79999999999995, rel=1e-12)
    small = sample_on_grid(cosine_wave, np.zeros(2), 6.0, 0.05)
    with pytest.raises(ValueError):
        volume_sandwich_check(small, 6.0, 1.5)  # grid ball too small for R + r


def test_semilocal_guard(wave64):
    with pytest.raises(ValueError):
        semilocal_count_check(wave64, 20.0, 6.0)


def _count_lattice_ball(m: int, radius: float, spacing: float) -> int:
    """Brute force: centres spacing * k with |spacing * k| <= radius, one by one."""
    n = math.ceil(radius / spacing)
    return sum(
        math.sqrt(sum((spacing * k) ** 2 for k in ks)) <= radius
        for ks in itertools.product(range(-n, n + 1), repeat=m)
    )


def test_sandwich_and_semilocal_centre_counts(cosine_wave):
    g = sample_on_grid(cosine_wave, np.zeros(2), 7.5, 0.1)
    rep = volume_sandwich_check(g, 6.0, 1.5)
    assert rep.n_samples == _count_lattice_ball(2, 6.0, 1.5 / 4.0)
    semi = semilocal_count_check(cosine_wave, 12.0, 1.2, h=0.1)
    assert semi.n_samples == _count_lattice_ball(2, 12.0 - 1.2, 1.2)
    assert semi.passed == (semi.meta["gap"] <= semi.tolerance[0])
    assert semi.meta["gap"] == abs(semi.estimate[0] - semi.predicted[0])


def test_pushforward_distance(wave64):
    mu = empirical_measure(wave64.dirs)
    with pytest.raises(ValueError):
        pushforward_distance(wave64, 150.0, mu, np.zeros((6, 2)), 100, 0)
    rep = pushforward_distance(
        wave64, 150.0, mu, [[0.0, 0.0], [0.3, 0.4]], 800, seed=21,
        subsample=400, permutations=100,
    )
    # rows: the KS distance per window point, then the energy distance
    # against its permutation threshold
    assert rep.within[-1]
    assert rep.estimate[-1] <= rep.tolerance[-1]
    assert np.all(rep.estimate[:-1] < 0.1)


@pytest.mark.parametrize("m", [2, 3])
def test_pushforward_batched_cloud_matches_the_per_draw_loop(wave64, m):
    # an atomic measure takes gaussian.atomic_cloud; a callable sampler of the
    # same draws takes the per-draw loop. The KS rows read only the wave's
    # cloud; the energy and its threshold may move at rounding, within the
    # 1e-12 relative that the benchmark's traced replay allows
    wave = wave64 if m == 2 else make_wave(generate_uniform_directions(3, 64, 9), seed=4)
    mu = empirical_measure(wave.dirs)
    y = np.zeros((2, m))
    y[1, 0] = 0.5
    R = 150.0 if m == 2 else 20.0
    kw = dict(n_samples=800, seed=21, subsample=400, permutations=100)
    batched = pushforward_distance(wave, R, mu, y, **kw)
    loop = pushforward_distance(wave, R, lambda s: sample_atomic(mu, s), y, **kw)
    assert batched.estimate[:-1].tobytes() == loop.estimate[:-1].tobytes()
    assert batched.estimate[-1] == pytest.approx(loop.estimate[-1], rel=1e-12, abs=0)
    assert batched.tolerance[-1] == pytest.approx(loop.tolerance[-1], rel=1e-12, abs=0)
    assert np.array_equal(batched.within, loop.within)


def _distances(pts):
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)


@pytest.mark.parametrize("keep", [37, 400, 1000])
def test_energy_statistics_against_fsum(keep):
    rng = np.random.default_rng(keep)
    pts = rng.standard_normal((2 * keep, 2))
    labels = np.repeat([1.0, -1.0], keep)
    signs = np.stack([labels] + [labels[rng.permutation(2 * keep)] for _ in range(2)], axis=1)
    got = _energy_statistics(pts, signs)
    D = _distances(pts)

    def fmean(rows, cols):
        return math.fsum(D[np.ix_(rows, cols)].ravel().tolist()) / keep**2

    for col, val in zip(signs.T, got):
        a, b = np.nonzero(col > 0)[0], np.nonzero(col < 0)[0]
        exact = 2 * fmean(a, b) - fmean(a, a) - fmean(b, b)
        assert abs(val - exact) <= 1e-14 * D.mean()


def test_energy_statistics_in_five_coordinates():
    # the most window points pushforward_distance takes; a point count that
    # leaves a partial tile on both sides of the diagonal
    keep = 3 * stats._TILE // 2 + 7
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((2 * keep, 5))
    labels = np.repeat([1.0, -1.0], keep)
    signs = np.stack([labels] + [labels[rng.permutation(2 * keep)] for _ in range(3)], axis=1)
    D = _distances(pts)
    want = -np.einsum("ip,ij,jp->p", signs, D, signs) / keep**2
    assert np.max(np.abs(_energy_statistics(pts, signs) - want)) <= 1e-14 * D.mean()


def test_energy_statistics_memory():
    # 2000 points and 201 split columns, the wave-report null: one (rows, n, 2)
    # difference block per 256 rows peaked at 27 MiB; the tiles hold a few
    # (_TILE, _TILE) and (_TILE, columns) arrays at any point count
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((2000, 2))
    labels = np.repeat([1.0, -1.0], 1000)
    signs = np.stack([labels] + [labels[rng.permutation(2000)] for _ in range(200)], axis=1)
    tile = 8 * stats._TILE * (stats._TILE + signs.shape[1])
    assert traced_peak(lambda: _energy_statistics(pts, signs)) < pts.nbytes + 3 * tile


def _energy_from_matrix(D, ia, ib):
    # the former per-split gather, kept as the oracle for the streamed form
    return 2 * D[np.ix_(ia, ib)].mean() - D[np.ix_(ia, ia)].mean() - D[np.ix_(ib, ib)].mean()


def test_pushforward_null_matches_per_split_loop(wave64, monkeypatch):
    seen = {}

    def spy(pts, signs):
        seen["pts"], seen["signs"] = pts, signs
        return _energy_statistics(pts, signs)

    monkeypatch.setattr(stats, "_energy_statistics", spy)
    mu = empirical_measure(wave64.dirs)
    keep, permutations, seed = 400, 100, 21
    rep = pushforward_distance(wave64, 150.0, mu, [[0.0, 0.0], [0.3, 0.4]], 800, seed=seed,
                               subsample=keep, permutations=permutations)

    # replay the permutation stream the way the per-split loop consumed it
    D = _distances(seen["pts"])
    prng = child_rng(seed, 10**6)
    prng.permutation(800)
    energy = _energy_from_matrix(D, np.arange(keep), np.arange(keep, 2 * keep))
    null = np.empty(permutations)
    for i in range(permutations):
        perm = prng.permutation(2 * keep)
        assert np.all(seen["signs"][perm[:keep], i + 1] == 1.0)
        null[i] = _energy_from_matrix(D, perm[:keep], perm[keep:])
    tol = 1e-14 * D.mean()
    assert abs(rep.estimate[-1] - energy) <= tol
    assert abs(rep.tolerance[-1] - np.quantile(null, 0.95)) <= tol
    assert seen["signs"].shape == (2 * keep, permutations + 1)
    assert np.all(seen["signs"].sum(axis=0) == 0)
