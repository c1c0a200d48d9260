"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line with the measured numbers and enforces a
wall-clock budget. Seeds are frozen; the rationale for each choice (and the
honesty analysis behind the tolerances) lives in the project notes, not here.
Run with `pytest -s tests/test_acceptance.py` to see every line.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from monowave import nodal, stats
from monowave.cli import bessel_zero_table
from monowave.directions import empirical_measure, generate_uniform_directions
from monowave.field import bessel_j, make_wave
from monowave.gaussian import (
    SpectralMeasure,
    child_rng,
    measure_from_partition,
    sample_atomic,
    sample_uniform,
    uniform_measure,
)
from monowave.grid import ScalarGrid, sample_on_grid
from monowave.growth import characteristic_function
from monowave.nodal import (
    build_nesting_tree,
    classify_topology,
    label_domains,
    nodal_volume,
)
from monowave.partition import build_partition

from test_nodal import flood_fill_labels, same_partition

PI_OVER_SQRT2 = 2.221441469079183
FOUR_OVER_SQRT3 = 2.3094010767585034


def report(idx, ok, detail, elapsed, budget):
    line = f"acceptance {idx:2d} {'PASS' if ok else 'FAIL'}: {detail} [{elapsed:.1f}s / {budget:.0f}s]"
    print(line)
    assert ok, line
    assert elapsed < budget, f"acceptance {idx}: over time budget, {elapsed:.1f}s >= {budget:.0f}s"


def test_a01_window_second_moment(wave64):
    t0 = time.perf_counter()
    rep = stats.window_moment_report(wave64, 200.0, 1.0, [[0.0, 0.0]], 2, 100000, 12345)
    val = float(rep.estimate[1])
    dt = time.perf_counter() - t0
    report(1, abs(val - 1.0) <= 0.02, f"mean f^2 = {val:.4f}, target 1 +- 0.02", dt, 10.0)


def test_a02_window_higher_moments(wave64):
    t0 = time.perf_counter()
    rep = stats.window_moment_report(wave64, 200.0, 1.0, [[0.0, 0.0]], 6, 100000, 12345)
    dt = time.perf_counter() - t0
    est, se = np.asarray(rep.estimate), np.asarray(rep.stderr)
    targets = {3: 3.0, 5: 15.0, 0: 0.0, 2: 0.0, 4: 0.0}  # index p-1 -> gaussian moment
    margins = {p: abs(est[p] - v) / (4 * se[p]) for p, v in targets.items()}
    ok = all(m <= 1.0 for m in margins.values())
    detail = (
        f"p4 = {est[3]:.3f} vs 3, p6 = {est[5]:.2f} vs 15, "
        f"odd |max| = {max(abs(est[0]), abs(est[2]), abs(est[4])):.4f}, all within 4 se"
    )
    report(2, ok, detail, dt, 60.0)


def test_a03_characteristic_function(wave64):
    t0 = time.perf_counter()
    rep = characteristic_function(wave64, 200.0, 2.0, 41, 100000, 12345)
    dt = time.perf_counter() - t0
    # independent target: all 64 coefficients share modulus sqrt(2/64), so the
    # exact transform is J0(2 pi sqrt(2) t / 8)^64 on the whole t grid
    target = bessel_j(0, 2 * math.pi * math.sqrt(2.0) / 8.0 * np.asarray(rep.t)) ** 64
    sup = float(np.max(np.abs(np.asarray(rep.empirical) - target)))
    assert np.allclose(rep.predicted, target, rtol=1e-9)
    assert float(rep.predicted[np.where(np.isclose(rep.t, 1.0))[0][0]]) == pytest.approx(
        4.553621881613217e-10, rel=1e-10
    )
    assert sup == pytest.approx(rep.sup_error, rel=1e-12)
    report(3, sup <= 0.02, f"sup_t |psi_hat - J0^64| = {sup:.4f}, gate 0.02", dt, 60.0)


def test_a04_cell_packet_gaussianization():
    t0 = time.perf_counter()
    dirs = generate_uniform_directions(2, 512, 8)
    wave = make_wave(dirs, seed=104)
    part = build_partition(dirs, 8, 2.0**-8)
    cells = [0, 1, 2]
    moments = []
    for k in cells:
        moments.append([(k, 1, 1)])
        moments.append([(k, 2, 0)])
    moments.append([(cells[0], 1, 0), (cells[1], 0, 1)])
    moments.append([(cells[1], 1, 0), (cells[2], 0, 1)])
    rep = stats.bk_moment_report(wave, part, 300.0, moments, 20000, 12345)
    dt = time.perf_counter() - t0
    assert np.array_equal(rep.predicted, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    worst = float(np.max(np.abs(rep.estimate - rep.predicted) / rep.tolerance))
    report(4, bool(rep.passed), f"8 packet moments, worst margin {worst:.2f} of the 4 se gate", dt, 120.0)


def test_a05_zero_volume_density():
    t0 = time.perf_counter()
    # closed forms first, then the Monte Carlo route on a measure with the
    # same second moments must land on the same number: a two-way oracle
    val2, err2 = stats.kac_rice_density(uniform_measure(2))
    val3, err3 = stats.kac_rice_density(uniform_measure(3))
    assert val2 == pytest.approx(PI_OVER_SQRT2, rel=1e-12) and err2 == 0.0
    assert val3 == pytest.approx(FOUR_OVER_SQRT3, rel=1e-12) and err3 == 0.0
    axes = SpectralMeasure(dim=2, freqs=np.array([[1.0, 0.0], [0.0, 1.0]]), weights=np.full(2, 0.5))
    mc, err = stats.kac_rice_density(axes, n_mc=200000, seed=11)
    assert abs(mc - PI_OVER_SQRT2) <= 4 * err

    dens2 = []
    for j in range(100):
        F = sample_uniform(2, 1024, int(child_rng(42, j).integers(2**63)))
        dens2.append(nodal_volume(sample_on_grid(F, np.zeros(2), 12.0, 0.05)).density)
    rel2 = abs(float(np.mean(dens2)) - PI_OVER_SQRT2) / PI_OVER_SQRT2

    dens3 = []
    for j in range(40):
        F = sample_uniform(3, 512, int(child_rng(77, j).integers(2**63)))
        dens3.append(nodal_volume(sample_on_grid(F, np.zeros(3), 3.0, 0.06)).density)
    rel3 = abs(float(np.mean(dens3)) - FOUR_OVER_SQRT3) / FOUR_OVER_SQRT3
    dt = time.perf_counter() - t0
    ok = rel2 <= 0.02 and rel3 <= 0.03
    report(5, ok, f"length density off by {rel2:.4f} (gate 2%), area by {rel3:.4f} (gate 3%)", dt, 600.0)


def test_a06_derandomized_vs_ensemble():
    t0 = time.perf_counter()
    m, N, R, W, h = 2, 128, 80.0, 12.0, 0.05
    dirs = generate_uniform_directions(m, N, 5)
    wave = make_wave(dirs, seed=105)

    # identical window estimator on both sides; see notes for the bias study
    k = math.ceil((R - W) / W)
    ax = W * np.arange(-k, k + 1)
    centers = np.stack([g.reshape(-1) for g in np.meshgrid(ax, ax, indexing="ij")], axis=-1)
    centers = centers[np.linalg.norm(centers, axis=1) <= R - W]
    assert len(centers) == 101
    det_count, det_len = [], []
    for c in centers:
        g = sample_on_grid(wave, c, W, h)
        dec = label_domains(g)
        geom = nodal_volume(g)
        det_count.append(dec.interior_count / geom.covered_volume)
        det_len.append(geom.density)

    mu = empirical_measure(dirs)
    ens_count, ens_len = [], []
    for j in range(100):
        F = sample_atomic(mu, int(child_rng(777, j).integers(2**63)))
        g = sample_on_grid(F, np.zeros(m), W, h)
        dec = label_domains(g)
        geom = nodal_volume(g)
        ens_count.append(dec.interior_count / geom.covered_volume)
        ens_len.append(geom.density)

    gap_count = abs(np.mean(det_count) - np.mean(ens_count)) / np.mean(ens_count)
    gap_len = abs(np.mean(det_len) - np.mean(ens_len)) / np.mean(ens_len)
    dt = time.perf_counter() - t0
    ok = gap_count <= 0.05 and gap_len <= 0.05
    report(6, ok, f"count gap {gap_count:.4f}, length gap {gap_len:.4f}, gates 5%", dt, 900.0)


def box_grid(lo, hi, h, fn, m):
    n = int(round((hi - lo) / h)) + 1
    axes = [lo + h * np.arange(n)] * m
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    return ScalarGrid(origin=np.full(m, lo), spacing=h, shape=(n,) * m, values=fn(pts))


def test_a07_labeling_and_surface_extraction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    for trial in range(200):
        m = 2 if trial % 3 else 3
        n = int(rng.integers(6, 14 if m == 3 else 22))
        radius = (n - 1) * 0.1 / 2
        g = ScalarGrid(
            origin=np.full(m, -radius),
            spacing=0.1,
            shape=(n,) * m,
            values=rng.standard_normal(n**m),
            ball_center=np.zeros(m) if trial % 2 else None,
            ball_radius=radius if trial % 2 else None,
        )
        assert same_partition(label_domains(g).labels, flood_fill_labels(g))

    circ = nodal_volume(box_grid(-1.3, 1.3, 0.05, lambda p: 1.0 - (p**2).sum(axis=1), 2))
    rel_circle = abs(circ.total - 2 * math.pi) / (2 * math.pi)

    gs = box_grid(-1.3, 1.3, 0.05, lambda p: 1.0 - (p**2).sum(axis=1), 3)
    rel_sphere = abs(nodal_volume(gs).total - 4 * math.pi) / (4 * math.pi)
    assert dict(classify_topology(label_domains(gs))) == {"genus0": 1}

    def torus(p):
        rho = np.sqrt(p[:, 0] ** 2 + p[:, 1] ** 2)
        return (rho - 1.0) ** 2 + p[:, 2] ** 2 - 0.16

    gt = box_grid(-1.6, 1.6, 0.05, torus, 3)
    torus_tags = dict(classify_topology(label_domains(gt)))
    dt = time.perf_counter() - t0
    ok = rel_circle <= 0.005 and rel_sphere <= 0.01 and torus_tags == {"genus1": 1}
    detail = (
        f"200 grids match the flood fill, circle err {rel_circle:.2e} (0.5%), "
        f"sphere err {rel_sphere:.2e} (1%), torus tags {torus_tags}"
    )
    report(7, ok, detail, dt, 60.0)


def test_a08_sandwich_and_semilocal(cosine_wave):
    t0 = time.perf_counter()
    R, r, h = 6.0, 1.5, 0.05
    g = sample_on_grid(cosine_wave, np.zeros(2), R + r, h)
    passed = [bool(stats.volume_sandwich_check(g, R, r).passed)]
    for s in range(10):
        w = make_wave(generate_uniform_directions(2, 48, 200 + s), seed=300 + s)
        g = sample_on_grid(w, np.zeros(2), R + r, h)
        passed.append(bool(stats.volume_sandwich_check(g, R, r).passed))

    w = make_wave(generate_uniform_directions(2, 64, 19), seed=119)
    semi = stats.semilocal_count_check(w, 60.0, 6.0, h=0.1)
    dt = time.perf_counter() - t0
    ok = all(passed) and bool(semi.passed)
    detail = (
        f"sandwich {sum(passed)}/11 waves, semilocal gap {semi.meta['gap']:.4f} "
        f"vs bound {float(semi.tolerance[0]):.4f}"
    )
    report(8, ok, detail, dt, 300.0)


def test_a09_radial_nesting_path():
    t0 = time.perf_counter()
    g = sample_on_grid(
        lambda p: bessel_j(0, 2 * math.pi * np.linalg.norm(p, axis=-1)),
        np.zeros(2),
        3.0,
        0.02,
    )
    dec = label_domains(g)
    tree = build_nesting_tree(dec)
    interior = set(np.flatnonzero(~dec.touches_boundary).tolist())

    edges = []
    for c in interior:
        p = tree.parent.get(c)
        if p is not None and p in interior:
            edges.append((c, p))
    deg = Counter()
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    is_path = len(interior) == 6 and len(edges) == 5 and max(deg.values()) <= 2

    z = nodal_volume(g)
    pieces = nodal._parent_pieces(dec, tree)
    radii = sorted(z.piece_measure[pieces[c]] / (2 * math.pi) for c, _ in edges)
    errs = [abs(2 * math.pi * r - zk) for r, zk in zip(radii, bessel_zero_table(5))]
    dt = time.perf_counter() - t0
    ok = is_path and len(errs) == 5 and max(errs) < 1e-3
    detail = (
        f"{len(interior)} interior vertices in a path, {len(edges)} edges, "
        f"worst radius error {max(errs):.1e} vs first Bessel zeros"
    )
    report(9, ok, detail, dt, 30.0)


def test_a10_all_ones_profile_and_zero_linearity():
    t0 = time.perf_counter()
    r = np.arange(0.0, 10.0 + 1e-9, 0.02)
    limit = bessel_j(0, 2 * np.pi * r)
    devs = {}
    for N in (25, 100):
        wave = make_wave(generate_uniform_directions(2, N, 0), seed=0, mode="all-ones")
        pts = np.zeros((len(r), 2))
        pts[:, 0] = r
        profile = wave.value(pts) / math.sqrt(2 * N)
        devs[N] = float(np.max(np.abs(profile - limit)))

    zeros = np.asarray(bessel_zero_table(20))
    worst = 0.0
    for rho in np.arange(0.5, 62.0, 0.25):
        worst = max(worst, abs(int(np.sum(zeros < rho)) - rho / math.pi))
    dt = time.perf_counter() - t0
    ok = devs[100] < devs[25] and worst <= 1.0
    detail = (
        f"profile dev {devs[25]:.4f} (N=25) -> {devs[100]:.4f} (N=100), "
        f"zero-count linearity worst {worst:.3f} <= 1"
    )
    report(10, ok, detail, dt, 60.0)


def test_a11_partition_refinement_cauchy():
    t0 = time.perf_counter()
    dirs = generate_uniform_directions(2, 512, 3)
    means = {}
    for K in (4, 8, 16):
        mu = measure_from_partition(build_partition(dirs, K, 2.0**-8))
        est = stats.ns_constant_estimate(mu, 10.0, 150, seed=900 + K, h=0.1)
        assert est.excluded == 0
        means[K] = est.mean
    g1 = abs(means[8] - means[4])
    g2 = abs(means[16] - means[8])
    dt = time.perf_counter() - t0
    detail = f"ensemble means {means[4]:.4f}/{means[8]:.4f}/{means[16]:.4f}, gaps {g1:.3f} -> {g2:.3f}"
    report(11, g2 <= g1, detail, dt, 600.0)
