import csv
import dataclasses
import gc
import io
import itertools
import math
import os
import weakref
from collections import Counter, deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from monowave import _mc_tables as mct
from monowave import nodal, stats
from monowave.cli import bessel_zero_table
from monowave.field import bessel_j
from monowave.gaussian import sample_uniform
from monowave.grid import ScalarGrid, _squared_bound, sample_on_grid
from monowave.nodal import (
    DegenerateSampleError,
    build_nesting_tree,
    classify_topology,
    export_components_csv,
    label_domains,
    nodal_volume,
)

from conftest import traced_peak


def flood_fill_labels(grid: ScalarGrid) -> np.ndarray:
    """Reference labeling: BFS over same-sign in-mask neighbors.

    Positive vertices reach their orthogonal neighbors (4 in 2D, 6 in 3D),
    negative ones every neighbor that differs in at most two coordinates by
    one (8 in 2D, 18 in 3D). Mirrors the tie rule: values within 1e-13 of
    zero count as positive.
    """
    sign = np.where(np.abs(grid.grid_values()) < 1e-13, 1e-13, grid.grid_values()) > 0
    mask = grid.mask()
    offsets = [d for d in itertools.product((-1, 0, 1), repeat=grid.dim) if any(d)]
    reach = {True: [d for d in offsets if sum(map(abs, d)) == 1],
             False: [d for d in offsets if sum(map(abs, d)) <= 2]}
    labels = np.full(grid.shape, -1, dtype=int)
    nxt = 0
    for start in zip(*np.nonzero(mask)):
        if labels[start] >= 0:
            continue
        labels[start] = nxt
        q = deque([start])
        while q:
            u = q.popleft()
            for d in reach[bool(sign[u])]:
                v = tuple(x + dx for x, dx in zip(u, d))
                if not all(0 <= x < n for x, n in zip(v, grid.shape)):
                    continue
                if mask[v] and labels[v] < 0 and sign[v] == sign[u]:
                    labels[v] = nxt
                    q.append(v)
        nxt += 1
    return labels


def rim_reference(g: ScalarGrid) -> np.ndarray:
    """Grid-sized rim: the in-mask vertices with a vertex outside the grid or
    the mask in their 3^m neighbourhood (the mask minus its 3^m erosion)."""
    pad = np.pad(g.mask(), 1, constant_values=False)
    eroded = np.ones(g.shape, dtype=bool)
    for off in itertools.product(range(3), repeat=g.dim):
        eroded &= pad[tuple(slice(o, o + n) for o, n in zip(off, g.shape))]
    return g.mask() & ~eroded


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Two labelings agree up to renaming."""
    a = a.reshape(-1)
    b = b.reshape(-1)
    seen: dict[int, int] = {}
    for x, y in zip(a.tolist(), b.tolist()):
        if (x < 0) != (y < 0):
            return False
        if x < 0:
            continue
        if seen.setdefault(x, y) != y:
            return False
    return len(set(seen.values())) == len(seen)


def j0_grid(h=0.05, radius=3.0):
    return sample_on_grid(
        lambda p: bessel_j(0, 2 * math.pi * np.linalg.norm(p, axis=-1)),
        np.zeros(2),
        radius,
        h,
    )


def test_labels_match_flood_fill_on_random_grids():
    rng = np.random.default_rng(2024)
    for trial in range(30):
        m = 2 if trial % 3 else 3
        n = int(rng.integers(6, 14 if m == 3 else 22))
        vals = rng.standard_normal(n**m)
        radius = (n - 1) * 0.1 / 2
        g = ScalarGrid(
            origin=np.full(m, -radius),
            spacing=0.1,
            shape=(n,) * m,
            values=vals,
            ball_center=np.zeros(m) if trial % 2 else None,
            ball_radius=radius if trial % 2 else None,
        )
        dec = label_domains(g)
        # the fill numbers components by their first vertex in flat order, as
        # label_domains does, so the values agree and not only the partition
        ref = flood_fill_labels(g).reshape(-1)
        assert dec.labels.dtype == np.int32
        assert np.array_equal(dec.labels, ref)
        assert dec.interior_count + dec.boundary_count == dec.total_components
        # sizes and signs of the oracle's components: its vertex counts, and the
        # sign rule (values clamped to +TIE_EPS) at every vertex of each
        inside = ref >= 0
        assert dec.size.dtype == np.int64 and dec.sign.dtype == np.int8
        assert np.array_equal(dec.size, np.bincount(ref[inside]))
        assert np.array_equal(dec.sign[ref[inside]],
                              np.where(clamped(g).reshape(-1)[inside] > 0, 1, -1))
        # a component touches the boundary exactly when one of its vertices is on the rim
        on_shell = np.zeros(dec.total_components, dtype=bool)
        on_shell[ref[rim_reference(g).reshape(-1)]] = True
        assert np.array_equal(dec.touches_boundary, on_shell)


def clamped(grid: ScalarGrid) -> np.ndarray:
    """Reference tie rule: values within TIE_EPS of zero become +TIE_EPS."""
    v = grid.grid_values()
    return np.where(np.abs(v) < nodal.TIE_EPS, nodal.TIE_EPS, v)


@pytest.mark.parametrize("shape", [(5, 14), (3, 4, 6)])
def test_label_signs_follow_the_tie_rule(shape):
    # label_domains and the zero-set extraction read signs as values > -TIE_EPS,
    # which must equal clamped(grid) > 0, the signs the crossing points are
    # interpolated from, for every double
    eps = nodal.TIE_EPS
    edge = np.array([
        0.0, -0.0, eps, -eps, np.nextafter(eps, 0), np.nextafter(eps, 1),
        np.nextafter(-eps, 0), np.nextafter(-eps, -1), 5e-324, -5e-324,
        np.nan, np.inf, -np.inf, 1.0, -1.0,
    ])
    rng = np.random.default_rng(77)
    size = int(np.prod(shape))
    grids = [np.resize(edge, size), rng.choice(edge, size)]
    grids += [rng.uniform(-3 * eps, 3 * eps, size) for _ in range(5)]
    grids += [rng.standard_normal(size) for _ in range(5)]
    for vals in grids:
        g = ScalarGrid(origin=np.zeros(len(shape)), spacing=0.1,
                       shape=shape, values=vals)
        clamped_pos = clamped(g).reshape(-1) > 0
        assert np.array_equal(g.values > -eps, clamped_pos)
        dec = label_domains(g)
        signs = dec.sign[dec.labels]
        assert np.array_equal(signs > 0, clamped_pos)


def test_label_domains_is_deterministic(cosine_wave):
    g = sample_on_grid(cosine_wave, np.zeros(2), 4.0, 0.05)
    dec1 = label_domains(g)
    g2 = sample_on_grid(cosine_wave, np.zeros(2), 4.0, 0.05)
    assert np.array_equal(label_domains(g2).labels, dec1.labels)


def test_zero_set_cache_leaves_no_cycle(cosine_wave):
    # with the cyclic collector off, only reference counting can free the
    # grid: the zero set cached on it must not keep it alive
    gc.disable()
    try:
        g = sample_on_grid(cosine_wave, np.zeros(2), 4.0, 0.05)
        z = nodal_volume(g)
        assert nodal_volume(g) is z
        grid_ref, zero_ref = weakref.ref(g), weakref.ref(z)
        del g
        assert grid_ref() is None and zero_ref() is z
        del z
        assert zero_ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("m, R, r, h", [(2, 5.0, 1.0, 0.05), (3, 0.7, 0.5, 0.1)])
def test_zero_set_needs_no_labeling(monkeypatch, m, R, r, h):
    # the zero set is a function of the grid alone: with the labeling made to
    # fail, the measures and the sandwich read the same values as before
    F = sample_uniform(m, 256, 30 + m)
    want_geom = nodal_volume(sample_on_grid(F, np.zeros(m), R + r, h))
    want_sw = stats.volume_sandwich_check(sample_on_grid(F, np.zeros(m), R + r, h), R, r)

    def refuse(grid):
        raise AssertionError("the zero set reached for the labeling")

    monkeypatch.setattr(nodal, "label_domains", refuse)
    geom = nodal_volume(sample_on_grid(F, np.zeros(m), R + r, h))
    assert len(geom.edge_ends) > 100
    for f in dataclasses.fields(geom):
        got, want = getattr(geom, f.name), getattr(want_geom, f.name)
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes(), f.name
        else:
            assert got == want, f.name
    sw = stats.volume_sandwich_check(sample_on_grid(F, np.zeros(m), R + r, h), R, r)
    assert sw.meta == want_sw.meta and sw.n_samples == want_sw.n_samples
    for name in ("estimate", "predicted", "tolerance", "within"):
        assert getattr(sw, name).tobytes() == getattr(want_sw, name).tobytes(), name


def test_3d_classes_without_an_interior_component_extract_no_zero_set():
    # a 3D draw on B(2) whose 24 components all touch the rim: no piece can be
    # interior, so the class count is empty before any zero set is extracted
    g = sample_on_grid(sample_uniform(3, 256, 5), np.zeros(3), 2.0, 0.1)
    dec = label_domains(g)
    assert dec.total_components == 24 and dec.interior_count == 0
    assert classify_topology(dec) == Counter()
    assert g._zero is None
    # the long way: the extracted zero set has pieces, none of them interior
    z = nodal_volume(g)
    assert len(z.piece_measure) > 0 and not nodal._interior_pieces(dec, z).any()
    assert classify_topology(dec) == Counter()


def test_one_extraction_per_grid(monkeypatch):
    # labeling, measures, 3D classes and the component export of one grid
    # share the zero set cached on it
    calls = []
    extract = nodal._extract_zero_set

    def counted(grid):
        calls.append(grid)
        return extract(grid)

    monkeypatch.setattr(nodal, "_extract_zero_set", counted)
    g = bubble_grids(3, np.random.default_rng(53))[0]
    dec = label_domains(g)
    z = nodal_volume(g)
    classify_topology(dec)
    export_components_csv(dec, os.devnull)
    assert nodal._interior_pieces(dec, z).any()
    assert len(calls) == 1 and calls[0] is g


def test_cosine_fixture_decomposition(cosine_wave):
    # sqrt(2) cos(2 pi x): 16 zero lines cross B(4), so 17 strips, all touching
    # the rim; every neighboring strip pair shares exactly one zero piece
    g = sample_on_grid(cosine_wave, np.zeros(2), 4.0, 0.05)
    dec = label_domains(g)
    assert dec.total_components == 17
    assert dec.interior_count == 0
    assert len(dec.adjacency) == 16
    _, mesh = set_loop_grouping(nodal_volume(g), dec.labels)
    assert sorted(list(k) for k, _ in mesh) == dec.adjacency.tolist()
    assert all(len(p) == 1 for _, p in mesh)
    assert set(dec.sign.tolist()) == {-1, 1}
    tree = build_nesting_tree(dec)
    assert tree.root == -1
    assert tree.code == "(" + "()" * 17 + ")"


def test_cosine_fixture_zero_measure(cosine_wave):
    # chord-sum oracle: sum over lines x = (2k+1)/4 of 2 sqrt(16 - x^2)
    # equals 101.0139818...; the marching-squares staircase undershoots by
    # the covered-region clipping, frozen at h = 0.05
    g = sample_on_grid(cosine_wave, np.zeros(2), 4.0, 0.05)
    geom = nodal_volume(g)
    assert geom.total == pytest.approx(99.60000000000001, rel=1e-12)
    assert geom.covered_volume == pytest.approx(49.40000000000001, rel=1e-12)
    assert geom.density == pytest.approx(2.0161943319838054, rel=1e-12)
    assert geom.total == pytest.approx(np.sum(geom.measures), abs=1e-9)
    exact = sum(4 * math.sqrt(16 - c * c) for c in (0.25 + 0.5 * k for k in range(8)))
    assert geom.density == pytest.approx(2.0, abs=0.05)
    assert geom.total < exact  # clipping only removes length


def test_circle_length():
    n = 53
    h = 0.05
    lo = -(n - 1) / 2 * h
    axes = [lo + h * np.arange(n)] * 2
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    g = ScalarGrid(origin=np.full(2, lo), spacing=h, shape=(n, n),
                   values=1.0 - (pts**2).sum(axis=1))
    geom = nodal_volume(g)
    assert abs(geom.total - 2 * math.pi) / (2 * math.pi) < 0.005


def test_sphere_area_and_tag():
    h = 0.08
    n = int(round(2.6 / h)) + 1
    lo = -(n - 1) / 2 * h
    axes = [lo + h * np.arange(n)] * 3
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    g = ScalarGrid(origin=np.full(3, lo), spacing=h, shape=(n,) * 3,
                   values=1.0 - (pts**2).sum(axis=1))
    geom = nodal_volume(g)
    assert abs(geom.total - 4 * math.pi) / (4 * math.pi) < 0.02
    dec = label_domains(g)
    assert classify_topology(dec) == {"genus0": 1}
    check_piece_readers_against_references(dec)


def test_torus_genus():
    h = 0.05
    n = int(round(3.2 / h)) + 1
    lo = -(n - 1) / 2 * h
    axes = [lo + h * np.arange(n)] * 3
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    rho = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    g = ScalarGrid(origin=np.full(3, lo), spacing=h, shape=(n,) * 3,
                   values=(rho - 1.0) ** 2 + pts[:, 2] ** 2 - 0.16)
    dec = label_domains(g)
    assert classify_topology(dec) == {"genus1": 1}
    check_piece_readers_against_references(dec)


def test_j0_nesting_tree_regression():
    # 6 zero circles fit inside B(3); with the rim annulus that is 7 nested
    # components, and all 6 separating circles recover the Bessel zeros
    g = j0_grid(0.05)
    dec = label_domains(g)
    assert dec.total_components == 7
    tree = build_nesting_tree(dec)
    assert tree.code == "(" * 7 + ")" * 7
    z = nodal_volume(g)
    radii = sorted(z.piece_measure[p] / (2 * math.pi)
                   for p in nodal._parent_pieces(dec, tree).values())
    zeros = bessel_zero_table(6)
    assert len(radii) == 6
    for r, zj in zip(radii, zeros):
        assert abs(2 * math.pi * r - zj) < 1e-3


def test_j0_tree_stable_under_refinement():
    coarse = build_nesting_tree(label_domains(j0_grid(0.05)))
    fine = build_nesting_tree(label_domains(j0_grid(0.04)))
    assert coarse.code == fine.code


def test_j0_topology_classes():
    # six interior components, each enclosed by its own zero circle: the
    # outermost one, at r = 2.876, borders the rim annulus and counts too
    dec = label_domains(j0_grid(0.05))
    assert dec.interior_count == 6
    assert classify_topology(dec) == {"circle": 6}
    codes = build_nesting_tree(dec).codes
    # exactly one component wraps just the core disk
    assert sum(codes[c] == "(())" for c in np.flatnonzero(~dec.touches_boundary).tolist()) == 1


def test_crossing_curves_resolve_into_a_tree():
    # a line and a circle crossing off-lattice: four sign regions meet at each
    # crossing point. The negative quadrants join across the saddle cells
    # there, the positive ones stay apart, so the left half-disc is one
    # interior domain whose closed outer curve borders the joined negatives
    g = sample_on_grid(
        lambda p: (p[:, 0] - 0.017) * ((p**2).sum(axis=1) - 0.2601),
        np.zeros(2),
        1.0,
        0.05,
    )
    dec = label_domains(g)
    assert dec.sign.tolist() == [-1, 1, 1]
    assert dec.touches_boundary.tolist() == [True, False, True]
    assert dec.adjacency.tolist() == [[0, 1], [0, 2]]
    tree = build_nesting_tree(dec)
    assert tree.code == "((())())" and tree.parent[1] == 0
    z = nodal_volume(g)
    (piece,) = nodal._parent_pieces(dec, tree).values()
    assert nodal._interior_pieces(dec, z)[piece] and piece not in open_curve_pieces(z)
    # the circle's arc left of the line x = 0.017 and the chord along it
    r, x = 0.51, 0.017
    want = 2 * r * (math.pi - math.acos(x / r)) + 2 * math.sqrt(r * r - x * x)
    assert z.piece_measure[piece] == pytest.approx(want, rel=0.01)


def _fake_decomposition(touches, adjacency):
    """What build_nesting_tree reads of a decomposition, and nothing else."""
    return SimpleNamespace(touches_boundary=np.array(touches, dtype=bool),
                           adjacency=np.array(adjacency, dtype=np.intp).reshape(-1, 2))


@pytest.mark.parametrize("dec, reason", [
    (_fake_decomposition([True, False, False, False], [[0, 1], [1, 2], [1, 3], [2, 3]]),
     "not_a_tree"),  # a cycle of interior components
    (_fake_decomposition([True, True, False], [[0, 2], [1, 2]]), "not_a_tree"),  # two rim parents
    (_fake_decomposition([False, False], [[0, 1]]), "no_boundary_component"),
    (_fake_decomposition([True, False, False], [[0, 1]]), "not_a_tree"),  # an isolated component
])
def test_nesting_tree_exclusion_reasons(dec, reason):
    with pytest.raises(DegenerateSampleError) as info:
        build_nesting_tree(dec)
    assert info.value.reason == reason


def _tetrahedron(base: int) -> list[list[int]]:
    return [[base + i for i in face] for face in ([0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3])]


@pytest.mark.parametrize("dim, elements, reason", [
    (3, _tetrahedron(0) + [[0, 1, 4]], "non_manifold"),  # three triangles on one edge
    (3, [[0, 1, 2]], "non_manifold"),
    (3, _tetrahedron(0) + _tetrahedron(4), "bad_euler"),  # two spheres: chi = 4
])
def test_piece_tag_exclusion_reasons(dim, elements, reason):
    elements = np.array(elements)
    z = SimpleNamespace(dim=dim, elements=elements, element_piece=np.zeros(len(elements), int))
    with pytest.raises(DegenerateSampleError) as info:
        nodal._genera(z, np.array([True]))
    assert info.value.reason == reason
    assert raised_reason(genus_tagger(z, np.array([True])), 0) == reason


@pytest.mark.parametrize("first, second", [
    ("non_manifold", "bad_euler"),
    ("bad_euler", "non_manifold"),
])
def test_classify_raises_the_first_bad_piece_in_piece_order(first, second):
    # piece 0 lies on the rim and is skipped although it is not closed; of the
    # two bad interior pieces the lower id decides the reason, although its
    # elements come last in the element array
    bad = {"non_manifold": [[0, 1, 2]], "bad_euler": _tetrahedron(0) + _tetrahedron(4)}
    rows = [[x + 20 for x in t] for t in bad[second]] + [[x + 10 for x in t] for t in bad[first]]
    rows += [[30, 31, 32]]
    piece = [2] * len(bad[second]) + [1] * len(bad[first]) + [0]
    elements = np.array(rows)
    # one crossing edge per piece: piece 0's joins two vertices of the rim
    # component 0, pieces 1 and 2 join it to the interior component 1
    z = SimpleNamespace(dim=3, elements=elements, element_piece=np.array(piece),
                        piece_measure=np.zeros(3), edge_piece=np.arange(3),
                        piece_edge=np.arange(3), edge_ends=np.arange(6).reshape(3, 2))
    dec = SimpleNamespace(grid=SimpleNamespace(dim=3, _zero=z), labels=np.array([0, 0, 0, 1, 1, 0]),
                          touches_boundary=np.array([True, False]))
    with pytest.raises(DegenerateSampleError) as info:
        classify_topology(dec)
    assert info.value.reason == first
    # the former readers: the any-edge flags, then each interior piece's tag in piece order
    interior = any_edge_interior_pieces(dec, z)
    assert interior.tolist() == [False, True, True]
    tag = genus_tagger(z, interior)
    assert [raised_reason(tag, p) for p in (1, 2)] == [first, second]


def open_curve_pieces(z) -> set[int]:
    """Reference: the 2D pieces with an element end that is not shared by exactly two elements."""
    closed = np.bincount(z.elements.reshape(-1), minlength=len(z.edge_ends)) == 2
    return set(z.element_piece[~np.all(closed[z.elements], axis=1)].tolist())


def any_edge_interior_pieces(dec, z) -> np.ndarray:
    """Reference: the former per-edge scan, a piece is interior when one of
    its crossing edges has an end in an interior component."""
    lower, upper = dec.touches_boundary[dec.labels[z.edge_ends.T]]
    interior = np.zeros(len(z.piece_measure), dtype=bool)
    interior[z.edge_piece[~(lower & upper)]] = True
    return interior


def all_edges_parent_pieces(dec, tree) -> dict[int, int]:
    """Reference: the former dict over all crossing edges, keyed by their end
    labels; the lowest piece on a tree edge is taken."""
    z = nodal_volume(dec.grid)
    ncomp = dec.total_components
    a, b = dec.labels[z.edge_ends.T].astype(np.int64)
    keys = np.minimum(a, b) * ncomp + np.maximum(a, b)
    order = np.argsort(z.edge_piece, kind="stable")[::-1]  # the lowest piece comes last and stays
    piece_of = dict(zip(keys[order].tolist(), z.edge_piece[order].tolist()))
    return {c: piece_of[min(c, p) * ncomp + max(c, p)] for c, p in tree.parent.items()
            if p >= 0 and min(c, p) * ncomp + max(c, p) in piece_of}


def genus_tagger(z, interior: np.ndarray):
    """Reference: the former per-piece closure, one np.unique(axis=0) over each piece's edges."""
    rows = np.flatnonzero(interior[z.element_piece])
    rows = rows[np.argsort(z.element_piece[rows], kind="stable")]
    bounds = np.searchsorted(z.element_piece[rows], np.arange(len(interior) + 1))

    def tag(p: int) -> str:
        tris = z.elements[rows[bounds[p] : bounds[p + 1]]]
        verts = np.unique(tris)
        pairs = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [0, 2]]]), axis=1)
        uniq_edges, counts = np.unique(pairs, axis=0, return_counts=True)
        if not np.all(counts == 2):
            raise DegenerateSampleError("not a closed 2-manifold", "non_manifold")
        chi = len(verts) - len(uniq_edges) + len(tris)
        if chi % 2 or chi > 2:
            raise DegenerateSampleError("not the Euler characteristic of a closed surface", "bad_euler")
        return f"genus{(2 - chi) // 2}"

    return tag


def raised_reason(f, *args) -> str | None:
    try:
        f(*args)
    except DegenerateSampleError as exc:
        return exc.reason
    return None


def check_piece_readers_against_references(dec) -> None:
    """The per-piece arrays agree with the former per-edge readers: interior
    flags bitwise, parent-piece maps and, in 3D, the tag of every interior piece."""
    z = nodal_volume(dec.grid)
    interior = nodal._interior_pieces(dec, z)
    assert (interior.dtype, interior.tobytes()) == (np.dtype(bool), any_edge_interior_pieces(dec, z).tobytes())
    tree = build_nesting_tree(dec)
    assert nodal._parent_pieces(dec, tree) == all_edges_parent_pieces(dec, tree)
    if z.dim == 3 and interior.any():
        tag = genus_tagger(z, interior)
        genera = nodal._genera(z, interior)
        assert [f"genus{genera[p]}" for p in np.flatnonzero(interior)] == [
            tag(p) for p in np.flatnonzero(interior).tolist()]


def reference_components_csv(dec) -> bytes:
    """Reference: the former export's bytes, from the per-edge readers above."""
    z = nodal_volume(dec.grid)
    interior = any_edge_interior_pieces(dec, z)
    try:
        pieces = all_edges_parent_pieces(dec, build_nesting_tree(dec))
    except DegenerateSampleError:
        pieces = {}
    tag_of = genus_tagger(z, interior) if z.dim == 3 else (lambda p: "circle")
    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(["id", "sign", "size", "boundary", "measure", "class"])
    for c, (sign, size, rim) in enumerate(zip(dec.sign.tolist(), dec.size.tolist(),
                                              dec.touches_boundary.tolist())):
        p = pieces.get(c)
        measure = "" if p is None else repr(float(z.piece_measure[p]))
        tag = tag_of(p) if p is not None and interior[p] else ""
        w.writerow([c, "+" if sign > 0 else "-", size, int(rim), measure, tag])
    return out.getvalue().encode()


def test_open_curve_found_in_its_own_piece():
    # 2D: piece 1 is a closed square loop, piece 0 an open path listed after it
    elements = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [5, 6]])
    z = SimpleNamespace(dim=2, elements=elements, element_piece=np.array([1, 1, 1, 1, 0, 0]),
                        edge_ends=np.zeros((7, 2), int))
    assert open_curve_pieces(z) == {0}


def test_export_components_csv(tmp_path, cosine_wave):
    g = sample_on_grid(cosine_wave, np.zeros(2), 4.0, 0.05)
    dec = label_domains(g)
    path = tmp_path / "components.csv"
    export_components_csv(dec, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "id,sign,size,boundary,measure,class"
    assert len(lines) == 1 + dec.total_components

    # degenerate topology still exports rows, class column left blank
    gd = sample_on_grid(
        lambda p: (p[:, 0] - 0.017) * ((p**2).sum(axis=1) - 0.2601),
        np.zeros(2), 1.0, 0.05,
    )
    decd = label_domains(gd)
    pd = tmp_path / "degenerate.csv"
    export_components_csv(decd, str(pd))
    assert len(pd.read_text().strip().splitlines()) == 1 + decd.total_components


def test_export_components_csv_3d_classes(tmp_path):
    # a bubble lattice has interior components: each one's row names the
    # closed surface toward its tree parent, its area and its genus class
    g = bubble_grids(3, np.random.default_rng(53))[0]
    dec = label_domains(g)
    path = tmp_path / "components.csv"
    export_components_csv(dec, str(path))
    z = nodal_volume(g)
    pieces = nodal._parent_pieces(dec, build_nesting_tree(dec))
    genera = nodal._genera(z, nodal._interior_pieces(dec, z))
    rows = list(csv.DictReader(path.open(newline="")))
    inner = [r for r in rows if r["boundary"] == "0"]
    assert len(inner) == dec.interior_count > 5
    for r in inner:
        p = pieces[int(r["id"])]
        assert r["measure"] == repr(float(z.piece_measure[p])) and float(r["measure"]) > 0
        assert r["class"] == f"genus{genera[p]}"
    assert sum(bool(r["class"]) for r in rows) == dec.interior_count
    assert path.read_bytes() == reference_components_csv(dec)


# ---------------------------------------------------------------------------
# _connected against the former sequential union-find and scipy


def list_dsu(n: int, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Reference: the former list-based union-find, smaller root wins."""
    parent = list(range(n))
    for a, b in zip(pa.tolist(), pb.tolist()):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
    p = np.asarray(parent, dtype=np.intp)
    while True:
        q = p[p]
        if np.array_equal(q, p):
            return p
        p = q


def list_dsu_ids(n: int, pa: np.ndarray, pb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference ids and roots: list_dsu roots (each tree's minimum) renumbered in sorted order."""
    roots, ids = np.unique(list_dsu(n, pa, pb), return_inverse=True)
    return ids, roots


def check_connected(n: int, pa, pb) -> None:
    pa = np.asarray(pa, dtype=np.intp)
    pb = np.asarray(pb, dtype=np.intp)
    ids, roots = nodal._connected(n, pa, pb)
    ref_ids, ref_roots = list_dsu_ids(n, pa, pb)
    assert ids.dtype == roots.dtype == np.intp
    assert np.array_equal(ids, ref_ids) and np.array_equal(roots, ref_roots)
    # pairs already in the int32 that _connected works in give the same ids
    ids32, roots32 = nodal._connected(n, pa.astype(np.int32), pb.astype(np.int32))
    assert ids32.dtype == roots32.dtype == np.intp
    assert np.array_equal(ids32, ref_ids) and np.array_equal(roots32, ref_roots)
    ncc, cc = connected_components(
        coo_matrix((np.ones(len(pa)), (pa, pb)), shape=(n, n)), directed=False
    )
    assert len(roots) == ncc
    smallest = np.full(ncc, n)
    np.minimum.at(smallest, cc, np.arange(n))
    # same partition, ids in the order of the components' minima, which are the roots
    assert np.array_equal(ids, np.argsort(np.argsort(smallest))[cc])
    assert np.array_equal(roots, np.sort(smallest))


@st.composite
def pair_graphs(draw):
    n = draw(st.integers(1, 60))
    k = draw(st.integers(0, 3 * n))
    ends = st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
    return n, draw(ends), draw(ends)


@settings(max_examples=300, deadline=None)
@given(pair_graphs())
def test_connected_matches_list_dsu_and_scipy(graph):
    check_connected(*graph)


def test_connected_edge_cases():
    check_connected(1, [], [])
    check_connected(1, [0], [0])
    check_connected(6, [], [])
    check_connected(4, [2, 2], [2, 2])  # self-loops only
    check_connected(5, [3, 1, 3, 4, 1], [1, 3, 1, 0, 3])  # duplicate pairs
    # a long path numbered in reverse: hooking builds one chain n-1 -> ... -> 0,
    # the deepest tree pointer jumping can meet
    n = 50_000
    hi = np.arange(n - 1, 0, -1)
    check_connected(n, hi, hi - 1)
    assert nodal._connected(n, hi, hi - 1)[1].tolist() == [0]
    rng = np.random.default_rng(8)
    check_connected(20_000, rng.integers(0, 20_000, 15_000), rng.integers(0, 20_000, 15_000))


def test_pair_keys_do_not_wrap_with_int32_labels():
    # 50,653 isolated positive vertices, then a positive 3x3x3 block around
    # one negative vertex: the block and its hole get ids above 46,341, so
    # the key min * ncomp + max of that pair passes 2^31 and would wrap if it
    # were formed in the labels' int32
    shape = (80, 74, 74)
    v = -np.ones(shape)
    v[:73:2, ::2, ::2] = 1.0
    v[75:78, 30:33, 30:33] = 1.0
    v[76, 31, 31] = -1.0
    g = ScalarGrid(origin=np.zeros(3), spacing=0.1, shape=shape, values=v.reshape(-1))
    dec = label_domains(g)
    labels = dec.labels.reshape(shape)
    block, hole, ncomp = int(labels[75, 30, 30]), int(labels[76, 31, 31]), dec.total_components
    assert dec.labels.dtype == np.int32 and ncomp == 37**3 + 3
    assert min(block, hole) * ncomp + max(block, hole) >= 2**31
    assert [min(block, hole), max(block, hole)] in dec.adjacency.tolist()
    tree = build_nesting_tree(dec)
    assert tree.parent[hole] == block
    # every interior component finds the piece toward its parent, the hole too
    pieces = nodal._parent_pieces(dec, tree)
    assert set(pieces) == set(np.flatnonzero(~dec.touches_boundary).tolist())
    z = nodal_volume(g)
    ends = dec.labels[z.edge_ends[z.edge_piece == pieces[hole]]]
    assert set(ends.reshape(-1).tolist()) == {block, hole}


def edge_endpoints(gids: np.ndarray, shape) -> tuple[np.ndarray, np.ndarray]:
    """Reference: flat indices of the lower and upper vertex of each grid edge."""
    u = np.empty(len(gids), dtype=np.int64)
    v = np.empty(len(gids), dtype=np.int64)
    for step, (first, bshape) in zip(nodal._row_major_strides(shape), nodal._edge_blocks(shape)):
        sel = (gids >= first) & (gids < first + int(np.prod(bshape)))
        u[sel] = np.ravel_multi_index(np.unravel_index(gids[sel] - first, bshape), shape)
        v[sel] = u[sel] + step
    return u, v


def set_loop_grouping(z, labels):
    """Reference: per piece, the labels on its crossing edges; per component pair, its pieces."""
    ends = z.edge_ends.T
    neigh = [set() for _ in range(len(z.piece_measure))]
    adjacency: dict = {}
    for p, a, b in zip(z.edge_piece.tolist(), labels[ends[0]].tolist(), labels[ends[1]].tolist()):
        neigh[p].update((a, b))
        adjacency.setdefault((a, b) if a < b else (b, a), set()).add(p)
    return (
        tuple(frozenset(s) for s in neigh),
        [(k, tuple(sorted(s))) for k, s in adjacency.items()],
    )


@pytest.mark.parametrize("m, W, h", [(2, 5.0, 0.05), (3, 2.0, 0.08)])
def test_zero_set_matches_list_dsu_and_set_loops(monkeypatch, m, W, h):
    F = sample_uniform(m, 256, 12 + m)

    def decompose():
        g = sample_on_grid(F, np.full(m, 0.3), W, h)
        dec = label_domains(g)
        return g, dec, nodal_volume(g)

    g, dec, z = decompose()
    with monkeypatch.context() as mp:
        mp.setattr(nodal, "_connected", list_dsu_ids)
        _, ref_dec, ref = decompose()
    assert np.array_equal(dec.labels, ref_dec.labels)
    assert dec.adjacency.tobytes() == ref_dec.adjacency.tobytes()
    for name in ("sign", "size", "touches_boundary"):
        assert getattr(dec, name).tobytes() == getattr(ref_dec, name).tobytes(), name
    assert np.array_equal(z.edge_piece, ref.edge_piece)
    assert np.array_equal(z.piece_edge, ref.piece_edge)
    assert nodal._interior_pieces(dec, z).tobytes() == nodal._interior_pieces(ref_dec, ref).tobytes()
    assert z.piece_measure.tobytes() == ref.piece_measure.tobytes()

    # the mesh's component pairs, grouped by a per-edge set loop, are the
    # labeling's adjacency once contacts between two rim components drop out
    _, mesh = set_loop_grouping(z, dec.labels)
    assert off_rim_pairs(dec, (k for k, _ in mesh)) == off_rim_pairs(dec, dec.adjacency.tolist())
    if m == 2:  # random 3D draws at desk scale have every component on the rim
        assert len(off_rim_pairs(dec, dec.adjacency.tolist())) > 5


def off_rim_pairs(dec, pairs) -> set[tuple[int, int]]:
    """The component pairs (a, b) of which at least one is off the rim."""
    touches = dec.touches_boundary.tolist()
    return {(a, b) for a, b in pairs if not (touches[a] and touches[b])}


def check_mesh_against_labeling(g: ScalarGrid) -> int:
    """The checks the nesting tree once ran on the zero set, as a property.

    The mesh is grouped by the per-edge set loop, independent of the
    labeling's run overlaps. Its component pairs are the labeling's
    adjacency off rim-rim pairs; every interior piece borders exactly two
    components; two components with one off the rim share one piece; in 2D
    every interior piece is a closed curve; there is one interior piece per
    interior component; the tree builds; and the per-piece readers agree
    with the former per-edge ones. Returns the interior piece count.
    """
    dec = label_domains(g)
    z = nodal_volume(g)
    neigh, mesh = set_loop_grouping(z, dec.labels)
    off_rim = off_rim_pairs(dec, (k for k, _ in mesh))
    assert off_rim == off_rim_pairs(dec, dec.adjacency.tolist())
    assert all(len(pieces) == 1 for k, pieces in mesh if k in off_rim)
    interior = np.flatnonzero(nodal._interior_pieces(dec, z))
    assert all(len(neigh[p]) == 2 for p in interior)
    if g.dim == 2:
        assert not open_curve_pieces(z) & set(interior.tolist())
    assert len(interior) == dec.interior_count
    check_piece_readers_against_references(dec)
    return len(interior)


def bubble_grids(m: int, rng) -> list[ScalarGrid]:
    """Ball grids over a lattice of bubbles perturbed by a random wave: each
    has interior pieces, and pieces that reach the rim."""
    grids = []
    for seed in range(4):
        F = sample_uniform(m, 64, seed)
        bubbles = lambda p, F=F: np.cos(2 * np.pi * p).sum(axis=-1) - (m - 1) + 0.3 * F.value(p)
        grids.append(sample_on_grid(bubbles, rng.uniform(-2.0, 2.0, m), float(rng.uniform(1.2, 1.8)),
                                    float(rng.uniform(0.06, 0.1))))
    return grids


def test_mesh_agrees_with_labeling_on_random_2d_draws():
    # uniform draws in B(4) and B(6) at two pitches, centred and off-centre
    interior = 0
    for seed in range(16):
        F = sample_uniform(2, 1024, 700 + seed)
        centre = np.zeros(2) if seed % 2 else np.array([0.31, -0.17])
        interior += check_mesh_against_labeling(
            sample_on_grid(F, centre, 4.0 if seed % 4 < 2 else 6.0, 0.05 if seed < 8 else 0.1))
    assert interior > 50


def test_mesh_agrees_with_labeling_on_3d_fields():
    # random 3D draws at desk scale have no interior piece, the bubble lattice has
    grids = bubble_grids(3, np.random.default_rng(61))
    grids += [sample_on_grid(sample_uniform(3, 256, 80 + s), np.zeros(3), 1.6, 0.08) for s in range(2)]
    assert sum(check_mesh_against_labeling(g) for g in grids) > 4


def summed_case_elements(grid: ScalarGrid, v: np.ndarray) -> tuple[np.ndarray, int]:
    """Reference: the former case scan, an int16 case index summed from clamped-value signs."""
    m = grid.dim
    if m == 2:
        table, edge_axis, edge_base = mct.SQUARE_CASES, mct.SQ_EDGE_AXIS, mct.SQ_EDGE_BASE
    else:
        table, edge_axis, edge_base = mct.CUBE_CASES, mct.EDGE_AXIS, mct.EDGE_BASE
    cells = tuple(n - 1 for n in grid.shape)
    pos = v > 0
    mask = grid.mask()
    cell_ok = np.ones(cells, dtype=bool)
    case = np.zeros(cells, dtype=np.int16)
    for c in range(2**m):
        sl = tuple(slice(o, o + n) for o, n in zip(((c >> a) & 1 for a in range(m)), cells))
        cell_ok &= mask[sl]
        case += pos[sl].astype(np.int16) << c
    covered = int(np.count_nonzero(cell_ok))
    work = np.flatnonzero(cell_ok & (case > 0) & (case < 2 ** 2**m - 1))
    case_w = case.reshape(-1)[work]
    blocks = nodal._edge_blocks(grid.shape)
    strides = np.array([nodal._row_major_strides(bshape) for _, bshape in blocks])
    cell_gid = np.array([f for f, _ in blocks])[:, None] + strides @ np.stack(np.unravel_index(work, cells))
    shift = np.sum(edge_base * strides[edge_axis], axis=1)
    order = np.argsort(case_w, kind="stable")
    cases, starts = np.unique(case_w[order], return_index=True)
    rows = []
    for cs, sel in zip(cases.tolist(), np.split(order, starts[1:])):
        tab = np.asarray(table[cs])
        gids = cell_gid[:, sel][edge_axis[tab]] + shift[tab][..., None]
        rows.append(gids.transpose(0, 2, 1).reshape(-1, m))
    return (np.concatenate(rows) if rows else np.empty((0, m), dtype=np.int64)), covered


def sorted_zero_set(grid: ScalarGrid, labels: np.ndarray,
                    interior: np.ndarray) -> tuple[nodal.NodalGeometry, np.ndarray]:
    """Reference: the former extraction, np.unique over the element edge ids and a clamped copy.

    Also returns, per piece, that it borders no component flagged in interior.
    """
    v = clamped(grid)
    elements, covered = summed_case_elements(grid, v)
    uniq, inv = np.unique(elements.reshape(-1), return_inverse=True)
    elements = inv.reshape(-1, grid.dim).astype(np.intp, copy=False)
    U = len(uniq)
    ends_u, ends_v = edge_endpoints(uniq, grid.shape)
    vf = v.reshape(-1)
    t = vf[ends_u] / (vf[ends_u] - vf[ends_v])
    base = np.stack(np.unravel_index(ends_u, grid.shape), axis=-1).astype(float)
    step = np.stack(np.unravel_index(ends_v, grid.shape), axis=-1) - base
    edge_points = grid.origin + grid.spacing * (base + t[:, None] * step)
    p0 = edge_points[elements[:, 0]]
    if grid.dim == 2:
        measure = np.linalg.norm(p0 - edge_points[elements[:, 1]], axis=1)
    else:
        cross = np.cross(edge_points[elements[:, 1]] - p0, edge_points[elements[:, 2]] - p0)
        measure = 0.5 * np.linalg.norm(cross, axis=-1)
    pa = np.concatenate([elements[:, 0]] * (grid.dim - 1))
    edge_piece, piece_edge = nodal._connected(U, pa, elements[:, 1:].T.reshape(-1))
    piece_count = len(piece_edge)
    elem_piece = edge_piece[elements[:, 0]] if U else np.empty(0, dtype=np.intp)
    piece_measure = np.bincount(elem_piece, weights=measure, minlength=piece_count)
    lab_u = labels[ends_u]
    lab_v = labels[ends_v]
    piece_interior = np.zeros(piece_count, dtype=bool)
    np.logical_or.at(piece_interior, edge_piece, interior[lab_u] | interior[lab_v])
    return nodal.NodalGeometry(
        dim=grid.dim, edge_points=edge_points, edge_piece=edge_piece, piece_edge=piece_edge,
        edge_ends=np.stack([ends_u, ends_v], axis=-1), covered_volume=covered * grid.spacing**grid.dim,
        piece_measure=piece_measure, elements=elements, element_piece=elem_piece,
        element_measure=measure,
    ), ~piece_interior


def oracle_grid(name: str) -> ScalarGrid:
    """Ball grids, box grids without a mask, single-sign and tie-band box grids."""
    kind, m = name.rsplit("-m", 1)
    m = int(m)
    if kind == "ball":
        return sample_on_grid(sample_uniform(m, 256, 12 + m), np.full(m, 0.3), 5.0 if m == 2 else 2.0,
                              0.05 if m == 2 else 0.08)
    shape = (37, 52) if m == 2 else (15, 18, 21)
    vals = sample_uniform(m, 64, 3 + m).on_grid(np.zeros(m), shape, 0.1).reshape(-1)
    if kind == "one-sign":
        vals = np.abs(vals) + 0.5
    elif kind == "tie-band":
        rng = np.random.default_rng(13)
        near = rng.random(vals.size) < 0.3
        vals[near] = rng.choice([0.0, -0.0, 5e-14, -5e-14, nodal.TIE_EPS, -nodal.TIE_EPS,
                                 np.nextafter(-nodal.TIE_EPS, 0)], int(near.sum()))
    return ScalarGrid(origin=np.full(m, -0.5), spacing=0.1, shape=shape, values=vals)


@pytest.mark.parametrize("name", [f"{kind}-m{m}" for kind in ("ball", "box", "one-sign", "tie-band")
                                  for m in (2, 3)])
def test_zero_set_bitwise_equals_sorted_reference(name):
    grid = oracle_grid(name)
    dec = label_domains(grid)
    z = nodal._extract_zero_set(grid)
    ref, ref_boundary = sorted_zero_set(grid, dec.labels, ~dec.touches_boundary)
    assert (~nodal._interior_pieces(dec, z)).tobytes() == ref_boundary.tobytes()
    if name.startswith("one-sign"):
        assert len(ref.edge_ends) == 0
    else:
        assert len(ref.edge_ends) > 50
    for f in dataclasses.fields(ref):
        got, want = getattr(z, f.name), getattr(ref, f.name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), f.name
        else:
            assert got == want, f.name


def running_max_piece_sides(dec, z) -> np.ndarray:
    """Reference: the former _piece_sides. _connected numbers pieces by their
    lowest edge, so the first edges are where the running maximum of
    edge_piece rises."""
    rise = np.diff(np.maximum.accumulate(z.edge_piece), prepend=-1)
    return dec.labels[z.edge_ends[np.flatnonzero(rise)]]


@pytest.mark.parametrize("name", [f"{kind}-m{m}" for kind in ("ball", "box", "one-sign", "tie-band")
                                  for m in (2, 3)])
def test_piece_sides_match_running_max_reference(name):
    grid = oracle_grid(name)
    dec = label_domains(grid)
    z = nodal_volume(grid)
    sides = nodal._piece_sides(dec, z)
    want = running_max_piece_sides(dec, z)
    assert sides.shape == (len(z.piece_measure), 2)
    assert (sides.dtype, sides.tobytes()) == (want.dtype, want.tobytes())
    # each piece's first edge is its lowest, and lies on the piece
    assert np.array_equal(z.edge_piece[z.piece_edge], np.arange(len(z.piece_edge)))
    assert np.all(np.diff(z.piece_edge) > 0)


def memory_test_grid() -> ScalarGrid:
    """A 61^3 ball grid of one m=3 draw, its mask cached outside the traced peaks."""
    g = sample_on_grid(sample_uniform(3, 512, 5), np.zeros(3), 1.8, 0.06)
    g.mask()
    return g


def test_zero_set_extraction_memory():
    # peak traced heap of one m=3 extraction, in units of the value grid: 6.62
    # for the former np.unique extraction, 5.72 for the per-axis ranking with
    # intp union-find pairs, 4.21 with int32 pairs, one mark and one rank
    # table for all axis blocks, the ranks written over the element edge ids
    # and the element measures taken in blocks, 4.11 without the crossing
    # edges' grid ids
    g = memory_test_grid()
    assert traced_peak(lambda: nodal._extract_zero_set(g)) < 4.5 * g.values.nbytes


def test_sandwich_clipper_memory():
    # peak traced heap of one m=3 _ZeroClipper, in units of the value grid:
    # 24.1 with a (T, 16, 3) array of sandwich probes for every triangle,
    # 8.6 with each triangle's corner and edge vectors kept and the probes
    # formed per ball for the triangles its sphere crosses
    g = memory_test_grid()
    assert traced_peak(lambda: stats._ZeroClipper(g)) < 12 * g.values.nbytes


def test_labeling_memory():
    # peak traced heap of one m=3 labeling, in units of the value grid: 3.29
    # for intp labels written through the mask, 1.57 for int32 labels
    # repeated from every run with the vertex-sized sign arrays freed first,
    # 1.64 with the rim read off the scanned cells before the runs are built,
    # 1.57 with the reach read off the run ends instead (1.43 on a 101^3 grid)
    g = memory_test_grid()
    assert traced_peak(lambda: label_domains(g)) < 1.75 * g.values.nbytes


def shell_test_grids(m: int, rng) -> list[ScalarGrid]:
    """Random-valued ball grids, centred and off-centre, and box grids of both parities."""
    grids = []
    for centred in (True, False, True, False):
        h = float(rng.uniform(0.05, 0.2))
        centre = np.zeros(m) if centred else rng.uniform(-1.0, 1.0, m)
        F = sample_uniform(m, 64, int(rng.integers(1000)))
        grids.append(sample_on_grid(F, centre, float(rng.uniform(1.0, 1.5 if m == 3 else 3.0)), h))
    for shape in ([(9, 12), (2, 17)] if m == 2 else [(5, 6, 7), (2, 9, 3)]):
        grids.append(ScalarGrid(origin=rng.uniform(-1.0, 1.0, m), spacing=0.1, shape=shape,
                                values=rng.standard_normal(math.prod(shape))))
    return grids


@pytest.mark.parametrize("m", [2, 3])
def test_rim_flags_match_grid_sized_rim(m):
    # label_domains reads the rim off each component's reach; its touches
    # flags are the ones the grid-sized rim (the mask minus its 3^m erosion)
    # gives
    for g in shell_test_grids(m, np.random.default_rng(40 + m)):
        dec = label_domains(g)
        on_shell = np.zeros(dec.total_components, dtype=bool)
        on_shell[dec.labels[rim_reference(g).reshape(-1)]] = True
        assert np.array_equal(dec.touches_boundary, on_shell)
        assert dec.interior_count == np.count_nonzero(~on_shell)
        assert dec.boundary_count == np.count_nonzero(on_shell)
        assert on_shell.any()


def reach_reference(g: ScalarGrid, labels: np.ndarray) -> np.ndarray:
    """Per label, the largest κ over its vertices, vertex by vertex: the
    squared distance to the mask centre of every one of the 3^m offsets,
    summed in axis order, +inf past the ends of the grid."""
    c = g.ball_center if g.ball_center is not None else np.zeros(g.dim)
    sq = [np.pad((g.axis_coords(a) - c[a]) ** 2, 1, constant_values=np.inf) for a in range(g.dim)]
    kappa = np.full(g.shape, -np.inf)
    for off in itertools.product(range(3), repeat=g.dim):
        total = 0.0
        for a, o in enumerate(off):
            total = total + sq[a][o : o + g.shape[a]].reshape([-1 if i == a else 1 for i in range(g.dim)])
        kappa = np.maximum(kappa, total)
    labels = labels.reshape(g.shape)
    return np.array([kappa[labels == k].max() for k in range(labels.max() + 1)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.booleans())
def test_reach_matches_per_vertex_blocks(seed, m, ball):
    # the run-end reach against every vertex's 3^m block, bitwise, on ball
    # grids (any centre in the box, any radius the grid admits) and box grids
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(3, 24 if m == 2 else 10, m))
    h = float(rng.uniform(0.05, 0.2))
    origin = rng.uniform(-1.0, 1.0, m)
    centre = radius = None
    if ball:
        extent = (np.array(shape) - 1) * h
        centre = origin + rng.uniform(0.0, 1.0, m) * extent
        radius = float(rng.uniform(h * math.sqrt(m), extent.min() / 2 + h))
    g = ScalarGrid(origin=origin, spacing=h, shape=shape, values=rng.standard_normal(math.prod(shape)),
                   ball_center=centre, ball_radius=radius)
    dec = label_domains(g)
    assert dec.reach.dtype == np.float64
    assert dec.reach.tobytes() == reach_reference(g, dec.labels).tobytes()


def sub_ball_grids(m: int, rng) -> list[ScalarGrid]:
    """Ball grids with interior components: uniform draws, centred and
    off-centre, and (in 3D, where desk-scale draws have none) bubble lattices."""
    if m == 3:
        return bubble_grids(3, rng)[:3]
    return [sample_on_grid(sample_uniform(2, 256, 90 + s), np.zeros(2) if s % 2 else rng.uniform(-1.0, 1.0, 2),
                           5.0, 0.05) for s in range(4)]


@pytest.mark.parametrize("m", [2, 3])
def test_reach_gives_the_interior_count_of_every_sub_ball(m):
    # a fresh labeling of the same values under a B(r) mask about the same
    # centre finds as interior exactly the components with reach within r:
    # radii below the smallest reach, at and one ulp below the reach of some
    # components (where rounding decides), between, and at the mask radius
    for g in sub_ball_grids(m, np.random.default_rng(70 + m)):
        dec = label_domains(g)
        W = g.ball_radius
        roots = np.sqrt(np.sort(dec.reach[dec.reach <= W * W]))
        assert len(roots) > 2
        radii = [0.9 * roots[0], math.nextafter(roots[0], 0.0), *np.linspace(roots[0], W, 5)]
        for x in roots[:: max(1, len(roots) // 4)].tolist():
            radii += [x, math.nextafter(x, 0.0)]
        for r in radii:
            sub = label_domains(ScalarGrid(origin=g.origin, spacing=g.spacing, shape=g.shape,
                                           values=g.values, ball_center=g.ball_center, ball_radius=r))
            inside = dec.reach <= _squared_bound(r)
            assert np.count_nonzero(inside) == sub.interior_count, r
            # the same components: their sizes, signs and reach
            for name in ("size", "sign", "reach"):
                want = np.sort(getattr(dec, name)[inside])
                assert np.sort(getattr(sub, name)[~sub.touches_boundary]).tobytes() == want.tobytes()
        assert np.count_nonzero(dec.reach <= _squared_bound(W)) == dec.interior_count


@pytest.mark.parametrize("m", [2, 3])
def test_piece_boundary_matches_grid_sized_shell(m):
    # a piece is interior exactly when one of its crossing edges has an end
    # in a component that misses the grid-sized rim; the ball grids sample a
    # lattice of bubbles perturbed by a random wave, so each has interior
    # pieces and pieces that reach the rim
    grids = bubble_grids(m, np.random.default_rng(53))
    shape = (37, 52) if m == 2 else (15, 18, 21)
    grids.append(ScalarGrid(origin=np.full(m, -0.5), spacing=0.1, shape=shape,
                            values=sample_uniform(m, 64, 9).on_grid(np.zeros(m), shape, 0.1)))
    for g in grids:
        dec = label_domains(g)
        z = nodal_volume(g)
        on_rim = set(dec.labels[rim_reference(g).reshape(-1)].tolist())
        u, v = z.edge_ends.T
        want = np.ones(len(z.piece_measure), dtype=bool)
        for p, a, b in zip(z.edge_piece.tolist(), dec.labels[u].tolist(), dec.labels[v].tolist()):
            if a not in on_rim or b not in on_rim:
                want[p] = False
        interior = nodal._interior_pieces(dec, z)
        assert interior.dtype == bool
        assert (~interior).tobytes() == want.tobytes()
        assert want.any()
        if g.ball_radius is not None:
            assert not want.all()


def per_cell_elements(grid: ScalarGrid):
    """Reference: crossing-edge ends and measures of the zero-set elements, cell by cell.

    Rows are ordered by case, then table entry, then cell, like
    _crossing_elements; each element edge is given by the flat indices of its
    lower and upper vertex.
    """
    m = grid.dim
    v = np.where(np.abs(grid.grid_values()) < 1e-13, 1e-13, grid.grid_values())
    mask = grid.mask()
    if m == 2:
        table, edge_axis, edge_base = mct.SQUARE_CASES, mct.SQ_EDGE_AXIS, mct.SQ_EDGE_BASE
    else:
        table, edge_axis, edge_base = mct.CUBE_CASES, mct.EDGE_AXIS, mct.EDGE_BASE
    rows = []
    for cell in np.ndindex(*(n - 1 for n in grid.shape)):
        corners = [tuple(x + ((c >> a) & 1) for a, x in enumerate(cell)) for c in range(2**m)]
        if not all(mask[x] for x in corners):
            continue
        case = sum(1 << c for c, x in enumerate(corners) if v[x] > 0)
        for k, element in enumerate(table[case] if 0 < case < 2 ** 2**m - 1 else ()):
            ends, pts = [], []
            for e in element:
                ax = int(edge_axis[e])
                lo = tuple(int(x + b) for x, b in zip(cell, edge_base[e]))
                hi = tuple(x + (a == ax) for a, x in enumerate(lo))
                t = v[lo] / (v[lo] - v[hi])
                pts.append([grid.origin[a] + grid.spacing * (x + (t if a == ax else 0.0))
                            for a, x in enumerate(lo)])
                ends.append([np.ravel_multi_index(x, grid.shape) for x in (lo, hi)])
            if m == 2:
                measure = math.dist(*pts)
            else:
                u, w = np.subtract(pts[1], pts[0]), np.subtract(pts[2], pts[0])
                measure = 0.5 * math.hypot(*np.cross(u, w))
            rows.append(((case, k), ends, measure))
    rows.sort(key=lambda r: r[0])  # stable: cells stay in index order
    return np.array([r[1] for r in rows]), np.array([r[2] for r in rows])


@pytest.mark.parametrize("m, W, h", [(2, 2.0, 0.1), (3, 0.9, 0.1)])
def test_crossing_elements_match_per_cell_loop(m, W, h):
    g = sample_on_grid(sample_uniform(m, 64, 5 + m), np.full(m, 0.2), W, h)
    z = nodal_volume(g)
    ends, measures = per_cell_elements(g)
    assert len(ends) > 20
    assert np.array_equal(z.edge_ends[z.elements], ends)
    assert np.allclose(z.element_measure, measures, rtol=1e-12, atol=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_cell_cases_match_corner_by_corner(seed, m):
    # the axis-by-axis gather against one slice per corner: corner c is
    # offset along axis a by bit a of c and sets bit c of the case, on masks
    # that are not balls
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(2, 30 if m == 2 else 12, m))
    pos = rng.random(shape) < rng.uniform(0.1, 0.9)
    mask = rng.random(shape) < rng.uniform(0.5, 1.0)
    cells = tuple(n - 1 for n in shape)
    want_ok = np.ones(cells, dtype=bool)
    want_case = np.zeros(cells, dtype=np.uint8)
    for c in range(2**m):
        sl = tuple(slice((c >> a) & 1, ((c >> a) & 1) + n) for a, n in enumerate(cells))
        want_ok &= mask[sl]
        want_case |= pos[sl].astype(np.uint8) << np.uint8(c)
    case, ok = nodal._cell_cases(pos), nodal._scanned_cells(mask)
    assert case.dtype == np.uint8 and ok.dtype == bool
    assert case.tobytes() == want_case.tobytes() and case.shape == cells
    assert ok.tobytes() == want_ok.tobytes() and ok.shape == cells


@pytest.mark.parametrize("m, W, h", [(2, 2.0, 0.1), (3, 0.9, 0.1), (2, None, 0.1)])
def test_covered_volume_matches_per_cell_loop(m, W, h):
    if W is None:  # a box grid without a ball mask
        vals = sample_uniform(2, 64, 3).on_grid(np.zeros(2), (17, 23), h)
        g = ScalarGrid(origin=np.zeros(2), spacing=h, shape=(17, 23), values=vals)
    else:
        g = sample_on_grid(sample_uniform(m, 64, 5 + m), np.full(m, 0.2), W, h)
    mask = g.mask()
    covered = sum(
        all(mask[tuple(x + ((c >> a) & 1) for a, x in enumerate(cell))] for c in range(2**m))
        for cell in np.ndindex(*(n - 1 for n in g.shape))
    )
    assert covered > 0
    assert nodal_volume(g).covered_volume == covered * h**m


def test_square_table_is_the_cube_table_on_a_face():
    # an extruded case (top corners repeat the bottom ones) crosses no vertical
    # edge, so its triangles' bottom-face edges are exactly the square segments
    local = {}
    for k in range(4):  # square local edge k joins cyclic corners k and k+1
        a, b = mct.SQUARE_CYCLE[k], mct.SQUARE_CYCLE[(k + 1) % 4]
        local[mct.EDGE_INDEX[(min(a, b), max(a, b))]] = k
    for case in range(16):
        tris = mct.CUBE_CASES[case | case << 4]
        on_face = {
            frozenset((local[e1], local[e2]))
            for t in tris
            for e1, e2 in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2]))
            if e1 in local and e2 in local
        }
        assert on_face == {frozenset(seg) for seg in mct.SQUARE_CASES[case]}, case
