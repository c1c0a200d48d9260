import gc
import math
import weakref
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from monowave import _mc_tables as mct
from monowave import nodal
from monowave.cli import bessel_zero_table
from monowave.field import bessel_j
from monowave.gaussian import sample_uniform
from monowave.grid import ScalarGrid, sample_on_grid
from monowave.nodal import (
    DegenerateSampleError,
    build_nesting_tree,
    classify_topology,
    export_components_csv,
    label_domains,
    nodal_volume,
)


def flood_fill_labels(grid: ScalarGrid) -> np.ndarray:
    """Reference labeling: BFS over orthogonal same-sign in-mask neighbors.

    Mirrors the tie rule: values within 1e-13 of zero count as positive.
    """
    sign = np.where(np.abs(grid.grid_values()) < 1e-13, 1e-13, grid.grid_values()) > 0
    mask = grid.mask()
    labels = np.full(grid.shape, -1, dtype=int)
    nxt = 0
    for start in zip(*np.nonzero(mask)):
        if labels[start] >= 0:
            continue
        labels[start] = nxt
        q = deque([start])
        while q:
            u = q.popleft()
            for a in range(grid.dim):
                for d in (-1, 1):
                    v = list(u)
                    v[a] += d
                    if not 0 <= v[a] < grid.shape[a]:
                        continue
                    v = tuple(v)
                    if mask[v] and labels[v] < 0 and sign[v] == sign[u]:
                        labels[v] = nxt
                        q.append(v)
        nxt += 1
    return labels


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
            dim=m,
            origin=np.full(m, -radius),
            spacing=0.1,
            shape=(n,) * m,
            values=vals,
            ball_center=np.zeros(m) if trial % 2 else None,
            ball_radius=radius if trial % 2 else None,
        )
        dec = label_domains(g)
        assert same_partition(dec.labels, flood_fill_labels(g))
        assert dec.interior_count + dec.boundary_count == dec.total_components
        # a component touches the boundary exactly when one of its vertices is in the shell
        on_shell = set(dec.labels[nodal._shell(g).reshape(-1)].tolist())
        assert [c.touches_boundary for c in dec.components] == [
            c.id in on_shell for c in dec.components
        ]


@pytest.mark.parametrize("shape", [(5, 14), (3, 4, 6)])
def test_label_signs_follow_the_tie_rule(shape):
    # label_domains reads signs as values > -TIE_EPS, which must equal
    # _clamped(grid) > 0, the signs the zero set is meshed from, for every double
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
        g = ScalarGrid(dim=len(shape), origin=np.zeros(len(shape)), spacing=0.1,
                       shape=shape, values=vals)
        clamped_pos = nodal._clamped(g).reshape(-1) > 0
        assert np.array_equal(g.values > -eps, clamped_pos)
        dec = label_domains(g)
        signs = np.array([c.sign for c in dec.components])[dec.labels]
        assert np.array_equal(signs > 0, clamped_pos)


def test_label_domains_caches_and_is_deterministic(cosine_wave):
    g = sample_on_grid(cosine_wave, np.zeros(2), 4.0, 0.05)
    dec1 = label_domains(g)
    assert label_domains(g) is dec1  # cached on the grid
    g2 = sample_on_grid(cosine_wave, np.zeros(2), 4.0, 0.05)
    assert np.array_equal(label_domains(g2).labels, dec1.labels)


def test_decomposition_cache_leaves_no_cycle(cosine_wave):
    # with the cyclic collector off, only reference counting can free the
    # grid: the cached decomposition must not keep it alive
    gc.disable()
    try:
        g = sample_on_grid(cosine_wave, np.zeros(2), 4.0, 0.05)
        dec = label_domains(g)
        nodal_volume(g)
        assert label_domains(g) is dec
        grid_ref = weakref.ref(g)
        del dec, g
        assert grid_ref() is None
    finally:
        gc.enable()


def test_cosine_fixture_decomposition(cosine_wave):
    # sqrt(2) cos(2 pi x): 16 zero lines cross B(4), so 17 strips, all touching
    # the rim; every neighboring strip pair shares exactly one zero piece
    g = sample_on_grid(cosine_wave, np.zeros(2), 4.0, 0.05)
    dec = label_domains(g)
    assert dec.total_components == 17
    assert dec.interior_count == 0
    assert len(dec.adjacency) == 16
    assert all(len(p) == 1 for p in dec.adjacency.values())
    signs = [c.sign for c in dec.components]
    assert set(signs) == {-1, 1}
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
    g = ScalarGrid(dim=2, origin=np.full(2, lo), spacing=h, shape=(n, n),
                   values=1.0 - (pts**2).sum(axis=1))
    geom = nodal_volume(g)
    assert abs(geom.total - 2 * math.pi) / (2 * math.pi) < 0.005


def test_sphere_area_and_tag():
    h = 0.08
    n = int(round(2.6 / h)) + 1
    lo = -(n - 1) / 2 * h
    axes = [lo + h * np.arange(n)] * 3
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    g = ScalarGrid(dim=3, origin=np.full(3, lo), spacing=h, shape=(n,) * 3,
                   values=1.0 - (pts**2).sum(axis=1))
    geom = nodal_volume(g)
    assert abs(geom.total - 4 * math.pi) / (4 * math.pi) < 0.02
    topo = classify_topology(label_domains(g))
    assert dict(topo.histogram) == {"genus0": 1}


def test_torus_genus():
    h = 0.05
    n = int(round(3.2 / h)) + 1
    lo = -(n - 1) / 2 * h
    axes = [lo + h * np.arange(n)] * 3
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    rho = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    g = ScalarGrid(dim=3, origin=np.full(3, lo), spacing=h, shape=(n,) * 3,
                   values=(rho - 1.0) ** 2 + pts[:, 2] ** 2 - 0.16)
    topo = classify_topology(label_domains(g))
    assert dict(topo.histogram) == {"genus1": 1}


def test_j0_nesting_tree_regression():
    # 6 zero circles fit inside B(3); with the rim annulus that is 7 nested
    # components, and all 6 separating circles recover the Bessel zeros
    g = j0_grid(0.05)
    dec = label_domains(g)
    assert dec.total_components == 7
    tree = build_nesting_tree(dec)
    assert tree.code == "(" * 7 + ")" * 7
    z = dec._ensure_zero()
    radii = sorted(z.piece_measure[p] / (2 * math.pi)
                   for p in tree.edge_piece.values() if p is not None)
    zeros = bessel_zero_table(6)
    assert len(radii) == 6
    for r, zj in zip(radii, zeros):
        assert abs(2 * math.pi * r - zj) < 1e-3


def test_j0_tree_stable_under_refinement():
    coarse = build_nesting_tree(label_domains(j0_grid(0.05)))
    fine = build_nesting_tree(label_domains(j0_grid(0.04)))
    assert coarse.code == fine.code


def test_j0_topology_classes():
    dec = label_domains(j0_grid(0.05))
    assert dict(classify_topology(dec).histogram) == {"circle": 5}
    codes = build_nesting_tree(dec).codes
    # exactly one component wraps just the core disk
    assert sum(1 for c in dec.components if not c.touches_boundary and codes[c.id] == "(())") == 1


def test_unresolved_crossing_raises():
    # a line and a circle crossing off-lattice: four components meet near the
    # crossing points and the tree refuses to guess
    g = sample_on_grid(
        lambda p: (p[:, 0] - 0.017) * ((p**2).sum(axis=1) - 0.2601),
        np.zeros(2),
        1.0,
        0.05,
    )
    dec = label_domains(g)
    with pytest.raises(DegenerateSampleError):
        build_nesting_tree(dec)


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


def check_connected(n: int, pa, pb) -> None:
    pa = np.asarray(pa, dtype=np.intp)
    pb = np.asarray(pb, dtype=np.intp)
    root = nodal._connected(n, pa, pb)
    assert np.array_equal(root, list_dsu(n, pa, pb))
    ncc, cc = connected_components(
        coo_matrix((np.ones(len(pa)), (pa, pb)), shape=(n, n)), directed=False
    )
    smallest = np.full(ncc, n)
    np.minimum.at(smallest, cc, np.arange(n))
    assert np.array_equal(root, smallest[cc])  # same partition, roots are minima


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
    assert not nodal._connected(n, hi, hi - 1).any()
    rng = np.random.default_rng(8)
    check_connected(20_000, rng.integers(0, 20_000, 15_000), rng.integers(0, 20_000, 15_000))


def set_loop_grouping(z, labels, shape):
    """Reference: the former per-edge set loop for piece_neighbors and adjacency."""
    ends = nodal._edge_endpoints(z.edge_ids, shape)
    neigh = [set() for _ in range(z.npieces)]
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
        return g, dec, nodal_volume(g), dec._ensure_zero()

    g, dec, geom, z = decompose()
    with monkeypatch.context() as mp:
        mp.setattr(nodal, "_connected", list_dsu)
        _, ref_dec, ref_geom, ref = decompose()
    assert np.array_equal(dec.labels, ref_dec.labels)
    assert np.array_equal(z.edge_piece, ref.edge_piece)
    assert z.piece_neighbors == ref.piece_neighbors
    assert list(z.adjacency.items()) == list(ref.adjacency.items())
    assert z.piece_measure.tobytes() == ref.piece_measure.tobytes()
    assert geom.measures.tobytes() == ref_geom.measures.tobytes()

    neigh, adjacency = set_loop_grouping(z, dec.labels, g.shape)
    assert z.piece_neighbors == neigh
    assert list(z.adjacency.items()) == adjacency  # first-occurrence key order
    assert list(z.adjacency) != sorted(z.adjacency)  # so the order is tested


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("band", [1.0, 2.0])
def test_shell_matches_radii(m, band):
    rng = np.random.default_rng(m)
    for _ in range(5):
        h = float(rng.uniform(0.05, 0.2))
        g = sample_on_grid(lambda p: p[:, 0], rng.uniform(-1.0, 1.0, m), float(rng.uniform(0.5, 1.5)), h)
        ref = g.mask() & (g.radii() > g.ball_radius - band * g.spacing)
        assert np.array_equal(nodal._shell(g, band), ref)


def per_cell_elements(grid: ScalarGrid):
    """Reference: edge ids and measures of the zero-set elements, cell by cell.

    Rows are ordered by case, then table entry, then cell, like
    _crossing_elements; edge ids follow the axis-block numbering.
    """
    m = grid.dim
    v = np.where(np.abs(grid.grid_values()) < 1e-13, 1e-13, grid.grid_values())
    mask = grid.mask()
    if m == 2:
        table, edge_axis, edge_base = mct.SQUARE_CASES, mct.SQ_EDGE_AXIS, mct.SQ_EDGE_BASE
    else:
        table, edge_axis, edge_base = mct.CUBE_CASES, mct.EDGE_AXIS, mct.EDGE_BASE
    first, shapes = 0, []
    for a in range(m):
        shapes.append((first, tuple(n - (d == a) for d, n in enumerate(grid.shape))))
        first += math.prod(shapes[-1][1])
    rows = []
    for cell in np.ndindex(*(n - 1 for n in grid.shape)):
        corners = [tuple(x + ((c >> a) & 1) for a, x in enumerate(cell)) for c in range(2**m)]
        if not all(mask[x] for x in corners):
            continue
        case = sum(1 << c for c, x in enumerate(corners) if v[x] > 0)
        for k, element in enumerate(table[case] if 0 < case < 2 ** 2**m - 1 else ()):
            ids, pts = [], []
            for e in element:
                ax = int(edge_axis[e])
                lo = tuple(int(x + b) for x, b in zip(cell, edge_base[e]))
                hi = tuple(x + (a == ax) for a, x in enumerate(lo))
                t = v[lo] / (v[lo] - v[hi])
                pts.append([grid.origin[a] + grid.spacing * (x + (t if a == ax else 0.0))
                            for a, x in enumerate(lo)])
                off, bshape = shapes[ax]
                ids.append(off + int(np.ravel_multi_index(lo, bshape)))
            if m == 2:
                measure = math.dist(*pts)
            else:
                u, w = np.subtract(pts[1], pts[0]), np.subtract(pts[2], pts[0])
                measure = 0.5 * math.hypot(*np.cross(u, w))
            rows.append(((case, k), ids, measure))
    rows.sort(key=lambda r: r[0])  # stable: cells stay in index order
    return np.array([r[1] for r in rows]), np.array([r[2] for r in rows])


@pytest.mark.parametrize("m, W, h", [(2, 2.0, 0.1), (3, 0.9, 0.1)])
def test_crossing_elements_match_per_cell_loop(m, W, h):
    g = sample_on_grid(sample_uniform(m, 64, 5 + m), np.full(m, 0.2), W, h)
    z = label_domains(g)._ensure_zero()
    ids, measures = per_cell_elements(g)
    assert len(ids) > 20
    assert np.array_equal(z.edge_ids[z.elements], ids)
    assert np.allclose(z.element_measure, measures, rtol=1e-12, atol=0)
