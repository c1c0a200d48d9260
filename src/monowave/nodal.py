"""Nodal decompositions of sampled fields.

Sign components are the connected components of orthogonally adjacent
same-sign vertices, found over run-length encoded rows by array hooking and
pointer jumping (_connected). The zero set is extracted per cell from the
sign-case tables, measured by linear interpolation, and split into connected
pieces by a second _connected pass over crossing grid edges. Downstream:
nesting trees over components and topology classes (circles in 2D, genus in
3D) for the zero pieces.
"""

from __future__ import annotations

import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import _mc_tables as mct
from .grid import ScalarGrid

TIE_EPS = 1e-13  # |value| below this is treated as +TIE_EPS everywhere


class DegenerateSampleError(RuntimeError):
    """The grid resolution failed to resolve the sample's nodal topology."""


# ---------------------------------------------------------------------------
# connected components over explicit pair lists


def _connected(n: int, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Root array after uniting all (pa[i], pb[i]); each root is its component's minimum.

    Array form of hooking and pointer jumping (Shiloach & Vishkin 1982): every
    pair whose roots differ hooks the larger root under the smallest root it
    meets (np.minimum.at), then pointer jumping flattens the forest, and pairs
    already joined drop out. Parents never exceed their index, so each root is
    the minimum index of its tree, as with the sequential union-find.
    """
    p = np.arange(n, dtype=np.intp)
    pa = np.asarray(pa, dtype=np.intp)
    pb = np.asarray(pb, dtype=np.intp)
    while True:
        ra, rb = p[pa], p[pb]
        split = ra != rb
        if not split.any():
            return p
        pa, pb, ra, rb = pa[split], pb[split], ra[split], rb[split]
        np.minimum.at(p, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            q = p[p]
            if np.array_equal(q, p):
                break
            p = q


# ---------------------------------------------------------------------------
# sign-component labeling


@dataclass
class ComponentRecord:
    id: int
    sign: int  # +1 or -1
    size: int  # vertex count
    touches_boundary: bool


@dataclass
class NodalDecomposition:
    grid: ScalarGrid
    labels: np.ndarray  # flat, -1 outside the mask
    components: list[ComponentRecord]
    interior_count: int
    boundary_count: int
    _zero: "_ZeroSet | None" = field(default=None, repr=False)

    @property
    def total_components(self) -> int:
        return len(self.components)

    @property
    def adjacency(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Opposite-sign component pairs -> ids of the zero pieces between them."""
        return self._ensure_zero().adjacency

    def _ensure_zero(self) -> "_ZeroSet":
        if self._zero is None:
            self._zero = _extract_zero_set(self.grid, self.labels)
        return self._zero


def _clamped(grid: ScalarGrid) -> np.ndarray:
    v = grid.grid_values()
    return np.where(np.abs(v) < TIE_EPS, TIE_EPS, v)


def _shell(grid: ScalarGrid, band: float = 1.0) -> np.ndarray:
    """Outermost in-domain layer: near the mask sphere, or the box faces.

    band scales the sphere-side width in units of the spacing. Component
    boundary detection uses 1; zero pieces use 2, because a crossing edge
    whose companion cell has an out-of-mask corner (so its curve end dangles)
    can sit up to sqrt(m) * h inside the sphere.
    """
    if grid.ball_radius is not None:
        return grid.mask() & ~grid.within(grid.ball_radius - band * grid.spacing)
    sh = np.zeros(grid.shape, dtype=bool)
    for a in range(grid.dim):
        sl: list = [slice(None)] * grid.dim
        sl[a] = 0
        sh[tuple(sl)] = True
        sl[a] = -1
        sh[tuple(sl)] = True
    return sh


def label_domains(grid: ScalarGrid) -> NodalDecomposition:
    """Components of orthogonally adjacent same-sign in-mask vertices.

    The grid caches the result by weak reference: it is reused while a caller
    holds it, and grid and decomposition form no reference cycle.
    """
    ref = grid.__dict__.get("_nodal_dec")
    cached = ref() if ref is not None else None
    if cached is not None:
        return cached

    mask = grid.mask()
    if not mask.any():
        raise ValueError("mask selects no vertices")
    pos = grid.grid_values() > -TIE_EPS  # == _clamped(grid) > 0, without the copy
    shape = grid.shape
    L = shape[-1]

    key = np.where(mask, pos.astype(np.int8), np.int8(-1)).reshape(-1)
    change = np.empty(key.size, dtype=bool)
    change[0] = True
    np.not_equal(key[1:], key[:-1], out=change[1:])
    change[::L] = True  # runs never span line boundaries
    rs_flat = np.flatnonzero(change)
    rkey = key[rs_flat]
    re_flat = np.append(rs_flat[1:], key.size)
    inmask = rkey >= 0
    rs_flat, re_flat, rkey = rs_flat[inmask], re_flat[inmask], rkey[inmask]
    run_line = rs_flat // L
    run_s = rs_flat - run_line * L
    run_e = re_flat - run_line * L
    R = len(rs_flat)

    # overlapping same-sign runs on neighboring lines, via composite keys
    comp_s = rs_flat  # == run_line * L + run_s, globally sorted
    comp_e = re_flat
    pa_parts, pb_parts = [], []
    line_shape = shape[:-1]
    neighbor_steps = []
    if grid.dim == 2:
        neighbor_steps.append((1, run_line + 1 < line_shape[0]))
    elif grid.dim == 3:
        li = run_line // line_shape[1]
        lj = run_line - li * line_shape[1]
        neighbor_steps.append((line_shape[1], li + 1 < line_shape[0]))
        neighbor_steps.append((1, lj + 1 < line_shape[1]))
    for d, valid in neighbor_steps:
        tgt = (run_line + d) * L
        lo = np.searchsorted(comp_e, tgt + run_s, side="right")
        hi = np.searchsorted(comp_s, tgt + run_e, side="left")
        lo = np.where(valid, lo, 0)
        hi = np.maximum(np.where(valid, hi, 0), lo)
        counts = hi - lo
        tot = int(counts.sum())
        if tot == 0:
            continue
        src = np.repeat(np.arange(R), counts)
        dst = np.repeat(lo, counts) + (np.arange(tot) - np.repeat(np.cumsum(counts) - counts, counts))
        ok = rkey[src] == rkey[dst]
        pa_parts.append(src[ok])
        pb_parts.append(dst[ok])
    if pa_parts:
        root = _connected(R, np.concatenate(pa_parts), np.concatenate(pb_parts))
    else:
        root = np.arange(R, dtype=np.intp)

    uniq_roots, comp_of_run = np.unique(root, return_inverse=True)
    ncomp = len(uniq_roots)
    lengths = run_e - run_s
    sizes = np.bincount(comp_of_run, weights=lengths, minlength=ncomp).astype(np.int64)
    signs = np.zeros(ncomp, dtype=np.int8)
    signs[comp_of_run] = np.where(rkey > 0, 1, -1)

    # the shell lies in the mask, so no shell vertex sits between one run's
    # end and the next run's start
    run_shell = np.logical_or.reduceat(_shell(grid).reshape(-1), rs_flat)
    touches = np.zeros(ncomp, dtype=bool)
    np.logical_or.at(touches, comp_of_run, run_shell)

    total = int(lengths.sum())
    flat_idx = np.repeat(rs_flat, lengths) + (np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths))
    labels = np.full(key.size, -1, dtype=np.intp)
    labels[flat_idx] = np.repeat(comp_of_run, lengths)

    comps = [
        ComponentRecord(
            id=i,
            sign=int(signs[i]),
            size=int(sizes[i]),
            touches_boundary=bool(touches[i]),
        )
        for i in range(ncomp)
    ]
    dec = NodalDecomposition(
        grid=grid,
        labels=labels,
        components=comps,
        interior_count=int(np.sum(~touches)),
        boundary_count=int(np.sum(touches)),
    )
    grid.__dict__["_nodal_dec"] = weakref.ref(dec)
    return dec


# ---------------------------------------------------------------------------
# zero-set extraction


@dataclass
class _ZeroSet:
    dim: int
    edge_ids: np.ndarray  # unique crossing grid edges, sorted
    edge_points: np.ndarray  # (U, m) interpolated zero crossings
    edge_piece: np.ndarray  # (U,) piece index
    npieces: int
    piece_measure: np.ndarray
    piece_boundary: np.ndarray
    piece_neighbors: tuple[frozenset, ...]
    adjacency: dict[tuple[int, int], tuple[int, ...]]
    elements: np.ndarray  # (S,2) or (T,3) indices into the unique edges
    element_piece: np.ndarray
    element_measure: np.ndarray


def _edge_blocks(shape) -> list[tuple[int, tuple[int, ...]]]:
    """Grid-edge numbering: (first id, block shape) per axis.

    The edges along axis a are numbered row-major over the vertex shape with
    one fewer along a, after the edges along the lower axes.
    """
    blocks, first = [], 0
    for a in range(len(shape)):
        bshape = tuple(n - (d == a) for d, n in enumerate(shape))
        blocks.append((first, bshape))
        first += int(np.prod(bshape))
    return blocks


def _row_major_strides(shape) -> list[int]:
    return [int(np.prod(shape[d + 1 :])) for d in range(len(shape))]


def _edge_endpoints(gids: np.ndarray, shape) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the lower and upper vertex of each grid edge."""
    u = np.empty(len(gids), dtype=np.int64)
    v = np.empty(len(gids), dtype=np.int64)
    for step, (first, bshape) in zip(_row_major_strides(shape), _edge_blocks(shape)):
        sel = (gids >= first) & (gids < first + int(np.prod(bshape)))
        u[sel] = np.ravel_multi_index(np.unravel_index(gids[sel] - first, bshape), shape)
        v[sel] = u[sel] + step
    return u, v


def _crossing_elements(grid: ScalarGrid, v: np.ndarray) -> np.ndarray:
    """Grid-edge ids of the zero-set elements: (S, 2) segments in 2D, (T, 3) triangles in 3D.

    Cells with all corners in the mask are grouped by sign case, in case
    order; each case contributes its table's elements in turn, each over the
    case's cells in index order.
    """
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
    for c in range(2**m):  # corner c is offset along axis a by bit a of c
        sl = tuple(slice(o, o + n) for o, n in zip(((c >> a) & 1 for a in range(m)), cells))
        cell_ok &= mask[sl]
        case += pos[sl].astype(np.int16) << c
    work = np.flatnonzero(cell_ok & (case > 0) & (case < 2 ** 2**m - 1))
    case_w = case.reshape(-1)[work]

    # id of the edge along axis a at vertex x: first_a + x . strides_a, so the
    # edge e of a cell is the cell's id for axis(e) plus a fixed shift
    blocks = _edge_blocks(grid.shape)
    strides = np.array([_row_major_strides(bshape) for _, bshape in blocks])
    cell_gid = np.array([f for f, _ in blocks])[:, None] + strides @ np.stack(np.unravel_index(work, cells))
    shift = np.sum(edge_base * strides[edge_axis], axis=1)

    order = np.argsort(case_w, kind="stable")
    cases, starts = np.unique(case_w[order], return_index=True)
    rows = []
    for cs, sel in zip(cases.tolist(), np.split(order, starts[1:])):
        tab = np.asarray(table[cs])  # (elements, m) cell-edge numbers
        gids = cell_gid[:, sel][edge_axis[tab]] + shift[tab][..., None]
        rows.append(gids.transpose(0, 2, 1).reshape(-1, m))
    return np.concatenate(rows) if rows else np.empty((0, m), dtype=np.int64)


def _element_measures(points: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Segment lengths (2D) or triangle areas (3D) from the elements' vertex points."""
    p0 = points[elements[:, 0]]
    if elements.shape[1] == 2:
        return np.linalg.norm(p0 - points[elements[:, 1]], axis=1)
    cross = np.cross(points[elements[:, 1]] - p0, points[elements[:, 2]] - p0)
    return 0.5 * np.linalg.norm(cross, axis=-1)


def _extract_zero_set(grid: ScalarGrid, labels: np.ndarray) -> _ZeroSet:
    if grid.dim not in (2, 3):
        raise ValueError("zero-set extraction supports m in {2, 3} only")
    v = _clamped(grid)
    uniq, inv = np.unique(_crossing_elements(grid, v).reshape(-1), return_inverse=True)
    elements = inv.reshape(-1, grid.dim).astype(np.intp, copy=False)
    U = len(uniq)
    ends_u, ends_v = _edge_endpoints(uniq, grid.shape)

    # crossing point per unique edge, by linear interpolation along it
    vf = v.reshape(-1)
    t = vf[ends_u] / (vf[ends_u] - vf[ends_v])
    base = np.stack(np.unravel_index(ends_u, grid.shape), axis=-1).astype(float)
    step = np.stack(np.unravel_index(ends_v, grid.shape), axis=-1) - base
    edge_points = grid.origin + grid.spacing * (base + t[:, None] * step)
    measure = _element_measures(edge_points, elements)

    # an element's vertices lie in one piece
    pa = np.concatenate([elements[:, 0]] * (grid.dim - 1))
    root = _connected(U, pa, elements[:, 1:].T.reshape(-1))
    piece_roots, edge_piece = np.unique(root, return_inverse=True)
    npieces = len(piece_roots)
    elem_piece = edge_piece[elements[:, 0]] if U else np.empty(0, dtype=np.intp)
    piece_measure = np.bincount(elem_piece, weights=measure, minlength=npieces)

    shell_flat = _shell(grid, band=2.0).reshape(-1)
    edge_shell = shell_flat[ends_u] | shell_flat[ends_v]
    piece_boundary = np.zeros(npieces, dtype=bool)
    np.logical_or.at(piece_boundary, edge_piece, edge_shell)

    # components on either side of each crossing edge, grouped through
    # composite int64 keys (every crossing edge lies in the mask, so labels >= 0)
    lab_u = labels[ends_u]
    lab_v = labels[ends_v]
    ncomp = int(labels.max()) + 1
    piece_lab = np.unique(np.concatenate([edge_piece * ncomp + lab_u, edge_piece * ncomp + lab_v]))
    piece_of, lab_of = np.divmod(piece_lab, ncomp)
    bounds = np.searchsorted(piece_of, np.arange(npieces + 1)).tolist()
    labs = lab_of.tolist()
    piece_neighbors = tuple(frozenset(labs[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    # opposite-sign pairs in order of first crossing edge, pieces sorted
    pair_keys, first, pair_of_edge = np.unique(
        np.minimum(lab_u, lab_v) * ncomp + np.maximum(lab_u, lab_v),
        return_index=True,
        return_inverse=True,
    )
    pair_of, piece_of = np.divmod(np.unique(pair_of_edge * npieces + edge_piece), npieces)
    pieces = piece_of.tolist()
    bounds = np.searchsorted(pair_of, np.arange(len(pair_keys) + 1)).tolist()
    keys = pair_keys.tolist()
    adjacency = {
        divmod(keys[k], ncomp): tuple(pieces[bounds[k] : bounds[k + 1]])
        for k in np.argsort(first).tolist()
    }

    return _ZeroSet(
        dim=grid.dim,
        edge_ids=uniq,
        edge_points=edge_points,
        edge_piece=edge_piece,
        npieces=npieces,
        piece_measure=piece_measure,
        piece_boundary=piece_boundary,
        piece_neighbors=piece_neighbors,
        adjacency=adjacency,
        elements=elements,
        element_piece=elem_piece,
        element_measure=measure,
    )


@dataclass
class NodalGeometry:
    dim: int
    measures: np.ndarray  # one entry per zero piece
    total: float
    covered_volume: float  # volume of the cells actually scanned
    segments: np.ndarray | None  # 2D: (S, 2, m) endpoint coords
    vertices: np.ndarray | None  # 3D: welded mesh vertices (one per crossing edge)
    triangles: np.ndarray | None  # 3D: (T, 3) indices into vertices

    def __post_init__(self):
        if abs(self.total - float(np.sum(self.measures))) > 1e-9:
            raise AssertionError("piece measures do not add up to the total")
        if np.any(self.measures < 0):
            raise AssertionError("negative piece measure")

    @property
    def density(self) -> float:
        """Zero-set measure per unit volume over the scanned region.

        Division by the scanned volume, not by vol B(R): the cell scan stops
        one layer short of the mask sphere, and pretending that band was
        measured biases comparisons at small R.
        """
        return self.total / self.covered_volume


def _covered_volume(grid: ScalarGrid) -> float:
    mask = grid.mask()
    m = grid.dim
    ok = mask[tuple(slice(None, -1) for _ in range(m))].copy()
    for c in range(1, 2**m):
        sl = tuple(
            slice(1, None) if (c >> a) & 1 else slice(None, -1) for a in range(m)
        )
        ok &= mask[sl]
    return float(ok.sum()) * grid.spacing**m


def nodal_volume(grid: ScalarGrid) -> NodalGeometry:
    """Total zero-set length (2D) or area (3D), split by connected piece."""
    dec = label_domains(grid)
    z = dec._ensure_zero()
    if grid.dim == 2:
        segments = z.edge_points[z.elements]
        vertices = triangles = None
    else:
        segments = None
        vertices, triangles = z.edge_points, z.elements
    return NodalGeometry(
        dim=grid.dim,
        measures=z.piece_measure.copy(),
        total=float(np.sum(z.piece_measure)),
        covered_volume=_covered_volume(grid),
        segments=segments,
        vertices=vertices,
        triangles=triangles,
    )


# ---------------------------------------------------------------------------
# nesting tree


@dataclass
class NestingTree:
    root: int  # -1 for the virtual super-root
    parent: dict[int, int]
    children: dict[int, tuple[int, ...]]
    codes: dict[int, str]
    code: str
    edge_piece: dict[int, int | None]  # component -> piece toward its parent


def build_nesting_tree(dec: NodalDecomposition) -> NestingTree:
    """Rooted nesting structure of the sign components.

    Contacts between two boundary-touching components are routed through the
    super-root rather than kept as tree edges; a genuine cycle or a piece
    bordering three components means the grid failed to separate domains.
    """
    z = dec._ensure_zero()
    touches = [c.touches_boundary for c in dec.components]
    ncomp = len(dec.components)

    # Pieces cut by the window rim may graze any number of rim slivers; only a
    # piece living strictly inside must separate exactly two components.
    for p in range(z.npieces):
        if not z.piece_boundary[p] and len(z.piece_neighbors[p]) != 2:
            raise DegenerateSampleError(
                "an interior zero piece does not separate exactly two components"
            )
    edges: dict[tuple[int, int], int] = {}
    for (a, b), pieces in z.adjacency.items():
        if touches[a] and touches[b]:
            continue  # lateral contact along the window rim
        if len(pieces) > 1:
            raise DegenerateSampleError("two components share two separating pieces")
        edges[(a, b)] = pieces[0]

    boundary_comps = [i for i in range(ncomp) if touches[i]]
    if len(boundary_comps) == 1:
        root = boundary_comps[0]
        virtual_links: list[int] = []
    elif len(boundary_comps) == 0:
        raise DegenerateSampleError("no component reaches the window boundary")
    else:
        root = -1
        virtual_links = boundary_comps

    graph: dict[int, list[int]] = defaultdict(list)
    for (a, b) in edges:
        graph[a].append(b)
        graph[b].append(a)
    for b in virtual_links:
        graph[root].append(b)
        graph[b].append(root)

    nnodes = ncomp + (1 if root == -1 else 0)
    nedges = len(edges) + len(virtual_links)
    parent: dict[int, int] = {}
    order = [root]
    seen = {root}
    for node in order:
        for nb in graph[node]:
            if nb not in seen:
                seen.add(nb)
                parent[nb] = node
                order.append(nb)
    if len(seen) != nnodes or nedges != nnodes - 1:
        raise DegenerateSampleError("component adjacency is not a tree")

    children: dict[int, list[int]] = defaultdict(list)
    for c, p in parent.items():
        children[p].append(c)
    codes: dict[int, str] = {}
    for node in reversed(order):  # children precede parents
        codes[node] = "(" + "".join(sorted(codes[c] for c in children[node])) + ")"

    edge_piece: dict[int, int | None] = {}
    for c, p in parent.items():
        key = (c, p) if c < p else (p, c)
        edge_piece[c] = edges.get(key)
    return NestingTree(
        root=root,
        parent=parent,
        children={k: tuple(sorted(v)) for k, v in children.items()},
        codes=codes,
        code=codes[root],
        edge_piece=edge_piece,
    )


# ---------------------------------------------------------------------------
# topology classes of interior zero pieces


@dataclass
class TopologySummary:
    tags: dict[int, str]  # interior piece id -> class tag
    histogram: Counter


def _piece_tag(z: _ZeroSet, p: int) -> str:
    if z.dim == 2:
        member = np.flatnonzero(z.element_piece == p)
        deg = np.bincount(z.elements[member].reshape(-1), minlength=len(z.edge_ids))
        used = np.unique(z.elements[member])
        if not np.all(deg[used] == 2):
            raise DegenerateSampleError("an interior zero curve is not closed")
        return "circle"
    member = np.flatnonzero(z.element_piece == p)
    tris = z.elements[member]
    verts = np.unique(tris)
    pairs = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [0, 2]]])
    pairs = np.sort(pairs, axis=1)
    uniq_edges, counts = np.unique(pairs, axis=0, return_counts=True)
    if not np.all(counts == 2):
        raise DegenerateSampleError("an interior zero surface is not a closed 2-manifold")
    chi = len(verts) - len(uniq_edges) + len(tris)
    if chi % 2 or chi > 2:
        raise DegenerateSampleError("mesh Euler characteristic is not that of a closed surface")
    return f"genus{(2 - chi) // 2}"


def classify_topology(dec: NodalDecomposition) -> TopologySummary:
    """Class tags ("circle" / "genusG") for interior zero pieces, and their histogram."""
    z = dec._ensure_zero()
    tags = {
        p: _piece_tag(z, p) for p in range(z.npieces) if not z.piece_boundary[p]
    }
    return TopologySummary(tags=tags, histogram=Counter(tags.values()))


def export_components_csv(dec: NodalDecomposition, path: str) -> None:
    """One row per sign component; measure/class describe its outer boundary piece."""
    import csv

    z = dec._ensure_zero()
    try:
        tree: NestingTree | None = build_nesting_tree(dec)
    except DegenerateSampleError:
        tree = None
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "sign", "size", "boundary", "measure", "class"])
        for c in dec.components:
            measure = ""
            tag = ""
            if tree is not None:
                p = tree.edge_piece.get(c.id)
                if p is not None:
                    measure = repr(float(z.piece_measure[p]))
                    if not z.piece_boundary[p]:
                        tag = _piece_tag(z, p)
            w.writerow([c.id, "+" if c.sign > 0 else "-", c.size, int(c.touches_boundary), measure, tag])
