"""Nodal decompositions of sampled fields.

Sign components are the connected components of orthogonally adjacent
same-sign vertices, found over run-length encoded rows by array hooking and
pointer jumping (_connected). The zero set is extracted per cell from the
sign-case tables. Its crossing grid edges are ranked per axis block, from a
bool mark over the block's edges and an int32 rank table, so no sort runs
over the element edge ids. The crossings are measured by linear
interpolation and split into connected pieces by a second _connected pass
over the crossing edges. Downstream: nesting trees over components and
topology classes (circles in 2D, genus in 3D) for the zero pieces.
"""

from __future__ import annotations

import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import _mc_tables as mct
from .grid import ScalarGrid, _squared_bound

TIE_EPS = 1e-13  # |value| below this is treated as +TIE_EPS everywhere


class DegenerateSampleError(RuntimeError):
    """The grid resolution failed to resolve the sample's nodal topology.

    reason is a short code for the check that failed: "probe_failed" and
    "too_many_excluded" (stats), "vanished_supremum" (growth), and from here
    "piece_not_two_sided", "shared_pieces", "no_boundary_component",
    "not_a_tree", "open_curve", "non_manifold" and "bad_euler". The message
    says the same in words.
    """

    def __init__(self, message: str, reason: str | None = None):
        super().__init__(message)
        self.reason = reason


# ---------------------------------------------------------------------------
# connected components over explicit pair lists


def _connected(n: int, pa: np.ndarray, pb: np.ndarray) -> tuple[np.ndarray, int]:
    """Component id of each of n vertices after uniting all (pa[i], pb[i]), and the count.

    Array form of hooking and pointer jumping (Shiloach & Vishkin 1982): every
    pair whose roots differ hooks the larger root under the smallest root it
    meets (np.minimum.at), then pointer jumping flattens the forest, and pairs
    already joined drop out. Parents never exceed their index, so each root is
    the minimum index of its tree, as with the sequential union-find. Ids are
    0..C-1 in the order of the components' minima: a root's id is the number
    of roots below it.
    """
    p = np.arange(n, dtype=np.intp)
    pa = ra = np.asarray(pa, dtype=np.intp)  # every vertex starts as its own root
    pb = rb = np.asarray(pb, dtype=np.intp)
    while True:
        live = np.flatnonzero(ra != rb)
        if not live.size:
            is_root = p == np.arange(n)
            return np.cumsum(is_root)[p] - 1, int(is_root.sum())
        if live.size < pa.size:
            pa, pb, ra, rb = pa[live], pb[live], ra[live], rb[live]
        np.minimum.at(p, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            q = p[p]
            if np.array_equal(q, p):
                break
            p = q
        ra, rb = p[pa], p[pb]


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


def _shell_at(grid: ScalarGrid, vertices: np.ndarray, band: float) -> np.ndarray:
    """The shell of width band spacings at the given in-mask flat vertex indices.

    The shell of a ball grid is its in-mask vertices farther than
    radius - band * spacing from the centre: the sphere-side test adds the
    same squares in axis order as ScalarGrid.within, so band = 1 is
    mask & ~within(radius - spacing), to the bit. A box grid's shell is its
    faces. Component boundary detection uses band 1, at run ends; zero
    pieces use 2, because a crossing edge whose companion cell has an
    out-of-mask corner (so its curve end dangles) can sit up to sqrt(m) * h
    inside the sphere. No grid-sized array is built.
    """
    idx = np.unravel_index(vertices, grid.shape)
    if grid.ball_radius is None:
        return np.logical_or.reduce([(i == 0) | (i == n - 1) for i, n in zip(idx, grid.shape)])
    sq = 0.0
    for a in range(grid.dim):
        d = grid.axis_coords(a)[idx[a]] - grid.ball_center[a]
        sq = sq + d**2
    return sq > _squared_bound(grid.ball_radius - band * grid.spacing)


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
    pos = grid.grid_values() > -TIE_EPS  # == (value clamped to TIE_EPS) > 0
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
    pa_parts, pb_parts = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
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
    comp_of_run, ncomp = _connected(R, np.concatenate(pa_parts), np.concatenate(pb_parts))
    lengths = run_e - run_s
    sizes = np.bincount(comp_of_run, weights=lengths, minlength=ncomp).astype(np.int64)
    signs = np.zeros(ncomp, dtype=np.int8)
    signs[comp_of_run] = np.where(rkey > 0, 1, -1)

    # a run touches the shell exactly when one of its ends does: along a grid
    # line the in-mask vertices and those within radius - spacing are nested
    # intervals (the squared distance adds the line's axis last, and its term
    # is quasi-convex in the index), and on a box grid a run meets the faces
    # of its own axis only at its ends
    run_shell = _shell_at(grid, rs_flat, band=1.0) | _shell_at(grid, re_flat - 1, band=1.0)
    touches = np.zeros(ncomp, dtype=bool)
    np.logical_or.at(touches, comp_of_run, run_shell)

    # the in-mask runs tile the in-mask vertices in flat order
    labels = np.full(key.size, -1, dtype=np.intp)
    labels[mask.reshape(-1)] = np.repeat(comp_of_run, lengths)

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
    covered_cells: int  # cells with every corner in the mask: the ones scanned
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


def _cell_cases(pos: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per cell: the sign case and whether every corner is in the mask.

    Bit c of the case is set when corner c is positive, and corner c is
    offset along axis a by bit a of c. The corners are gathered one axis at
    a time: each pass joins the lower and upper faces of every cell along
    that axis, so bit c moves up by 2^a for the upper face.
    """
    case, ok = pos.view(np.uint8), mask
    for a in reversed(range(pos.ndim)):
        lo = (slice(None),) * a + (slice(None, -1),)
        hi = (slice(None),) * a + (slice(1, None),)
        case = case[lo] | case[hi] << np.uint8(1 << a)
        ok = ok[lo] & ok[hi]
    return case, ok


def _crossing_elements(grid: ScalarGrid, pos: np.ndarray) -> tuple[np.ndarray, int]:
    """Grid-edge ids of the zero-set elements, and the number of cells scanned.

    pos holds the vertex signs (True for positive). The elements are (S, 2)
    segments in 2D, (T, 3) triangles in 3D. Only cells with all corners in
    the mask are scanned; they are grouped by sign case, in case order, and
    each case contributes its table's elements in turn, each over the case's
    cells in index order.
    """
    m = grid.dim
    if m == 2:
        table, edge_axis, edge_base = mct.SQUARE_CASES, mct.SQ_EDGE_AXIS, mct.SQ_EDGE_BASE
    else:
        table, edge_axis, edge_base = mct.CUBE_CASES, mct.EDGE_AXIS, mct.EDGE_BASE
    case, cell_ok = _cell_cases(pos, grid.mask())
    covered = int(np.count_nonzero(cell_ok))
    full = 2 ** 2**m - 1
    work = np.flatnonzero(cell_ok & (case > 0) & (case < full))
    case_w = case.reshape(-1)[work]

    # id of the edge along axis a at vertex x: first_a + x . strides_a, so the
    # edge e of a cell is the cell's id for axis(e) plus a fixed shift
    blocks = _edge_blocks(grid.shape)
    strides = np.array([_row_major_strides(bshape) for _, bshape in blocks])
    cell_index = np.stack(np.unravel_index(work, case.shape))
    cell_gid = np.array([f for f, _ in blocks])[:, None] + strides @ cell_index
    shift = np.sum(edge_base * strides[edge_axis], axis=1)

    order = np.argsort(case_w, kind="stable")
    rows, start = [], 0
    for cs, count in enumerate(np.bincount(case_w, minlength=full + 1).tolist()):
        if not count:
            continue
        sel = order[start : start + count]
        start += count
        tab = np.asarray(table[cs])  # (elements, m) cell-edge numbers
        gids = cell_gid[:, sel][edge_axis[tab]] + shift[tab][..., None]
        rows.append(gids.transpose(0, 2, 1).reshape(-1, m))
    return (np.concatenate(rows) if rows else np.empty((0, m), dtype=np.int64)), covered


def _element_measures(points: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Segment lengths (2D) or triangle areas (3D) from the elements' vertex points.

    Written out over contiguous coordinate columns; the sums of squares run
    in the order of np.linalg.norm over the last axis, so the values are the
    norm's to the bit.
    """
    cols = np.ascontiguousarray(points.T)
    corner = [np.ascontiguousarray(e) for e in elements.T]
    if len(corner) == 2:
        d0, d1 = (c[corner[0]] - c[corner[1]] for c in cols)
        return np.sqrt(d0 * d0 + d1 * d1)
    u0, u1, u2 = (c[corner[1]] - c[corner[0]] for c in cols)
    w0, w1, w2 = (c[corner[2]] - c[corner[0]] for c in cols)
    c0 = u1 * w2 - u2 * w1
    c1 = u2 * w0 - u0 * w2
    c2 = u0 * w1 - u1 * w0
    return 0.5 * np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)


def _extract_zero_set(grid: ScalarGrid, labels: np.ndarray) -> _ZeroSet:
    if grid.dim not in (2, 3):
        raise ValueError("zero-set extraction supports m in {2, 3} only")
    elements, covered_cells = _crossing_elements(grid, grid.grid_values() > -TIE_EPS)

    # Rank the crossing grid edges one axis block at a time, in _edge_blocks
    # order: mark the block's element edge ids in a bool array, read them
    # back sorted and unique, and map each id to its rank through an int32
    # table over the block. No sort, and no table over all grid edges.
    gids = elements.reshape(-1)
    rank = np.empty(gids.size, dtype=np.intp)
    strides = _row_major_strides(grid.shape)
    edge_parts, lower_parts, upper_parts, point_parts = [], [], [], []
    U = 0
    for a, (first, bshape) in enumerate(_edge_blocks(grid.shape)):
        n = int(np.prod(bshape))
        in_block = np.flatnonzero((gids >= first) & (gids < first + n))
        local = gids[in_block] - first
        hit = np.zeros(n, dtype=bool)
        hit[local] = True
        crossing = np.flatnonzero(hit)
        del hit
        table = np.empty(n, dtype=np.int32)
        table[crossing] = np.arange(U, U + len(crossing), dtype=np.int32)
        rank[in_block] = table[local]
        del table, local, in_block
        U += len(crossing)

        # the edge's lower vertex has the edge's block coordinates; the crossing
        # point interpolates linearly along axis a, on values clamped to TIE_EPS
        coords = np.unravel_index(crossing, bshape)
        lower = np.ravel_multi_index(coords, grid.shape)
        upper = lower + strides[a]
        vu, vv = (np.where(np.abs(x) < TIE_EPS, TIE_EPS, x) for x in (grid.values[lower], grid.values[upper]))
        points = np.stack(coords, axis=-1).astype(float)
        points[:, a] += vu / (vu - vv)
        edge_parts.append(crossing + first)
        lower_parts.append(lower)
        upper_parts.append(upper)
        point_parts.append(points)
    elements = rank.reshape(elements.shape)
    edge_ids = np.concatenate(edge_parts)
    ends_u = np.concatenate(lower_parts)
    ends_v = np.concatenate(upper_parts)
    edge_points = grid.origin + grid.spacing * np.concatenate(point_parts)
    measure = _element_measures(edge_points, elements)

    # an element's vertices lie in one piece
    pa = np.concatenate([elements[:, 0]] * (grid.dim - 1))
    edge_piece, npieces = _connected(U, pa, elements[:, 1:].T.reshape(-1))
    elem_piece = edge_piece[elements[:, 0]] if U else np.empty(0, dtype=np.intp)
    piece_measure = np.bincount(elem_piece, weights=measure, minlength=npieces)

    # every crossing edge lies in the mask; the band is read at its endpoints
    edge_shell = _shell_at(grid, ends_u, band=2.0) | _shell_at(grid, ends_v, band=2.0)
    piece_boundary = np.zeros(npieces, dtype=bool)
    np.logical_or.at(piece_boundary, edge_piece, edge_shell)

    # components on either side of each crossing edge, grouped through
    # composite int64 keys (every crossing edge lies in the mask, so labels >= 0)
    lab_u = labels[ends_u]
    lab_v = labels[ends_v]
    ncomp = int(labels.max()) + 1

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

    # each piece's neighbors are the two sides of its (pair, piece) combinations
    lab_a, lab_b = np.divmod(pair_keys[pair_of], ncomp)
    piece_lab = np.unique(np.concatenate([piece_of * ncomp + lab_a, piece_of * ncomp + lab_b]))
    piece_of, lab_of = np.divmod(piece_lab, ncomp)
    bounds = np.searchsorted(piece_of, np.arange(npieces + 1)).tolist()
    labs = lab_of.tolist()
    piece_neighbors = tuple(frozenset(labs[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    return _ZeroSet(
        dim=grid.dim,
        edge_ids=edge_ids,
        edge_points=edge_points,
        edge_piece=edge_piece,
        npieces=npieces,
        covered_cells=covered_cells,
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
        covered_volume=z.covered_cells * grid.spacing**grid.dim,
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
                "an interior zero piece does not separate exactly two components",
                "piece_not_two_sided",
            )
    edges: dict[tuple[int, int], int] = {}
    for (a, b), pieces in z.adjacency.items():
        if touches[a] and touches[b]:
            continue  # lateral contact along the window rim
        if len(pieces) > 1:
            raise DegenerateSampleError("two components share two separating pieces",
                                        "shared_pieces")
        edges[(a, b)] = pieces[0]

    boundary_comps = [i for i in range(ncomp) if touches[i]]
    if len(boundary_comps) == 1:
        root = boundary_comps[0]
        virtual_links: list[int] = []
    elif len(boundary_comps) == 0:
        raise DegenerateSampleError("no component reaches the window boundary",
                                    "no_boundary_component")
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
        raise DegenerateSampleError("component adjacency is not a tree", "not_a_tree")

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
        codes=codes,
        code=codes[root],
        edge_piece=edge_piece,
    )


# ---------------------------------------------------------------------------
# topology classes of interior zero pieces


def _piece_tagger(z: _ZeroSet):
    """Tag function for the interior pieces of z: "circle" (2D) or "genusG" (3D).

    The tag of a piece that is not a closed curve or a closed surface is a
    DegenerateSampleError. Each element is read once for all pieces. In 2D an
    edge lies in exactly one piece, so one global degree count finds the
    open curves. In 3D the element rows of the interior pieces are grouped by
    piece with one stable argsort.
    """
    if z.dim == 2:
        closed = np.bincount(z.elements.reshape(-1), minlength=len(z.edge_ids)) == 2
        open_elements = np.bincount(z.element_piece, weights=~np.all(closed[z.elements], axis=1))

        def tag(p: int) -> str:
            if open_elements[p]:
                raise DegenerateSampleError("an interior zero curve is not closed", "open_curve")
            return "circle"

        return tag

    rows = np.flatnonzero(~z.piece_boundary[z.element_piece])
    rows = rows[np.argsort(z.element_piece[rows], kind="stable")]
    bounds = np.searchsorted(z.element_piece[rows], np.arange(len(z.piece_boundary) + 1))

    def tag(p: int) -> str:
        tris = z.elements[rows[bounds[p] : bounds[p + 1]]]
        verts = np.unique(tris)
        pairs = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [0, 2]]])
        pairs = np.sort(pairs, axis=1)
        uniq_edges, counts = np.unique(pairs, axis=0, return_counts=True)
        if not np.all(counts == 2):
            raise DegenerateSampleError("an interior zero surface is not a closed 2-manifold",
                                        "non_manifold")
        chi = len(verts) - len(uniq_edges) + len(tris)
        if chi % 2 or chi > 2:
            raise DegenerateSampleError("mesh Euler characteristic is not that of a closed surface",
                                        "bad_euler")
        return f"genus{(2 - chi) // 2}"

    return tag


def classify_topology(dec: NodalDecomposition) -> Counter:
    """Histogram of the class tags ("circle" / "genusG") of the interior zero pieces.

    A piece that is not closed raises DegenerateSampleError; the first such
    piece in piece order gives the reason.
    """
    z = dec._ensure_zero()
    interior = np.flatnonzero(~z.piece_boundary).tolist()
    if not interior:
        return Counter()
    tag = _piece_tagger(z)
    return Counter(tag(p) for p in interior)


def export_components_csv(dec: NodalDecomposition, path: str) -> None:
    """One row per sign component; measure/class describe its outer boundary piece."""
    import csv

    z = dec._ensure_zero()
    try:
        tree: NestingTree | None = build_nesting_tree(dec)
    except DegenerateSampleError:
        tree = None
    tag_of = _piece_tagger(z)
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
                        tag = tag_of(p)
            w.writerow([c.id, "+" if c.sign > 0 else "-", c.size, int(c.touches_boundary), measure, tag])
