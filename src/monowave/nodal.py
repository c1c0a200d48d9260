"""Nodal decompositions of sampled fields.

Sign components are found over run-length encoded rows by array hooking and
pointer jumping (_connected), with positive vertices 4-connected (6 in 3D)
and negative ones 8-connected (18 in 3D), the pair the sign-case tables
imply. The same pass pairs the components across opposite-sign grid edges
and takes each component's reach, the largest squared distance to the mask
centre over the 3^m blocks of its vertices, from the ends of its runs. The
decomposition keeps what the pass computes, per component label, as arrays:
sign, size (vertex count) and reach. The rim flag touches_boundary is read
off the reach, as is which components lie inside any smaller ball about
the same centre; nesting trees and the 2D class counts are read from the
decomposition alone. The labels are int32 when the grid has
fewer than 2^31 vertices (intp otherwise), and so are the union-find
parents and pairs below 2^31 entries. The zero set is a function of the
grid alone: extracted per cell from the sign-case tables, it is one
NodalGeometry, built on first use and cached on the grid; nodal_volume
returns it. A grid edge is named by its axis a and the flat index p of its
lower vertex, as a*V + p over the V vertices, so a cell's edges are its
lower corner's index plus fixed shifts. The crossing edges are ranked one
axis at a time, from one bool mark and one int32 rank table over the
vertices that serve every axis, and the ranks are written over the
element edge ids, so no sort runs over them. The crossings are measured by
linear interpolation and split into connected pieces by a second
_connected pass over the crossing edges. A piece's two sides are the
components at the ends of its first crossing edge (_piece_sides): it is
interior when one side is, and the tree edges and 3D genera read
per-piece arrays. The extraction's peak heap is about 2.5 times the value
grid's bytes on a 101^3 ball grid of an m = 3 draw (4.0 on a 61^3 one),
and the labeling's about 1.4 times (1.6 on the 61^3 one).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from . import _mc_tables as mct
from .grid import ScalarGrid, _squared_bound

TIE_EPS = 1e-13  # |value| below this is treated as +TIE_EPS everywhere
_MEASURE_BLOCK = 2**15  # elements per block of _element_measures


class DegenerateSampleError(RuntimeError):
    """The grid resolution failed to resolve the sample's nodal topology.

    reason is a short code for the check that failed: "probe_failed" and
    "too_many_excluded" (stats), "vanished_supremum" (growth), and from here
    "no_boundary_component" and "not_a_tree" (nesting trees) and
    "non_manifold" and "bad_euler" (3D topology classes). The message says
    the same in words.
    """

    def __init__(self, message: str, reason: str | None = None):
        super().__init__(message)
        self.reason = reason


# ---------------------------------------------------------------------------
# connected components over explicit pair lists


def _index_dtype(n: int) -> type:
    """The narrowest of int32 and intp that holds every index below n."""
    return np.int32 if n < 2**31 else np.intp


def _connected(n: int, pa: np.ndarray, pb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component id of each of n vertices after uniting all (pa[i], pb[i]), and the roots.

    Array form of hooking and pointer jumping (Shiloach & Vishkin 1982): every
    pair whose roots differ hooks the larger root under the smallest root it
    meets (np.minimum.at), then pointer jumping flattens the forest, and pairs
    already joined drop out. Parents never exceed their index, so each root is
    the minimum index of its tree, as with the sequential union-find. Ids are
    0..C-1 in the order of the components' minima: a root's id is the number
    of roots below it, and roots[c] is component c's lowest member, so C is
    len(roots). Pairs and parents are held in _index_dtype(n), the parents in
    intp only while pointer jumping; pairs passed in that dtype are not
    copied. The ids and roots are intp.
    """
    idx = _index_dtype(n)
    p = np.arange(n, dtype=idx)
    pa = ra = np.asarray(pa, dtype=idx)  # every vertex starts as its own root
    pb = rb = np.asarray(pb, dtype=idx)
    while True:
        live = ra != rb
        nlive = np.count_nonzero(live)
        if not nlive:
            is_root = p == np.arange(n, dtype=idx)
            return np.cumsum(is_root, dtype=np.intp)[p] - 1, np.flatnonzero(is_root)
        if nlive < pa.size:
            # drop the joined pairs by index, which runs faster than a bool
            # mask, and gather their roots again rather than keep the old ones
            # alive meanwhile
            del ra, rb
            live = np.flatnonzero(live)
            pa, pb = pa[live], pb[live]
            ra, rb = p[pa], p[pb]
        del live
        np.minimum.at(p, np.maximum(ra, rb), np.minimum(ra, rb))
        p = p.astype(np.intp)  # p[p] gathers faster by intp indices
        while True:
            q = p[p]
            if np.array_equal(q, p):
                break
            p = q
        p = p.astype(idx, copy=False)
        ra, rb = p[pa], p[pb]


# ---------------------------------------------------------------------------
# sign-component labeling


@dataclass
class NodalDecomposition:
    """The sign components of a grid: vertex labels, per-component arrays, adjacency.

    sign, size and reach hold one entry per component, indexed by its label.
    A component lies inside B(r), off its rim, for r up to the mask radius
    about the mask centre, exactly when reach <= _squared_bound(r).
    """

    grid: ScalarGrid
    # flat, -1 outside the mask; int32 when the grid has fewer than 2^31
    # vertices, so a key formed from two labels is computed in int64
    labels: np.ndarray
    sign: np.ndarray  # int8, +1 or -1
    size: np.ndarray  # int64 vertex counts
    # float64: the largest κ over the component's vertices (grid.block_squares),
    # +inf when a vertex's 3^m block leaves the grid
    reach: np.ndarray
    # (E, 2) sorted unique component pairs a < b joined by an opposite-sign
    # grid edge between in-mask vertices
    adjacency: np.ndarray

    @property
    def touches_boundary(self) -> np.ndarray:
        """bool per component: the 3^m block of one of its vertices leaves the mask or the grid."""
        r = self.grid.ball_radius
        return self.reach > _squared_bound(r) if r is not None else self.reach == np.inf

    @property
    def total_components(self) -> int:
        return len(self.reach)

    @property
    def interior_count(self) -> int:
        return int(np.count_nonzero(~self.touches_boundary))

    @property
    def boundary_count(self) -> int:
        return int(np.count_nonzero(self.touches_boundary))


def _run_pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) for every run i and every j in lo[i] <= j < hi[i]."""
    counts = np.maximum(hi - lo, 0)
    src = np.repeat(np.arange(len(lo)), counts)
    dst = np.arange(int(counts.sum())) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return src, dst


def label_domains(grid: ScalarGrid) -> NodalDecomposition:
    """Sign components of the in-mask vertices, their reach and adjacency.

    Positive vertices are 4-connected (6 in 3D) and negative ones 8-connected
    (18 in 3D): the consistent pair (Kong & Rosenfeld 1989) that the
    sign-case tables imply, since a saddle face joins its negative corners
    and cuts off its positive ones, and a cube joins nothing across a body
    diagonal. So two components are separated exactly by zero-set pieces. A
    component's reach is the largest κ over its vertices: κ(v), from
    grid.block_squares, is the largest squared distance to the mask centre
    over v's 3^m block, the corners of v's cells. κ is unimodal along a grid
    line, so a run's largest is at one of its ends. The component touches
    the rim of the ball mask, a vertex of one of its cells lying outside the
    grid or the mask so that the zero set does not scan that cell, exactly
    when its reach exceeds the squared radius; on a grid without a mask,
    when its reach is +inf. The adjacency pairs the components on either
    side of each opposite-sign grid edge.
    """
    mask = grid.mask()
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
    del pos, key, change  # the runs hold the signs from here on
    inmask = rkey >= 0
    run_len = re_flat - rs_flat  # of every run, in mask or not
    rs_flat, re_flat, rkey = rs_flat[inmask], re_flat[inmask], rkey[inmask]
    run_line = rs_flat // L
    run_s = rs_flat - run_line * L
    run_e = re_flat - run_line * L
    neg = rkey == 0

    # Runs on neighbouring lines, found through composite keys (rs_flat ==
    # run_line * L + run_s is globally sorted); same-sign candidates join. On
    # lines one step apart along one axis, a positive run's candidates are
    # the runs that overlap it, and a negative run's those that overlap it
    # once widened by one vertex along the line (e' >= s and s' <= e,
    # clamped so that the window stays on the target line): negatives also
    # join where they only meet diagonally. Opposite-sign candidates that
    # overlap share grid edges. On lines one step apart along two axes (3D)
    # overlapping negative runs join.
    line_shape = shape[:-1]
    if grid.dim == 2:
        steps = [(1, run_line + 1 < line_shape[0], True)]
    else:
        li, lj = np.divmod(run_line, line_shape[1])
        down, right = li + 1 < line_shape[0], lj + 1 < line_shape[1]
        steps = [(line_shape[1], down, True), (1, right, True),
                 (line_shape[1] + 1, down & right & neg, False),
                 (line_shape[1] - 1, down & (lj > 0) & neg, False)]
    # consecutive runs that meet within a line have opposite signs
    meet = np.flatnonzero((re_flat[:-1] == rs_flat[1:]) & (run_e[:-1] < L))
    join_a, join_b, adj_a, adj_b = [], [], [meet], [meet + 1]
    for d, valid, face in steps:
        runs = np.flatnonzero(valid)
        tgt = (run_line[runs] + d) * L
        s, e = run_s[runs], run_e[runs]
        if face:
            wide = neg[runs]
            lo = np.searchsorted(re_flat, tgt + np.where(wide, np.maximum(s, 1), s + 1))
            hi = np.searchsorted(rs_flat, tgt + np.where(wide, np.minimum(e, L - 1), e - 1),
                                 side="right")
        else:
            lo = np.searchsorted(re_flat, tgt + s, side="right")
            hi = np.searchsorted(rs_flat, tgt + e, side="left")
        src, dst = _run_pairs(lo, hi)
        src = runs[src]
        same = rkey[src] == rkey[dst]
        join_a.append(src[same])
        join_b.append(dst[same])
        if face:
            a, b = src[~same], dst[~same]
            overlap = (run_e[b] > run_s[a]) & (run_s[b] < run_e[a])
            adj_a.append(a[overlap])
            adj_b.append(b[overlap])
    comp_of_run, first_run = _connected(len(rs_flat), np.concatenate(join_a), np.concatenate(join_b))
    del join_a, join_b
    ncomp = len(first_run)
    lengths = run_e - run_s
    sizes = np.bincount(comp_of_run, weights=lengths, minlength=ncomp).astype(np.int64)
    signs = np.where(neg[first_run], np.int8(-1), np.int8(1))
    # each run's largest κ, summed in axis order as within_ball sums: its
    # line's terms, then the larger end term, which gives the larger sum as
    # float addition is monotone; the per-run sums are gone before the labels
    *outer, along = grid.block_squares()
    line_terms = sum(np.meshgrid(*outer, indexing="ij", sparse=True)).reshape(-1)  # per line
    reach = np.full(ncomp, -np.inf)
    np.maximum.at(reach, comp_of_run, line_terms[run_line] + np.maximum(along[run_s], along[run_e - 1]))

    ca = comp_of_run[np.concatenate(adj_a)]  # intp, so the pair keys cannot wrap
    cb = comp_of_run[np.concatenate(adj_b)]
    pair = np.sort(np.minimum(ca, cb) * ncomp + np.maximum(ca, cb))
    first = np.empty(len(pair), dtype=bool)
    first[:1] = True
    np.not_equal(pair[1:], pair[:-1], out=first[1:])
    adjacency = np.stack(np.divmod(pair[first], ncomp), axis=-1)
    del adj_a, adj_b, ca, cb, pair, first

    # the runs, in mask or not, tile the grid in flat order
    run_label = np.full(len(run_len), -1, dtype=_index_dtype(mask.size))
    run_label[inmask] = comp_of_run
    labels = np.repeat(run_label, run_len)

    return NodalDecomposition(grid=grid, labels=labels, sign=signs, size=sizes,
                              reach=reach, adjacency=adjacency)


# ---------------------------------------------------------------------------
# zero-set extraction


@dataclass
class NodalGeometry:
    """The zero set of a sampled field, extracted once per grid.

    The U crossing grid edges, by axis and then by lower vertex in flat
    order, are the vertices of the elements: segments (2D) or triangles
    (3D), split into connected pieces.
    """

    dim: int
    edge_points: np.ndarray  # (U, m) interpolated zero crossings
    edge_piece: np.ndarray  # (U,) piece index
    piece_edge: np.ndarray  # (P,) each piece's first crossing edge
    edge_ends: np.ndarray  # (U, 2) flat indices of each crossing edge's lower and upper vertex
    covered_volume: float  # volume of the cells with every corner in the mask: the ones scanned
    piece_measure: np.ndarray  # length (2D) or area (3D) per piece
    elements: np.ndarray  # (S, 2) or (T, 3) indices into the crossing edges
    element_piece: np.ndarray
    element_measure: np.ndarray

    @property
    def measures(self) -> np.ndarray:
        return self.piece_measure

    @property
    def total(self) -> float:
        return float(np.sum(self.piece_measure))

    @property
    def density(self) -> float:
        """Zero-set measure per unit volume over the scanned region.

        Division by the scanned volume, not by vol B(R): the cell scan stops
        one layer short of the mask sphere, and pretending that band was
        measured biases comparisons at small R.
        """
        return self.total / self.covered_volume

    @property
    def segments(self) -> np.ndarray | None:
        """2D: (S, 2, m) endpoint coordinates."""
        return self.edge_points[self.elements] if self.dim == 2 else None

    @property
    def vertices(self) -> np.ndarray | None:
        """3D: the welded mesh vertices, one per crossing edge."""
        return self.edge_points if self.dim == 3 else None

    @property
    def triangles(self) -> np.ndarray | None:
        """3D: (T, 3) indices into vertices."""
        return self.elements if self.dim == 3 else None


def _row_major_strides(shape) -> list[int]:
    return [int(np.prod(shape[d + 1 :])) for d in range(len(shape))]


def _scanned_cells(mask: np.ndarray) -> np.ndarray:
    """Per cell: every corner is in the mask, so the zero set scans it.

    The corners are gathered one axis at a time: each pass ANDs the lower
    and upper faces of every cell along that axis.
    """
    for a in range(mask.ndim):
        lo = (slice(None),) * a + (slice(None, -1),)
        hi = (slice(None),) * a + (slice(1, None),)
        mask = mask[lo] & mask[hi]
    return mask


def _cell_cases(pos: np.ndarray) -> np.ndarray:
    """Per cell: the sign case, bit c set when corner c is positive.

    Corner c is offset along axis a by bit a of c. The corners are gathered
    one axis at a time: each pass joins the lower and upper faces of every
    cell along that axis, so bit c moves up by 2^a for the upper face.
    """
    case = pos.view(np.uint8)
    for a in reversed(range(pos.ndim)):
        lo = (slice(None),) * a + (slice(None, -1),)
        hi = (slice(None),) * a + (slice(1, None),)
        case = case[lo] | case[hi] << np.uint8(1 << a)
    return case


def _crossing_elements(grid: ScalarGrid, pos: np.ndarray) -> tuple[np.ndarray, int]:
    """Grid-edge ids a*V + p of the zero-set elements, and the number of cells scanned.

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
    case, cell_ok = _cell_cases(pos), _scanned_cells(grid.mask())
    covered = int(np.count_nonzero(cell_ok))
    full = 2 ** 2**m - 1
    crossed = cell_ok & (case > 0) & (case < full)
    case_w = case[crossed]
    # each crossed cell is named by the flat index of its lower corner
    live = np.zeros(grid.shape, dtype=bool)
    live[(slice(-1),) * m] = crossed
    work = np.flatnonzero(live)

    # the edge along axis a with lower vertex p has id a*V + p, so the edge e
    # of the cell at p is p plus a fixed shift
    shift = edge_axis * pos.size + edge_base @ _row_major_strides(grid.shape)

    order = np.argsort(case_w, kind="stable")
    counts = np.bincount(case_w, minlength=full + 1)
    elements = np.empty((int(counts @ [len(t) for t in table]), m), dtype=np.int64)
    start = row = 0
    for cs, count in enumerate(counts.tolist()):
        if not count:
            continue
        sel = order[start : start + count]
        start += count
        tab = np.asarray(table[cs])  # (elements, m) cell-edge numbers
        rows = elements[row : row + len(tab) * count].reshape(len(tab), count, m)
        np.add(work[sel], shift[tab][..., None], out=rows.transpose(0, 2, 1))
        row += len(tab) * count
    return elements, covered


def _element_measures(points: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Segment lengths (2D) or triangle areas (3D) from the elements' vertex points.

    Written out over contiguous coordinate columns; the sums of squares run
    in the order of np.linalg.norm over the last axis, so the values are the
    norm's to the bit. The elements are measured in blocks of _MEASURE_BLOCK,
    which bounds the temporaries and leaves each value unchanged.
    """
    cols = np.ascontiguousarray(points.T)
    out = np.empty(len(elements))
    for lo in range(0, len(elements), _MEASURE_BLOCK):
        corner = [np.ascontiguousarray(e) for e in elements[lo : lo + _MEASURE_BLOCK].T]
        dest = out[lo : lo + _MEASURE_BLOCK]
        if len(corner) == 2:
            d0, d1 = (c[corner[0]] - c[corner[1]] for c in cols)
            np.sqrt(d0 * d0 + d1 * d1, out=dest)
            continue
        u0, u1, u2 = (c[corner[1]] - c[corner[0]] for c in cols)
        w0, w1, w2 = (c[corner[2]] - c[corner[0]] for c in cols)
        c0 = u1 * w2 - u2 * w1
        c1 = u2 * w0 - u0 * w2
        c2 = u0 * w1 - u1 * w0
        np.multiply(0.5, np.sqrt(c0 * c0 + c1 * c1 + c2 * c2), out=dest)
    return out


def _extract_zero_set(grid: ScalarGrid) -> NodalGeometry:
    """The zero set of grid's in-mask cells."""
    if grid.dim not in (2, 3):
        raise ValueError("zero-set extraction supports m in {2, 3} only")
    elements, covered = _crossing_elements(grid, grid.grid_values() > -TIE_EPS)

    # Rank the crossing grid edges one axis at a time: mark the lower vertices
    # of the axis's element edges in a bool array, read them back sorted and
    # unique, map each to its rank through a rank table over the vertices,
    # and write the ranks over the edge ids. No sort, and no table over all
    # grid edges; the mark and the table serve every axis, the mark cleared
    # at the axis's crossings after use.
    gids = elements.reshape(-1)
    V = grid.values.size
    axis_of = np.zeros(gids.size, dtype=np.uint8)
    for a in range(1, grid.dim):
        axis_of += gids >= a * V
    hit = np.zeros(V, dtype=bool)
    table = np.empty(V, dtype=_index_dtype(grid.dim * V))
    strides = _row_major_strides(grid.shape)
    end_parts, point_parts = [], []
    U = 0
    for a in range(grid.dim):
        on_axis = np.flatnonzero(axis_of == a)
        local = gids[on_axis] - a * V
        hit[local] = True
        lower = np.flatnonzero(hit)
        hit[lower] = False
        table[lower] = np.arange(U, U + len(lower), dtype=table.dtype)
        gids[on_axis] = table[local]
        del local, on_axis
        U += len(lower)

        # the crossing point interpolates linearly along axis a, on values
        # clamped to TIE_EPS
        upper = lower + strides[a]
        vu, vv = (np.where(np.abs(x) < TIE_EPS, TIE_EPS, x) for x in (grid.values[lower], grid.values[upper]))
        points = np.stack(np.unravel_index(lower, grid.shape), axis=-1).astype(float)
        points[:, a] += vu / (vu - vv)
        end_parts.append(np.stack([lower, upper], axis=-1))
        point_parts.append(points)
    del gids, axis_of, hit, table  # elements now holds the ranks
    edge_ends = np.concatenate(end_parts)
    edge_points = grid.origin + grid.spacing * np.concatenate(point_parts)
    del end_parts, point_parts

    # an element's vertices lie in one piece; the pairs are built in
    # _connected's dtype and handed over, so it frees them as they shrink
    idx = _index_dtype(U)
    edge_piece, piece_edge = _connected(U, np.tile(elements[:, 0].astype(idx), grid.dim - 1),
                                        elements[:, 1:].T.astype(idx, order="C").reshape(-1))
    measure = _element_measures(edge_points, elements)
    elem_piece = edge_piece[elements[:, 0]] if U else np.empty(0, dtype=np.intp)
    piece_measure = np.bincount(elem_piece, weights=measure, minlength=len(piece_edge))

    return NodalGeometry(
        dim=grid.dim,
        edge_points=edge_points,
        edge_piece=edge_piece,
        piece_edge=piece_edge,
        edge_ends=edge_ends,
        covered_volume=covered * grid.spacing**grid.dim,
        piece_measure=piece_measure,
        elements=elements,
        element_piece=elem_piece,
        element_measure=measure,
    )


def nodal_volume(grid: ScalarGrid) -> NodalGeometry:
    """The zero set of grid, extracted once and cached on it: length (2D) or area (3D) per piece."""
    if grid._zero is None:
        grid._zero = _extract_zero_set(grid)
    return grid._zero


def _piece_sides(dec: NodalDecomposition, z: NodalGeometry) -> np.ndarray:
    """(P, 2) component labels at the ends of each piece's first crossing edge.

    A piece on an interior component borders exactly two components.
    """
    return dec.labels[z.edge_ends[z.piece_edge]]


def _interior_pieces(dec: NodalDecomposition, z: NodalGeometry) -> np.ndarray:
    """Per piece of z, the zero set of dec.grid: one of its two sides is an interior component."""
    return ~dec.touches_boundary[_piece_sides(dec, z)].all(axis=1)


# ---------------------------------------------------------------------------
# nesting tree


@dataclass
class NestingTree:
    root: int  # -1 for the virtual super-root
    parent: dict[int, int]
    codes: dict[int, str]
    code: str


def build_nesting_tree(dec: NodalDecomposition) -> NestingTree:
    """Rooted nesting structure of the sign components, from their adjacency.

    Contacts between two boundary-touching components are routed through the
    super-root rather than kept as tree edges. Under the labeling's per-sign
    connectivity every interior component has one enclosing neighbour, so
    what remains is a tree; a cycle, or no component on the rim, is refused.
    """
    touches = dec.touches_boundary.tolist()
    ncomp = len(touches)
    edges = [(a, b) for a, b in dec.adjacency.tolist() if not (touches[a] and touches[b])]

    boundary_comps = np.flatnonzero(dec.touches_boundary).tolist()
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
    return NestingTree(root=root, parent=parent, codes=codes, code=codes[root])


def _parent_pieces(dec: NodalDecomposition, tree: NestingTree) -> dict[int, int]:
    """Component -> the zero piece between it and its tree parent.

    Only tree edges that the zero set crosses appear (an edge to the virtual
    root has no piece). A tree edge has an interior end, so the pieces that
    cross it are those whose two sides (_piece_sides) are its ends; the
    lowest id is taken, and an interior component has exactly one.
    """
    ncomp = dec.total_components
    a, b = _piece_sides(dec, nodal_volume(dec.grid)).T.astype(np.int64)  # ncomp^2 may pass 2^31
    keys = (np.minimum(a, b) * ncomp + np.maximum(a, b)).tolist()
    piece_of = dict(zip(reversed(keys), reversed(range(len(keys)))))  # the lowest piece is set last
    pieces = {}
    for c, p in tree.parent.items():
        k = min(c, p) * ncomp + max(c, p)
        if p >= 0 and k in piece_of:
            pieces[c] = piece_of[k]
    return pieces


# ---------------------------------------------------------------------------
# topology classes of interior zero pieces


def _genera(z: NodalGeometry, interior: np.ndarray) -> np.ndarray:
    """Per piece of a 3D zero set, the genus, read where interior is set.

    Each mesh vertex and edge lies in one piece, so V, E and F of every
    interior piece come from one np.unique over the interior triangles'
    vertices, one over their edge keys, and np.bincount. If an interior piece
    is not a closed surface, the lowest such id raises DegenerateSampleError.
    """
    rows = np.flatnonzero(interior[z.element_piece])
    tris, piece = z.elements[rows], z.element_piece[rows]
    pairs = np.sort(tris[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1)  # three per triangle
    _, vert_first = np.unique(tris, return_index=True)
    _, edge_first, counts = np.unique(pairs[:, 0] * (tris.max(initial=-1) + 1) + pairs[:, 1],
                                      return_index=True, return_counts=True)
    edge_piece = piece[edge_first // 3]
    V, E, F = (np.bincount(x, minlength=len(interior)) for x in (piece[vert_first // 3], edge_piece, piece))
    non_manifold = np.bincount(edge_piece[counts != 2], minlength=len(interior)) > 0
    chi = V - E + F
    bad = np.flatnonzero(interior & (non_manifold | (chi % 2 == 1) | (chi > 2)))
    if len(bad) and non_manifold[bad[0]]:
        raise DegenerateSampleError("an interior zero surface is not a closed 2-manifold", "non_manifold")
    if len(bad):
        raise DegenerateSampleError("mesh Euler characteristic is not that of a closed surface", "bad_euler")
    return (2 - chi) // 2


def classify_topology(dec: NodalDecomposition) -> Counter:
    """Histogram of the class tags ("circle" / "genusG") of the interior zero pieces.

    In 2D each interior component is enclosed by one closed zero curve, the
    piece toward its tree parent, and each interior piece encloses one
    interior component, so the count is the interior count and no zero set
    is extracted. In 3D the genus is read off the mesh: a piece that is not
    a closed surface raises DegenerateSampleError, and the first such piece
    in piece order gives the reason. With no interior component there is no
    interior piece (one of its sides would be interior) and nothing can
    raise, so the count is empty and no zero set is extracted either.
    """
    if dec.grid.dim == 2:
        return Counter({"circle": dec.interior_count} if dec.interior_count else {})
    if dec.touches_boundary.all():
        return Counter()
    z = nodal_volume(dec.grid)
    interior = _interior_pieces(dec, z)
    if not interior.any():
        return Counter()
    return Counter(f"genus{g}" for g in _genera(z, interior)[interior].tolist())


def export_components_csv(dec: NodalDecomposition, path: str) -> None:
    """One row per sign component; measure/class describe the zero piece toward its tree parent."""
    import csv

    z = nodal_volume(dec.grid)
    interior = _interior_pieces(dec, z)
    try:
        pieces = _parent_pieces(dec, build_nesting_tree(dec))
    except DegenerateSampleError:
        pieces = {}
    genera = _genera(z, interior) if z.dim == 3 and pieces else None  # no tree: blank classes
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "sign", "size", "boundary", "measure", "class"])
        rows = zip(dec.sign.tolist(), dec.size.tolist(), dec.touches_boundary.tolist())
        for c, (sign, size, rim) in enumerate(rows):
            measure = ""
            tag = ""
            p = pieces.get(c)
            if p is not None:
                measure = repr(float(z.piece_measure[p]))
                if interior[p]:
                    tag = "circle" if genera is None else f"genus{genera[p]}"
            w.writerow([c, "+" if sign > 0 else "-", size, int(rim), measure, tag])
