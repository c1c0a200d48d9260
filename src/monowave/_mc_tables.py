"""Sign-case tables for level-set extraction, generated at import time.

One function, _face_segments, maps the four corner signs of a square face,
in cyclic order, to its crossing segments as pairs of local edges. The square
(2D) table is that function over the 16 sign cases; the cube (3D) table maps
the pairs to cube edge ids on each of the six faces and joins them into
loops. The only ambiguous face is a saddle, whose signs alternate; the rule
cuts off its positive corners and keeps its negative corners joined. Because
the rule depends only on the four signs of the face, the two cells sharing a
face always agree on its segments, so welded 3D meshes are watertight by
construction. The rule fixes the connectivity the sign labeling must use for
the zero set to separate exactly its components: positive vertices join
only along grid edges (4-connected in 2D, 6 in 3D), negative ones also
across the diagonal of a face (8 in 2D, 18 in 3D), and never across the
body diagonal of a cube, whose two corners each get a loop of their own.

Corner c of the unit cube has offsets (dx, dy, dz) with c = dx + 2 dy + 4 dz;
a case index sets bit c when corner c is positive. Edge tables list cube
edges as (axis, base-corner offset) so callers can interpolate crossings.
"""

from collections import defaultdict

import numpy as np

# ---------------------------------------------------------------------------
# the face rule


def _face_segments(signs) -> list[tuple[int, int]]:
    """Crossing segments of a face with corner signs (1 positive) in cyclic order.

    Local edge k joins cyclic corners k and k+1; each segment is a pair of
    local edges.
    """
    crossing = [k for k in range(4) if signs[k] != signs[(k + 1) % 4]]
    if len(crossing) == 4:
        # alternating signs: one segment around each positive corner
        return [((k - 1) % 4, k) for k in range(4) if signs[k]]
    return [tuple(crossing)] if crossing else []


# ---------------------------------------------------------------------------
# square (marching squares), corner c = dx + 2 dy

SQUARE_CYCLE = (0, 1, 3, 2)  # corners in cyclic order around the square
# local edge k joins cyclic corners k and k+1: bottom, right, top, left
SQ_EDGE_AXIS = np.array([0, 1, 0, 1], dtype=np.intp)
SQ_EDGE_BASE = np.array([(0, 0), (1, 0), (0, 1), (0, 0)], dtype=np.intp)

SQUARE_CASES = tuple(
    tuple(_face_segments([(case >> c) & 1 for c in SQUARE_CYCLE])) for case in range(16)
)


# ---------------------------------------------------------------------------
# cube (marching cubes), corner c = dx + 2 dy + 4 dz

CORNER_OFFSETS = np.array([[(c >> a) & 1 for a in range(3)] for c in range(8)], dtype=np.intp)

_EDGES: list[tuple[int, int]] = []
for _a in range(3):
    for _c in range(8):
        if not (_c >> _a) & 1:
            _EDGES.append((_c, _c | (1 << _a)))
_EDGES.sort()
EDGE_INDEX = {e: i for i, e in enumerate(_EDGES)}
EDGE_CORNERS = np.array(_EDGES, dtype=np.intp)
EDGE_AXIS = np.array([(ca ^ cb).bit_length() - 1 for ca, cb in _EDGES], dtype=np.intp)
EDGE_BASE = CORNER_OFFSETS[EDGE_CORNERS[:, 0]]


def _face_cycle(axis: int, side: int) -> list[int]:
    u, v = (a for a in range(3) if a != axis)
    return [(side << axis) | (du << u) | (dv << v) for du, dv in ((0, 0), (1, 0), (1, 1), (0, 1))]


_FACE_CYCLES = [_face_cycle(a, s) for a in range(3) for s in (0, 1)]
# cube edge id of each face's local edge k (cyclic corners k and k+1)
_FACE_EDGES = [
    [EDGE_INDEX[tuple(sorted((cycle[k], cycle[(k + 1) % 4])))] for k in range(4)]
    for cycle in _FACE_CYCLES
]


def _triangulate(case: int) -> np.ndarray:
    adj: dict[int, list[int]] = defaultdict(list)
    for cycle, edges in zip(_FACE_CYCLES, _FACE_EDGES):
        for k1, k2 in _face_segments([(case >> c) & 1 for c in cycle]):
            e1, e2 = edges[k1], edges[k2]
            adj[e1].append(e2)
            adj[e2].append(e1)
    # every crossing edge lies on exactly two faces, each pairing it once
    assert all(len(v) == 2 for v in adj.values())
    tris: list[tuple[int, int, int]] = []
    seen: set[int] = set()
    for start in sorted(adj):
        if start in seen:
            continue
        loop = [start]
        seen.add(start)
        prev, cur = -1, start
        while True:
            a, b = adj[cur]
            nxt = b if a == prev else a
            if nxt == start:
                break
            loop.append(nxt)
            seen.add(nxt)
            prev, cur = cur, nxt
        for i in range(1, len(loop) - 1):  # fan; loops are simple, length >= 3
            tris.append((loop[0], loop[i], loop[i + 1]))
    return np.array(tris, dtype=np.intp).reshape(-1, 3)


CUBE_CASES = tuple(_triangulate(c) for c in range(256))
