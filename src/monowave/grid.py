"""Regular grids over balls: sampling, masks and ball-clipped lattices.

Plane-wave sums are filled through PlaneWaveSum.on_grid, the low-rank
Chebyshev lattice fill of field, or from a low-rank fill already built over a
larger box (the nondegeneracy probe's); plane_wave_grid, the direct rank-J
product that fill is checked against, is re-exported here.

Values are stored flat in row-major order; every consumer (labeling, meshing)
shares the same index arithmetic: flat = i1*n2*n3 + i2*n3 + i3.

within_ball is the package's one "lattice point lies in the closed ball"
rule: the grid mask and lattice_ball (the absolute lattice h Z^m behind the
nondegeneracy probe, the doubling index and the window centres) both use it.
Beside it, ScalarGrid.block_squares gives the same squared distances
maximised over each vertex's 3^m block: the labeling's per-component reach,
which places a component inside or on the rim of B(r) for every r up to the
mask radius, is read off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .field import PlaneWaveSum, _LowRankLattice
from .field import plane_wave_grid  # noqa: F401  (re-exported)

if TYPE_CHECKING:
    from .nodal import NodalGeometry

MAX_SPACING = 0.25  # unit wavelength: coarser grids alias


@dataclass
class ScalarGrid:
    origin: np.ndarray
    spacing: float
    shape: tuple
    values: np.ndarray  # flat, row-major
    ball_center: np.ndarray | None = None
    ball_radius: float | None = None
    _mask: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # the zero set, set by nodal.nodal_volume; it holds no reference to the grid
    _zero: NodalGeometry | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.origin.shape != (self.dim,):
            raise ValueError("origin needs one entry per axis")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if int(np.prod(self.shape)) != self.values.size:
            raise ValueError("shape product does not match value count")
        if self.ball_center is not None or self.ball_radius is not None:
            self.ball_center = np.asarray(self.ball_center, dtype=float)  # None: shape ()
            if self.ball_center.shape != (self.dim,):
                raise ValueError("ball_center needs one entry per axis")
        if self.ball_radius is not None:
            if not (math.isfinite(self.ball_radius) and self.ball_radius > 0):
                raise ValueError("ball_radius must be finite and positive")
            extent = (np.asarray(self.shape) - 1) * self.spacing
            if self.ball_radius > extent.min() / 2 + self.spacing:
                raise ValueError("mask radius exceeds half the box extent")

    @property
    def dim(self) -> int:
        return len(self.shape)

    def axis_coords(self, a: int) -> np.ndarray:
        return self.origin[a] + self.spacing * np.arange(self.shape[a])

    def grid_values(self) -> np.ndarray:
        return self.values.reshape(self.shape)

    def _center(self) -> np.ndarray:
        """The mask center (the origin if unmasked)."""
        return self.ball_center if self.ball_center is not None else np.zeros(self.dim)

    def within(self, r: float) -> np.ndarray:
        """Vertices within distance r of the mask center (origin if unmasked)."""
        return within_ball([self.axis_coords(a) for a in range(self.dim)], self._center(), r)

    def block_squares(self) -> list[np.ndarray]:
        """Per axis, the largest squared offset from the mask center over each vertex and its neighbours.

        +inf at both ends, where a neighbour is off the grid. Added in axis
        order as within_ball adds, the tables give κ(v): the largest squared
        distance to the center over the 3^m block around vertex v, +inf where
        the block leaves the grid. Float addition is monotone in each term,
        so the sum of the maxima is the largest of the block's sums: v's
        block lies in the grid and in within(r) exactly when
        κ(v) <= _squared_bound(r). Each table is unimodal along its axis, so
        along a grid line κ is largest at one end of any stretch.
        """
        c = self._center()
        # a neighbour past either end is infinitely far
        sq = [np.concatenate(([np.inf], (self.axis_coords(a) - c[a]) ** 2, [np.inf]))
              for a in range(self.dim)]
        return [np.maximum(np.maximum(s[:-2], s[1:-1]), s[2:]) for s in sq]

    def mask(self) -> np.ndarray:
        """Boolean in-region array, read-only and computed once per grid.

        All True when no ball mask is set; a mask that selects no vertex is
        refused.
        """
        if self._mask is None:
            if self.ball_radius is None:
                mask = np.ones(self.shape, dtype=bool)
            else:
                mask = self.within(self.ball_radius)
            if not mask.any():
                raise ValueError("mask selects no vertices")
            mask.flags.writeable = False
            self._mask = mask
        return self._mask


def _squared_bound(r: float) -> float:
    """Largest double s with sqrt(s) <= r (-inf if none).

    sqrt is correctly rounded, hence monotone, so for every double s >= 0,
    sqrt(s) <= r exactly when s <= _squared_bound(r).
    """
    if not r >= 0:
        return -math.inf
    s = r * r
    while math.sqrt(s) > r:
        s = math.nextafter(s, 0.0)
    while s < math.inf and math.sqrt(math.nextafter(s, math.inf)) <= r:
        s = math.nextafter(s, math.inf)
    return s


def within_ball(axes, center, r: float) -> np.ndarray:
    """Row-major mask of the axes' product points in the closed ball B(center, r).

    Bitwise equal to np.linalg.norm(points - center, axis=-1) <= r: both add
    the same squares in axis order, and sqrt is monotone (see _squared_bound).
    """
    sq = 0.0  # broadcast axis by axis: only the last sum is grid-sized
    for a in range(len(axes)):
        d = axes[a] - center[a]
        sq = sq + (d**2).reshape([-1 if i == a else 1 for i in range(len(axes))])
    return sq <= _squared_bound(r)


def lattice_ball(center, radius: float, h: float) -> tuple[list[np.ndarray], np.ndarray]:
    """Absolute lattice h Z^m around the closed ball B(center, radius).

    Returns the axis coordinates h k over the smallest such box holding the
    ball, and the row-major in-ball mask from within_ball. Anchoring at
    multiples of h (not at the center) keeps the probe set consistent across
    centers and hits period-aligned extrema exactly.
    """
    center = np.asarray(center, dtype=float)
    axes = [
        h * np.arange(math.floor((c - radius) / h), math.ceil((c + radius) / h) + 1)
        for c in center
    ]
    return axes, within_ball(axes, center, radius)


def lattice_points(axes, mask: np.ndarray) -> np.ndarray:
    """(P, m) coordinates of the mask's True points, in row-major order."""
    return np.stack([ax[i] for ax, i in zip(axes, np.nonzero(mask))], axis=-1)


def sample_on_grid(evaluator, center, radius: float, h: float) -> ScalarGrid:
    """Sample a field on the axis-aligned box circumscribing B(center, radius).

    The evaluator fills through its on_grid when it is a PlaneWaveSum (wave
    or Gaussian draw, through its low-rank fill) or the low-rank fill of one
    over a box that holds this one (the lattice of a NondegeneracyReport; a
    box reaching outside it is refused); any other callable maps point
    batches (..., m) to values.
    """
    center = np.asarray(center, dtype=float)
    m = center.size
    if m not in (2, 3):
        raise ValueError("grid geometry supports m in {2, 3}")
    if not h > 0:
        raise ValueError("grid spacing h must be positive")
    if h > MAX_SPACING:
        raise ValueError("h > 0.25 undersamples a unit-wavelength field")
    if radius < h:
        raise ValueError("radius must be at least h")
    # ceil so the box truly circumscribes the ball even when 2r/h is fractional
    n = int(np.ceil(2 * radius / h - 1e-9)) + 1
    shape = (n,) * m
    origin = center - radius
    if isinstance(evaluator, (PlaneWaveSum, _LowRankLattice)):
        vals = evaluator.on_grid(origin, shape, h)
    else:
        axes = [origin[a] + h * np.arange(n) for a in range(m)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        vals = np.empty(pts.shape[0])
        step = 1 << 20
        for lo in range(0, pts.shape[0], step):
            vals[lo : lo + step] = evaluator(pts[lo : lo + step])
    return ScalarGrid(
        origin=origin,
        spacing=h,
        shape=shape,
        values=np.asarray(vals).reshape(-1),
        ball_center=center,
        ball_radius=radius,
    )
