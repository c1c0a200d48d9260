"""Regular grids over balls: sampling and masks.

Plane-wave sums are filled through PlaneWaveSum.on_grid; plane_wave_grid
(defined in field) is re-exported here.

Values are stored flat in row-major order; every consumer (labeling, meshing)
shares the same index arithmetic: flat = i1*n2*n3 + i2*n3 + i3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .field import PlaneWaveSum, plane_wave_grid  # noqa: F401  (plane_wave_grid is re-exported)

MAX_SPACING = 0.25  # unit wavelength: coarser grids alias


@dataclass
class ScalarGrid:
    dim: int
    origin: np.ndarray
    spacing: float
    shape: tuple
    values: np.ndarray  # flat, row-major
    ball_center: np.ndarray | None = None
    ball_radius: float | None = None
    _mask: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if int(np.prod(self.shape)) != self.values.size:
            raise ValueError("shape product does not match value count")
        if self.ball_radius is not None:
            self.ball_center = np.asarray(self.ball_center, dtype=float)
            extent = (np.asarray(self.shape) - 1) * self.spacing
            if self.ball_radius > extent.min() / 2 + self.spacing:
                raise ValueError("mask radius exceeds half the box extent")

    def axis_coords(self, a: int) -> np.ndarray:
        return self.origin[a] + self.spacing * np.arange(self.shape[a])

    def grid_values(self) -> np.ndarray:
        return self.values.reshape(self.shape)

    def _squared_radii(self) -> np.ndarray:
        c = self.ball_center if self.ball_center is not None else np.zeros(self.dim)
        sq = 0.0  # broadcast axis by axis: only the last sum is grid-sized
        for a in range(self.dim):
            d = self.axis_coords(a) - c[a]
            sq = sq + (d**2).reshape([-1 if i == a else 1 for i in range(self.dim)])
        return sq

    def radii(self) -> np.ndarray:
        """Distance of every vertex from the mask center (origin if unmasked)."""
        return np.sqrt(self._squared_radii())

    def within(self, r: float) -> np.ndarray:
        """Boolean array of radii() <= r, compared in squares without any sqrt."""
        return self._squared_radii() <= _squared_bound(r)

    def mask(self) -> np.ndarray:
        """Boolean in-region array, read-only and computed once per grid.

        All True when no ball mask is set.
        """
        if self._mask is None:
            if self.ball_radius is None:
                self._mask = np.ones(self.shape, dtype=bool)
            else:
                self._mask = self.within(self.ball_radius)
            self._mask.flags.writeable = False
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


def sample_on_grid(evaluator, center, radius: float, h: float) -> ScalarGrid:
    """Sample a field on the axis-aligned box circumscribing B(center, radius).

    The evaluator is either a PlaneWaveSum (wave or Gaussian draw, filled
    through its exact separable per-axis factorization) or any callable
    mapping point batches (..., m) to values.
    """
    center = np.asarray(center, dtype=float)
    m = center.size
    if m not in (2, 3):
        raise ValueError("grid geometry supports m in {2, 3}")
    if h > MAX_SPACING:
        raise ValueError("h > 0.25 undersamples a unit-wavelength field")
    if radius < h:
        raise ValueError("radius must be at least h")
    # ceil so the box truly circumscribes the ball even when 2r/h is fractional
    n = int(np.ceil(2 * radius / h - 1e-9)) + 1
    shape = (n,) * m
    origin = center - radius
    if isinstance(evaluator, PlaneWaveSum):
        vals = evaluator.on_grid(origin, shape, h)
    else:
        axes = [origin[a] + h * np.arange(n) for a in range(m)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        vals = np.empty(pts.shape[0])
        step = 1 << 20
        for lo in range(0, pts.shape[0], step):
            vals[lo : lo + step] = evaluator(pts[lo : lo + step])
    return ScalarGrid(
        dim=m,
        origin=origin,
        spacing=h,
        shape=shape,
        values=np.asarray(vals).reshape(-1),
        ball_center=center,
        ball_radius=radius,
    )
