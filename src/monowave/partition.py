"""Hyperspherical cube partition of the sphere into K^{m-1} cells.

The unit cube [0,1]^{m-1} maps onto S^{m-1} through the angle map G; cells are
the images of the axis-aligned K-grid boxes. Each of the 2N signed atoms
+-r_n is assigned to exactly one cell; cell masses are atom fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .directions import DirectionSet

SIGN_TOL = 1e-9  # "nonzero coordinate" threshold for the positive-side rule


def lipschitz_constant(m: int) -> float:
    """Crude global Lipschitz bound for G, used only in tolerance formulas."""
    return 2 * np.pi * np.sqrt(m - 1)


def hyperspherical_map(theta, m: int) -> np.ndarray:
    """G(theta): [0,1]^{m-1} -> S^{m-1}.

    Polar angles scale by pi, the final seam angle by 2*pi; for m = 2 there
    is no polar angle and the map is the plain angle parameterization of the
    circle.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] != m - 1:
        raise ValueError("theta must have m-1 components")
    out = np.empty(theta.shape[:-1] + (m,))
    running = np.ones(theta.shape[:-1])
    for i in range(m - 2):
        a = np.pi * theta[..., i]
        out[..., i] = running * np.cos(a)
        running = running * np.sin(a)
    seam = 2 * np.pi * theta[..., m - 2]
    out[..., m - 2] = running * np.cos(seam)
    out[..., m - 1] = running * np.sin(seam)
    return out


def theta_coordinates(v, m: int) -> np.ndarray:
    """Inverse of G, with poles and seam clamped into [0,1).

    On the measure-zero set where G is not injective (vanishing tail norm,
    seam endpoints) the convention is to clamp: undetermined angles become 0.
    """
    v = np.asarray(v, dtype=float)
    theta = np.empty(v.shape[:-1] + (m - 1,))
    tail = np.linalg.norm(v, axis=-1)
    for i in range(m - 2):
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.where(tail > 0, v[..., i] / np.where(tail > 0, tail, 1.0), 1.0)
        theta[..., i] = np.arccos(np.clip(c, -1.0, 1.0)) / np.pi
        tail = np.linalg.norm(v[..., i + 1 :], axis=-1)
    theta[..., m - 2] = np.arctan2(v[..., m - 1], v[..., m - 2]) / (2 * np.pi) % 1.0
    return theta


def _axis_cells(t: np.ndarray, K: int) -> np.ndarray:
    # boundary value i/K belongs to the lower cell i-1 (except 0); theta = 1
    # thereby lands in cell K-1, which is the [0,1) clamp convention
    s = t * K
    i = np.floor(s)
    i = np.where((s == i) & (i > 0), i - 1, i)
    return np.clip(i, 0, K - 1).astype(np.intp)


def _cells_of(v: np.ndarray, m: int, K: int) -> np.ndarray:
    """Row-major index of the K-grid cell that holds each point v on S^{m-1}."""
    idx = _axis_cells(theta_coordinates(v, m), K)
    flat = idx[..., 0]
    for a in range(1, m - 1):
        flat = flat * K + idx[..., a]
    return flat


@dataclass
class SpherePartition:
    """K^{m-1} cells with centers, masses, threshold and selected index sets."""

    dim: int
    resolution: int
    dirs: DirectionSet
    centers: np.ndarray  # (C, m) images of box centers under G
    masses: np.ndarray  # (C,)
    atom_cells: np.ndarray  # (2N,) cell index of each signed atom
    pair: np.ndarray  # (C,) index of the cell holding the antipodal center
    selected: np.ndarray  # K: cells with mass > delta
    selected_positive: np.ndarray  # K+ per the sign rule

    def cell_of_points(self, v: np.ndarray) -> np.ndarray:
        """Cell index for points on the sphere (idempotent with the builder)."""
        return _cells_of(v, self.dim, self.resolution)


def positive_side(center: np.ndarray) -> bool:
    """Sign rule: the last coordinate over SIGN_TOL in magnitude must be positive."""
    nz = np.nonzero(np.abs(center) > SIGN_TOL)[0]
    if len(nz) == 0:
        raise ValueError("center is numerically zero")
    return bool(center[nz[-1]] > 0)


def build_partition(dirs: DirectionSet, K: int, delta: float) -> SpherePartition:
    """Assign the 2N signed atoms to cells and populate masses and index sets.

    K must be 1 (single self-paired cell) or even, so that every cell center
    pairs exactly with an antipodal center's cell; odd K >= 3 breaks the
    pairing and is rejected.
    """
    m = dirs.dim
    if K < 1:
        raise ValueError("need K >= 1")
    if K > 1 and K % 2 == 1:
        raise ValueError("odd K > 1 breaks antipodal cell pairing; use even K")
    if not (0 < delta < 1):
        raise ValueError("need 0 < delta < 1")
    n_cells = K ** (m - 1)
    if n_cells > (1 << 26):
        raise ValueError("K^(m-1) exceeds addressable partition size")

    grids = np.meshgrid(*([np.arange(K)] * (m - 1)), indexing="ij")
    multi = np.stack([g.reshape(-1) for g in grids], axis=-1)  # (C, m-1) row-major
    centers = hyperspherical_map((multi + 0.5) / K, m)

    atoms = np.vstack([dirs.vectors, -dirs.vectors])
    atom_cells = _cells_of(atoms, m, K)
    masses = np.bincount(atom_cells, minlength=n_cells) / (2.0 * dirs.count)
    pair = _cells_of(-centers, m, K)

    if abs(masses.sum() - 1.0) > 1e-12:
        raise AssertionError("cell masses do not sum to 1")
    if np.any(masses[pair] != masses):
        raise AssertionError("antipodal cells carry unequal mass")
    # every assigned direction sits within the Lipschitz tolerance of its center
    dist = np.linalg.norm(atoms - centers[atom_cells], axis=1)
    if np.any(dist > lipschitz_constant(m) * np.sqrt(m - 1) / K + 1e-9):
        raise AssertionError("direction strays beyond C_G*sqrt(m-1)/K of its cell center")

    selected = np.nonzero(masses > delta)[0]
    if masses[selected].sum() < 1.0 - delta * n_cells - 1e-12:
        raise AssertionError("selected mass fell below 1 - delta*K^(m-1)")
    pos = [k for k in selected if pair[k] == k or positive_side(centers[k])]
    return SpherePartition(
        dim=m,
        resolution=K,
        dirs=dirs,
        centers=centers,
        masses=masses,
        atom_cells=atom_cells,
        pair=pair,
        selected=selected,
        selected_positive=np.asarray(pos, dtype=np.intp),
    )
