"""Direction sequences {r_n} on S^{m-1} and their empirical spectral measure.

A direction set stores only the positive half of a symmetric frequency set:
r_{-n} = -r_n is implicit everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
COLLISION_TOL = 1e-9


@dataclass
class DirectionSet:
    """N unit vectors in R^m, pairwise distinct and non-antipodal, spanning R^m."""

    dim: int
    count: int
    vectors: np.ndarray  # shape (N, m)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.shape != (self.count, self.dim):
            raise ValueError("vector array shape does not match (count, dim)")
        validate_directions(self.vectors)


def validate_directions(vectors: np.ndarray) -> None:
    """Enforce the construction invariants: unit norms, no (anti)podal pairs, full rank.

    The rank requirement only binds once N >= m; single-frequency fixtures
    (N=1 in the plane) are legitimate degenerate inputs elsewhere and the
    hyperplane guard for those lives on the spectral-measure side.
    """
    n, m = vectors.shape
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(np.abs(norms - 1.0) > NORM_TOL):
        raise ValueError("direction norms deviate from 1 beyond 1e-12")
    # pairwise distinct and non-antipodal within 1e-9. The Gram identities
    # |v_i -+ v_j|^2 = 2 -+ 2g only screen: for near-coincident rows the
    # subtraction leaves O(eps) noise far above COLLISION_TOL^2 = 1e-18, so
    # candidates get the exact pairwise difference.
    gram = vectors @ vectors.T
    screen = 1e-7
    close = 2.0 - 2.0 * gram < screen
    anti = 2.0 + 2.0 * gram < screen
    bad = (close | anti) & ~np.eye(n, dtype=bool)
    for i, j in zip(*np.nonzero(bad)):
        d2 = float(np.sum((vectors[i] - vectors[j]) ** 2))
        s2 = float(np.sum((vectors[i] + vectors[j]) ** 2))
        if min(d2, s2) < COLLISION_TOL**2:
            raise ValueError("direction set contains equal or antipodal pairs within 1e-9")
    if n >= m and np.linalg.matrix_rank(vectors) < m:
        raise ValueError("directions do not span R^m")


def generate_uniform_directions(m: int, N: int, seed: int) -> DirectionSet:
    """N independent uniform points on S^{m-1}, deterministic for a given seed.

    Rows that collide (equal or antipodal within 1e-9) are resampled from the
    same stream until the set is clean.
    """
    if m < 2 or N < 1:
        raise ValueError("need m >= 2 and N >= 1")
    rng = np.random.default_rng(seed)
    vecs = _unit_rows(rng.standard_normal((N, m)))
    for _ in range(64):
        try:
            validate_directions(vecs)
            break
        except ValueError:
            # resample the rows involved in the closest pair
            gram = vecs @ vecs.T
            np.fill_diagonal(gram, 0.0)
            i = int(np.unravel_index(np.argmax(np.abs(gram)), gram.shape)[0])
            vecs[i] = _unit_rows(rng.standard_normal((1, m)))[0]
    return DirectionSet(dim=m, count=N, vectors=vecs)


def _unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def log_rational_directions(N: int) -> DirectionSet:
    """Planar directions at angles theta_n = log(1 + n/(N+1)), n = 1..N.

    The ratios 1 + n/(N+1) are rationals in (1, e), so every angle lies in
    (0, 1) and all are pairwise distinct. Deterministic, no randomness.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    n = np.arange(1, N + 1, dtype=float)
    theta = np.log1p(n / (N + 1))
    vecs = np.column_stack([np.cos(2 * np.pi * theta), np.sin(2 * np.pi * theta)])
    return DirectionSet(dim=2, count=N, vectors=vecs)


def empirical_measure(dirs: DirectionSet):
    """Atomic spectral measure with atoms at +-r_n, each of weight 1/(2N)."""
    from .gaussian import SpectralMeasure

    atoms = np.vstack([dirs.vectors, -dirs.vectors])
    weights = np.full(2 * dirs.count, 1.0 / (2 * dirs.count))
    return SpectralMeasure(kind="atomic", dim=dirs.dim, atoms=atoms, weights=weights)
