"""Plane-wave sums: the PlaneWaveSum kernel, waves, packets, integer-order Bessel functions.

Every field in the package is a PlaneWaveSum, F(x) = Re sum_j c_j e(<v_j, x>)
with e(t) = exp(2*pi*i*t), evaluated pointwise (value, gradient) or on a
regular lattice (on_grid). Pointwise evaluation reads the polar form
F(x) = sum_j |c_j| cos(2 pi <v_j, x> + arg c_j): one cosine per plane wave,
in row blocks of points whose (rows, J) phase table holds at most
_TABLE_ENTRIES entries and is formed in one buffer for all blocks, so no
temporary grows with the point count; eval_bk blocks its packet table the
same way. The lattice fill is low rank: Chebyshev
interpolation in the frequency turns the J-term sum into a small real core
tensor over a cover box (_LowRankLattice), in the basis cos, 1, sin of the
Chebyshev phases, built once and contracted by real products with per-axis
tables of that basis for any lattice inside the cover; the tables are built
from short exponential ladders, and the same core, contracted with a
differentiated table (cos and sin rows swapped) on one axis, gives each
partial derivative. on_grid
builds the core over the lattice itself; the nondegeneracy probe builds one
over its box and the measurement grid of the same draw reuses it.
plane_wave_grid is the direct rank-J product they are checked against.
The deterministic wave is
f(x) = (2N)^{-1/2} * sum over |n| <= N of a_n e(<r_n, x>) with
a_{-n} = conj(a_n), r_{-n} = -r_n; MonochromaticWave folds it to the one-sided
form c_n = sqrt(2/N) a_n, so results are exactly real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .directions import DirectionSet
from .partition import SpherePartition

TWO_PI = 2 * np.pi
# Entries per pointwise table: a block of max(1, _TABLE_ENTRIES // J) points
# bounds each (points, J) phase table of value/gradient and each (points, N)
# complex packet table of eval_bk (512 KiB of doubles, 1 MiB complex).
_TABLE_ENTRIES = 1 << 16


def _row_blocks(n: int, width: int):
    """Slices over n rows whose (rows, width) tables hold at most _TABLE_ENTRIES entries."""
    step = max(1, _TABLE_ENTRIES // max(1, width))
    return (slice(lo, lo + step) for lo in range(0, n, step))


@dataclass
class CoefficientSet:
    count: int
    values: np.ndarray  # complex, |a_n| = 1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.count,):
            raise ValueError("coefficient array shape does not match count")
        if np.any(np.abs(np.abs(self.values) - 1.0) > 1e-12):
            raise ValueError("coefficients must have unit modulus within 1e-12")


def random_phase_coefficients(N: int, seed: int) -> CoefficientSet:
    rng = np.random.default_rng(seed)
    return CoefficientSet(N, np.exp(2j * np.pi * rng.random(N)))


def all_ones_coefficients(N: int) -> CoefficientSet:
    return CoefficientSet(N, np.ones(N, dtype=complex))


class PlaneWaveSum:
    """F(x) = Re sum_j c_j e(<v_j, x>): the one kernel behind waves and Gaussian draws.

    value and gradient evaluate pointwise (last axis of x is the coordinate
    axis) in the polar form F(x) = sum_j w_j cos psi_j, psi_j = 2 pi <v_j, x>
    + phi_j, with weights w_j = |c_j| and offsets phi_j = arg c_j fixed at
    construction; the gradient is -sum_j 2 pi w_j v_j sin psi_j. Points are
    taken in blocks of max(1, _TABLE_ENTRIES // J) rows, and every block's
    (rows, J) phase table is formed in one reused buffer, so one table within
    the entry budget is alive at any point count and any J.
    on_grid fills a regular lattice through a _LowRankLattice over that lattice.
    """

    def __init__(self, freqs, amps):
        self.freqs = np.asarray(freqs, dtype=float)  # (J, m)
        self.amps = np.asarray(amps)  # (J,), complex or real
        self._omega = TWO_PI * self.freqs  # (J, m)
        self._offset = np.angle(self.amps)  # (J,)
        self._weight = np.abs(self.amps).astype(float)  # (J,)
        self._slope = -self._weight[:, None] * self._omega  # (J, m)

    @property
    def dim(self) -> int:
        return self.freqs.shape[1]

    def plane_waves(self):
        """(freqs, amps) of the one-sided form."""
        return self.freqs, self.amps

    def value(self, x) -> np.ndarray | float:
        pts, batch = self._points(x)
        val = np.empty(len(pts))
        for rows, psi in self._phases(pts):
            val[rows] = np.cos(psi, out=psi) @ self._weight
        return float(val[0]) if batch == () else val.reshape(batch)

    __call__ = value

    def gradient(self, x) -> np.ndarray:
        """Exact term-by-term gradient, shape x.shape."""
        pts, batch = self._points(x)
        grad = np.empty(pts.shape)
        for rows, psi in self._phases(pts):
            grad[rows] = np.sin(psi, out=psi) @ self._slope
        return grad.reshape(*batch, self.dim)

    def value_and_gradient(self, x) -> tuple[np.ndarray, np.ndarray]:
        """value and gradient, bitwise, from one phase table per block."""
        pts, batch = self._points(x)
        val, grad = np.empty(len(pts)), np.empty(pts.shape)
        for rows, psi in self._phases(pts):
            val[rows] = np.cos(psi) @ self._weight
            grad[rows] = np.sin(psi, out=psi) @ self._slope
        return val.reshape(batch), grad.reshape(*batch, self.dim)

    def _points(self, x) -> tuple[np.ndarray, tuple]:
        """x as a (P, m) array of points, and its leading batch shape."""
        x = _check_dim(self, x)
        return x.reshape(-1, self.dim), x.shape[:-1]

    def _phases(self, pts: np.ndarray):
        """(rows, psi) per row block, psi[i, j] = 2 pi <v_j, x_i> + phi_j, all in one buffer."""
        buf = None
        for rows in _row_blocks(len(pts), len(self._offset)):
            block = pts[rows]
            if buf is None:
                buf = np.empty((len(block), len(self._offset)))
            psi = np.matmul(block, self._omega.T, out=buf[: len(block)])
            psi += self._offset
            yield rows, psi

    def on_grid(self, origin, shape, h: float) -> np.ndarray:
        """Values at origin + h * index over a grid of the given shape."""
        return _LowRankLattice(self.freqs, self.amps, origin, shape, h).grid(origin, shape, h)


def _checked_origin(m: int, origin, shape) -> np.ndarray:
    """The origin as floats; a lattice whose dimension is not the field's (R^m) is refused."""
    origin = np.asarray(origin, dtype=float)
    if len(shape) != m or origin.shape != (m,):
        raise ValueError(f"grid shape and origin must have one entry per axis of R^{m}")
    return origin


def _checked_coeffs(freqs: np.ndarray, coeffs) -> np.ndarray:
    """coeffs as an array; anything but one coefficient per plane wave is refused."""
    if np.shape(coeffs) != (len(freqs),):
        raise ValueError("need one coefficient per plane wave")
    return np.asarray(coeffs)


def plane_wave_grid(freqs: np.ndarray, coeffs: np.ndarray, origin, shape, h: float) -> np.ndarray:
    """Re sum_j c_j exp(2 pi i <v_j, x>) on a regular grid, factored per axis.

    exp(2 pi i v.x) splits into a product of per-axis phase vectors, so the
    grid fill is a (chunked) complex matrix product of rank J instead of
    pointwise trigonometry; values match pointwise evaluation to rounding.
    coeffs holds one coefficient per plane wave. A lattice whose dimension
    is not the field's is refused. This direct product is the reference for
    the low-rank _LowRankLattice, which fills the lattices of the pipeline.
    """
    m = freqs.shape[1]
    origin = _checked_origin(m, origin, shape)
    coeffs = _checked_coeffs(freqs, coeffs)
    axes = []
    for a in range(m):
        coords = origin[a] + h * np.arange(shape[a])
        axes.append(np.exp(2j * np.pi * np.outer(freqs[:, a], coords)))  # (J, n_a)
    if m == 2:
        return np.ascontiguousarray(((axes[0] * coeffs[:, None]).T @ axes[1]).real)
    out = np.zeros((shape[0], int(np.prod(shape[1:]))))
    step = 128
    for lo in range(0, len(coeffs), step):
        u = axes[0][lo : lo + step] * coeffs[lo : lo + step, None]
        vw = (
            axes[1][lo : lo + step, :, None] * axes[2][lo : lo + step, None, :]
        ).reshape(-1, shape[1] * shape[2])
        out += (u.T @ vw).real
    return out.reshape(shape)


# Truncation error of the low-rank fill, relative to sum_j |c_j|.
_LOWRANK_TOL = 1e-15


class _LowRankLattice:
    """Low-rank fills of one plane-wave sum on any regular lattice inside a cover box.

    Built from the sum (freqs, one coefficient each) and a cover box
    (origin, shape, h), like plane_wave_grid, with the same refusals. Let
    c = origin + R, R_a = h (n_a - 1) / 2, be the cover's centre, so that
    F(c + y) = Re sum_j c_j e(<v_j, c>) prod_a e(v_ja y_a) with |y_a| <= R_a.
    On axis a, with rho_a = max_j |v_ja| and t_j = v_ja / rho_a in [-1, 1],
    e(v_ja y) is a function of t_j and is replaced by its interpolant at L_a
    Chebyshev points x_l of the second kind (barycentric form, Berrut &
    Trefethen 2004): e(v_ja y) ~ sum_l Lam_a[l, j] e(rho_a x_l y). The J-term
    sum collapses onto the core tensor sum_j c_j e(<v_j, c>) (x)_a Lam_a[:, j]
    of shape (L_1, ..., L_m), built once: the low-rank NUFFT of Ruiz-Antolin
    & Townsend (SIAM J. Sci. Comput. 2018) on a uniform grid.

    Real basis. The points are exactly odd, x_{L-1-l} = -x_l, so rows l and
    L - 1 - l of the core multiply e(+-rho_a x_l y): with theta_l =
    2 pi rho_a x_l over the top points x_l > 0 (l < L_a // 2), their sum
    weighs cos(theta_l y) and i times their difference sin(theta_l y). At
    construction the complex core is folded this way, axis by axis, onto the
    real basis cos(theta_l y), then 1 when L_a is odd (the point 0), then
    sin(theta_l y), and only its real part is kept: F and the basis are
    real. grid and
    grid_and_gradient contract this real core with real per-axis tables
    T_a (L_a, n'_a) of that basis at the coordinates of any lattice
    (origin', shape', h') in the cover, y_i = h' (i - (n'_a - 1) / 2) +
    (c'_a - c_a), c' the lattice's centre; on the cover itself the shift
    c' - c is exactly 0. Each table comes from two short ladders per top
    point: with B = ceil(sqrt(n'_a)) and i = q B + r, exp(i theta_l y_i) is
    the product of exp(i theta_l y_{qB}), at the lattice's own coordinates,
    and exp(i theta_l h' r): about 2 sqrt(n'_a) complex exponentials per
    top point instead of n'_a per point. The cost is about
    J prod L_a for the core and n^m L real multiply-adds per contraction,
    instead of J n^m per grid. A lattice with a coordinate
    |y_i| > R_a (1 + 1e-12), beyond rounding of the cover, is refused,
    never extrapolated.

    Bound. As a function of t, e(rho_a t y) = exp(i w t) with |w| <= omega_a =
    2 pi rho_a R_a for every |y| <= R_a has the Chebyshev coefficients
    eps_k i^k J_k(w), eps_k <= 2 (Jacobi-Anger), and |J_k(w)| <=
    (omega_a/2)^k / k!. Interpolation at L points errs by at most twice the
    coefficient tail from degree L on (Trefethen, ATAP, Thm 8.2), so each axis
    factor errs by at most eps_a(L_a), eps_a(L) = 4 sum_{k >= L} (omega_a/2)^k
    / k!, and the product of m unit factors by at most (1 + eps)^m - 1, about
    m eps. L_a is the fewest points, at least 2, with m eps_a(L_a) <=
    _LOWRANK_TOL: every value of every lattice in the cover errs by at most
    about 1e-15 sum_j |c_j| before rounding (at rho = 1: 61 points for R = 4,
    70 for R = 5). Rounding adds a few 1e-15 sum_j |c_j| (1 + 2 pi |x|), as it
    does in plane_wave_grid, with x the farthest point of the cover: each
    table entry is within a few eps (1 + theta_l R_a) of cos or sin of its
    phase (the two rounded ladder factors, their product, and y_{qB} + h' r
    against y_i, sums of terms up to R_a), and theta_l R_a <= 2 pi rho_a R_a.

    Derivatives. Since d/dy cos(theta_l y) = -theta_l sin(theta_l y) and
    d/dy sin(theta_l y) = theta_l cos(theta_l y), the differentiated table
    D_a is T_a with its cos and sin rows swapped and scaled by -theta_l and
    theta_l, and its 1 row 0. The grid of d F / d x_a is the same core
    contracted with D_a on axis a and the tables T_b on the others:
    plane_wave_grid with coefficients 2 pi i v_a c. D_a interpolates
    2 pi i rho_a t e(rho_a t y) at t = t_j. As
    t T_k = (T_{k-1} + T_{k+1}) / 2, t e(rho_a t y) has the Chebyshev
    coefficients (a_{k-1} + a_{k+1}) / 2 from degree 2 on (a_k those of
    e(rho_a t y)), so its tail from L is at most the value's tail from L - 1
    and the factor errs by at most 2 pi rho_a eps_a(L_a - 1). With the other
    m - 1 unit factors, each within _LOWRANK_TOL / m, the d/dx_a grid errs by
    at most about 2 pi rho_a (eps_a(L_a - 1) + _LOWRANK_TOL) sum_j |c_j|
    before rounding.
    """

    def __init__(self, freqs: np.ndarray, coeffs, origin, shape, h: float):
        m = freqs.shape[1]
        origin = _checked_origin(m, origin, shape)
        coeffs = _checked_coeffs(freqs, coeffs)
        n = np.asarray(shape)
        self.radius = h * (n - 1) / 2
        self.centre = origin + self.radius
        c = coeffs * np.exp(2j * np.pi * (freqs @ self.centre))
        rho = np.abs(freqs).max(axis=0, initial=0.0)
        rho[rho == 0] = 1.0  # an axis without frequency content: every t_j is 0
        lams, self.theta = [], []
        for a in range(m):
            count = _chebyshev_count(TWO_PI * rho[a] * self.radius[a], m)
            lam, nodes = _barycentric_weights(freqs[:, a] / rho[a], count)
            lams.append(lam)  # (L_a, J)
            self.theta.append(TWO_PI * rho[a] * nodes[: count // 2])  # the top nodes, x_l > 0

        # the complex core by real products, one block per real or imaginary
        # part; 2D keeps each weighted table small, 3D chunks the (J, L_2 L_3)
        # pair table
        L = [len(lam) for lam in lams]
        parts = np.stack([c.real, c.imag])  # (2, J)
        if m == 2:
            core = np.stack([(lams[0] * p) @ lams[1].T for p in parts])
        else:
            rows = (parts[:, None, :] * lams[0]).reshape(2 * L[0], -1)
            core = np.zeros((len(rows), L[1] * L[2]))
            step = 128
            for lo in range(0, len(freqs), step):
                pair = lams[1][:, None, lo : lo + step] * lams[2][None, :, lo : lo + step]
                core += rows[:, lo : lo + step] @ pair.reshape(L[1] * L[2], -1).T
        core = core.reshape(2, *L)
        core = core[0] + 1j * core[1]
        # onto the real basis, axis by axis: rows l and L - 1 - l multiply
        # e(+-rho x_l y), so their sum weighs cos and i times their difference sin
        for a in range(m):
            k = np.moveaxis(core, a, 0)
            H = len(k) // 2
            top, bottom = k[:H], k[::-1][:H]
            k = np.concatenate([top + bottom, k[H : len(k) - H], 1j * (top - bottom)])
            core = np.moveaxis(k, 0, a)
        self.core = np.ascontiguousarray(core.real)

    def grid(self, origin, shape, h: float) -> np.ndarray:
        """The values on origin + h * index, shape shape: plane_wave_grid to the bound."""
        return self._contract(self._tables(origin, shape, h))

    def grid_and_gradient(self, origin, shape, h: float) -> tuple[np.ndarray, list[np.ndarray]]:
        """grid, bitwise, and the m partial-derivative grids, from the same tables."""
        tabs = self._tables(origin, shape, h)
        grads = [self._contract(tabs[:a] + [d_tab] + tabs[a + 1 :])
                 for a, d_tab in enumerate(self._derivative_tables(tabs))]
        return self._contract(tabs), grads

    def _derivative_tables(self, tabs: list[np.ndarray]) -> list[np.ndarray]:
        """d/dy of each table: cos and sin rows swapped, times -theta_l and theta_l; 1 row 0."""
        d_tabs = []
        for tab, theta in zip(tabs, self.theta):
            L, H = len(tab), len(theta)
            d_tab = np.zeros_like(tab)
            np.multiply(-theta[:, None], tab[L - H :], out=d_tab[:H])
            np.multiply(theta[:, None], tab[:H], out=d_tab[L - H :])
            d_tabs.append(d_tab)
        return d_tabs

    def _tables(self, origin, shape, h: float) -> list[np.ndarray]:
        """T_a (L_a, n_a) of a lattice in the cover; one that reaches outside is refused.

        Rows cos(theta_l y_i), then 1 when L_a is odd, then sin(theta_l y_i),
        over the top nodes l. Each exp(i theta_l y_i), i = q B + r with
        B = ceil(sqrt(n_a)), is the product of two ladder entries:
        exp(i theta_l y_{qB}) at the lattice's own coordinates and
        exp(i theta_l h r).
        """
        origin = _checked_origin(len(self.theta), origin, shape)
        n = np.asarray(shape)
        r = h * (n - 1) / 2
        shift = origin + r - self.centre  # exactly 0 on the cover itself
        tabs = []
        for a, theta in enumerate(self.theta):
            y = h * (np.arange(n[a]) - (n[a] - 1) / 2) + shift[a]
            if np.abs(y).max(initial=0.0) > self.radius[a] * (1 + 1e-12):
                raise ValueError("the lattice reaches outside the cover of the low-rank fill")
            L, H = self.core.shape[a], len(theta)
            B = math.isqrt(n[a] - 1) + 1
            coarse = np.exp(1j * np.outer(theta, y[::B]))  # (H, ceil(n_a / B))
            fine = np.exp(1j * np.outer(theta, h * np.arange(B)))  # (H, B)
            phase = (coarse[:, :, None] * fine[:, None, :]).reshape(H, -1)[:, : n[a]]
            tab = np.ones((L, n[a]))
            tab[:H] = phase.real
            tab[L - H :] = phase.imag
            tabs.append(tab)
        return tabs

    def _contract(self, tabs: list[np.ndarray]) -> np.ndarray:
        """The real core contracted with one table per axis: the grid, shape (n_1, ..., n_m).

        The trailing axes are contracted first and axis 0 last, by one real
        product written into the one grid-sized array.
        """
        core = self.core
        n = [t.shape[1] for t in tabs]
        L = core.shape
        if len(tabs) == 2:
            rest = core @ tabs[1]
        else:
            rest = (core.reshape(L[0] * L[1], L[2]) @ tabs[2]).reshape(L[0], L[1], n[2])
            rest = np.matmul(tabs[1].T, rest).reshape(L[0], -1)
        out = np.empty((n[0], int(np.prod(n[1:]))))
        np.matmul(tabs[0].T, rest, out=out)
        return out.reshape(n)


def _chebyshev_count(omega: float, m: int) -> int:
    """Fewest points L >= 2 with 4 m sum_{k >= L} (omega/2)^k / k! <= _LOWRANK_TOL.

    Once L + 1 > omega/2 the terms fall geometrically, so the tail is at most
    its first term over 1 - omega / (2 (L + 1)); logs keep large omega finite.
    That bound decreases in L from L = max(2, ceil(omega/2)) on, so L is
    found by doubling the step until the bound holds, then by bisection.
    """
    half = omega / 2
    lo = max(2, math.ceil(half))
    if half == 0:
        return lo

    def holds(count: int) -> bool:
        return (math.log(4 * m) + count * math.log(half) - math.lgamma(count + 1)
                - math.log1p(-half / (count + 1))) <= math.log(_LOWRANK_TOL)

    if holds(lo):
        return lo
    hi, step = lo + 1, 1
    while not holds(hi):  # the bound fails at lo and holds at hi
        lo, hi, step = hi, hi + 2 * step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def _barycentric_weights(t: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange weights (count, len(t)) at t over second-kind Chebyshev points, and the points.

    Second barycentric form with weights (-1)^l, halved at both ends; column
    j interpolates at t_j. A t that equals a point gets that point's unit
    column.
    """
    l = np.arange(count)
    # cos(pi l / (count - 1)), written so the points are exactly odd about 0
    nodes = np.sin(np.pi * (count - 1 - 2 * l) / (2 * (count - 1)))
    w = np.where(l % 2, -1.0, 1.0)
    w[[0, -1]] /= 2
    diff = np.subtract.outer(nodes, t)  # the sign cancels in the normalisation
    hit = diff == 0
    diff[hit] = 1.0
    q = np.divide(w[:, None], diff, out=diff)
    on_node = hit.any(axis=0)
    q[:, on_node] = hit[:, on_node]
    q /= q.sum(axis=0)
    return q, nodes


class MonochromaticWave(PlaneWaveSum):
    """Finite symmetric plane-wave sum; a weak solution of Delta f = -4 pi^2 f.

    One-sided complex form: f(x) = Re sum_n c_n e(<r_n, x>), c_n = sqrt(2/N) a_n.
    """

    def __init__(self, dirs: DirectionSet, coeffs: CoefficientSet):
        if coeffs.count != dirs.count:
            raise ValueError("coefficient count must match direction count")
        super().__init__(dirs.vectors, np.sqrt(2.0 / dirs.count) * coeffs.values)
        self.dirs = dirs
        self.coeffs = coeffs


def make_wave(dirs: DirectionSet, coeffs: CoefficientSet | None = None, seed: int = 0,
              mode: str = "random-phase") -> MonochromaticWave:
    if coeffs is None:
        if mode == "random-phase":
            coeffs = random_phase_coefficients(dirs.count, seed)
        elif mode == "all-ones":
            coeffs = all_ones_coefficients(dirs.count)
        else:
            raise ValueError(f"unknown coefficient mode {mode!r}")
    return MonochromaticWave(dirs, coeffs)


def _check_dim(field: PlaneWaveSum, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != field.dim:
        raise ValueError("point dimension does not match the field")
    return x


def eval_bk(wave: MonochromaticWave, part: SpherePartition, x) -> np.ndarray:
    """Wave packets b_k(x) for k in the selected set, batched over x.

    b_k(x) = (2N mu_k)^{-1/2} * sum over signed atoms in cell k of a_n e(<r_n, x>).
    Conjugate pairing b_{-k} = conj(b_k) holds because cell -k carries exactly
    the negated atoms with conjugated coefficients.
    """
    if part.dirs is not wave.dirs and not np.array_equal(part.dirs.vectors, wave.dirs.vectors):
        raise ValueError("partition was not built from this wave's directions")
    if len(part.selected) == 0:
        raise ValueError("no cell exceeds the mass threshold; degenerate partition")
    x = _check_dim(wave, x)
    pts = x.reshape(-1, wave.dim)
    # e(<r_n, x>) a_n for the N positive atoms only; the negated atom N + n
    # carries conj(a_n), and e(<-r_n, x>) conj(a_n) is the conjugate of that term
    n_dirs = wave.dirs.count
    order = np.argsort(part.atom_cells, kind="stable")  # over the signed atoms [r; -r]
    sorted_cells = part.atom_cells[order]
    cells = []
    for k in part.selected:
        lo = np.searchsorted(sorted_cells, k, side="left")
        hi = np.searchsorted(sorted_cells, k, side="right")
        if hi == lo:
            raise AssertionError("selected cell has no atoms despite positive mass")
        atoms = order[lo:hi]
        cells.append((1.0 / math.sqrt(2 * n_dirs * part.masses[k]), atoms % n_dirs, atoms >= n_dirs))

    out = np.empty((len(pts), len(cells)), dtype=complex)
    for rows in _row_blocks(len(pts), n_dirs):  # one (rows, N) table within the entry budget
        E = 2j * np.pi * (pts[rows] @ wave.dirs.vectors.T)
        np.exp(E, out=E)
        E *= wave.coeffs.values
        for col, (norm, atoms, negated) in enumerate(cells):
            terms = np.take(E, atoms, axis=-1)  # C order, so each row sums as before
            terms.imag[:, negated] *= -1
            out[rows, col] = norm * terms.sum(axis=-1)
    return out.reshape(x.shape[:-1] + (len(cells),))


# ---------------------------------------------------------------------------
# Bessel functions of the first kind, integer order

# Arguments below this are raised to it: every J_k moves by less than 1e-50,
# and one recurrence step grows by less than 1e103
_Z_FLOOR = 1e-100
# The recurrence is rescaled once a bound on its growth passes this
_RESCALE_AT = 1e100


def bessel_sequence(z, K: int) -> np.ndarray:
    """J_k(z) for k = 0..K, z >= 0: shape (K + 1, *z.shape).

    Miller's backward recurrence (Gautschi, SIAM Review 9, 1967):
    f_{k-1} = 2 k / z f_k - f_{k+1} from f_{N+1} = 0, f_N = 1 gives f_k
    proportional to J_k(z), with relative error about
    (J_N / Y_N)(z) Y_k(z) / J_k(z), then J_0 + 2 sum_k J_2k = 1 normalises.
    The start N = max(K, z + 10 (z/2)^{1/3}) + 10 lies 10 orders past K and
    beyond the turning point k = z by more than 9.5 (N/2)^{1/3}, where the
    Airy approximation of J_N puts (J_N / Y_N)(z) below 1e-17. Measured
    against scipy.special.jv, the absolute error is below 1e-15 for orders
    up to 10 on z in [0, 70] and for J_0..J_K at z = 2 pi W,
    K = _chebyshev_count(z, 2), W up to 12; it is about 5e-15 at z = 400,
    from rounding in the normalising sum. Arguments below _Z_FLOOR are
    evaluated at it. Each step grows the values by at most 2 k / z + 1; once
    the product of these factors since the last rescaling passes _RESCALE_AT,
    the last two values are scaled to modulus at most 1, together with
    everything they have fed.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("argument must be nonnegative")
    zz = np.maximum(z, _Z_FLOOR).reshape(-1)  # 1-D, so the rescaling acts in place
    z_max = float(zz.max(initial=0.0))
    top = max(K, math.ceil(z_max) + math.ceil(10 * (z_max / 2) ** (1 / 3))) + 10
    z_min = float(zz.min(initial=1.0))
    out = np.zeros((K + 1, len(zz)))
    f_next, f = np.zeros_like(zz), np.ones_like(zz)
    total = np.zeros_like(zz)  # sum_k f_2k, k >= 1
    bound = 1.0  # of max(|f|, |f_next|) since the last rescaling
    for k in range(top, 0, -1):
        if k <= K:
            out[k] = f
        if k % 2 == 0:
            total += f
        f_next, f = f, 2 * k / zz * f - f_next
        bound *= 2 * k / z_min + 1
        if bound > _RESCALE_AT:
            scale = 1 / np.maximum(np.abs(f), np.abs(f_next))
            for arr in (f, f_next, out, total):
                arr *= scale
            bound = 1.0
    out[0] = f
    out /= f + 2 * total
    return out.reshape(K + 1, *z.shape)


def bessel_j(nu: int, z) -> np.ndarray | float:
    """J_nu(z) for integer nu in [0, 10], z >= 0: the last row of bessel_sequence.

    Absolute accuracy about 1e-15 (see bessel_sequence).
    """
    if nu != int(nu) or nu < 0 or nu > 10:
        raise ValueError("order must be an integer in [0, 10]")
    z = np.asarray(z, dtype=float)
    out = bessel_sequence(z, int(nu))[-1]
    return float(out) if z.ndim == 0 else out
