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
partial derivative. A 2D sum of unit frequencies with more terms
than P = 2K + 1, K the circular orders that the cover's disc resolves, is
first put on P equispaced directions with the same circular spectrum
S_k = sum_j c_j e^{-ik theta_j}, |k| <= K (Rokhlin, J. Comput. Phys. 86,
1990; Appl. Comput. Harmon. Anal. 1, 1993), so the core of a Gaussian
draw sums P terms, not J. What depends on the lattice geometry alone (the
Chebyshev counts, the per-axis tables and, for those P directions, the
directions and their interpolation weights) is memoized on scalar keys in
read-only arrays, so a run of draws on one geometry builds it once and each
draw builds only its spectrum, core and contractions. The lattice owns its
circular spectrum: it computes S_k of its centred 2D sum at most once, when
the compression or its circle (the value and tangential derivative on a
circle about the cover's centre, a Jacobi-Anger series) first reads it, so
2D sums kept with their J terms compute it only for a circle, and 3D sums
never. on_grid builds the core over the lattice itself; the nondegeneracy
probe builds one over its box and reads its circle |x| = W from it, and the
measurement grid of the same draw reuses the core.
plane_wave_grid is the direct rank-J product they are checked against.
The deterministic wave is
f(x) = (2N)^{-1/2} * sum over |n| <= N of a_n e(<r_n, x>) with
a_{-n} = conj(a_n), r_{-n} = -r_n and |a_n| = 1. A MonochromaticWave is its
DirectionSet of the r_n and the complex array of the a_n (make_wave draws
them); it folds the sum to the one-sided form c_n = sqrt(2/N) a_n, so results
are exactly real.
"""

from __future__ import annotations

import functools
import math

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

    def gradient(self, x) -> np.ndarray:
        """Exact term-by-term gradient, shape x.shape."""
        pts, batch = self._points(x)
        grad = np.empty(pts.shape)
        for rows, psi in self._phases(pts):
            grad[rows] = np.sin(psi, out=psi) @ self._slope
        return grad.reshape(*batch, self.dim)

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
        return _LowRankLattice(self.freqs, self.amps, origin, shape, h).on_grid(origin, shape, h)


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
    (origin, shape, h), like plane_wave_grid, with the same refusals, and
    a sum in R^m with m outside {2, 3} is refused. Let
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
    real. on_grid and
    grid_and_gradient contract this real core with real per-axis tables
    T_a (L_a, n'_a) of that basis at the coordinates of any lattice
    (origin', shape', h') in the cover, y_i = h' (i - (n'_a - 1) / 2) +
    (c'_a - c_a), c' the lattice's centre; on the cover itself the shift
    c' - c is exactly 0. Each table comes from two short ladders per top
    point: with B = ceil(sqrt(n'_a)) and i = q B + r, exp(i theta_l y_i) is
    the product of exp(i theta_l y_{qB}), at the lattice's own coordinates,
    and exp(i theta_l h' r): about 2 sqrt(n'_a) complex exponentials per
    top point instead of n'_a per point. The cost is about
    J prod L_a for the core (P prod L_a once compressed, see below) and
    n^m L real multiply-adds per contraction, instead of J n^m per grid.
    A lattice with a coordinate
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

    Compression. In 2D, when P = 2K + 1 < J and every frequency is a unit
    vector (within 1e-12), with K = _chebyshev_count(w, 2) (_disc_order),
    w = 2 pi |R| and |R| the distance from the cover's centre to its corner,
    the sum is first put on the P directions theta_p = 2 pi p / P (Rokhlin,
    J. Comput. Phys. 86, 1990; Appl. Comput. Harmon. Anal. 1, 1993). With
    y = |y| (cos phi, sin phi) and v_j = (cos theta_j, sin theta_j), the
    Jacobi-Anger expansion gives sum_j c_j e(<v_j, y>) =
    sum_k i^k J_k(2 pi |y|) S_k e^{ik phi}, S_k = sum_j c_j e^{-ik theta_j}
    (the lattice's own spectrum: _circle_spectrum of the sum about the
    centre, c_j carrying the centre's phase). The new coefficients c'_p,
    the inverse FFT of S_k, |k| <= K, give the spectrum
    S'_k = S_{k mod P} (the residue taken in -K..K): S'_k = S_k for
    |k| <= K, and |S'_k| <= sum_j |c_j| for every k. Every point of the
    cover has |y| <= |R| (1 + 1e-12) and |J_k(2 pi |y|)| <= (w/2)^k / k!
    (up to a factor (1 + 1e-12)^k), so the aliased orders |k| > K weigh at
    most 2 sum_{k > K} (w/2)^k / k! sum_j |c_j|, as the orders that the
    original sum has there do: the two sums differ by at most
    4 sum_{k > K} (w/2)^k / k! sum_j |c_j| <= _LOWRANK_TOL / 2 sum_j |c_j|.
    d/dx_1 multiplies c_j by 2 pi i cos theta_j, which turns the spectrum
    into pi i (S_{k-1} + S_{k+1}) (and d/dx_2, with sin, into
    pi (S_{k-1} - S_{k+1})): unchanged for |k| < K and at most
    2 pi sum_j |c_j| elsewhere, so the derivatives differ by at most
    2 pi 4 sum_{k >= K} (w/2)^k / k! sum_j |c_j| <= pi _LOWRANK_TOL
    sum_j |c_j|, as in the derivative bound of circle. The
    core, the tables and the contractions are then those of the sum
    (theta_p, c'_p), and the bounds above hold for it with sum_p |c'_p| in
    place of sum_j |c_j|. By Cauchy-Schwarz and Parseval,
    sum_p |c'_p| <= (sum_{|k| <= K} |S_k|^2)^{1/2} <= sqrt(P) sum_j |c_j|;
    for a Gaussian draw, whose S_k have mean square sum_j |c_j|^2, it is
    about sqrt(P) (sum_j |c_j|^2)^{1/2}: 17 at W = 4 and 27 at W = 16
    against sum_j |c_j| = 45 at M = 1024. Rounding: each ladder power
    e^{-ik theta_j} of _circle_spectrum is within about |k| eps of its value
    (measured up to 1.05 |k| eps at K = 237), so S_k is within |k| eps
    sum_j |c_j|, and since sum_k k^2 J_k(x)^2 = x^2 / 2 the compressed
    values move by at most about eps (1 + w / sqrt 2) sqrt(2K + 1)
    sum_j |c_j|, the derivatives by 2 pi times that. That worst case is
    about sqrt(K) times the rounding of the direct fill. Measured on the
    probe boxes of Gaussian draws at M = 1024, the value fill stays within
    4.7e-14 of plane_wave_grid at W = 4 (2.3e-14 uncompressed, 20 draws)
    and 1.4e-13 at W = 16 (1.1e-13, 4 draws). Sums with P >= J (atomic
    measures of few atoms, and N = 64 waves on every cover whose corner is
    more than about 1.3 from its centre), sums off the unit circle, and all
    3D sums keep their J terms. The spectrum is computed at most once per
    lattice, and only when it is read: at construction for a compressed
    sum, otherwise on the first circle, which reads the same S_k. A
    kept sum that reads no circle (a doubling box of an N = 64 wave, a
    semilocal window) computes none; computed eagerly, S_k (K = 98,
    J = 64) would add 36 us to the 1.0 ms fill of a 229^2 doubling box.

    Set-up. What depends on the lattice geometry alone is memoized on
    scalar keys (functools.lru_cache, safe under threads), so a run of
    draws on one geometry builds it once: _chebyshev_count on (omega, m);
    the tables T_a and D_a (_axis_table, _axis_derivative_table) on
    (rho_a, L_a, n_a, h, shift_a), which fix theta_l = 2 pi rho_a x_l and
    the y_i (self.axes holds (rho_a, L_a), and _axis_keys gives a
    lattice's keys); and, for a compressed sum, the P directions
    (_equispaced_directions, on P) and their weights Lam_a
    (_equispaced_weights, on (P, a, L_a)); the circle's Bessel factors
    (_circle_factors, on its radius). Every draw of a 2D uniform
    measure is compressed onto the same P directions, so it repeats
    every key, and builds only its spectrum, coefficients c'_p, core and
    contractions. Sums kept with their J terms build their weights per
    sum as before; a random rho_a (3D uniform draws) misses the table
    memo on every draw. At maxsize the memos hold 16 tables T_a and 8
    tables D_a of L_a n_a doubles, 8 weight tables of L_a P doubles, 4
    direction sets, 8 circles' factors and 256 counts. The ns-estimate
    geometry (probe box 101^2 at pitch 0.1, grid 161^2, L_a = 70, P = 179
    at W = 4) fills 4 + 2 tables and 2 weight tables, 0.61 MB; at W = 16 (341^2, 641^2,
    L_a = 176, P = 475) 5.1 MB, and 24 MB if every slot of each memo held
    its largest W = 16 array. Each memoized array is read-only: writing
    to it raises ValueError, so no caller can change what the next
    lattice reads.
    """

    def __init__(self, freqs: np.ndarray, coeffs, origin, shape, h: float):
        m = freqs.shape[1]
        if m not in (2, 3):
            raise ValueError("grid geometry supports m in {2, 3}")
        origin = _checked_origin(m, origin, shape)
        coeffs = _checked_coeffs(freqs, coeffs)
        n = np.asarray(shape)
        self.radius = h * (n - 1) / 2
        self.centre = origin + self.radius
        c = coeffs * np.exp(2j * np.pi * (freqs @ self.centre))
        self._centred = freqs, c  # the sum about the centre, whose S_k _spectrum reads
        compressed = (m == 2 and 2 * _disc_order(self.radius) + 1 < len(c)
                      and _on_unit_circle(freqs))
        if compressed:  # onto P = 2K + 1 equispaced directions, c'_p the inverse FFT of S_k
            c = np.fft.ifft(np.fft.ifftshift(self._spectrum))  # S_k at k mod P
            freqs = _equispaced_directions(len(c))
        rho = np.abs(freqs).max(axis=0, initial=0.0)
        rho[rho == 0] = 1.0  # an axis without frequency content: every t_j is 0
        lams, self.axes = [], []
        for a in range(m):
            count = _chebyshev_count(TWO_PI * rho[a] * self.radius[a], m)
            lams.append(_equispaced_weights(len(c), a, count) if compressed  # (L_a, J)
                        else _barycentric_weights(freqs[:, a] / rho[a], count))
            self.axes.append((float(rho[a]), count))

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

    def on_grid(self, origin, shape, h: float) -> np.ndarray:
        """The values on origin + h * index, shape shape: plane_wave_grid to the bound."""
        return self._contract([_axis_table(*key) for key in self._axis_keys(origin, shape, h)])

    def grid_and_gradient(self, origin, shape, h: float) -> tuple[np.ndarray, list[np.ndarray]]:
        """on_grid, bitwise, and the m partial-derivative grids, from the same tables."""
        keys = self._axis_keys(origin, shape, h)
        tabs = [_axis_table(*key) for key in keys]
        grads = [self._contract(tabs[:a] + [_axis_derivative_table(*key)] + tabs[a + 1 :])
                 for a, key in enumerate(keys)]
        return self._contract(tabs), grads

    def circle(self, radius: float, h: float) -> tuple[np.ndarray, np.ndarray]:
        """F and its tangential derivative at c + r (cos a_p, sin a_p), a_p = 2 pi p / n.

        c is the cover's centre, r the radius and n = max(64, ceil(2 pi r / h))
        equispaced angles. With v_j = (cos theta_j, sin theta_j) and
        w = 2 pi r, the Jacobi-Anger expansion e^{i w cos t} =
        sum_k i^k J_k(w) e^{ikt} gives F(c + r (cos a, sin a)) =
        Re sum_k i^k J_k(w) S_k e^{ika}, with S_k the lattice's spectrum of the
        sum about c. The tangential derivative, d/da over r, is the same
        series with terms times ik / r. Since J_{-k} = (-1)^k J_k, the factor
        of order k is i^|k| J_|k|(w); the factors depend on r alone and are
        computed once per r (_circle_factors). The series reads the central
        orders -K..K, K = _chebyshev_count(w, 2), of the lattice's S_k, which
        runs to the cover's K (_disc_order), so a circle that needs more
        orders than the cover's disc, about one reaching past its corner, is
        refused. Each series is one inverse FFT of the spectrum folded mod n,
        which is exact at n equispaced angles, so 2K + 1 may exceed n. Since
        |J_k(w)| <= (w/2)^k / k!, the dropped terms weigh at most
        2 sum_{k > K} (w/2)^k / k! sum_j |c_j| in the value and
        2 pi sum_{k >= K} (w/2)^k / k! sum_j |c_j| in the derivative, both
        below 1e-15 sum_j |c_j|; the rounding of S_k (within about
        |k| eps sum_j |c_j|, see _circle_spectrum) comes on top. A sum outside
        R^2, a radius that is not finite and > 0, a pitch that is not > 0, and
        frequencies off the unit circle by more than 1e-12 (the powers behind
        S_k need |v_j| = 1) are refused.
        """
        if len(self.axes) != 2:
            raise ValueError("the circle needs a sum in R^2")
        if not (0 < radius < math.inf and h > 0):
            raise ValueError("the circle needs a finite radius > 0 and a pitch > 0")
        spectrum = self._spectrum
        factors = _circle_factors(radius)
        K, mid = len(factors) // 2, len(spectrum) // 2
        if mid < K:
            raise ValueError("the circle needs orders beyond the cover's disc")
        k = np.arange(-K, K + 1)
        terms = factors * spectrum[mid - K : mid + K + 1]
        n = max(64, int(np.ceil(TWO_PI * radius / h)))
        spec = np.zeros((2, n), dtype=complex)
        np.add.at(spec[0], k % n, terms)
        np.add.at(spec[1], k % n, 1j * k / radius * terms)
        val, tangential = np.fft.ifft(spec, norm="forward").real
        return val, tangential

    @functools.cached_property
    def _spectrum(self) -> np.ndarray:
        """S_k of the 2D sum about the centre, k = -K..K, K = _disc_order: once, when first read.

        The compression reads it at construction, the circle otherwise; a sum
        off the unit circle by more than 1e-12 is refused.
        """
        freqs, c = self._centred
        if not _on_unit_circle(freqs):
            raise ValueError("the circle needs unit frequencies (within 1e-12)")
        return _circle_spectrum(freqs, c, _disc_order(self.radius))

    def _axis_keys(self, origin, shape, h: float) -> list[tuple]:
        """(rho_a, L_a, n_a, h, shift_a) per axis of a lattice in the cover: _axis_table's keys.

        shift = c' - c, exactly 0 on the cover itself. A lattice with a
        coordinate |y_i| > R_a (1 + 1e-12) is refused; y_i is monotone in i,
        so its end points are the extremes.
        """
        origin = _checked_origin(len(self.axes), origin, shape)
        n = np.asarray(shape)
        r = h * (n - 1) / 2
        shift = origin + r - self.centre
        keys = []
        for a, (rho, count) in enumerate(self.axes):
            n_a, s_a = int(n[a]), float(shift[a])
            ends = (_axis_coordinates(i, n_a, h, s_a) for i in (0, n_a - 1))
            if max(map(abs, ends)) > self.radius[a] * (1 + 1e-12):
                raise ValueError("the lattice reaches outside the cover of the low-rank fill")
            keys.append((rho, count, n_a, float(h), s_a))
        return keys

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


def _axis_coordinates(i, n: int, h: float, shift: float):
    """y_i = h (i - (n - 1) / 2) + shift: the coordinates of a lattice axis about the cover's centre."""
    return h * (i - (n - 1) / 2) + shift


def _phase_rates(rho: float, count: int) -> np.ndarray:
    """theta_l = 2 pi rho x_l over the top Chebyshev points x_l > 0 (l < count // 2)."""
    return TWO_PI * rho * _chebyshev_points(count)[: count // 2]


@functools.lru_cache(maxsize=16)
def _axis_table(rho: float, count: int, n: int, h: float, shift: float) -> np.ndarray:
    """T_a (count, n) at y_i = _axis_coordinates(i, n, h, shift): read-only, once per key.

    Rows cos(theta_l y_i), then 1 when count is odd, then sin(theta_l y_i),
    theta_l = _phase_rates(rho, count). Each exp(i theta_l y_i),
    i = q B + r with B = ceil(sqrt(n)), is the product of two ladder
    entries: exp(i theta_l y_{qB}) at the lattice's own coordinates and
    exp(i theta_l h r).
    """
    theta = _phase_rates(rho, count)
    y = _axis_coordinates(np.arange(n), n, h, shift)
    H = len(theta)
    B = math.isqrt(n - 1) + 1
    coarse = np.exp(1j * np.outer(theta, y[::B]))  # (H, ceil(n / B))
    fine = np.exp(1j * np.outer(theta, h * np.arange(B)))  # (H, B)
    phase = (coarse[:, :, None] * fine[:, None, :]).reshape(H, -1)[:, :n]
    tab = np.ones((count, n))
    tab[:H] = phase.real
    tab[count - H :] = phase.imag
    tab.flags.writeable = False
    return tab


@functools.lru_cache(maxsize=8)
def _axis_derivative_table(rho: float, count: int, n: int, h: float, shift: float) -> np.ndarray:
    """D_a = d/dy of _axis_table at the same key: read-only, once per key.

    The cos and sin rows swapped, times -theta_l and theta_l; the 1 row 0.
    """
    tab = _axis_table(rho, count, n, h, shift)
    theta = _phase_rates(rho, count)
    H = len(theta)
    d_tab = np.zeros_like(tab)
    np.multiply(-theta[:, None], tab[count - H :], out=d_tab[:H])
    np.multiply(theta[:, None], tab[:H], out=d_tab[count - H :])
    d_tab.flags.writeable = False
    return d_tab


def _on_unit_circle(freqs: np.ndarray) -> bool:
    """Every frequency of a 2D sum a unit vector, within 1e-12."""
    return bool(np.all(np.abs(np.hypot(freqs[:, 0], freqs[:, 1]) - 1.0) <= 1e-12))


def _circle_spectrum(freqs: np.ndarray, coeffs: np.ndarray, K: int) -> np.ndarray:
    """S_k = sum_j c_j e^{-ik theta_j} for k = -K..K, with v_j = (cos theta_j, sin theta_j).

    The frequencies must lie on the unit circle (_on_unit_circle); each is
    read as its direction v_j / |v_j|. With B = isqrt(K) + 1 and k = q B + r,
    e^{-ik theta_j} is the product of the ladder entries e^{-iqB theta_j} and
    e^{-ir theta_j}, so S_k for k >= 0 is one complex product of a (Q, J)
    and a (J, B) ladder table, Q B > K, and S_{-k} the conjugate of the same
    product with conj(c): about 2 sqrt(K) J products and no (K, J) table.
    Each power is within about |k| eps of e^{-ik theta_j}, as the rounding of
    e^{-iB theta_j} compounds over the q steps of its ladder.
    """
    u = (freqs[:, 0] - 1j * freqs[:, 1]) / np.hypot(freqs[:, 0], freqs[:, 1])  # e^{-i theta_j}
    B = math.isqrt(K) + 1
    fine = _ladder(u, B)  # e^{-ir theta_j}, r < B
    coarse = _ladder(fine[-1] * u, K // B + 1)  # e^{-iqB theta_j}, q B <= K
    pos, neg = ((coarse * a) @ fine.T for a in (coeffs, np.conj(coeffs)))
    return np.concatenate([np.conj(neg.reshape(-1)[K:0:-1]), pos.reshape(-1)[: K + 1]])


@functools.lru_cache(maxsize=8)
def _circle_factors(W: float) -> np.ndarray:
    """i^|k| J_|k|(2 pi W) for k = -K..K, K = _chebyshev_count(2 pi W, 2): read-only, once per W."""
    w = TWO_PI * W
    K = _chebyshev_count(w, 2)
    k = np.abs(np.arange(-K, K + 1))
    factors = np.array([1, 1j, -1, -1j])[k % 4] * bessel_sequence(w, K)[k]
    factors.flags.writeable = False
    return factors


def _ladder(z: np.ndarray, count: int) -> np.ndarray:
    """The powers z^0, ..., z^(count - 1), one product per row: shape (count, len(z))."""
    out = np.empty((count, len(z)), dtype=complex)
    out[0] = 1.0
    for row in range(1, count):
        np.multiply(out[row - 1], z, out=out[row])
    return out


def _disc_order(radius) -> int:
    """K = _chebyshev_count(2 pi |R|, 2): the circular orders of a 2D cover of half-widths R."""
    return _chebyshev_count(TWO_PI * math.hypot(*radius), 2)


@functools.lru_cache(maxsize=4)
def _equispaced_directions(P: int) -> np.ndarray:
    """(cos theta_p, sin theta_p), theta_p = 2 pi p / P: shape (P, 2), read-only, once per P."""
    theta = TWO_PI * np.arange(P) / P
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    dirs.flags.writeable = False
    return dirs


@functools.lru_cache(maxsize=8)
def _equispaced_weights(P: int, axis: int, count: int) -> np.ndarray:
    """Lam (count, P) of _barycentric_weights on one axis of the P directions: read-only."""
    v = _equispaced_directions(P)[:, axis]
    lam = _barycentric_weights(v / np.abs(v).max(), count)
    lam.flags.writeable = False
    return lam


@functools.lru_cache(maxsize=256)
def _chebyshev_count(omega: float, m: int) -> int:
    """Fewest points L >= 2 with 4 m sum_{k >= L} (omega/2)^k / k! <= _LOWRANK_TOL.

    Once L + 1 > omega/2 the terms fall geometrically, so the tail is at most
    its first term over 1 - omega / (2 (L + 1)); logs keep large omega finite.
    That bound decreases in L from L = max(2, ceil(omega/2)) on, so L is the
    first count from there on where it holds.
    """
    half = omega / 2
    count = max(2, math.ceil(half))
    if half == 0:
        return count
    while (math.log(4 * m) + count * math.log(half) - math.lgamma(count + 1)
           - math.log1p(-half / (count + 1))) > math.log(_LOWRANK_TOL):
        count += 1
    return count


def _barycentric_weights(t: np.ndarray, count: int) -> np.ndarray:
    """Lagrange weights (count, len(t)) at t over the second-kind Chebyshev points.

    Second barycentric form with weights (-1)^l, halved at both ends; column
    j interpolates at t_j. A t that equals a point gets that point's unit
    column.
    """
    nodes = _chebyshev_points(count)
    w = np.where(np.arange(count) % 2, -1.0, 1.0)
    w[[0, -1]] /= 2
    diff = np.subtract.outer(nodes, t)  # the sign cancels in the normalisation
    hit = diff == 0
    diff[hit] = 1.0
    q = np.divide(w[:, None], diff, out=diff)
    on_node = hit.any(axis=0)
    q[:, on_node] = hit[:, on_node]
    q /= q.sum(axis=0)
    return q


def _chebyshev_points(count: int) -> np.ndarray:
    """The count >= 2 second-kind Chebyshev points cos(pi l / (count - 1)), exactly odd about 0."""
    l = np.arange(count)
    return np.sin(np.pi * (count - 1 - 2 * l) / (2 * (count - 1)))


class MonochromaticWave(PlaneWaveSum):
    """Finite symmetric plane-wave sum; a weak solution of Delta f = -4 pi^2 f.

    dirs holds the directions r_n and coeffs the complex a_n, one per
    direction, each of unit modulus within 1e-12. One-sided complex form:
    f(x) = Re sum_n c_n e(<r_n, x>), c_n = sqrt(2/N) a_n.
    """

    def __init__(self, dirs: DirectionSet, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (dirs.count,):
            raise ValueError("need one coefficient per direction")
        if not np.all(np.abs(np.abs(coeffs) - 1.0) <= 1e-12):  # NaN fails too
            raise ValueError("coefficients must have unit modulus within 1e-12")
        super().__init__(dirs.vectors, np.sqrt(2.0 / dirs.count) * coeffs)
        self.dirs = dirs
        self.coeffs = coeffs


def make_wave(dirs: DirectionSet, seed: int = 0, mode: str = "random-phase") -> MonochromaticWave:
    """The wave on dirs with drawn or unit coefficients.

    "random-phase" draws a_n = e(u_n) with u_n = default_rng(seed).random(N);
    "all-ones" sets every a_n = 1.
    """
    if mode == "random-phase":
        coeffs = np.exp(2j * np.pi * np.random.default_rng(seed).random(dirs.count))
    elif mode == "all-ones":
        coeffs = np.ones(dirs.count, dtype=complex)
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
        E *= wave.coeffs
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
