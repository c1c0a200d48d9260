import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monowave.directions import generate_uniform_directions, log_rational_directions
from monowave.field import (
    _LOWRANK_TOL,
    PlaneWaveSum,
    _axis_derivative_table,
    _axis_table,
    _barycentric_weights,
    _chebyshev_count,
    _chebyshev_points,
    _LowRankLattice,
    _phase_rates,
    make_wave,
)
from monowave.gaussian import check_nondegenerate, sample_uniform
from monowave.grid import (
    ScalarGrid,
    _squared_bound,
    lattice_ball,
    lattice_points,
    plane_wave_grid,
    sample_on_grid,
)

from conftest import chebyshev_tail, fill_rounding


def vertex_radii(g: ScalarGrid) -> np.ndarray:
    """Oracle: np.linalg.norm of every vertex's offset from the mask center."""
    axes = [g.axis_coords(a) for a in range(g.dim)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return np.linalg.norm(pts - g.ball_center, axis=-1)


def test_sample_on_grid_geometry():
    g = sample_on_grid(lambda p: p[:, 0], np.array([1.0, -2.0]), 3.0, 0.1)
    assert g.dim == 2 and g.spacing == 0.1
    assert all(n % 2 == 1 for n in g.shape)
    # center vertex carries the center value
    mid = tuple(n // 2 for n in g.shape)
    assert g.grid_values()[mid] == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(g.mask(), vertex_radii(g) <= g.ball_radius)
    assert g.ball_radius == 3.0


def test_sample_on_grid_guards():
    with pytest.raises(ValueError):
        sample_on_grid(lambda p: p[:, 0], np.zeros(2), 2.0, 0.3)
    for h in (0.0, -0.05):
        with pytest.raises(ValueError, match="positive"):
            sample_on_grid(lambda p: p[:, 0], np.zeros(2), 2.0, h)
    with pytest.raises(ValueError):
        sample_on_grid(lambda p: p[:, 0], np.zeros(4), 2.0, 0.1)


def test_wave_fast_path_matches_callable_path():
    w = make_wave(generate_uniform_directions(2, 24, 7), seed=2)
    fast = sample_on_grid(w, np.array([0.5, 0.5]), 2.0, 0.1)
    slow = sample_on_grid(lambda p: w.value(p), np.array([0.5, 0.5]), 2.0, 0.1)
    assert np.max(np.abs(fast.values - slow.values)) < 1e-9
    w3 = make_wave(generate_uniform_directions(3, 10, 7), seed=2)
    fast3 = sample_on_grid(w3, np.zeros(3), 1.2, 0.15)
    slow3 = sample_on_grid(lambda p: w3.value(p), np.zeros(3), 1.2, 0.15)
    assert np.max(np.abs(fast3.values - slow3.values)) < 1e-9


def test_plane_wave_grid_against_direct_sum():
    rng = np.random.default_rng(3)
    freqs = rng.standard_normal((5, 2))
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    origin = np.array([-0.4, 0.2])
    shape = (6, 7)
    h = 0.13
    got = plane_wave_grid(freqs, coeffs, origin, shape, h)
    pts = np.stack(
        np.meshgrid(*[origin[a] + h * np.arange(shape[a]) for a in range(2)], indexing="ij"),
        axis=-1,
    ).reshape(-1, 2)
    direct = (np.exp(2j * np.pi * (pts @ freqs.T)) @ coeffs).real.reshape(shape)
    assert got.shape == shape and got.flags.c_contiguous
    assert np.max(np.abs(got - direct)) < 1e-12
    # 3D, with more terms than one 3D chunk
    freqs = rng.standard_normal((300, 3))
    coeffs = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    origin, shape = rng.standard_normal(3), (5, 6, 4)
    got = plane_wave_grid(freqs, coeffs, origin, shape, 0.11)
    axes = [origin[a] + 0.11 * np.arange(shape[a]) for a in range(3)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    direct = (np.exp(2j * np.pi * (pts @ freqs.T)) @ coeffs).real.reshape(shape)
    assert got.shape == shape
    assert np.max(np.abs(got - direct)) < 1e-11


def _lowrank_tolerance(coeffs, origin, shape, h) -> float:
    """Allowed |low-rank - direct| on any lattice in the cover (origin, shape, h):
    the truncation bound plus rounding of both fills."""
    return (_LOWRANK_TOL + fill_rounding(origin, shape, h)) * np.abs(coeffs).sum()


def _gradient_tolerance(freqs, coeffs, origin, shape, h, a) -> float:
    """Allowed |low-rank - direct| for d/dx_a on any lattice in the cover (origin, shape, h).

    The bound of _LowRankLattice, 2 pi rho_a (eps_a(L_a - 1) + _LOWRANK_TOL)
    sum_j |c_j|, with L_a and omega_a as the cover picks them, and the
    rounding of _lowrank_tolerance on the derivative's scale
    2 pi rho_a sum_j |c_j|.
    """
    m = freqs.shape[1]
    rho = np.abs(freqs[:, a]).max() or 1.0
    omega = 2 * math.pi * rho * h * (shape[a] - 1) / 2
    L = _chebyshev_count(omega, m)
    scale = 2 * math.pi * rho * np.abs(coeffs).sum()
    return (chebyshev_tail(omega, L - 1) + _LOWRANK_TOL + fill_rounding(origin, shape, h)) * scale


def _assert_lattice_matches_direct(lattice, cover, freqs, coeffs, origin, shape, h):
    """The lattice's fills of (origin, shape, h) against plane_wave_grid, within the cover's bounds.

    The value grid of grid_and_gradient is on_grid's, bitwise, and each d/dx_a
    grid is the direct fill with coefficients 2 pi i v_a c.
    """
    got = lattice.on_grid(origin, shape, h)
    want = plane_wave_grid(freqs, coeffs, origin, shape, h)
    assert got.shape == want.shape == shape
    assert not np.isnan(got).any()
    assert np.abs(got - want).max() <= _lowrank_tolerance(coeffs, *cover)
    val, grads = lattice.grid_and_gradient(origin, shape, h)
    assert np.array_equal(val, got)
    assert len(grads) == len(shape)
    for a, grad in enumerate(grads):
        want = plane_wave_grid(freqs, 2j * np.pi * freqs[:, a] * coeffs, origin, shape, h)
        assert grad.shape == shape
        assert np.abs(grad - want).max() <= _gradient_tolerance(freqs, coeffs, *cover, a)


def _assert_lowrank_matches_direct(freqs, coeffs, origin, shape, h):
    # the lattice over its own box, which is on_grid, byte for byte
    cover = (origin, shape, h)
    lattice = _LowRankLattice(freqs, coeffs, *cover)
    _assert_lattice_matches_direct(lattice, cover, freqs, coeffs, *cover)
    assert PlaneWaveSum(freqs, coeffs).on_grid(*cover).tobytes() == lattice.on_grid(*cover).tobytes()


def _random_sum(rng, m: int):
    J = int(rng.integers(1, 300))
    freqs = rng.standard_normal((J, m))
    freqs *= rng.uniform(0.2, 1.5) / np.linalg.norm(freqs, axis=1, keepdims=True)
    return freqs, rng.standard_normal(J) + 1j * rng.standard_normal(J)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_lowrank_fill_matches_direct_fill(seed, m):
    rng = np.random.default_rng(seed)
    freqs, coeffs = _random_sum(rng, m)
    origin = rng.uniform(-3.0, 3.0, m)  # off-centre boxes: the centre phase is folded in
    shape = tuple(int(n) for n in rng.integers(2, 60 if m == 2 else 20, m))
    _assert_lowrank_matches_direct(freqs, coeffs, origin, shape, float(rng.uniform(0.02, 0.25)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_lattice_fills_sub_boxes_of_its_cover(seed, m):
    # random lattices inside a random cover, at their own pitch and mostly
    # off the cover's centre, within the cover's bound
    rng = np.random.default_rng(seed)
    freqs, coeffs = _random_sum(rng, m)
    cover = (rng.uniform(-3.0, 3.0, m), tuple(int(n) for n in rng.integers(2, 60 if m == 2 else 20, m)),
             float(rng.uniform(0.02, 0.25)))
    lattice = _LowRankLattice(freqs, coeffs, *cover)
    lo_cover = cover[0]
    hi_cover = cover[0] + cover[2] * (np.asarray(cover[1]) - 1)
    for _ in range(3):
        h = float(rng.uniform(0.02, 0.25))
        lo = rng.uniform(lo_cover, hi_cover)
        hi = rng.uniform(lo, hi_cover)
        shape = tuple(int(n) for n in np.floor((hi - lo) / h).astype(int) + 1)
        _assert_lattice_matches_direct(lattice, cover, freqs, coeffs, lo, shape, h)


@pytest.mark.parametrize("m", [2, 3])
def test_lattice_refuses_a_box_outside_its_cover(m):
    F = sample_uniform(m, 64, m)
    origin, shape, h = np.full(m, -1.0), (21, 17, 11)[:m], 0.1
    lattice = _LowRankLattice(F.freqs, F.amps, origin, shape, h)
    assert lattice.on_grid(origin, shape, h).tobytes() == F.on_grid(origin, shape, h).tobytes()
    for a in range(m):
        # one step past either end of one axis
        longer = tuple(n + (i == a) for i, n in enumerate(shape))
        shifted = origin - h * (np.arange(m) == a)
        for box in [(origin, longer, h), (shifted, shape, h)]:
            for fill in (lattice.on_grid, lattice.grid_and_gradient):
                with pytest.raises(ValueError, match="outside the cover"):
                    fill(*box)
    # a ball box as wide as the cover's longest axis overhangs its shorter ones
    with pytest.raises(ValueError, match="outside the cover"):
        sample_on_grid(lattice, origin + h * (np.asarray(shape) - 1) / 2,
                       h * (np.asarray(shape) - 1).max() / 2, h)
    # the finest sub-lattice that reaches both ends of the cover is accepted
    fine = tuple(2 * n - 1 for n in shape)
    assert lattice.on_grid(origin, fine, h / 2).shape == fine
    # the nondegeneracy probe's box holds the measurement grid on B(W)
    report = check_nondegenerate(F, 4.0, 0.1)
    g = sample_on_grid(report.lattice, np.zeros(m), 4.0, 0.05 if m == 2 else 0.1)
    want = sample_on_grid(F, np.zeros(m), 4.0, g.spacing).values
    assert np.abs(g.values - want).max() <= 1e-13 * np.abs(F.amps).sum()


@pytest.mark.parametrize("freqs", [
    np.array([[1.0, 0.0], [0.0, 1.0]]),
    np.array([[-1.0, 0.0], [0.0, -1.0], [0.6, 0.8]]),
    np.eye(3),
    log_rational_directions(8).vectors,
], ids=["axes-2d", "negative-axes", "axes-3d", "log-rational"])
def test_lowrank_fill_with_frequencies_on_chebyshev_points(freqs):
    # t = v / max|v| lands on the points +-1, and on 0 whenever the count is odd;
    # box sizes 2..24 give both parities of the count
    coeffs = np.exp(1j * np.arange(len(freqs)))
    for n in range(2, 25):
        shape = (n, n + 1, n)[: freqs.shape[1]]
        _assert_lowrank_matches_direct(freqs, coeffs, np.full(freqs.shape[1], -0.3), shape, 0.2)


def _direct_phases(freqs, cover, origin, shape, h, a, L) -> np.ndarray:
    """Oracle: the phases 2 pi rho_a x_l y_i of axis a straight from their definitions.

    x_l are the top Chebyshev points (x_l > 0) and y_i = h (i - (n_a - 1) / 2)
    + (c'_a - c_a) the lattice's coordinates about the cover's centre c.
    """
    x = _chebyshev_points(L)[: L // 2]
    rho = np.abs(freqs[:, a]).max()
    cover_centre = cover[0][a] + cover[2] * (cover[1][a] - 1) / 2
    centre = origin[a] + h * (shape[a] - 1) / 2
    y = h * (np.arange(shape[a]) - (shape[a] - 1) / 2) + (centre - cover_centre)
    return 2 * np.pi * rho * np.outer(x, y)


def _assert_tables_match_direct_phases(lattice, freqs, cover, origin, shape, h) -> set:
    """Each table row is cos or sin of its direct phase within 8 eps (1 + theta_l R_a).

    theta_l R_a, R_a the cover's half-width, is the largest phase of row l
    on any lattice in the cover. The ladder product rounds each of its two
    exponentials and their product, and y_{qB} + h r differs from y_i by
    rounding of the coordinates, which are sums of terms up to R_a: a few
    eps (1 + theta_l R_a) in all (at most 2.1 eps (1 + theta_l R_a) measured
    over covers of 1 to 401 points). Returns the parities of the tables' row
    counts.
    """
    keys = lattice._axis_keys(origin, shape, h)
    tabs = [_axis_table(*key) for key in keys]
    d_tabs = [_axis_derivative_table(*key) for key in keys]
    eps = np.finfo(float).eps
    parities = set()
    for a, (tab, d_tab, key) in enumerate(zip(tabs, d_tabs, keys)):
        theta = _phase_rates(*key[:2])
        L, H = len(tab), len(theta)
        assert tab.shape == d_tab.shape == (L, shape[a]) and tab.dtype == float
        assert L == lattice.core.shape[a] and H == L // 2
        parities.add(L % 2)
        phase = _direct_phases(freqs, cover, origin, shape, h, a, L)
        bound = 8 * eps * (1 + theta[:, None] * cover[2] * (cover[1][a] - 1) / 2)
        assert np.all(np.abs(tab[:H] - np.cos(phase)) <= bound)
        assert np.all(np.abs(tab[L - H :] - np.sin(phase)) <= bound)
        assert np.all(tab[H : L - H] == 1.0)  # the row of the point 0, odd L only
        # d/dy cos(theta y) = -theta sin(theta y), d/dy sin(theta y) = theta cos(theta y)
        x = _chebyshev_points(L)[:H]
        assert theta.tobytes() == (2 * np.pi * np.abs(freqs[:, a]).max() * x).tobytes()
        assert d_tab[:H].tobytes() == (-theta[:, None] * tab[L - H :]).tobytes()
        assert d_tab[L - H :].tobytes() == (theta[:, None] * tab[:H]).tobytes()
        assert not d_tab[H : L - H].any()
    # the gradient grids are the core contracted with these tables
    _, grads = lattice.grid_and_gradient(origin, shape, h)
    for a, grad in enumerate(grads):
        want = lattice._contract(tabs[:a] + [d_tabs[a]] + tabs[a + 1 :])
        assert grad.tobytes() == want.tobytes()
    return parities


@pytest.mark.parametrize("n", [1, 2, 13, 49])  # one, two, a prime and a perfect square
def test_tables_match_direct_phases(n):
    # covers of growing pitch give both parities of the point count on each
    # axis; the tables are checked on the cover itself and on an off-centre
    # sub-box at the cover's pitch and at half of it
    rng = np.random.default_rng(n)
    freqs, coeffs = _random_sum(rng, 2)
    parities = set()
    for h in np.linspace(0.02, 0.25, 12):
        cover = (rng.uniform(-3.0, 3.0, 2), (n, 61), float(h))
        lattice = _LowRankLattice(freqs, coeffs, *cover)
        parities |= _assert_tables_match_direct_phases(lattice, freqs, cover, *cover)
        for pitch in (h, h / 2):
            # axis 0 spans the cover (n or 2n - 1 points), axis 1 has n points
            # from a random cover vertex on
            shape = (1 + (n - 1) * round(h / pitch), n)
            origin = cover[0] + h * np.array([0, rng.integers(0, 62 - n)])
            box = (origin, shape, pitch)
            parities |= _assert_tables_match_direct_phases(lattice, freqs, cover, *box)
    assert parities == {0, 1}


def test_largest_frequency_gets_a_unit_weight_column():
    # t_j = v_ja / rho_a is +-1 exactly for the largest |v_ja|, and +-1 are the
    # end points of the Chebyshev points: the on-node path of
    # _barycentric_weights runs on every axis of every draw
    for m in (2, 3):
        F = sample_uniform(m, 1024, 9)
        lattice = _LowRankLattice(F.freqs, F.amps, np.full(m, -5.0), (101,) * m, 0.1)
        for a in range(m):
            L = lattice.core.shape[a]
            v = F.freqs[:, a]
            j = int(np.abs(v).argmax())
            lam = _barycentric_weights(v / np.abs(v).max(), L)
            nodes = _chebyshev_points(L)
            assert nodes[0] == 1.0 and nodes[-1] == -1.0
            unit = np.zeros(L)
            unit[0 if v[j] > 0 else -1] = 1.0
            assert lam[:, j].tobytes() == unit.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (2, 3), (3, 2), (1, 2, 1), (2, 2, 3)])
def test_lowrank_fill_on_grids_smaller_than_the_point_count(shape):
    rng = np.random.default_rng(len(shape))
    freqs = rng.standard_normal((40, len(shape)))
    freqs /= np.linalg.norm(freqs, axis=1, keepdims=True)
    coeffs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    # h = 0.25 still needs several points per axis; these grids have fewer
    _assert_lowrank_matches_direct(freqs, coeffs, rng.uniform(-2, 2, len(shape)), shape, 0.25)


def test_grid_fills_refuse_a_dimension_mismatch():
    # a lattice with fewer axes than the field must not silently slice it
    F = PlaneWaveSum(np.array([[0.0, 0.0, 1.0]]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        F.on_grid(np.zeros(2), (3, 3), 0.1)
    with pytest.raises(ValueError):
        F.on_grid(np.zeros(2), (3, 3, 3), 0.1)
    with pytest.raises(ValueError):
        sample_on_grid(sample_uniform(3, 64, 1), np.zeros(2), 1.0, 0.1)
    # every fill refuses the same way, also a one-entry origin, and takes one
    # coefficient per plane wave: no (K, J) stack, no short vector
    F2 = sample_uniform(2, 64, 1)
    lattice = _LowRankLattice(F2.freqs, F2.amps, np.zeros(2), (3, 3), 0.1)
    boxes = [(np.zeros(1), (3, 3)), (0.0, (3, 3)), (np.zeros(2), (3, 3, 3))]
    for fill in (_LowRankLattice, plane_wave_grid):
        for origin, shape in boxes:
            with pytest.raises(ValueError, match="one entry per axis"):
                fill(F2.freqs, F2.amps, origin, shape, 0.1)
        for coeffs in (np.vstack([F2.amps, F2.amps]), F2.amps[:-1]):
            with pytest.raises(ValueError, match="one coefficient per plane wave"):
                fill(F2.freqs, coeffs, np.zeros(2), (3, 3), 0.1)
    for fill in (lattice.on_grid, lattice.grid_and_gradient):
        for origin, shape in boxes:
            with pytest.raises(ValueError, match="one entry per axis"):
                fill(origin, shape, 0.1)
    assert F.on_grid(np.zeros(3), (3, 3, 3), 0.1).shape == (3, 3, 3)
    # a grid takes its dimension from its shape, and refuses the same boxes
    for origin, shape in boxes:
        with pytest.raises(ValueError, match="one entry per axis"):
            ScalarGrid(origin=origin, spacing=0.1, shape=shape, values=np.zeros(np.prod(shape)))
    assert ScalarGrid(origin=np.zeros(3), spacing=0.1, shape=(3, 4, 2), values=np.zeros(24)).dim == 3


@pytest.mark.parametrize("m", [1, 4])
def test_lowrank_fill_refuses_m_outside_2_3(m):
    F = PlaneWaveSum(np.eye(m)[:1], np.array([1.0 + 0j]))
    with pytest.raises(ValueError, match=r"m in \{2, 3\}"):
        F.on_grid(np.zeros(m), (3,) * m, 0.1)


def test_box_grid_without_ball_mask():
    vals = np.arange(12, dtype=float)
    g = ScalarGrid(origin=np.zeros(2), spacing=0.5, shape=(3, 4), values=vals)
    assert g.mask().all()
    assert np.array_equal(g.axis_coords(1), 0.5 * np.arange(4))


def test_ball_parameters_are_refused_at_construction():
    # the mask and the labeling's reach tables read the centre axis by axis
    def grid(centre, radius):
        return ScalarGrid(origin=np.zeros(2), spacing=0.5, shape=(5, 5), values=np.zeros(25),
                          ball_center=centre, ball_radius=radius)

    for centre in (np.zeros(3), np.zeros(1), np.zeros((2, 1)), None):
        with pytest.raises(ValueError, match="one entry per axis"):
            grid(centre, 1.0)
    with pytest.raises(ValueError, match="one entry per axis"):
        grid(np.zeros(3), None)  # the unmasked grid's distances are about it too
    for radius in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            grid(np.ones(2), radius)
    assert grid(np.ones(2), 1.0).mask().sum() == 13


def test_mask_is_computed_once_and_read_only():
    g = sample_on_grid(lambda p: p[:, 0], np.array([0.3, -0.2, 0.1]), 1.5, 0.07)
    mask = g.mask()
    assert np.array_equal(mask, vertex_radii(g) <= g.ball_radius)
    assert g.mask() is mask
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 0, 0] = True
    box = ScalarGrid(origin=np.zeros(2), spacing=0.5, shape=(3, 4), values=np.zeros(12))
    assert box.mask() is box.mask() and not box.mask().flags.writeable


def test_empty_mask_is_refused():
    # a ball clear of the box selects no vertex: the labeling and the zero
    # set, which reach the mask separately, both refuse it
    from monowave.nodal import label_domains, nodal_volume

    for measure in (ScalarGrid.mask, label_domains, nodal_volume):
        g = ScalarGrid(origin=np.zeros(2), spacing=0.5, shape=(3, 4), values=np.ones(12),
                       ball_center=np.array([10.0, 10.0]), ball_radius=0.5)
        with pytest.raises(ValueError, match="selects no vertices"):
            measure(g)
        assert g._mask is None


def test_mask_cache_leaves_no_cycle():
    # with the cyclic collector off, reference counting alone must free the grid
    gc.disable()
    try:
        g = sample_on_grid(lambda p: p[:, 0], np.zeros(2), 2.0, 0.1)
        g.mask()
        grid_ref = weakref.ref(g)
        del g
        assert grid_ref() is None
    finally:
        gc.enable()


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    st.integers(-3, 3),
)
def test_squared_bound_reproduces_the_rounded_sqrt_comparison(r, ulps):
    # s walks a few ulps either side of r * r, where rounding decides
    s = r * r
    for _ in range(abs(ulps)):
        s = math.nextafter(s, math.inf if ulps > 0 else 0.0)
    bound = _squared_bound(r)
    assert (math.sqrt(s) <= r) == (s <= bound)
    assert math.sqrt(bound) <= r < math.sqrt(math.nextafter(bound, math.inf))
    assert _squared_bound(-r - 1e-300) == -math.inf


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_within_matches_radii(seed, m):
    rng = np.random.default_rng(seed)
    h = float(rng.uniform(0.03, 0.25))
    g = sample_on_grid(lambda p: p[:, 0], rng.uniform(-2.0, 2.0, m), float(rng.uniform(h, 1.5)), h)
    radii = vertex_radii(g)
    # thresholds on the grid's own radii are where a rounding slip would show
    for r in [*rng.choice(radii.reshape(-1), 5), g.ball_radius - h, g.ball_radius - 2 * h]:
        assert np.array_equal(g.within(r), radii <= r)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_lattice_ball_matches_the_norm_clip(seed, m):
    rng = np.random.default_rng(seed)
    h = float(rng.choice([0.1, 0.125, 0.2, 1 / 3, 0.25]))
    k0 = rng.integers(-30, 30, m)
    # a centre on the lattice, or off it
    center = h * k0 if rng.random() < 0.5 else h * k0 + rng.uniform(-h, h, m)
    # radii equal to lattice distances from the centre, where rounding decides
    k = k0 + rng.integers(-10, 11, (4, m))
    radii = [*np.linalg.norm(h * k - center, axis=-1), float(rng.uniform(0.0, 2.0))]
    for r in radii:
        axes, mask = lattice_ball(center, r, h)
        for ax, c in zip(axes, center):
            assert np.array_equal(ax, h * np.arange(math.floor((c - r) / h),
                                                    math.ceil((c + r) / h) + 1))
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        assert np.array_equal(mask, np.linalg.norm(pts - center, axis=-1) <= r)
        # boolean indexing walks the box in row-major order
        assert np.array_equal(lattice_points(axes, mask), pts[mask])
