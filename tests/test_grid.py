import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monowave.directions import generate_uniform_directions
from monowave.field import make_wave
from monowave.grid import (
    ScalarGrid,
    _squared_bound,
    plane_wave_grid,
    sample_on_grid,
)


def test_sample_on_grid_geometry():
    g = sample_on_grid(lambda p: p[:, 0], np.array([1.0, -2.0]), 3.0, 0.1)
    assert g.dim == 2 and g.spacing == 0.1
    assert all(n % 2 == 1 for n in g.shape)
    # center vertex carries the center value
    mid = tuple(n // 2 for n in g.shape)
    assert g.grid_values()[mid] == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(g.mask(), g.radii() <= g.ball_radius)
    assert g.ball_radius == 3.0


def test_sample_on_grid_guards():
    with pytest.raises(ValueError):
        sample_on_grid(lambda p: p[:, 0], np.zeros(2), 2.0, 0.3)
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
    assert np.max(np.abs(got.reshape(shape) - direct)) < 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_plane_wave_grid_stack_matches_single_fills(m):
    # a (K, J) stack shares the phase tables; each grid must equal its own fill
    rng = np.random.default_rng(m)
    freqs = rng.standard_normal((300, m))  # more terms than one 3D chunk
    stack = rng.standard_normal((3, 300)) + 1j * rng.standard_normal((3, 300))
    origin, shape, h = rng.standard_normal(m), (5, 6, 4)[:m], 0.11
    got = plane_wave_grid(freqs, stack, origin, shape, h)
    assert got.shape == (3, *shape)
    axes = [origin[a] + h * np.arange(shape[a]) for a in range(m)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    for k in range(3):
        assert np.array_equal(got[k], plane_wave_grid(freqs, stack[k], origin, shape, h))
        direct = (np.exp(2j * np.pi * (pts @ freqs.T)) @ stack[k]).real.reshape(shape)
        assert np.max(np.abs(got[k] - direct)) < 1e-11


def test_box_grid_without_ball_mask():
    vals = np.arange(12, dtype=float)
    g = ScalarGrid(dim=2, origin=np.zeros(2), spacing=0.5, shape=(3, 4), values=vals)
    assert g.mask().all()
    assert np.array_equal(g.axis_coords(1), 0.5 * np.arange(4))


def test_mask_is_computed_once_and_read_only():
    g = sample_on_grid(lambda p: p[:, 0], np.array([0.3, -0.2, 0.1]), 1.5, 0.07)
    mask = g.mask()
    assert np.array_equal(mask, g.radii() <= g.ball_radius)
    assert g.mask() is mask
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 0, 0] = True
    box = ScalarGrid(dim=2, origin=np.zeros(2), spacing=0.5, shape=(3, 4), values=np.zeros(12))
    assert box.mask() is box.mask() and not box.mask().flags.writeable


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
    radii = g.radii()
    # thresholds on the grid's own radii are where a rounding slip would show
    for r in [*rng.choice(radii.reshape(-1), 5), g.ball_radius - h, g.ball_radius - 2 * h]:
        assert np.array_equal(g.within(r), radii <= r)
