import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monowave.directions import generate_uniform_directions
from monowave.partition import (
    build_partition,
    hyperspherical_map,
    lipschitz_constant,
    positive_side,
    theta_coordinates,
)


def test_lipschitz_constant_formula():
    assert lipschitz_constant(2) == 2 * np.pi
    assert lipschitz_constant(3) == pytest.approx(2 * np.pi * np.sqrt(2), rel=1e-15)


def test_hyperspherical_map_plane():
    th = np.array([[0.0], [0.25], [0.5]])
    v = hyperspherical_map(th, 2)
    assert np.allclose(v, [[1, 0], [0, 1], [-1, 0]], atol=1e-15)
    with pytest.raises(ValueError):
        hyperspherical_map(np.zeros((3, 2)), 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2))
def test_theta_round_trip_m3(theta):
    th = np.array(theta)
    v = hyperspherical_map(th, 3)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    back = theta_coordinates(v, 3)
    assert np.max(np.abs(back - th)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.floats(0.001, 0.999))
def test_theta_round_trip_m2(t):
    v = hyperspherical_map(np.array([t]), 2)
    back = theta_coordinates(v, 2)
    assert abs(back[0] - t) < 1e-12


def test_build_partition_input_guards():
    dirs = generate_uniform_directions(2, 16, 0)
    with pytest.raises(ValueError):
        build_partition(dirs, 0, 1e-3)
    with pytest.raises(ValueError):
        build_partition(dirs, 3, 1e-3)  # odd K > 1 breaks antipodal pairing
    with pytest.raises(ValueError):
        build_partition(dirs, 4, 0.0)
    with pytest.raises(ValueError):
        build_partition(dirs, 4, 1.0)


def test_partition_masses_and_pairing():
    dirs = generate_uniform_directions(2, 64, 5)
    part = build_partition(dirs, 8, 2**-8)
    assert part.masses.shape == (8,)
    assert part.masses.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(part.masses[part.pair], part.masses)
    assert np.array_equal(part.pair[part.pair], np.arange(8))
    # every signed atom lands in exactly one cell
    counts = np.bincount(part.atom_cells, minlength=8)
    assert counts.sum() == 2 * dirs.count
    for k in range(8):
        assert np.count_nonzero(part.atom_cells == k) == counts[k]


def test_partition_m3_cells():
    dirs = generate_uniform_directions(3, 40, 9)
    part = build_partition(dirs, 4, 1e-3)
    assert part.masses.shape == (16,)
    assert part.masses.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(part.pair[part.pair], np.arange(16))


def test_cell_of_points_idempotent_on_centers():
    dirs = generate_uniform_directions(2, 64, 5)
    part = build_partition(dirs, 8, 2**-8)
    assert np.array_equal(part.cell_of_points(part.centers), np.arange(8))


def test_antipodal_points_land_in_paired_cells():
    dirs = generate_uniform_directions(3, 24, 4)
    part = build_partition(dirs, 4, 1e-3)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((200, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    assert np.array_equal(part.cell_of_points(-v), part.pair[part.cell_of_points(v)])


def test_selected_sets():
    dirs = generate_uniform_directions(2, 512, 8)
    part = build_partition(dirs, 8, 2**-8)
    assert set(part.selected_positive) <= set(part.selected.tolist())
    # selection is antipode-closed and the positive list keeps one per twin pair
    assert set(part.pair[part.selected]) == set(part.selected.tolist())
    n_self = sum(1 for k in part.selected if part.pair[k] == k)
    assert 2 * len(part.selected_positive) == len(part.selected) + n_self
    assert part.masses[part.selected].sum() > 1.0 - 8 * 2**-8


def test_single_cell_partition():
    dirs = generate_uniform_directions(2, 8, 1)
    part = build_partition(dirs, 1, 0.5)
    assert part.masses.tolist() == [1.0]
    assert part.pair.tolist() == [0]
    assert part.selected.tolist() == [0]
    assert part.selected_positive.tolist() == [0]


def test_positive_side_rule():
    assert positive_side(np.array([0.3, 0.4]))
    assert not positive_side(np.array([0.3, -0.4]))
    assert positive_side(np.array([1.0, 0.0]))  # trailing zero ignored
    with pytest.raises(ValueError):
        positive_side(np.zeros(2))
