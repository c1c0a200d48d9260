import math

import numpy as np
import pytest

from monowave.cli import load_wave, save_wave
from monowave.directions import (
    empirical_measure,
    generate_uniform_directions,
    log_rational_directions,
    validate_directions,
)
from monowave.field import make_wave
from monowave.partition import positive_side


def test_generate_uniform_shapes_and_norms():
    dirs = generate_uniform_directions(2, 48, 7)
    assert dirs.vectors.shape == (48, 2)
    assert np.max(np.abs(np.linalg.norm(dirs.vectors, axis=1) - 1.0)) < 1e-12
    dirs3 = generate_uniform_directions(3, 30, 7)
    assert dirs3.vectors.shape == (30, 3)
    assert np.max(np.abs(np.linalg.norm(dirs3.vectors, axis=1) - 1.0)) < 1e-12


def test_generate_uniform_is_seed_deterministic():
    a = generate_uniform_directions(2, 32, 11)
    b = generate_uniform_directions(2, 32, 11)
    c = generate_uniform_directions(2, 32, 12)
    assert np.array_equal(a.vectors, b.vectors)
    assert not np.array_equal(a.vectors, c.vectors)


def test_generate_uniform_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_uniform_directions(1, 8, 0)
    with pytest.raises(ValueError):
        generate_uniform_directions(2, 0, 0)


def test_validate_rejects_duplicates_and_antipodes():
    v = generate_uniform_directions(2, 8, 3).vectors.copy()
    dup = v.copy()
    dup[5] = dup[2]
    with pytest.raises(ValueError):
        validate_directions(dup)
    anti = v.copy()
    anti[5] = -anti[2]
    with pytest.raises(ValueError):
        validate_directions(anti)
    scaled = v.copy()
    scaled[0] *= 1.0 + 1e-6
    with pytest.raises(ValueError):
        validate_directions(scaled)


def test_validate_rank_guard_only_binds_for_large_sets():
    # a single planar frequency is a legitimate fixture
    validate_directions(np.array([[1.0, 0.0]]))
    s = math.sqrt(0.5)
    coplanar = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [s, s, 0.0]])
    with pytest.raises(ValueError):
        validate_directions(coplanar)
    # the same three vectors are fine while N < m cannot span anyway
    validate_directions(coplanar[:2])


def test_log_rational_matches_its_closed_form():
    N = 12
    dirs = log_rational_directions(N)
    n = np.arange(1, N + 1, dtype=float)
    theta = np.log1p(n / (N + 1))
    expect = np.column_stack([np.cos(2 * np.pi * theta), np.sin(2 * np.pi * theta)])
    assert np.array_equal(dirs.vectors, expect)
    # deterministic: no seed argument, repeated calls agree
    assert np.array_equal(dirs.vectors, log_rational_directions(N).vectors)


def test_empirical_measure_symmetry():
    dirs = generate_uniform_directions(3, 10, 2)
    mu = empirical_measure(dirs)
    assert mu.kind == "atomic"
    # one atom per +- pair, on the positive side: |<z_k, r_n>| = 1 matches a permutation
    assert mu.freqs.shape == (10, 3)
    assert all(positive_side(z) for z in mu.freqs)
    match = np.abs(mu.freqs @ dirs.vectors.T) > 1 - 1e-12
    assert np.all(match.sum(axis=0) == 1) and np.all(match.sum(axis=1) == 1)
    assert np.all(mu.weights == 1.0 / 10)


def test_save_load_round_trip(tmp_path):
    # directions are stored in the wave text format; a load/save cycle is exact
    dirs = generate_uniform_directions(3, 9, 13)
    wave = make_wave(dirs, seed=5)
    p = tmp_path / "wave.txt"
    save_wave(wave, p)
    back = load_wave(p)
    assert back.dirs.dim == 3 and back.dirs.count == 9
    assert np.array_equal(back.dirs.vectors, dirs.vectors)
    assert np.array_equal(back.coeffs, wave.coeffs)


def test_load_truncated_file_fails(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 4\n1 0\n0 1\n")
    with pytest.raises((ValueError, OSError)):
        load_wave(p)
