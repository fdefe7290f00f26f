"""Periodic grid algebra: spectral operators, Coulomb convolution, the
bytes of the .pfld writer."""

import tracemalloc

import numpy as np
import pytest

from polaronlab.grid import (
    Field,
    Grid3,
    GridMismatchError,
    apply_laplacian,
    coulomb_convolve,
    gaussian,
    inner,
    plane_wave,
    save_array,
    save_field,
)
from polaronlab.modes import mode_preset

from conftest import read_pfld


@pytest.fixture
def grid():
    return Grid3(16, 4 * np.pi)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid3(7, 10.0)  # odd
    with pytest.raises(ValueError):
        Grid3(2, 10.0)  # too small
    with pytest.raises(ValueError):
        Grid3(8, -1.0)


def test_cell_volume_and_axes(grid):
    assert np.isclose(grid.cell_volume, (grid.box_length / grid.n) ** 3)
    assert grid.axis.shape == (grid.n,)
    # axis centered around 0 with step L/n
    assert np.isclose(np.diff(grid.axis).min(), grid.box_length / grid.n)


def test_plane_wave_is_laplacian_eigenfunction(grid):
    k = np.array([0.5, -1.0, 0.5])
    pw = plane_wave(grid, k)
    lap = apply_laplacian(pw)
    expected = float(np.dot(k, k))
    assert np.allclose(lap.values, expected * pw.values, atol=1e-12)


@pytest.mark.parametrize("n", [8, 16])
def test_plane_wave_matches_three_dimensional_exponential(n):
    g = Grid3(n, 4 * np.pi)
    x, y, z = np.meshgrid(g.axis, g.axis, g.axis, indexing="ij")

    def meshgrid_wave(k):
        return np.exp(1j * (k[0] * x + k[1] * y + k[2] * z))

    for name in ("pair-x", "quad-xy", "hex-xyz"):
        for k in mode_preset(name, g.box_length).k_vectors:
            assert np.array_equal(plane_wave(g, k).values, meshgrid_wave(k))
    for k in ([0.5, 0.5, 0.0], [-0.5, -0.5, 0.0], [0.5, -1.0, 1.5]):
        assert np.max(np.abs(plane_wave(g, k).values - meshgrid_wave(k))) <= 1e-14


def test_plane_waves_orthonormal(grid):
    a = plane_wave(grid, [0.5, 0, 0])
    b = plane_wave(grid, [1.0, 0, 0])
    assert abs(inner(a, a) - grid.box_length**3) < 1e-8
    assert abs(inner(a, b)) < 1e-8


def test_gaussian_normalized(grid):
    g = gaussian(grid, 1.0)
    assert abs(g.norm() - 1.0) < 1e-10


def test_coulomb_convolution_matches_free_space():
    # for a localized charge the periodic result reproduces the open-space
    # potential at the origin: integral of rho/|x| = sqrt(2/pi)/sigma
    grid = Grid3(32, 24.0)
    sigma = 1.5
    phi = gaussian(grid, sigma)
    rho = np.abs(phi.values) ** 2
    V = coulomb_convolve(rho, grid)
    center = np.unravel_index(np.argmax(rho), grid.shape)
    analytic = np.sqrt(2.0 / np.pi) / sigma
    assert abs(V[center] - analytic) / analytic < 1e-2


def fourier_coefficient(f: Field, k) -> complex:
    """Continuum-convention Fourier coefficient  int exp(-i k.x) f(x) dx."""
    return inner(plane_wave(f.grid, k), f)


def test_fourier_coefficient_of_plane_wave(grid):
    k = np.array([0.5, 0.5, 0])
    f = plane_wave(grid, k)
    # continuum convention: the matching wave integrates to the box volume
    assert abs(fourier_coefficient(f, k) - grid.box_length**3) < 1e-8
    assert abs(fourier_coefficient(f, [1.0, 0, 0])) < 1e-8


def test_field_arithmetic_grid_mismatch(grid):
    other = Grid3(16, 8 * np.pi)
    with pytest.raises(GridMismatchError):
        inner(gaussian(grid, 1.0), gaussian(other, 1.0))


def test_pfld_roundtrip_field(grid, tmp_path):
    g = gaussian(grid, 1.0)
    path = tmp_path / "f.pfld"
    save_field(g, str(path), tag="phi0")
    header, payload = read_pfld(path)
    assert header == {"version": 1, "grid_n": 16, "box_length": grid.box_length,
                      "dtype": "f64", "shape": [16, 16, 16], "tag": "phi0"}
    assert payload == g.values.tobytes()


@pytest.mark.parametrize("dtype, tag", [(np.float64, "f64"), (np.complex128, "c128")])
def test_pfld_roundtrip_keeps_the_field_dtype(dtype, tag, grid, tmp_path):
    values = np.random.default_rng(7).standard_normal((2, *grid.shape))
    f = Field(values[0] + 1j * values[1] if tag == "c128" else values[0], grid)
    path = tmp_path / "f.pfld"
    save_field(f, str(path))
    header, payload = read_pfld(path)
    assert f.values.dtype == dtype
    assert header == {"version": 1, "grid_n": 16, "box_length": grid.box_length,
                      "dtype": tag, "shape": [16, 16, 16], "tag": "field"}
    assert payload == f.values.tobytes()  # little-endian f8 or c16, as ever


@pytest.mark.parametrize("given, kept", [
    (np.int64, np.float64), (np.float32, np.float64), (np.float64, np.float64),
    (np.complex64, np.complex128), (np.complex128, np.complex128),
])
def test_field_keeps_its_dtype_upcast_to_double(given, kept, grid):
    assert Field(np.ones(grid.shape, dtype=given), grid).values.dtype == kept


def test_separable_gaussian_matches_the_three_dimensional_exponential(grid):
    sigma = 1.3
    x, y, z = np.meshgrid(grid.axis, grid.axis, grid.axis, indexing="ij")
    ref = np.exp(-(x**2 + y**2 + z**2) / (4.0 * sigma**2))
    ref /= np.sqrt(np.sum(ref**2) * grid.cell_volume)
    g = gaussian(grid, sigma).values
    assert g.dtype == np.float64
    # relative to the peak: in the tails exp(a) exp(b) exp(c) and exp(a + b + c)
    # part by a few ulps times the exponent
    assert np.max(np.abs(g - ref)) <= 1e-15 * np.max(ref)


def test_pfld_roundtrip_array(tmp_path):
    arr = np.arange(12, dtype=np.complex128).reshape(3, 4) * (1 + 2j)
    path = tmp_path / "a.pfld"
    save_array(arr, str(path), tag="kernel-K")
    header, payload = read_pfld(path)
    assert header == {"version": 1, "grid_n": None, "box_length": None,
                      "dtype": "c128", "shape": [3, 4], "tag": "kernel-K"}
    assert payload == arr.tobytes()


def test_save_field_writes_without_copying_the_payload(tmp_path):
    # the header line, then the field's own buffer: no astype, tobytes or
    # concatenated copy (the three of them peaked at 3.0x the field)
    grid = Grid3(64, 4 * np.pi)
    f = Field(np.random.default_rng(3).standard_normal(grid.shape), grid)
    path = tmp_path / "f.pfld"
    tracemalloc.start()
    try:
        save_field(f, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * f.values.nbytes
    assert read_pfld(path)[1] == f.values.tobytes()


@pytest.mark.parametrize("n", [8, 16])
def test_laplacian_matrix_reproduces_apply_laplacian_along_each_axis(n):
    grid = Grid3(n, 4.0 * np.pi)
    rng = np.random.default_rng(7)
    lap = grid.laplacian_matrix
    assert np.max(np.abs(lap - lap.T)) <= 1e-13
    f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    total = np.zeros_like(f)
    for a in range(3):
        total += np.moveaxis(np.tensordot(lap, f, axes=(1, a)), 0, a)
        # a field varying along axis a only
        line = np.expand_dims(f[(0,) * a + (slice(None),) + (0,) * (2 - a)],
                              tuple(b for b in range(3) if b != a))
        one = np.broadcast_to(line, grid.shape)
        want = apply_laplacian(Field(one, grid)).values
        got = np.moveaxis(np.tensordot(lap, one, axes=(1, a)), 0, a)
        assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(total - apply_laplacian(Field(f, grid)).values)) <= 1e-12
