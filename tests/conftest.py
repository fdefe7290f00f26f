"""Shared fixtures: the small periodic model is expensive enough to build
once per session and reuse across test modules, and the reader of the
.pfld files the package writes."""

import json
from pathlib import Path

import numpy as np
import pytest

from polaronlab.config import load_config
from polaronlab.experiments import ModelBundle, build_bundle
from polaronlab.grid import Grid3
from polaronlab.modes import ModeSet, mode_preset
from polaronlab.pekar import solve_discrete_pekar
from polaronlab.resolvent import ResolventHandle, build_kernels


def read_pfld(path):
    """(header, payload) of a .pfld file: its JSON header line, parsed, and
    the raw bytes after it."""
    header, payload = Path(path).read_bytes().split(b"\n", 1)
    return json.loads(header), payload


def assert_pfld(path, values, tag, grid=None):
    """The .pfld file at path holds values under tag: the header gives their
    grid (if any), dtype and shape, and the payload is their raw bytes."""
    header, payload = read_pfld(path)
    assert header == {
        "version": 1,
        "grid_n": None if grid is None else grid.n,
        "box_length": None if grid is None else grid.box_length,
        "dtype": {"float64": "f64", "complex128": "c128"}[values.dtype.name],
        "shape": list(values.shape),
        "tag": tag,
    }
    assert payload == values.tobytes()


def assert_solution_saved(sol, outdir: Path):
    """sol.save(outdir) wrote phi0 and V_eff on sol's grid and scalars()."""
    assert_pfld(outdir / "phi0.pfld", sol.phi0.values, "phi0", sol.grid)
    assert_pfld(outdir / "veff.pfld", sol.V_eff.values, "veff", sol.grid)
    assert json.loads((outdir / "scalars.json").read_text()) == sol.scalars()


def assert_kernels_saved(kp, outdir: Path):
    """kp.save(outdir) wrote the four kernel arrays, epsilon and the modes."""
    assert_pfld(outdir / "K.pfld", kp.K, "kernel-K")
    assert_pfld(outdir / "G.pfld", kp.G, "kernel-G")
    assert_pfld(outdir / "t_table.pfld", kp.t_table, "t-table")
    assert_pfld(outdir / "diag_rayleigh.pfld", kp.diag_rayleigh, "diag-rayleigh")
    meta = json.loads((outdir / "kernels.json").read_text())
    assert meta == {"epsilon": kp.epsilon, "modes": kp.modes.as_dict()}


@pytest.fixture(scope="session")
def desk_small_config():
    return load_config(preset="desk-small")


@pytest.fixture(scope="session")
def bundle(desk_small_config) -> ModelBundle:
    return build_bundle(desk_small_config)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def quad_xy_dsol():
    """The desk-standard ground state: quad-xy on 16^3."""
    grid = Grid3(16, 4.0 * np.pi)
    return solve_discrete_pekar(grid, mode_preset("quad-xy", grid.box_length), tol=1e-7)


@pytest.fixture(scope="session")
def quad_xy_kernels(quad_xy_dsol):
    return build_kernels(ResolventHandle(quad_xy_dsol))


@pytest.fixture(scope="session")
def quad_xy_small_dsol():
    """quad-xy on 8^3."""
    grid = Grid3(8, 4.0 * np.pi)
    return solve_discrete_pekar(grid, mode_preset("quad-xy", grid.box_length), tol=1e-7)


@pytest.fixture(scope="session")
def hex_xyz_dsol():
    grid = Grid3(8, 4.0 * np.pi)
    return solve_discrete_pekar(grid, mode_preset("hex-xyz", grid.box_length), tol=1e-7)


@pytest.fixture(scope="session")
def pair_x_dsol(bundle):
    return bundle.dsol


@pytest.fixture(scope="session")
def pair_x_kernels(bundle):
    return bundle.kernels


@pytest.fixture(scope="session")
def hex_xyz_kernels(hex_xyz_dsol):
    return build_kernels(ResolventHandle(hex_xyz_dsol))


@pytest.fixture(scope="session")
def diag_xy_dsol():
    """pair-x plus the off-axis pair +-(0.5, 0.5, 0) on 8^3: the diagonal
    modes join x and y into one axis group."""
    grid = Grid3(8, 4.0 * np.pi)
    px = mode_preset("pair-x", grid.box_length)
    diag = np.array([[0.5, 0.5, 0.0], [-0.5, -0.5, 0.0]])
    modes = ModeSet(np.vstack([px.k_vectors, diag]), np.concatenate([px.weights, [16.0, 16.0]]))
    return solve_discrete_pekar(grid, modes, tol=1e-7)


@pytest.fixture(scope="session")
def diag_xy_kernels(diag_xy_dsol):
    return build_kernels(ResolventHandle(diag_xy_dsol))
