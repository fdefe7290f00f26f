"""Shared fixtures: the small periodic model is expensive enough to build
once per session and reuse across test modules."""

import numpy as np
import pytest

from polaronlab.config import load_config
from polaronlab.experiments import ModelBundle, build_bundle
from polaronlab.grid import Grid3
from polaronlab.modes import ModeSet, mode_preset
from polaronlab.pekar import solve_discrete_pekar


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
def hex_xyz_dsol():
    grid = Grid3(8, 4.0 * np.pi)
    return solve_discrete_pekar(grid, mode_preset("hex-xyz", grid.box_length), tol=1e-7)


@pytest.fixture(scope="session")
def diag_xy_dsol():
    """pair-x plus the off-axis pair +-(0.5, 0.5, 0) on 8^3: the diagonal
    modes join x and y into one axis group."""
    grid = Grid3(8, 4.0 * np.pi)
    px = mode_preset("pair-x", grid.box_length)
    diag = np.array([[0.5, 0.5, 0.0], [-0.5, -0.5, 0.0]])
    modes = ModeSet(np.vstack([px.k_vectors, diag]), np.concatenate([px.weights, [16.0, 16.0]]))
    return solve_discrete_pekar(grid, modes, tol=1e-7)
