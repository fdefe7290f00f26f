"""The coupled Hamiltonian on its invariant sector, checked against the
full 3-D grid route with dense ladder matrices, which lives here as a test
oracle only."""

import dataclasses

import numpy as np
import pytest

from polaronlab import experiments as ex
from polaronlab import fock as fk
from polaronlab.grid import Field
from polaronlab.pekar import _coupled_axes, delta_g_field


class FullGridHamiltonian:
    """The coupled Hamiltonian on all n^3 grid points: 3-D FFT Laplacian and
    dense ladder matrices, with the interface compare_trajectory uses."""

    def __init__(self, dsol, fs, alpha):
        grid = dsol.grid
        self.grid, self.fs, self.alpha = grid, fs, alpha
        self.shape = (grid.size, fs.dim)
        self.electron = dsol.phi0.values.ravel() * np.sqrt(grid.cell_volume)
        self.vshift = (dsol.V_eff.values.real - dsol.lam).ravel()[:, None]
        self.ndiag = fs.occupations.sum(axis=1) / alpha**2
        self.aT = [fk.ladder(i, fs).toarray().T for i in range(fs.M)]
        self.dg = [
            np.sqrt(dsol.modes.weights[i]) * delta_g_field(dsol, i).values.ravel()[:, None]
            for i in range(fs.M)
        ]

    def apply(self, psi):
        n = self.grid.n
        cube = psi.reshape(n, n, n, self.fs.dim)
        ksq = self.grid.ksq[..., None]
        lap = np.fft.ifftn(ksq * np.fft.fftn(cube, axes=(0, 1, 2)), axes=(0, 1, 2))
        out = lap.reshape(psi.shape) + self.vshift * psi + self.ndiag * psi
        for aT, dg in zip(self.aT, self.dg):
            out += (np.conj(dg) * (psi @ aT) + dg * (psi @ aT.T)) / self.alpha
        return out


def embed(v, grid, axes):
    """Sector array (n^d, ...) as a full-grid array (n^3, ...): v tensored
    with the unit-norm constant over the uncoupled axes."""
    n = grid.n
    other = tuple(a for a in range(3) if a not in axes)
    cube = np.expand_dims(v.reshape((n,) * len(axes) + v.shape[1:]), other)
    full = np.broadcast_to(cube, (n, n, n) + v.shape[1:]) / np.sqrt(n ** len(other))
    return full.reshape((n**3,) + v.shape[1:])


def _random_state(rng, shape):
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("M, n_max", [(2, 8), (4, 3)])
def test_matrix_free_ladders_equal_sparse_products(M, n_max, rng):
    fs = fk.FockSpace(M, n_max)
    psi = rng.standard_normal((5, fs.dim)) + 1j * rng.standard_normal((5, fs.dim))
    for i in range(M):
        a = fk.ladder(i, fs)
        assert np.array_equal(fk.apply_ladder(psi, i, fs), (a @ psi.T).T)
        assert np.array_equal(fk.apply_ladder(psi, i, fs, dagger=True), (a.T @ psi.T).T)
        assert np.array_equal(fk.apply_ladder(psi[0], i, fs), a @ psi[0])


@pytest.mark.parametrize("which", ["pair-x", "quad-xy", "hex-xyz"])
def test_sector_apply_matches_full_grid_oracle(which, bundle, quad_xy_dsol, hex_xyz_dsol, rng):
    dsol = {"pair-x": bundle.dsol, "quad-xy": quad_xy_dsol, "hex-xyz": hex_xyz_dsol}[which]
    fs = fk.FockSpace(dsol.modes.M, 2)
    axes = _coupled_axes(dsol.modes)
    H = fk.CoupledHamiltonian(dsol, fs, alpha=2.0)
    full = FullGridHamiltonian(dsol, fs, alpha=2.0)
    assert H.shape == (dsol.grid.n ** len(axes), fs.dim)
    assert np.max(np.abs(embed(H.electron, dsol.grid, axes) - full.electron)) <= 1e-15
    psi = _random_state(rng, H.shape)
    got = embed(H.apply(psi), dsol.grid, axes)
    want = full.apply(embed(psi, dsol.grid, axes))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_compare_trajectory_full_grid_route_matches_sector(
    bundle, desk_small_config, monkeypatch
):
    sector = np.array(ex.compare_trajectory(bundle, desk_small_config, 2.0))
    monkeypatch.setattr(fk, "CoupledHamiltonian", FullGridHamiltonian)
    full = np.array(ex.compare_trajectory(bundle, desk_small_config, 2.0))
    assert np.max(np.abs(sector - full)) <= 1e-10


def test_quad_xy_sector_states_and_hermiticity(quad_xy_dsol, rng):
    fs = fk.FockSpace(4, 2)
    H = fk.CoupledHamiltonian(quad_xy_dsol, fs, alpha=2.0)
    assert H.shape == (256, fs.dim)
    assert abs(np.linalg.norm(H.electron) - 1.0) <= 1e-12
    p1, p2 = _random_state(rng, H.shape), _random_state(rng, H.shape)
    assert H.apply(p1).shape == (256, fs.dim)
    assert abs(np.vdot(p1, H.apply(p2)) - np.vdot(H.apply(p1), p2)) <= 1e-12


def test_constructor_rejects_field_varying_along_uncoupled_axis(bundle):
    dsol = bundle.dsol
    y = dsol.grid.coords[1]
    bumped = dsol.V_eff.values + 1e-6 * np.cos(2.0 * np.pi * y / dsol.grid.box_length)
    broken = dataclasses.replace(dsol, V_eff=Field(bumped, dsol.grid))
    with pytest.raises(ValueError, match="uncoupled"):
        fk.CoupledHamiltonian(broken, fk.FockSpace(2, 2), alpha=2.0)
