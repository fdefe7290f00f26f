"""The coupled Hamiltonian on its invariant sector, checked against the
full 3-D grid route with dense ladder matrices, which lives here as a test
oracle only."""

import dataclasses

import numpy as np
import pytest

from polaronlab import experiments as ex
from polaronlab import fock as fk
from polaronlab.grid import Field
from polaronlab.pekar import delta_g_fields


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
            np.sqrt(w) * dg.ravel()[:, None]
            for w, dg in zip(dsol.modes.weights, delta_g_fields(dsol))
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

    def spectral_bounds(self):
        diag = self.vshift + self.ndiag
        c = sum(2 * np.max(np.abs(dg)) for dg in self.dg) * np.sqrt(self.fs.n_max) / self.alpha
        return diag.min() - c, self.grid.ksq.max() + diag.max() + c


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


@pytest.mark.parametrize("M, n_max", [(2, 8), (4, 3), (1, 6), (3, 1)])
def test_matrix_free_ladders_equal_sparse_products(M, n_max, rng):
    # FockSpace.ladders, read by apply_ladder, against the sparse oracle built
    # from the occupation table; M = 1 has the single stride 1, and at
    # n_max = 1 half of each mode's shifts would wrap
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
    axes = dsol.modes.coupled_axes
    H = fk.CoupledHamiltonian(dsol, fs, alpha=2.0)
    full = FullGridHamiltonian(dsol, fs, alpha=2.0)
    assert H.electron.shape == (dsol.grid.n ** len(axes),)
    assert np.max(np.abs(embed(H.electron, dsol.grid, axes) - full.electron)) <= 1e-15
    psi = _random_state(rng, (H.electron.size, fs.dim))
    got = embed(H.apply(psi), dsol.grid, axes)
    want = full.apply(embed(psi, dsol.grid, axes))
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("which", ["quad-xy", "hex-xyz"])
def test_sector_apply_is_hermitian(which, quad_xy_dsol, hex_xyz_dsol, rng):
    dsol = {"quad-xy": quad_xy_dsol, "hex-xyz": hex_xyz_dsol}[which]
    fs = fk.FockSpace(dsol.modes.M, 2)
    H = fk.CoupledHamiltonian(dsol, fs, alpha=2.0)
    shape = (H.electron.size, fs.dim)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    defect = abs(np.vdot(u, H.apply(v)) - np.vdot(H.apply(u), v))
    assert defect <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)


def test_coupled_apply_accepts_noncontiguous_state(quad_xy_dsol, rng):
    fs = fk.FockSpace(4, 2)
    H = fk.CoupledHamiltonian(quad_xy_dsol, fs, alpha=2.0)
    psi = _random_state(rng, (H.electron.size, fs.dim))
    fortran = np.asfortranarray(psi)
    assert not fortran.flags.c_contiguous
    assert np.array_equal(H.apply(fortran), H.apply(psi))
    # a strided slice of a wider array
    wide = np.zeros((H.electron.size, 2 * fs.dim), dtype=np.complex128)
    wide[:, ::2] = psi
    assert np.array_equal(H.apply(wide[:, ::2]), H.apply(psi))


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
    assert H.electron.shape == (256,)
    assert abs(np.linalg.norm(H.electron) - 1.0) <= 1e-12
    p1, p2 = _random_state(rng, (256, fs.dim)), _random_state(rng, (256, fs.dim))
    assert H.apply(p1).shape == (256, fs.dim)
    assert abs(np.vdot(p1, H.apply(p2)) - np.vdot(H.apply(p1), p2)) <= 1e-12


def test_constructor_rejects_field_varying_along_uncoupled_axis(bundle):
    dsol = bundle.dsol
    y = dsol.grid.axis[:, None]
    bumped = dsol.V_eff.values + 1e-6 * np.cos(2.0 * np.pi * y / dsol.grid.box_length)
    broken = dataclasses.replace(dsol, V_eff=Field(bumped, dsol.grid))
    with pytest.raises(ValueError, match="uncoupled"):
        fk.CoupledHamiltonian(broken, fk.FockSpace(2, 2), alpha=2.0)


def test_constructor_rejects_delta_g_varying_along_uncoupled_axis(bundle, monkeypatch):
    # the complex delta G fields are checked apart from the real phi0 and V_eff
    grid = bundle.dsol.grid
    bump = 1.0 + 1e-6 * np.cos(2.0 * np.pi * grid.axis[:, None] / grid.box_length)
    monkeypatch.setattr(fk, "delta_g_fields", lambda dsol: delta_g_fields(dsol) * bump)
    with pytest.raises(fk.SectorError, match="uncoupled"):
        fk.CoupledHamiltonian(bundle.dsol, fk.FockSpace(2, 2), alpha=2.0)


@pytest.mark.parametrize("which", ["pair-x", "quad-xy", "hex-xyz"])
def test_electron_side_of_the_sector_stays_real(which, bundle, quad_xy_dsol, hex_xyz_dsol):
    dsol = {"pair-x": bundle.dsol, "quad-xy": quad_xy_dsol, "hex-xyz": hex_xyz_dsol}[which]
    H = fk.CoupledHamiltonian(dsol, fk.FockSpace(dsol.modes.M, 2), alpha=2.0)
    assert H.electron.dtype == np.float64
