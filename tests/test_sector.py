"""The coupled Hamiltonian on its invariant sector, checked against the
full 3-D grid route with dense ladder matrices, which lives here as a test
oracle only."""

import numpy as np
import pytest

from polaronlab import experiments as ex
from polaronlab import fock as fk
from test_fock import sector_coupling, sector_matrix


class FullGridHamiltonian:
    """The coupled Hamiltonian on all n^3 grid points: 3-D FFT Laplacian and
    dense ladder matrices, with the interface compare_trajectory uses and
    the operator contract of fk.propagate."""

    def __init__(self, dsol, fs, alpha):
        grid = dsol.grid
        self.grid, self.fs, self.alpha = grid, fs, alpha
        self.shape = (grid.size, fs.dim)
        self.electron = dsol.phi0.values.ravel() * np.sqrt(grid.cell_volume)
        self.vshift = (dsol.V_eff.values.real - dsol.lam).ravel()[:, None]
        self.ndiag = fs.occupations.sum(axis=1) / alpha**2
        self.aT = [fk.ladder(i, fs).toarray().T for i in range(fs.M)]
        dg = dsol.modes.coupling_fields(grid) - dsol.f0[:, None, None, None]  # delta G_i
        self.dg = [np.sqrt(w) * g.ravel()[:, None] for w, g in zip(dsol.modes.weights, dg)]

    def apply(self, psi, out=None, scale=1.0, shift=0.0):
        n = self.grid.n
        cube = psi.reshape(n, n, n, self.fs.dim)
        ksq = self.grid.ksq[..., None]
        lap = np.fft.ifftn(ksq * np.fft.fftn(cube, axes=(0, 1, 2)), axes=(0, 1, 2))
        hpsi = lap.reshape(psi.shape) + self.vshift * psi + self.ndiag * psi
        for aT, dg in zip(self.aT, self.dg):
            hpsi += (np.conj(dg) * (psi @ aT) + dg * (psi @ aT.T)) / self.alpha
        return np.multiply(hpsi - shift * psi, scale, out=out)

    @property
    def bounds(self):
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


@pytest.mark.parametrize("which, n_max, site", [("pair-x", 3, 3), ("quad-xy", 2, 7)])
def test_flat_shifts_stay_inside_each_site(which, n_max, site, bundle, quad_xy_small_dsol):
    # all weight at the top Fock index of one site and at the vacuum of the
    # next flat site (on quad-xy, the next row of the 8 x 8 sector), where a
    # flat-index shift of either direction would cross the site boundary
    dsol = {"pair-x": bundle.dsol, "quad-xy": quad_xy_small_dsol}[which]
    fs = fk.FockSpace(dsol.modes.M, n_max)
    axes = dsol.modes.coupled_axes
    H = fk.CoupledHamiltonian(dsol, fs, alpha=2.0)
    psi = np.zeros((H.electron.size, fs.dim), dtype=np.complex128)
    psi[site, -1], psi[site + 1, 0] = 0.6, 0.8j
    A, C, v = sector_matrix(H), sector_coupling(H), psi.ravel()
    got = H.apply(psi)
    assert np.max(np.abs(got.ravel() - A @ v)) <= 1e-12
    want = FullGridHamiltonian(dsol, fs, alpha=2.0).apply(embed(psi, dsol.grid, axes))
    assert np.max(np.abs(embed(got, dsol.grid, axes) - want)) <= 1e-12
    # the coupling alone, apply less the coupling-free part of the Kronecker
    # assembly, touches only the two occupied sites, each from its own amplitudes
    coupling = got - ((A - C) @ v).reshape(psi.shape)
    assert np.max(np.abs(coupling - (C @ v).reshape(psi.shape))) <= 1e-12
    assert np.max(np.abs(np.delete(coupling, [site, site + 1], axis=0))) <= 1e-12
    assert min(np.max(np.abs(coupling[site])), np.max(np.abs(coupling[site + 1]))) > 1e-2


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


@pytest.mark.parametrize("which", ["pair-x", "quad-xy", "hex-xyz"])
def test_electron_side_of_the_sector_stays_real(which, bundle, quad_xy_dsol, hex_xyz_dsol):
    dsol = {"pair-x": bundle.dsol, "quad-xy": quad_xy_dsol, "hex-xyz": hex_xyz_dsol}[which]
    H = fk.CoupledHamiltonian(dsol, fk.FockSpace(dsol.modes.M, 2), alpha=2.0)
    assert H.electron.dtype == np.float64
