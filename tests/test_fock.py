"""Truncated Fock-space oracle: enumeration, ladder algebra, Hamiltonians,
propagation, and reduced objects."""

import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
import types
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
import scipy.special

from polaronlab import experiments as ex
from polaronlab import fock as fk
from polaronlab import quasifree as qf
from polaronlab import config
from polaronlab.config import load_config
from polaronlab.modes import mode_preset


@pytest.fixture(scope="module")
def fs():
    return fk.FockSpace(2, 4)


def test_dimension_and_index_bijection(fs):
    assert fs.dim == 25
    for i, occ in enumerate(fs.occupations):
        assert np.ravel_multi_index(occ, fs.shape) == i


@pytest.mark.parametrize("M, n_max", [(1, 0), (2, 4), (3, 2)])
def test_occupations_enumerate_the_box_in_product_order(M, n_max):
    space = fk.FockSpace(M, n_max)
    ref = np.array(list(itertools.product(range(n_max + 1), repeat=M)))
    assert np.array_equal(space.occupations, ref)
    assert np.array_equal(space.numbers, ref.sum(axis=1))


@pytest.mark.parametrize("occ", [(5, 0), (0, 5), (-1, 0), (2, -3)])
def test_index_outside_the_cutoff_is_a_value_error(fs, occ):
    with pytest.raises(ValueError):
        np.ravel_multi_index(occ, fs.shape)


def test_dimension_cap():
    with pytest.raises(fk.FockDimensionError):
        fk.FockSpace(6, 9)


def test_ladder_matrix_elements(fs):
    a0 = fk.ladder(0, fs).toarray()
    src = np.ravel_multi_index((3, 1), fs.shape)
    dst = np.ravel_multi_index((2, 1), fs.shape)
    assert a0[dst, src] == pytest.approx(np.sqrt(3.0))


def test_ccr_on_interior_block(fs):
    # [a_i, a_j^dag] = delta_ij away from the cutoff boundary; the sqrt(n)
    # factors square back to integers only up to one rounding ulp
    interior = np.where(np.all(fs.occupations < fs.n_max, axis=1))[0]
    block = np.ix_(interior, interior)
    for i in range(fs.M):
        for j in range(fs.M):
            a_i = fk.ladder(i, fs).toarray()
            a_j = fk.ladder(j, fs).toarray()
            comm = a_i @ a_j.conj().T - a_j.conj().T @ a_i
            expected = np.eye(fs.dim) if i == j else np.zeros((fs.dim, fs.dim))
            assert np.max(np.abs(comm[block] - expected[block])) <= 1e-13


def test_number_operator_diagonal(fs):
    N = fk.number_operator(fs).toarray()
    assert np.array_equal(np.diag(N), fs.occupations.sum(axis=1))
    assert np.count_nonzero(N - np.diag(np.diag(N))) == 0


def test_vacuum(fs):
    v = fs.vacuum()
    # one unit amplitude, on the state with every occupation zero
    assert np.array_equal(fs.occupations[np.flatnonzero(v)], [[0] * fs.M])
    assert v.sum() == 1.0
    assert np.linalg.norm(v) == 1.0
    g, p = fk.reduced_densities(v, fs)
    assert np.max(np.abs(g)) == 0.0
    assert np.max(np.abs(p)) == 0.0


def test_single_excitation_density(fs):
    psi = np.zeros(fs.dim, dtype=np.complex128)
    psi[np.ravel_multi_index((1, 0), fs.shape)] = 1.0
    g, p = fk.reduced_densities(psi, fs)
    assert np.allclose(g, np.diag([1.0, 0.0]))
    assert np.max(np.abs(p)) == 0.0


def test_reduced_densities_make_two_ladder_passes(monkeypatch):
    space, calls = fk.FockSpace(3, 3), []
    apply = fk.apply_ladder

    def counted(*args, **kwargs):
        calls.append(1)
        return apply(*args, **kwargs)

    monkeypatch.setattr(fk, "apply_ladder", counted)
    fk.reduced_densities(space.vacuum(), space)
    assert len(calls) == 2 * space.M


def test_reduced_densities_of_a_stacked_state_sum_its_rows():
    # a random (S, dim) state with weight at the cutoff: the stacked call
    # equals the sum over rows, and each row the sparse-ladder expectations
    # <a_j^dag a_i> and <a_j a_i>
    space, S = fk.FockSpace(3, 3), 5
    rng = np.random.default_rng(15)
    psi = rng.standard_normal((S, space.dim)) + 1j * rng.standard_normal((S, space.dim))
    a = [fk.ladder(i, space) for i in range(space.M)]
    g, p = fk.reduced_densities(psi, space)
    g_rows, p_rows = 0.0, 0.0
    for row in psi:
        gr, pr = fk.reduced_densities(row, space)
        g_rows, p_rows = g_rows + gr, p_rows + pr
        g_ref = [[np.vdot(a[j] @ row, a[i] @ row) for j in range(space.M)] for i in range(space.M)]
        p_ref = [[np.vdot(row, a[j] @ (a[i] @ row)) for j in range(space.M)] for i in range(space.M)]
        assert np.max(np.abs(gr - np.array(g_ref))) <= 1e-12 * np.max(np.abs(g_ref))
        assert np.max(np.abs(pr - np.array(p_ref))) <= 1e-12 * np.max(np.abs(p_ref))
    assert np.max(np.abs(g - g_rows)) <= 1e-12 * np.max(np.abs(g))
    assert np.max(np.abs(p - p_rows)) <= 1e-12 * np.max(np.abs(p))


def test_quadratic_hamiltonian_hermitian(bundle, fs):
    H = fk.build_quadratic_hamiltonian(bundle.kernels, fs)
    assert abs(H - H.conj().T).max() <= 1e-12


def quadratic_hamiltonian_by_products(kp, fs):
    """H_quad as M^2 products of sparse ladder matrices, term by term: the
    oracle for the index-arithmetic assembly of build_quadratic_hamiltonian."""
    M = fs.M
    a = [fk.ladder(i, fs) for i in range(M)]
    ad = [op.conj().T.tocsr() for op in a]
    H = fk.number_operator(fs).astype(np.complex128)
    for i in range(M):
        for j in range(M):
            Gij = kp.G[i, j]
            Kij = kp.K[i, j]
            if Gij != 0:
                H = H - Gij * (ad[i] @ a[j])
            if Kij != 0:
                H = H - 0.5 * (Kij * (ad[i] @ ad[j]) + np.conj(Kij) * (a[i] @ a[j]))
    return H.tocsr()


@pytest.mark.parametrize(
    "kernels, n_max",
    [("pair_x_kernels", n) for n in (1, 2, 8)]
    + [("quad_xy_kernels", n) for n in (1, 2, 8)]
    # hex-xyz stops at n_max = 4: 9^6 states exceed DEFAULT_DIM_CAP
    + [("hex_xyz_kernels", n) for n in (1, 2, 4)],
)
def test_quadratic_hamiltonian_matches_ladder_products(kernels, n_max, request):
    kp = request.getfixturevalue(kernels)
    space = fk.FockSpace(kp.modes.M, n_max)
    H = fk.build_quadratic_hamiltonian(kp, space)
    ref = quadratic_hamiltonian_by_products(kp, space)
    ref.eliminate_zeros()
    assert np.all(H.data != 0)
    H.sort_indices()
    ref.sort_indices()
    assert np.array_equal(H.indptr, ref.indptr) and np.array_equal(H.indices, ref.indices)
    assert np.max(np.abs(H.data - ref.data)) <= 1e-14


@pytest.mark.parametrize("kernels, n_max", [("pair_x_kernels", 8), ("quad_xy_kernels", 3),
                                             ("hex_xyz_kernels", 2)])
def test_quadratic_hamiltonian_equals_the_all_pairs_assembly(kernels, n_max, request):
    # the same assembly with every mode in one group enumerates all M^2 mode
    # pairs; K and G are exact zeros between axis groups, so it gives the
    # same matrix entry by entry
    kp = request.getfixturevalue(kernels)
    space = fk.FockSpace(kp.modes.M, n_max)
    one_group = types.SimpleNamespace(group_modes=(np.arange(space.M),))
    H = fk.build_quadratic_hamiltonian(kp, space)
    ref = fk.build_quadratic_hamiltonian(dataclasses.replace(kp, modes=one_group), space)
    H.sort_indices()
    ref.sort_indices()
    assert np.array_equal(H.indptr, ref.indptr) and np.array_equal(H.indices, ref.indices)
    assert np.array_equal(H.data, ref.data)


def test_quadratic_build_assembles_only_entries_it_keeps(hex_xyz_kernels, monkeypatch):
    # hex-xyz 8^3 at n_max = 3 keeps 56,319 entries; the one assembled entry
    # it drops is the vacuum's zero diagonal (all M^2 pairs assembled 166,912)
    counts = []
    eliminate = sp.csr_matrix.eliminate_zeros

    def counted(self):
        counts.append(self.nnz)
        eliminate(self)
        counts.append(self.nnz)

    monkeypatch.setattr(sp.csr_matrix, "eliminate_zeros", counted)
    fk.build_quadratic_hamiltonian(hex_xyz_kernels, fk.FockSpace(6, 3))
    assert counts == [56_320, 56_319]


def test_normal_ordering_identity(bundle, fs):
    # route 1: normal-ordered dGamma(1-G) minus pairing terms
    # route 2: N - A + eps assembled from raw resolvent products
    H1 = fk.build_quadratic_hamiltonian(bundle.kernels, fs)
    H2 = fk.build_effective_operator_direct(bundle.kernels, fs)
    assert abs(H1 - H2).max() <= 1e-10


def displacement_operator(fs, z):
    """Dense W(z) = exp(sum_i z_i a_i^dag - conj(z_i) a_i) for test amplitudes."""
    X = sum(z[i] * fk.ladder(i, fs).T - np.conj(z[i]) * fk.ladder(i, fs) for i in range(fs.M))
    return scipy.linalg.expm(X.toarray())


def test_displacement_shift_relation():
    # W(z)^dag a_i W(z) = a_i + z_i at small test amplitude; checked on the
    # low-occupation block where the cutoff tail is negligible
    big = fk.FockSpace(2, 8)
    z = np.array([0.1 - 0.05j, 0.05j])
    W = displacement_operator(big, z)
    assert np.max(np.abs(W @ W.conj().T - np.eye(big.dim))) <= 1e-10
    interior = np.where(big.occupations.sum(axis=1) <= 2)[0]
    block = np.ix_(interior, interior)
    for i in range(big.M):
        a = fk.ladder(i, big).toarray()
        shifted = W.conj().T @ a @ W
        target = a + z[i] * np.eye(big.dim)
        assert np.max(np.abs(shifted[block] - target[block])) <= 1e-6


def dense_quadratic_propagator(kp, fs):
    """(tau, v) -> exp(-i tau H_quad) v through one dense eigh of H_quad: the
    reference for the Chebyshev route the experiments take."""
    ev, P = np.linalg.eigh(fk.build_quadratic_hamiltonian(kp, fs).toarray())
    return lambda tau, v: P @ (np.exp(-1j * tau * ev) * (P.conj().T @ v))


def test_quadratic_evolution_matches_quasifree(bundle):
    fs = fk.FockSpace(2, 12)
    tau = 1.0
    psi = dense_quadratic_propagator(bundle.kernels, fs)(tau, fs.vacuum())
    g, p = fk.reduced_densities(psi, fs)
    gen = qf.build_generator(bundle.kernels)
    st = qf.evolve_quasifree(qf.vacuum_state(2), qf.propagate_map(gen, tau, 1.0))
    assert np.max(np.abs(st.gamma - g)) <= 1e-6
    assert np.max(np.abs(st.pairing - p)) <= 1e-6


def interval(op, bounds):
    """op under propagate's contract with the interval bounds in place of its
    own: an exact one, or one made too narrow on purpose."""
    return types.SimpleNamespace(apply=op.apply, bounds=bounds)


def test_chebyshev_matches_dense_exponential(bundle):
    fs = fk.FockSpace(2, 8)
    H = fk.build_quadratic_hamiltonian(bundle.kernels, fs)
    Hd = H.toarray()
    ev, P = np.linalg.eigh(Hd)
    t = 3.0
    exact = P @ (np.exp(-1j * t * ev) * (P.conj().T @ fs.vacuum()))
    (approx,) = fk.propagate(interval(fk.MatrixOperator(H), (ev[0] - 1.0, ev[-1] + 1.0)),
                             fs.vacuum(), [t])
    assert np.linalg.norm(exact - approx) <= 1e-12


@pytest.mark.parametrize("times", [[3.0], [1.5, 3.0], [3.0, 0.75, 1.5, 0.75]])
def test_propagate_through_many_blocks_matches_dense_exponential(times, bundle):
    # one or two samples fill a block of three rows, refilled over and over;
    # T_k written into the row that holds T_k-2 would lose T_k-2 before its
    # subtraction.  Unsorted and repeated times meet the zero-padded block
    # product and the map back to the caller's order.  Both operators: H_quad
    # as a matrix and the coupled one
    fs = fk.FockSpace(2, 8)
    Hq = fk.build_quadratic_hamiltonian(bundle.kernels, fs)
    ev = np.linalg.eigvalsh(Hq.toarray())
    bounds = (ev[0] - 1.0, ev[-1] + 1.0)
    exact = dense_quadratic_propagator(bundle.kernels, fs)
    assert len(fk._chebyshev_coefficients(0.5 * (bounds[1] - bounds[0]) * times[0])) > 4 * 3
    for t, psi in zip(times, fk.propagate(interval(fk.MatrixOperator(Hq), bounds),
                                          fs.vacuum(), times)):
        assert np.linalg.norm(psi - exact(t, fs.vacuum())) <= 1e-12
    H = fk.CoupledHamiltonian(bundle.dsol, fk.FockSpace(2, 3), alpha=2.0)
    exact = dense_sector_propagator(H)
    psi0 = np.outer(H.electron, H.fs.vacuum())
    lo, hi = H.bounds
    assert len(fk._chebyshev_coefficients(0.5 * (hi - lo) * times[0])) > 4 * 3
    for t, psi in zip(times, fk.propagate(H, psi0, times)):
        assert np.linalg.norm(psi - exact(t, psi0)) <= 1e-12


@pytest.mark.parametrize("x", [0.0, 1.5, -7.25, 40.0, 188.0, 960.0])
def test_chebyshev_coefficients_match_bessel(x):
    c = fk._chebyshev_coefficients(x)
    k = np.arange(len(c))
    exact = np.where(k == 0, 1.0, 2.0) * (-1j) ** k * scipy.special.jv(k, x)
    assert np.max(np.abs(c - exact)) <= 1e-13
    # the series is cut where the coefficients fall below 1e-13
    assert abs(c[-1]) > 1e-13 >= abs(2.0 * scipy.special.jv(len(c), x))


@pytest.mark.parametrize("x, terms", [(1.2e4, 12_209), (2.5158e4, 25_424), (5e4, 50_332)])
def test_long_chebyshev_series_stops_past_the_turning_point(x, terms):
    # past x of about 1e4 the FFT's roundoff in the tail (2-5e-13 here) crosses
    # 1e-13; the series stops at the first small coefficient past k = x
    c = fk._chebyshev_coefficients(x)
    assert len(c) == terms
    k = np.arange(len(c))
    exact = np.where(k == 0, 1.0, 2.0) * (-1j) ** k * scipy.special.jv(k, x)
    assert np.max(np.abs(c - exact)) <= 1e-12


def test_propagate_rejects_unnormalized(bundle):
    fs = fk.FockSpace(2, 4)
    H = fk.build_quadratic_hamiltonian(bundle.kernels, fs)
    with pytest.raises(ValueError):
        fk.propagate(fk.MatrixOperator(H), 2.0 * fs.vacuum(), [1.0])


def sector_coupling(H):
    """The coupling of sector_matrix, sum_i diag(g_i/alpha) (x) a_i^dag +
    adjoint with g_i = sqrt(w_i) delta G_i, on the grid of the coupled axes
    in C order: block diagonal over the sector sites by construction."""
    dsol, fs = H.dsol, H.fs
    axes = dsol.modes.coupled_axes
    cut = tuple(slice(None) if a in axes else 0 for a in range(3))
    G = dsol.modes.coupling_fields(dsol.grid)[(slice(None), *cut)].reshape(fs.M, -1)
    dg = G - dsol.f0[:, None]  # delta G_i = G_i - f0_i
    g = np.sqrt(dsol.modes.weights)[:, None] * dg
    coupling = sum(sp.kron(sp.diags(g[i] / H.alpha), fk.ladder(i, fs).T) for i in range(fs.M))
    return (coupling + coupling.conj().T).tocsr()


def sector_matrix(H):
    """The coupled Hamiltonian on the flattened sector state as a sparse
    matrix of Kronecker products, built without CoupledHamiltonian.apply:
    (sector Laplacian + diag(V_eff - lambda)) (x) 1 + 1 (x) diag(N)/alpha^2
    + sector_coupling(H), on the grid of the coupled axes in C order."""
    dsol, fs, alpha = H.dsol, H.fs, H.alpha
    axes = dsol.modes.coupled_axes
    cut = tuple(slice(None) if a in axes else 0 for a in range(3))
    lap1, eye = sp.csr_matrix(dsol.grid.laplacian_matrix), sp.identity(dsol.grid.n)
    lap = sum(reduce(sp.kron, [lap1 if b == a else eye for b in range(len(axes))])
              for a in range(len(axes)))
    h = lap + sp.diags(dsol.V_eff.values[cut].ravel() - dsol.lam)
    return (sp.kron(h, sp.identity(fs.dim))
            + sp.kron(sp.identity(h.shape[0]), sp.diags(fs.numbers / alpha**2))
            + sector_coupling(H)).tocsr()


# the 8^3 ground state of each mode preset, by fixture name
GROUND_STATES_8 = {"pair-x": "pair_x_dsol", "quad-xy": "quad_xy_small_dsol",
                   "hex-xyz": "hex_xyz_dsol"}


@pytest.mark.parametrize("which, n_max", [("pair-x", 3), ("quad-xy", 2), ("hex-xyz", 1)])
@pytest.mark.parametrize("alpha", [2.0, 32.0])
def test_coupled_matvec_matches_kronecker_assembly(which, n_max, alpha, request):
    # 8^3 ground states; a random state touches every matrix entry, so a
    # wrong stride, wrap mask or coefficient plane shows far above 1e-12
    dsol = request.getfixturevalue(GROUND_STATES_8[which])
    H = fk.CoupledHamiltonian(dsol, fk.FockSpace(dsol.modes.M, n_max), alpha=alpha)
    shape = (H.electron.size, H.fs.dim)
    rng = np.random.default_rng(24)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    psi /= np.linalg.norm(psi)
    assert np.max(np.abs(H.apply(psi).ravel() - sector_matrix(H) @ psi.ravel())) <= 1e-12


def dense_sector_propagator(H):
    """(t, psi) -> exp(-i t H) psi for a sector state psi, through one dense
    eigh of the coupled Hamiltonian: the reference for the Chebyshev route."""
    ev, P = np.linalg.eigh(sector_matrix(H).toarray())

    def propagate(t, psi):
        return (P @ (np.exp(-1j * t * ev) * (P.conj().T @ psi.ravel()))).reshape(psi.shape)

    return propagate


@pytest.mark.parametrize("alpha", [2.0, 4.0, 8.0])
def test_propagate_matches_dense_sector_eigh(alpha, bundle, desk_small_config):
    # the desk-small sector (8 grid points x 81 Fock states) at every sample
    # of the tau grid, all from one recurrence
    fs = fk.FockSpace(bundle.modes.M, desk_small_config.n_max)
    H = fk.CoupledHamiltonian(bundle.dsol, fs, alpha=alpha)
    exact = dense_sector_propagator(H)
    psi0 = np.outer(H.electron, fs.vacuum())
    times = [tau * alpha**2 for tau in desk_small_config.tau_grid]
    approx = fk.propagate(H, psi0, times)
    assert len(approx) == len(times)
    for t, psi in zip(times, approx):
        assert np.linalg.norm(psi - exact(t, psi0)) <= 1e-10


@pytest.mark.parametrize("which, n_max", [("pair-x", 3), ("quad-xy", 1), ("hex-xyz", 1)])
def test_spectral_bounds_contain_dense_spectrum(which, n_max, request):
    # hex-xyz has 512 x 64 sector states: its ends come from Lanczos (eigsh,
    # started from phi0 (x) vacuum) on the Kronecker assembly, the others'
    # from a dense eigvalsh
    dsol = request.getfixturevalue(GROUND_STATES_8[which])
    for alpha in (2.0, 8.0, 32.0):
        H = fk.CoupledHamiltonian(dsol, fk.FockSpace(dsol.modes.M, n_max), alpha=alpha)
        A = sector_matrix(H)
        if which == "hex-xyz":
            v0 = np.outer(H.electron, H.fs.vacuum()).ravel()
            bottom, top = (scipy.sparse.linalg.eigsh(A, k=1, which=w, v0=v0, tol=1e-10,
                                                     return_eigenvectors=False)[0]
                           for w in ("SA", "LA"))
        else:
            ev = np.linalg.eigvalsh(A.toarray())
            bottom, top = ev[0], ev[-1]
        lo, hi = H.spectral_bounds()
        assert lo <= bottom and top <= hi


@pytest.mark.parametrize("alpha", [2.0, 8.0])
def test_spectral_bounds_upper_end_is_tight(alpha, bundle, desk_small_config):
    # Weyl's inequality on h - lambda and the per-site phonon tridiagonals:
    # 27.94 against a dense top of 27.64 at alpha = 2, 16.61 against 16.50 at 8
    fs = fk.FockSpace(bundle.modes.M, desk_small_config.n_max)
    H = fk.CoupledHamiltonian(bundle.dsol, fs, alpha=alpha)
    top = np.linalg.eigvalsh(sector_matrix(H).toarray())[-1]
    assert top <= H.spectral_bounds()[1] <= 1.02 * top


@pytest.mark.parametrize("n_max", [2, 8, 12])
def test_gershgorin_bounds_contain_dense_quadratic_spectrum(n_max, bundle):
    H = fk.build_quadratic_hamiltonian(bundle.kernels, fk.FockSpace(bundle.modes.M, n_max))
    ev = np.linalg.eigvalsh(H.toarray())
    lo, hi = fk.MatrixOperator(H).bounds
    assert lo <= ev[0] and ev[-1] <= hi


def test_compare_effective_columns_match_dense_eigh(bundle, desk_small_config):
    # the coupled state comes from the dense eigh of the sector Hamiltonian,
    # the effective state from the dense eigh of H_quad
    cfg, alpha = desk_small_config, 2.0
    fs = fk.FockSpace(bundle.modes.M, cfg.n_max)
    H = fk.CoupledHamiltonian(bundle.dsol, fs, alpha=alpha)
    coupled = dense_sector_propagator(H)
    quadratic = dense_quadratic_propagator(bundle.kernels, fs)
    ndiag = fs.occupations.sum(axis=1)
    rows = ex.compare_trajectory(bundle, cfg, alpha)
    psi0 = np.outer(H.electron, fs.vacuum())
    for tau, row in zip(cfg.tau_grid, rows):
        psi = coupled(tau * alpha**2, psi0)
        eta = quadratic(tau, fs.vacuum()) * np.exp(1j * bundle.kernels.epsilon * tau)
        assert abs(row[2] - np.linalg.norm(psi - np.outer(H.electron, eta))) <= 1e-12
        assert abs(row[5] - np.sum(ndiag * np.abs(eta) ** 2)) <= 1e-12


def test_bogoliubov_table_matches_dense_eigh(bundle, desk_small_config):
    kp, tau, cutoffs = bundle.kernels, desk_small_config.tau_final, [4, 6, 8, 12]
    exact = qf.evolve_quasifree(
        qf.vacuum_state(kp.modes.M), qf.propagate_map(qf.build_generator(kp), tau, 1.0)
    )
    for n_max, row in zip(cutoffs, ex.bogoliubov_table(kp, tau, cutoffs)):
        fs = fk.FockSpace(kp.modes.M, n_max)
        psi = dense_quadratic_propagator(kp, fs)(tau, fs.vacuum())
        g, p = fk.reduced_densities(psi, fs)
        want = [
            np.max(np.abs(exact.gamma - g)),
            np.max(np.abs(exact.pairing - p)),
            fk.top_level_population(psi, fs),
        ]
        assert row[0] == n_max
        assert np.max(np.abs(np.subtract(row[1:], want))) <= 1e-12


@pytest.mark.parametrize("cutoffs", [[8, 6], [12, 12]])
def test_bogoliubov_table_rejects_a_deviation_that_does_not_fall(bundle, cutoffs):
    # n_max = 6 after 8 rises to 7.2e-6; n_max = 12 twice stays at 8.7e-11,
    # the smallest desk-small row, still above the 1e-12 roundoff floor
    with pytest.raises(ex.InvariantError, match="not decreasing in n_max"):
        ex.bogoliubov_table(bundle.kernels, 1.0, cutoffs)


def test_quadratic_evolution_builds_no_dense_fock_matrix(bundle, desk_small_config, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a sparse Fock-space matrix was made dense")

    for cls in vars(sp).values():
        if isinstance(cls, type) and hasattr(cls, "toarray"):
            monkeypatch.setattr(cls, "toarray", refuse)
    with pytest.raises(AssertionError, match="made dense"):
        fk.number_operator(fk.FockSpace(2, 1)).toarray()
    ex.compare_trajectory(bundle, desk_small_config, 2.0)
    ex.bogoliubov_table(bundle.kernels, desk_small_config.tau_final, [4, 6, 8, 12])


def test_propagate_rejects_too_narrow_interval(bundle, rng):
    fs = fk.FockSpace(bundle.modes.M, 3)
    H = fk.CoupledHamiltonian(bundle.dsol, fs, alpha=2.0)
    shape = (H.electron.size, fs.dim)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    psi /= np.linalg.norm(psi)
    ev = np.linalg.eigvalsh(sector_matrix(H).toarray())
    # the interval misses the top third of the dense spectrum; the samples at
    # t = 0 and 0.1 still pass both drift checks, and the one at t = 4 does not
    narrow = interval(H, (ev[0], ev[-1] - (ev[-1] - ev[0]) / 3.0))
    assert len(fk.propagate(narrow, psi, [0.0, 0.1])) == 2
    with pytest.raises(fk.EvolutionError, match="norm drift .* at t = 4:"):
        fk.propagate(narrow, psi, [0.0, 0.1, 4.0])
    # at t = 400 the recurrence overflows; the t = 0.1 sample, whose series
    # ended first, takes none of those terms and still passes
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        fk.EvolutionError, match="norm drift nan, .* at t = 400:"
    ):
        fk.propagate(narrow, psi, [0.0, 0.1, 400.0])


def test_propagate_zero_time_returns_initial_state(bundle):
    fs = fk.FockSpace(bundle.modes.M, 3)
    H = fk.CoupledHamiltonian(bundle.dsol, fs, alpha=2.0)
    psi0 = np.outer(H.electron, fs.vacuum())
    (psi,) = fk.propagate(H, psi0, [0.0])
    assert np.array_equal(psi, psi0)


def test_spectral_bounds_lower_end_is_the_completed_square(bundle, desk_small_config):
    # the coupling-norm bound alone gives -14.84 here; the dense bottom is -0.071
    fs = fk.FockSpace(bundle.modes.M, desk_small_config.n_max)
    lo, _ = fk.CoupledHamiltonian(bundle.dsol, fs, alpha=2.0).spectral_bounds()
    assert lo >= -0.83


@pytest.mark.parametrize("alpha, matvecs", [(2.0, 99), (4.0, 223), (8.0, 640)])
def test_compare_trajectory_matvec_count(alpha, matvecs, bundle, desk_small_config, monkeypatch):
    calls = []
    apply = fk.CoupledHamiltonian.apply

    def counted(self, psi, **kwargs):
        calls.append(psi.shape)
        return apply(self, psi, **kwargs)

    monkeypatch.setattr(fk.CoupledHamiltonian, "apply", counted)
    ex.compare_trajectory(bundle, desk_small_config, alpha)
    assert len(calls) == matvecs


def test_compare_propagates_each_state_once(bundle, desk_small_config, monkeypatch):
    # one recurrence for psi and one for eta serve every tau sample: two
    # propagate calls and at most 101 coupled matvecs at alpha = 2, with the
    # coupled interval found once
    propagations, matvecs, intervals = [], [], []
    propagate, apply = fk.propagate, fk.CoupledHamiltonian.apply
    spectral_bounds = fk.CoupledHamiltonian.spectral_bounds

    def counted_propagate(op, psi0, times):
        propagations.append((op, len(times)))
        return propagate(op, psi0, times)

    def counted_apply(self, psi, **kwargs):
        matvecs.append(1)
        return apply(self, psi, **kwargs)

    def counted_bounds(self):
        intervals.append(1)
        return spectral_bounds(self)

    monkeypatch.setattr(fk, "propagate", counted_propagate)
    monkeypatch.setattr(fk.CoupledHamiltonian, "apply", counted_apply)
    monkeypatch.setattr(fk.CoupledHamiltonian, "spectral_bounds", counted_bounds)
    ex.compare_trajectory(bundle, desk_small_config, 2.0)
    samples = desk_small_config.tau_samples  # the tau = 0 row is the initial state
    assert len(propagations) == 2
    assert isinstance(propagations[0][0], fk.CoupledHamiltonian)
    assert isinstance(propagations[1][0], fk.MatrixOperator)
    assert isinstance(propagations[1][0].matrix, sp.csr_matrix)
    assert [n for _, n in propagations] == [samples, samples]
    assert len(matvecs) <= 101
    assert len(intervals) == 1


def test_compare_peak_memory_within_preflight_estimate(bundle, desk_small_config):
    need = config.compare_bytes(desk_small_config)
    tracemalloc.start()
    try:
        ex.compare_trajectory(bundle, desk_small_config, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak <= need


def test_compare_peak_memory_within_preflight_estimate_on_a_long_tau_grid(
    bundle, desk_small_config
):
    # an accumulator, a block-product row and a block slot per sample: 32
    # samples trace about 1.21 MB on desk-small, where 12 states and H_quad
    # alone charge 0.24 MB
    cfg = dataclasses.replace(desk_small_config, tau_samples=32)
    need = config.compare_bytes(cfg)
    ex.compare_trajectory(bundle, cfg, 2.0)  # untraced first: the scipy.sparse import
    tracemalloc.start()
    try:
        ex.compare_trajectory(bundle, cfg, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak <= need


@pytest.mark.parametrize("mode_preset_name, n_max", [("pair-x", 8), ("quad-xy", 3),
                                                     ("hex-xyz", 2)])
def test_half_width_bound_contains_the_spectral_bounds(
    mode_preset_name, n_max, bundle, quad_xy_dsol, hex_xyz_dsol
):
    # the memory estimate bounds the Chebyshev half-width before any solve
    dsol = {"pair-x": bundle.dsol, "quad-xy": quad_xy_dsol, "hex-xyz": hex_xyz_dsol}[
        mode_preset_name]
    fs = fk.FockSpace(dsol.modes.M, n_max)
    for alpha in (2.0, 8.0, 32.0):
        cfg = dataclasses.replace(load_config(), grid_n=dsol.grid.n, n_max=n_max,
                                  mode_preset=mode_preset_name)
        lo, hi = fk.CoupledHamiltonian(dsol, fs, alpha=alpha).spectral_bounds()
        assert 0.5 * (hi - lo) <= config._chebyshev_half_width(cfg, alpha)


@pytest.mark.parametrize("alpha, tau_samples", [(32.0, 4), (32.0, 32), (8.0, 32)])
def test_compare_peak_memory_charges_the_chebyshev_series(
    alpha, tau_samples, bundle, desk_small_config
):
    # at large alpha the coefficient series and the FFT that makes them set
    # the peak: 1.47, 5.26 and 1.46 MB traced, against a charge for the
    # states and H_quad alone of 0.41, 1.28 and 1.28 MB
    cfg = dataclasses.replace(desk_small_config, alphas=[alpha], tau_samples=tau_samples)
    need = config.compare_bytes(cfg)
    tracemalloc.start()
    try:
        ex.compare_trajectory(bundle, cfg, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak <= need


_FRESH_PEAKS = """\
import dataclasses, sys, tracemalloc
from polaronlab import config, experiments as ex


def traced(run, need):
    tracemalloc.start()
    result = run()
    print(tracemalloc.get_traced_memory()[1], need)
    tracemalloc.stop()
    return result


cfg = config.load_config(preset=sys.argv[1])
bundle = traced(lambda: ex.build_bundle(cfg), config.bundle_bytes(cfg))
if len(sys.argv) > 2:
    alpha = float(sys.argv[2])
    cfg = dataclasses.replace(cfg, alphas=[alpha], tau_samples=int(sys.argv[3]))
    traced(lambda: ex.compare_trajectory(bundle, cfg, alpha), config.compare_bytes(cfg))
"""


def _fresh_peaks(preset, *compare):
    """(traced peak, stage charge) of build_bundle in a fresh process, which
    loads numpy.fft on its first FFT as the command line does, and with
    compare = (alpha, tau_samples) of one compare_trajectory after it, which
    loads scipy.sparse on its first sparse assembly."""
    env = {**os.environ, "PYTHONPATH": str(Path(fk.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", _FRESH_PEAKS, preset, *map(str, compare)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return [tuple(map(int, line.split())) for line in run.stdout.splitlines()]


@pytest.mark.parametrize("preset", ["desk-small", "desk-standard"])
def test_bundle_peak_memory_within_preflight_estimate(preset):
    # a fresh process: about 230 KB on desk-small and 1.00 MB on
    # desk-standard, where a process that has made an FFT traces 105 KB and
    # 0.88 MB
    ((peak, need),) = _fresh_peaks(preset)
    assert 0 < peak <= need <= 2 * peak


@pytest.mark.parametrize("alpha, tau_samples", [(2.0, 4), (32.0, 4), (32.0, 1), (8.0, 32)])
def test_fresh_process_bundle_and_compare_stay_within_their_stage_charges(alpha, tau_samples):
    # desk-small compare peaks of about 14.5, 15.7, 15.3 and 15.7 MB, of
    # which the scipy.sparse import keeps 14.2 MB
    (bundle_peak, bundle_need), (peak, need) = _fresh_peaks("desk-small", alpha, tau_samples)
    assert 0 < bundle_peak <= bundle_need
    assert 0 < peak <= need


def _selftest_estimate_and_peak(mode_preset_name):
    """The estimate the selftest verb charges, the bundle plus the
    normal-ordering check, less the numpy.fft and scipy.sparse imports that a
    fresh process pays and this one has paid, and the traced peak of
    selftest_report."""
    cfg = dataclasses.replace(load_config(preset="desk-small"), mode_preset=mode_preset_name)
    need = (config.bundle_bytes(cfg) + config.normal_ordering_bytes(cfg)
            - config._FIRST_FFT_BYTES - config._SCIPY_SPARSE_BYTES)
    np.fft.fft(np.zeros(8))  # loads numpy.fft if no test before has
    tracemalloc.start()
    try:
        ex.selftest_report(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return need, peak


@pytest.mark.parametrize("mode_preset_name", ["pair-x", "hex-xyz"])
def test_selftest_peak_memory_within_preflight_estimate(mode_preset_name):
    need, peak = _selftest_estimate_and_peak(mode_preset_name)
    assert 0 < peak <= need


@pytest.mark.parametrize("mode_preset_name", ["quad-xy", "hex-xyz"])
def test_selftest_preflight_estimate_is_tight(mode_preset_name):
    # the estimate must not refuse a selftest the machine could run: at M = 4
    # and 6 the normal-ordering check dominates, and its fit stays within 2x
    need, peak = _selftest_estimate_and_peak(mode_preset_name)
    assert 0 < peak <= need <= 2 * peak


@pytest.mark.parametrize(
    "preset, cutoffs", [("desk-small", [4, 6, 8, 12]), ("desk-standard", [10])]
)
def test_bogoliubov_peak_memory_within_preflight_estimate(
    preset, cutoffs, bundle, quad_xy_kernels
):
    cfg = load_config(preset=preset)
    kp = bundle.kernels if preset == "desk-small" else quad_xy_kernels
    assert kp.modes.M == mode_preset(cfg.mode_preset, cfg.box_length).M
    assert cutoffs[-1] == cfg.bogoliubov_cutoffs[-1]
    need = config.bogoliubov_bytes(cfg)
    tracemalloc.start()
    try:
        ex.bogoliubov_table(kp, cfg.tau_final, cutoffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak <= need


def test_coupled_hamiltonian_hermitian(bundle, rng):
    fs = fk.FockSpace(2, 3)
    H = fk.CoupledHamiltonian(bundle.dsol, fs, alpha=2.0)
    shape = (H.electron.size, fs.dim)
    p1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    p2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lhs = np.vdot(p1, H.apply(p2))
    rhs = np.vdot(H.apply(p1), p2)
    assert abs(lhs - rhs) <= 1e-9 * np.linalg.norm(p1) * np.linalg.norm(p2)


def test_coupled_reference_state_has_zero_energy(bundle):
    # (h - lambda) phi0 = 0 and <vacuum coupling term> = 0
    fs = fk.FockSpace(2, 3)
    H = fk.CoupledHamiltonian(bundle.dsol, fs, alpha=2.0)
    psi0 = np.outer(H.electron, fs.vacuum())
    assert abs(np.linalg.norm(psi0) - 1.0) <= 1e-10
    assert abs(np.vdot(psi0, H.apply(psi0))) <= 1e-10


def test_top_level_population(fs):
    psi = np.zeros(fs.dim, dtype=np.complex128)
    psi[np.ravel_multi_index((fs.n_max, 0), fs.shape)] = 1.0
    assert fk.top_level_population(psi, fs) == 1.0
    assert fk.top_level_population(fs.vacuum(), fs) == 0.0


def test_trace_distance_trivials():
    rho1 = np.diag([1.0, 0.0]).astype(complex)
    rho2 = np.diag([0.0, 1.0]).astype(complex)
    assert fk.trace_distance(rho1, rho1) == 0.0
    assert fk.trace_distance(rho1, rho2) == pytest.approx(2.0)


def test_trace_distance_to_ground_product_state(bundle):
    fs = fk.FockSpace(2, 3)
    H = fk.CoupledHamiltonian(bundle.dsol, fs, alpha=2.0)
    psi = np.outer(H.electron, fs.vacuum())
    assert fk.trace_distance_to_ground(psi, H.electron) <= 1e-10


@pytest.mark.parametrize("b", [0.1, 0.5, 0.9])
def test_trace_distance_to_ground_closed_form(b):
    # psi = a v0 (x) e_0 + b chi (x) e_1 with chi orthogonal to v0 leaves the
    # electron in a^2 |v0><v0| + b^2 |chi><chi|: distance 2 b^2 from |v0><v0|
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
    v0, chi = q[:, 0], q[:, 1]
    psi = np.zeros((6, 4), dtype=np.complex128)
    psi[:, 0] = np.sqrt(1.0 - b**2) * v0
    psi[:, 1] = b * chi
    assert abs(fk.trace_distance_to_ground(psi, v0) - 2.0 * b**2) <= 1e-12
