"""Restricted resolvent and kernel assembly against independent routes.

The separable spectral solver is checked against the two routes it
replaced, which live here as oracles: projected conjugate gradients for the
resolvent and a dense eigendecomposition of h on the full grid.  The kernel
table, read off the group eigenbases, is checked column by column against
full-grid resolvent solves.
"""

import dataclasses
from functools import reduce

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, cg

from polaronlab import resolvent
from polaronlab.experiments import build_bundle
from polaronlab.grid import Field, Grid3, inner, plane_wave
from polaronlab.modes import ModeSet, mode_preset
from polaronlab.resolvent import (
    GapError,
    ResolventHandle,
    apply_h,
    separable_spectrum,
)

from conftest import assert_kernels_saved


def _random_field(grid, rng):
    return Field(
        rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape), grid
    )


def test_resolvent_identities_on_random_inputs(bundle, rng):
    rh = bundle.rh
    sol = bundle.dsol
    for _ in range(20):
        v = _random_field(bundle.grid, rng)
        u = rh.apply(v)
        qv = rh.project_out_ground(v)
        hu = apply_h(sol, u)
        resid = Field(hu.values - sol.lam * u.values - qv.values, bundle.grid).norm()
        assert resid <= 1e-8
        assert abs(inner(sol.phi0, u)) <= 1e-10
        assert u.norm() <= qv.norm() / bundle.gap + 1e-12


def test_resolvent_annihilates_ground_state(bundle):
    u = bundle.rh.apply(bundle.dsol.phi0)
    assert u.norm() <= 1e-10


def test_stale_lambda_is_a_gap_error(bundle):
    # the stored multiplier must be the lowest eigenvalue of the h it came with
    with pytest.raises(GapError, match="disagrees with stored lambda"):
        ResolventHandle(dataclasses.replace(bundle.dsol, lam=bundle.dsol.lam + 1e-3))


def test_build_bundle_diagonalises_h_once_after_the_pekar_sweeps(desk_small_config,
                                                                 monkeypatch):
    # the sweeps diagonalise only group operators; the one full spectrum is the
    # final sweep's, which the handle reuses
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return separable_spectrum(*args, **kwargs)

    monkeypatch.setattr(resolvent, "separable_spectrum", counted)
    bundle = build_bundle(desk_small_config)
    assert len(calls) == 1
    assert bundle.gap == bundle.rh.gap


def test_kernel_symmetries(bundle):
    kp = bundle.kernels
    assert np.max(np.abs(kp.K - kp.K.T)) <= 1e-12
    assert np.max(np.abs(kp.G - kp.G.conj().T)) <= 1e-12
    # parity-closed real ground state makes both matrices real
    assert np.max(np.abs(kp.K.imag)) <= 1e-8
    assert np.max(np.abs(kp.G.imag)) <= 1e-8


def test_kernel_conjugation_parity(bundle):
    # conj K(k, l) = K(-k, -l) in the discrete index convention
    kp = bundle.kernels
    par = bundle.modes.parity
    assert np.max(np.abs(kp.K.conj() - kp.K[np.ix_(par, par)])) <= 1e-10
    assert np.max(np.abs(kp.G.conj() - kp.G[np.ix_(par, par)])) <= 1e-10


def test_epsilon_is_half_trace(bundle):
    kp = bundle.kernels
    assert kp.epsilon == 0.5 * float(np.trace(kp.G).real)
    assert kp.epsilon > 0


def test_diagonal_cross_route(bundle):
    # <phi0 e^{ikx}, R e^{-ikx} phi0> from the table equals the Rayleigh
    # quotient <u, (h - lambda) u> computed from the solved u directly
    kp = bundle.kernels
    par = bundle.modes.parity
    table = np.real(kp.t_table[np.arange(bundle.modes.M), par])
    assert np.max(np.abs(table - kp.diag_rayleigh)) <= 1e-8
    assert np.all(kp.diag_rayleigh > 0)


def test_t_table_symmetric(bundle):
    t = bundle.kernels.t_table
    assert np.max(np.abs(t - t.T)) <= 1e-10


def test_kernel_norm_bounded_by_gap(bundle):
    # crude operator bound: |K|, |G| <= sum_i w_i c_i^2 / gap
    kp = bundle.kernels
    c = bundle.modes.coupling_constants
    w = bundle.modes.weights
    bound = float(np.sum(w * c**2)) / bundle.gap
    assert np.linalg.norm(kp.K, 2) <= bound
    assert np.linalg.norm(kp.G, 2) <= bound


def test_kernel_pair_roundtrip(bundle, tmp_path):
    kp = bundle.kernels
    kp.save(str(tmp_path))
    assert_kernels_saved(kp, tmp_path)


# the mode sets of dsol_of and kernels_of below, with their mode counts
MODE_COUNTS = {"pair-x": 2, "quad-xy": 4, "hex-xyz": 6, "diag-xy": 4}


@pytest.fixture
def kernels_of(pair_x_kernels, quad_xy_kernels, hex_xyz_kernels, diag_xy_kernels):
    return {"pair-x": pair_x_kernels, "quad-xy": quad_xy_kernels,
            "hex-xyz": hex_xyz_kernels, "diag-xy": diag_xy_kernels}


@pytest.mark.parametrize("which, j", [(w, j) for w, M in MODE_COUNTS.items() for j in range(M)])
def test_resolvent_mode_vectors_match_table(which, j, dsol_of, kernels_of):
    # the band route's column t[., j] against the grid route: one full-grid
    # solve u = R e^{-ik_j x} phi0 and the products <e^{ik_a x} phi0, u>
    sol = dsol_of[which]
    grid, phi, k = sol.grid, sol.phi0.values, sol.modes.k_vectors
    u = ResolventHandle(sol).apply(Field(np.conj(plane_wave(grid, k[j]).values) * phi, grid))
    for a in range(sol.modes.M):
        bra = Field(plane_wave(grid, k[a]).values * phi, grid)
        assert abs(inner(bra, u) - kernels_of[which].t_table[a, j]) <= 1e-13


@pytest.mark.parametrize("which", MODE_COUNTS)
def test_no_coupling_between_axis_groups(which, kernels_of):
    # t, K and G vanish exactly between modes of different axis groups
    kp = kernels_of[which]
    group_of = np.empty(kp.modes.M, dtype=int)
    for number, idx in enumerate(kp.modes.group_modes):
        group_of[idx] = number
    across = group_of[:, None] != group_of[None, :]
    assert np.any(across) == (which in ("quad-xy", "hex-xyz"))  # diag-xy: one group
    for table in (kp.t_table, kp.K, kp.G):
        assert np.all(table[across] == 0)


# ---------------------------------------------------------------------------
# the separable solver against full-grid oracles
# ---------------------------------------------------------------------------


def projected_cg_resolvent(sol, v, shift):
    """Q (h - lambda)^{-1} Q v by conjugate gradients on the full grid,
    preconditioned by (p^2 + shift)^{-1}; real and imaginary parts are
    solved separately."""
    grid = sol.grid
    n = grid.size
    phi = sol.phi0.values.real.ravel()
    phi = phi / np.linalg.norm(phi)
    V = sol.V_eff.values.real

    def proj(x):
        return x - phi * np.dot(phi, x)

    def h(x):
        f = x.reshape(grid.shape)
        return (np.fft.ifftn(grid.ksq * np.fft.fftn(f)).real + V * f).ravel()

    def amv(x):  # Q (h - lambda) Q + P: positive definite on the whole space
        qx = proj(x)
        return proj(h(qx) - sol.lam * qx) + phi * np.dot(phi, x)

    def pre(x):
        f = proj(x).reshape(grid.shape)
        return proj(np.fft.ifftn(np.fft.fftn(f) / (grid.ksq + shift)).real.ravel())

    op = LinearOperator((n, n), matvec=amv, dtype=np.float64)
    precond = LinearOperator((n, n), matvec=pre, dtype=np.float64)
    parts = []
    for b in (v.values.real.ravel(), v.values.imag.ravel()):
        qb = proj(b)
        x, info = cg(op, qb, rtol=0.0, atol=1e-13 * max(1.0, np.linalg.norm(qb)),
                     maxiter=5000, M=precond)
        assert info == 0
        parts.append(proj(x))
    return Field((parts[0] + 1j * parts[1]).reshape(grid.shape), grid)


def dense_full_grid_h(sol):
    """h = p^2 + V_eff as a dense n^3 x n^3 matrix, p^2 built by FFT."""
    grid = sol.grid
    eye = np.eye(grid.n)
    lap1 = np.fft.ifft(grid.k_axis[:, None] ** 2 * np.fft.fft(eye, axis=0), axis=0).real
    lap = sum(
        reduce(np.kron, [lap1 if b == a else eye for b in range(3)]) for a in range(3)
    )
    return lap + np.diag(sol.V_eff.values.real.ravel())


CASES = ["pair-x", "quad-xy", "hex-xyz", "diag-xy"]


@pytest.fixture
def dsol_of(bundle, quad_xy_dsol, hex_xyz_dsol, diag_xy_dsol):
    return {
        "pair-x": bundle.dsol,
        "quad-xy": quad_xy_dsol,
        "hex-xyz": hex_xyz_dsol,
        "diag-xy": diag_xy_dsol,
    }


@pytest.mark.parametrize("which", CASES)
def test_separable_resolvent_matches_projected_cg(which, dsol_of, rng):
    sol = dsol_of[which]
    rh = ResolventHandle(sol)
    v = _random_field(sol.grid, rng)
    want = projected_cg_resolvent(sol, v, shift=rh.gap)
    assert np.max(np.abs(rh.apply(v).values - want.values)) <= 1e-10


@pytest.mark.parametrize("which", ["pair-x", "hex-xyz", "diag-xy"])
def test_lowest_eigenvalues_match_dense_full_grid(which, dsol_of):
    sol = dsol_of[which]
    dense = np.linalg.eigvalsh(dense_full_grid_h(sol))[:8]
    rh = ResolventHandle(sol)
    spec = rh.spectrum
    assert np.max(np.abs(np.sort(spec.eigenvalues(), axis=None)[:8] - dense)) <= 1e-10
    assert abs(rh.gap - (dense[1] - dense[0])) <= 1e-10
    if all(spec.coupled):
        assert abs(rh.sector_gap - rh.gap) <= 1e-12


def test_sector_gap_leaves_out_the_free_axis(quad_xy_dsol):
    rh = ResolventHandle(quad_xy_dsol)
    # free motion along z sets the box gap (2 pi / L)^2
    assert abs(rh.gap - 0.25) <= 1e-12
    assert abs(rh.sector_gap - 1.6695207) <= 1e-6


# ---------------------------------------------------------------------------
# the eigenbasis transform against the dense product of the group bases
# ---------------------------------------------------------------------------

# the off-axis pair +-(0.5, 0, 0.5) joins x and z into the non-contiguous
# group (0, 2) next to the free axis 1
TRANSFORM_MODES = ["pair-x", "quad-xy", "hex-xyz", "xz-pair"]


def spectrum_of(name, rng):
    """The separable spectrum of p^2 + V on 8^3, V a sum of the mode set's
    plane waves with random amplitudes, given by its group terms."""
    grid = Grid3(8, 4.0 * np.pi)
    if name == "xz-pair":
        modes = ModeSet(np.array([[0.5, 0.0, 0.5], [-0.5, 0.0, -0.5]]), [16.0, 16.0])
    else:
        modes = mode_preset(name, grid.box_length)
    f = rng.standard_normal(modes.M) + 1j * rng.standard_normal(modes.M)
    groups = modes.group_fields(modes.coupling_fields(grid))
    return separable_spectrum(grid, modes, [(f[idx] @ Gg).real for _, idx, Gg in groups])


def dense_eigenbasis(spec):
    """The n^3 x n^3 unitary whose column c is the eigenvector of coefficient
    index c, both indices in C order of the grid: the Kronecker product of
    the group bases, each placed on its own axes."""
    n, letters = spec.grid.n, []
    for g in spec.groups:
        letters.append("".join("xyz"[a] for a in g) + "".join("abc"[a] for a in g))
    ops = [u.reshape((n,) * 2 * len(g)) for g, u in zip(spec.groups, spec.bases)]
    return np.einsum(",".join(letters) + "->xyzabc", *ops).reshape(n**3, n**3)


@pytest.mark.parametrize("name", TRANSFORM_MODES)
def test_transform_matches_dense_kronecker_product(name, rng):
    spec = spectrum_of(name, rng)
    if name == "xz-pair":
        assert spec.groups == ((0, 2), (1,))
    U, shape = dense_eigenbasis(spec), spec.grid.shape
    assert np.max(np.abs(U.conj().T @ U - np.eye(len(U)))) <= 1e-13
    v = _random_field(spec.grid, rng).values
    want = (U.conj().T @ v.ravel()).reshape(shape)
    assert np.max(np.abs(spec.transform(v) - want)) <= 1e-13
    want = (U @ v.ravel()).reshape(shape)
    assert np.max(np.abs(spec.transform(v, inverse=True) - want)) <= 1e-13


@pytest.mark.parametrize("name", TRANSFORM_MODES)
def test_transform_round_trip(name, rng):
    spec = spectrum_of(name, rng)
    v = _random_field(spec.grid, rng).values
    assert np.max(np.abs(spec.transform(spec.transform(v), inverse=True) - v)) <= 1e-13
    assert np.max(np.abs(spec.transform(spec.transform(v, inverse=True)) - v)) <= 1e-13
