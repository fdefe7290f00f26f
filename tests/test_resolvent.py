"""Restricted resolvent and kernel assembly against independent routes.

The separable spectral solver is checked against the two routes it
replaced, which live here as oracles: projected conjugate gradients for the
resolvent and a dense eigendecomposition of h on the full grid.
"""

from functools import reduce

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, cg

from polaronlab.grid import Field, plane_wave
from polaronlab.modes import mode_preset
from polaronlab.resolvent import (
    GapError,
    KernelPair,
    ResolventHandle,
    apply_h,
    axis_groups,
    separable_spectrum,
    spectral_gap,
)


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
        from polaronlab.grid import inner

        assert abs(inner(sol.phi0, u)) <= 1e-10
        assert u.norm() <= qv.norm() / bundle.gap + 1e-12


def test_resolvent_annihilates_ground_state(bundle):
    u = bundle.rh.apply(bundle.dsol.phi0)
    assert u.norm() <= 1e-10


def test_gap_requires_positive_value(bundle):
    with pytest.raises(GapError):
        ResolventHandle(bundle.dsol, gap=0.0)


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
    back = KernelPair.load(str(tmp_path))
    assert np.array_equal(back.K, kp.K)
    assert np.array_equal(back.G, kp.G)
    assert back.epsilon == kp.epsilon
    assert np.array_equal(back.t_table, kp.t_table)
    back.check(tol=1e-10)


def test_resolvent_mode_vectors_match_table(bundle):
    # one direct re-solve: u = R e^{-ik_0 x} phi0 reproduces t[., 0]
    grid = bundle.grid
    phi = bundle.dsol.phi0
    pw = plane_wave(grid, bundle.modes.k_vectors[0])
    src = Field(np.conj(pw.values) * phi.values, grid)
    u = bundle.rh.apply(src)
    from polaronlab.grid import inner

    for a in range(bundle.modes.M):
        bra = Field(
            plane_wave(grid, bundle.modes.k_vectors[a]).values * phi.values, grid
        )
        assert abs(inner(bra, u) - bundle.kernels.t_table[a, 0]) <= 1e-9


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


def test_axis_groups_split_presets_and_merge_off_axis_modes(diag_xy_dsol):
    for name in ("pair-x", "quad-xy", "hex-xyz"):
        assert axis_groups(mode_preset(name, 4.0 * np.pi)) == ((0,), (1,), (2,))
    assert axis_groups(diag_xy_dsol.modes) == ((0, 1), (2,))


@pytest.mark.parametrize("which", CASES)
def test_separable_resolvent_matches_projected_cg(which, dsol_of, rng):
    sol = dsol_of[which]
    gaps = spectral_gap(sol)
    rh = ResolventHandle(sol, gaps["gap"])
    v = _random_field(sol.grid, rng)
    want = projected_cg_resolvent(sol, v, shift=gaps["gap"])
    assert np.max(np.abs(rh.apply(v).values - want.values)) <= 1e-10


@pytest.mark.parametrize("which", ["pair-x", "hex-xyz", "diag-xy"])
def test_lowest_eigenvalues_match_dense_full_grid(which, dsol_of):
    sol = dsol_of[which]
    dense = np.linalg.eigvalsh(dense_full_grid_h(sol))[:8]
    spec = separable_spectrum(sol.V_eff, sol.modes)
    assert np.max(np.abs(np.sort(spec.eigenvalues(), axis=None)[:8] - dense)) <= 1e-10
    gaps = spectral_gap(sol)
    assert abs(gaps["gap"] - (dense[1] - dense[0])) <= 1e-10
    if all(spec.coupled):
        assert abs(gaps["sector_gap"] - gaps["gap"]) <= 1e-12


def test_sector_gap_leaves_out_the_free_axis(quad_xy_dsol):
    gaps = spectral_gap(quad_xy_dsol)
    # free motion along z sets the box gap (2 pi / L)^2
    assert abs(gaps["gap"] - 0.25) <= 1e-12
    assert abs(gaps["sector_gap"] - 1.6695207) <= 1e-6


def test_non_separable_potential_is_rejected(hex_xyz_dsol):
    grid = hex_xyz_dsol.grid
    x, y, _ = grid.coords
    bumped = hex_xyz_dsol.V_eff.values + 1e-6 * np.cos(x / 2) * np.cos(y / 2)
    with pytest.raises(ValueError, match="does not separate"):
        separable_spectrum(Field(bumped, grid), hex_xyz_dsol.modes)
