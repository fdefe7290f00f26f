"""Ground-state solvers: closed-form Gaussian values, descent convergence,
virial identities, and the discrete self-consistent model."""

import json
import tracemalloc

import numpy as np
import pytest

from polaronlab import pekar, resolvent
from polaronlab.config import load_config, pekar_bytes
from polaronlab.grid import Field, Grid3, apply_laplacian, gaussian, inner
from polaronlab.modes import ModeSet, axis_pair, mode_preset
from polaronlab.pekar import (
    GAUSSIAN_BOUND,
    GAUSSIAN_OPT_SIGMA,
    DelocalizedError,
    NotNormalizedError,
    minimize_pekar,
    pekar_energy,
    solve_discrete_pekar,
)

from conftest import assert_solution_saved


def test_gaussian_energy_matches_closed_form():
    # for the width-sigma Gaussian: T = 3/(4 sigma^2), D = 1/(sigma sqrt(pi))
    grid = Grid3(40, 64.0)
    sigma = 4.0
    T, D, E = pekar_energy(gaussian(grid, sigma))
    assert abs(T - 3.0 / (4.0 * sigma**2)) < 1e-10
    assert abs(D - 1.0 / (sigma * np.sqrt(np.pi))) / D < 1e-3
    assert abs(E - (T - 0.5 * D)) < 1e-14


def test_optimal_gaussian_attains_bound():
    # sigma = 3 sqrt(pi) minimizes over Gaussians, giving E = -1/(12 pi)
    sigma = GAUSSIAN_OPT_SIGMA
    T = 3.0 / (4.0 * sigma**2)
    D = 1.0 / (sigma * np.sqrt(np.pi))
    assert abs((T - 0.5 * D) - GAUSSIAN_BOUND) < 1e-15


def test_pekar_energy_rejects_unnormalized():
    grid = Grid3(8, 4 * np.pi)
    with pytest.raises(NotNormalizedError):
        pekar_energy(gaussian(grid, 1.0) * 2.0)


def test_minimize_beats_gaussian_and_satisfies_virial():
    sol = minimize_pekar(Grid3(40, 80.0))
    assert sol.energy < GAUSSIAN_BOUND
    assert abs(sol.D - 4.0 * sol.T) / sol.D < 1e-3
    assert abs(sol.lam - 3.0 * sol.energy) / abs(sol.energy) < 1e-3
    assert sol.residual <= 1e-6


def test_minimize_returns_real_ground_state_and_potential():
    sol = minimize_pekar(Grid3(40, 80.0))
    assert sol.phi0.values.dtype == sol.V_eff.values.dtype == np.float64


def test_minimize_detects_delocalized_collapse():
    # on a small box the uniform state wins and the solver must refuse it
    with pytest.raises(DelocalizedError):
        minimize_pekar(Grid3(16, 16.0))


def _reference_recenter(phi: Field) -> Field:
    """The reference route's recentring: full-grid circular means and a 3-D
    phase exp(-i k.d) on the complex spectrum."""
    g = phi.grid
    w = np.abs(phi.values) ** 2
    theta = 2.0 * np.pi * g.axis / g.box_length
    d = np.zeros(3)
    for a in range(3):
        shape = [1, 1, 1]
        shape[a] = g.n
        z = np.sum(w * np.exp(1j * theta).reshape(shape)) / w.sum()
        d[a] = -g.box_length * np.angle(z) / (2.0 * np.pi)
    kx, ky, kz = np.meshgrid(g.k_axis, g.k_axis, g.k_axis, indexing="ij")
    phase = np.exp(-1j * (kx * d[0] + ky * d[1] + kz * d[2]))
    return Field(np.fft.ifftn(np.fft.fftn(phi.values) * phase), g)


def _complex_euler_lagrange(phi: Field):
    """Reference: the Euler-Lagrange pass on complex Fields with full complex
    FFTs.  Returns V, lambda, D and the residual field (h - lambda) phi."""
    g = phi.grid
    fold = np.minimum(np.arange(g.n), g.n - np.arange(g.n))
    rho = np.abs(phi.values) ** 2
    # the 1/|x| multiplier depends on |k| alone: unfold its half spectrum
    V = -np.fft.ifftn(np.fft.fftn(rho) * g.coulomb_kernel[..., fold]).real
    hphi = apply_laplacian(phi).values + V * phi.values
    lam = inner(phi, Field(hphi, g)).real
    D = -float(np.vdot(rho, V)) * g.cell_volume
    return Field(V, g), lam, D, Field(hphi - lam * phi.values, g)


def _complex_descent(grid, step=0.8, tol=1e-7, max_iter=4000):
    """Reference: minimize_pekar's descent on complex Fields, with full
    complex FFTs (8 n-d transforms per step) and the 3-D phase shift."""
    phi = gaussian(grid, min(pekar.GAUSSIAN_OPT_SIGMA, grid.box_length / 8.0))
    tau, z_prev, phi_prev = step, None, None
    for it in range(1, max_iter + 1):
        _, lam, _, grad = _complex_euler_lagrange(phi)
        if grad.norm() <= tol:
            break
        shift = max(0.5, abs(lam))
        z = np.fft.ifftn(np.fft.fftn(grad.values) / (grid.ksq + shift))
        if phi_prev is not None:
            dphi, dz = phi.values - phi_prev, z - z_prev
            den = np.vdot(dphi, dz).real
            if den > 0:
                tau = float(np.clip(np.vdot(dphi, dphi).real / den, 0.05, 20.0))
        phi_prev, z_prev = phi.values.copy(), z.copy()
        new = pekar._fix_phase_positive(_reference_recenter(Field(phi.values - tau * z, grid)))
        phi = new * (1.0 / new.norm())
    else:
        raise AssertionError("reference descent did not converge")
    phi = pekar._fix_phase_positive(_reference_recenter(phi))
    phi = phi * (1.0 / phi.norm())
    T, D, E = pekar_energy(phi)
    V, lam, _, _ = _complex_euler_lagrange(phi)
    return it, phi, V, T, D, E, lam


@pytest.mark.parametrize("grid", [Grid3(40, 80.0), Grid3(48, 96.0)], ids=["40", "48"])
def test_real_descent_matches_complex_reference(grid):
    it, phi, V, T, D, E, lam = _complex_descent(grid)
    sol = minimize_pekar(grid)
    assert sol.iterations == it
    for got, want in [(sol.energy, E), (sol.T, T), (sol.D, D), (sol.lam, lam)]:
        assert abs(got - want) <= 1e-12
    assert np.max(np.abs(sol.phi0.values - phi.values)) <= 1e-12
    assert np.max(np.abs(sol.V_eff.values - V.values)) <= 1e-12
    # the reference recentres every step; the descent keeps phi0 even instead
    phi0 = sol.phi0.values
    assert np.max(np.abs(center_of_mass(np.abs(phi0) ** 2, grid))) <= 1e-12
    assert np.max(np.abs(phi0 - reflected(phi0))) / 2.0 <= 1e-12


@pytest.mark.parametrize("grid", [Grid3(40, 80.0), Grid3(48, 96.0)], ids=["40", "48"])
def test_real_check_matches_complex_euler_lagrange(grid):
    # the full-grid check in real arithmetic against the complex pass on the
    # same unfolded descent state
    phi, _ = pekar._real_descent(grid, 1e-7)
    V, lam, D, residual = pekar._euler_lagrange(phi, grid)
    V_ref, lam_ref, D_ref, grad_ref = _complex_euler_lagrange(Field(phi, grid))
    assert np.max(np.abs(V - V_ref.values)) <= 1e-12
    assert abs(lam - lam_ref) <= 1e-12
    assert abs(D - D_ref) <= 1e-12
    assert abs(residual - grad_ref.norm()) <= 1e-12


def center_of_mass(rho: np.ndarray, grid: Grid3) -> np.ndarray:
    """Periodic (circular-mean) centre of mass of a density along each axis,
    from the 1-D marginal of the axis."""
    ph = np.exp(2j * np.pi * grid.axis / grid.box_length)
    com = np.zeros(3)
    for a in range(3):
        marginal = rho.sum(axis=tuple(b for b in range(3) if b != a))
        com[a] = grid.box_length * np.angle(marginal @ ph) / (2.0 * np.pi)
    return com


def reflected(v: np.ndarray) -> np.ndarray:
    """v(-x) on the grid: x_j = -L/2 + j dx goes to x_{-j mod n}."""
    return np.roll(v[::-1, ::-1, ::-1], 1, axis=(0, 1, 2))


def unfold(octant: np.ndarray, n: int) -> np.ndarray:
    """The full n^3 field that is even along each axis about index 0 and
    holds ``octant`` on indices 0..n/2."""
    fold = np.minimum(np.arange(n), n - np.arange(n))
    return octant[np.ix_(fold, fold, fold)]


@pytest.mark.parametrize("n", [8, 16, 48])
def test_cosine_transform_is_the_dft_of_the_unfolded_field(n):
    C, w = pekar._cosine_matrix(n)
    a, b = np.random.default_rng(n).standard_normal((2, *w.shape))
    full_a, full_b = unfold(a, n), unfold(b, n)
    spectrum = np.fft.fftn(full_a)
    scale = np.max(np.abs(spectrum))
    assert np.max(np.abs(spectrum.imag)) <= 1e-13 * scale
    assert np.max(np.abs(spectrum.real - unfold(pekar._cos3(a, C), n))) <= 1e-13 * scale
    assert np.max(np.abs(C @ C / n - np.eye(len(C)))) <= 1e-13
    scale = np.sqrt(np.vdot(full_a, full_a) * np.vdot(full_b, full_b))
    assert abs(np.vdot(w * a, b) - np.vdot(full_a, full_b)) <= 1e-12 * scale
    # the descent's unfolded iterate is exactly even along each axis on its own
    phi, _ = pekar._real_descent(Grid3(n, 2.0 * n), 1e-7)
    for axis in range(3):
        assert np.array_equal(np.roll(np.flip(phi, axis), 1, axis), phi)


def test_descent_spends_four_real_transforms_per_step(monkeypatch):
    # a loop regression shows here without a benchmark run
    counts = dict.fromkeys((n for n in np.fft.__all__ if "freq" not in n and "shift" not in n), 0)
    for name in counts:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    cos3 = []
    monkeypatch.setattr(pekar, "_cos3", lambda a, C, _fn=pekar._cos3: cos3.append(1) or _fn(a, C))
    grid = Grid3(48, 96.0)
    sol = minimize_pekar(grid)
    # per step phi^2 and V phi forward, V and the new phi back; one forward to
    # start, and the last step stops after its residual, one inverse short
    assert len(cos3) == 4 * sol.iterations
    # no FFT in the descent; the post-solve check is one real Euler-Lagrange
    # pass, p^2 phi and the Coulomb potential, with no complex transform
    assert counts.pop("rfftn") == counts.pop("irfftn") == 2
    assert not any(counts.values()), counts
    # and the solve builds no full-spectrum |k|^2
    assert "ksq" not in vars(grid)


def test_pekar_peak_memory_within_preflight_estimate():
    cfg = load_config(preset="pekar-hi")
    need = pekar_bytes(cfg)
    tracemalloc.start()
    try:  # a fresh grid, so its caches count too
        minimize_pekar(Grid3(cfg.grid_n, cfg.box_length))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak <= need <= 2 * peak


def test_solution_roundtrip(tmp_path):
    sol = minimize_pekar(Grid3(40, 80.0))
    sol.save(str(tmp_path))
    assert sol.phi0.values.dtype == sol.V_eff.values.dtype == np.float64
    assert_solution_saved(sol, tmp_path)


@pytest.fixture(scope="module")
def dsol():
    grid = Grid3(8, 4 * np.pi)
    return solve_discrete_pekar(grid, mode_preset("pair-x", grid.box_length))


class TestDiscreteModel:
    def test_normalized_real_ground_state(self, dsol):
        assert abs(dsol.phi0.norm() - 1.0) < 1e-10
        assert dsol.phi0.values.dtype == dsol.V_eff.values.dtype == np.float64

    def test_self_consistency(self, dsol):
        # lambda is the ground eigenvalue of p^2 + V built from f0
        from polaronlab.resolvent import apply_h

        hphi = apply_h(dsol, dsol.phi0)
        resid = Field(hphi.values - dsol.lam * dsol.phi0.values, dsol.grid).norm()
        assert resid < 1e-7

    def test_exactly_constant_along_uncoupled_axes(self, dsol):
        # pair-x couples only x; the coupled sector relies on phi0 and V_eff
        # being constant along y and z to the last bit
        for p in (dsol.phi0.values, dsol.V_eff.values):
            assert np.array_equal(p, np.broadcast_to(p[:, :1, :1], p.shape))

    def test_energy_decomposition(self, dsol):
        # E = T - sum_i w_i |f_i|^2 and lambda = T - 2 sum_i w_i |f_i|^2
        s = float(np.sum(dsol.modes.weights * np.abs(dsol.f0) ** 2))
        assert abs(dsol.energy - (dsol.T - s)) < 1e-9
        assert abs(dsol.lam - (dsol.T - 2.0 * s)) < 1e-9

    def test_energy_trace_monotone(self, dsol):
        trace = np.asarray(dsol.energy_trace)
        assert np.all(np.diff(trace) <= 1e-10)

    def test_delta_g_orthogonal_to_ground(self, dsol):
        # <phi0, delta G phi0> = 0 by construction of f0
        for dg in dsol.modes.coupling_fields(dsol.grid) - dsol.f0[:, None, None, None]:
            val = inner(dsol.phi0, Field(dg * dsol.phi0.values, dsol.grid))
            assert abs(val) < 1e-9

    def test_unbound_modes_rejected(self):
        # |k| = 1 with a weak weight does not self-trap on this box
        grid = Grid3(8, 4 * np.pi)
        ks, ws = axis_pair(1.0, 0, 6.0)
        with pytest.raises(DelocalizedError):
            solve_discrete_pekar(grid, ModeSet(ks, ws))

    def test_roundtrip(self, dsol, tmp_path):
        dsol.save(str(tmp_path))
        assert_solution_saved(dsol, tmp_path)
        # every scalar is written: a field nothing sets would read null
        scalars = json.loads((tmp_path / "scalars.json").read_text())
        assert None not in scalars.values()


DIAG_PAIR = np.array([[0.5, 0.5, 0.0], [-0.5, -0.5, 0.0]])


@pytest.mark.parametrize("weight", [16.0, 32.0])
def test_diagonal_stripe_converges_and_is_refused_as_delocalized(weight):
    # the single pair +-(0.5, 0.5, 0) binds only across the diagonal: the fixed
    # point is a stripe along it, which the binding check refuses
    with pytest.raises(DelocalizedError):
        solve_discrete_pekar(Grid3(8, 4 * np.pi), ModeSet(DIAG_PAIR, [weight, weight]))


def test_axis_plus_diagonal_pair_converges(diag_xy_dsol):
    assert abs(diag_xy_dsol.lam - -7.576090078517094) <= 1e-12


def test_pinned_amplitudes_do_not_see_a_translation(diag_xy_dsol):
    # a density moved by d turns each f_i by e^{-i k_i.d}; pinning takes the
    # two amplitude sets to the same one, real on the span basis
    modes, grid = diag_xy_dsol.modes, diag_xy_dsol.grid
    G = modes.coupling_fields(grid)
    rng = np.random.default_rng(11)
    rho = rng.random(grid.shape)
    d = rng.uniform(-0.5, 0.5, 3) * grid.box_length  # no lattice vector
    kx, ky, kz = np.meshgrid(grid.k_axis, grid.k_axis, grid.k_axis, indexing="ij")
    phase = np.exp(-1j * (kx * d[0] + ky * d[1] + kz * d[2]))
    rho_d = np.fft.ifftn(np.fft.fftn(rho) * phase).real
    f, f_d = (np.tensordot(G, r, axes=3) * grid.cell_volume for r in (rho, rho_d))
    assert np.max(np.abs(f_d - f * np.exp(-1j * (modes.k_vectors @ d)))) <= 1e-12
    pinned = pekar._pin_translation(modes, f)
    assert np.max(np.abs(pekar._pin_translation(modes, f_d) - pinned)) <= 1e-12
    assert np.all(np.abs(pinned[modes.span_basis].imag) <= 1e-12)
    assert np.all(pinned[modes.span_basis].real > 0)


def test_discrete_solve_makes_no_fft(monkeypatch):
    # the gauge is pinned on the amplitudes and T read off the separable spectrum
    counts = dict.fromkeys((n for n in np.fft.__all__ if "freq" not in n and "shift" not in n), 0)
    for name in counts:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    grid = Grid3(16, 4 * np.pi)
    solve_discrete_pekar(grid, mode_preset("quad-xy", grid.box_length), tol=1e-7)
    assert not any(counts.values()), counts


@pytest.mark.parametrize("name", ["pair-x", "quad-xy", "hex-xyz"])
def test_product_ground_state_matches_inverse_transform(name):
    # the sweep's ground vector is the product of the group ground columns;
    # the inverse transform of the unit coefficient array is the route it replaced
    grid = Grid3(8, 4 * np.pi)
    spec = solve_discrete_pekar(grid, mode_preset(name, grid.box_length), tol=1e-7).spectrum
    phi, lam = spec.ground()
    unit = np.zeros(grid.shape)
    unit.flat[0] = 1.0
    assert np.max(np.abs(phi - spec.transform(unit, inverse=True))) <= 1e-15
    assert lam == spec.eigenvalues().flat[0]


def test_discrete_solve_makes_no_eigenbasis_transform(monkeypatch):
    # each sweep reads its ground state off the group bases alone
    def refuse(*args, **kwargs):
        raise AssertionError("solve_discrete_pekar called SeparableSpectrum.transform")

    monkeypatch.setattr(resolvent.SeparableSpectrum, "transform", refuse)
    grid = Grid3(16, 4 * np.pi)
    solve_discrete_pekar(grid, mode_preset("quad-xy", grid.box_length), tol=1e-7)


def _mode_set(name, request):
    """A 4 pi-box preset, or the axis-plus-diagonal set of diag_xy_dsol, whose
    off-axis pair merges x and y into the group (0, 1)."""
    if name == "axis-plus-diagonal":
        return request.getfixturevalue("diag_xy_dsol").modes
    return mode_preset(name, 4 * np.pi)


@pytest.mark.parametrize("name", ["pair-x", "quad-xy", "hex-xyz", "axis-plus-diagonal"])
def test_pinning_pseudo_inverse_matches_least_squares(name, request):
    modes = _mode_set(name, request)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(modes.M) + 1j * rng.standard_normal(modes.M)
    basis = modes.span_basis
    d = np.linalg.lstsq(modes.k_vectors[basis], np.angle(f[basis]), rcond=None)[0]
    assert np.max(np.abs(modes.span_pinv @ np.angle(f[basis]) - d)) <= 1e-14
    pinned = f * np.exp(-1j * (modes.k_vectors @ d))
    assert np.max(np.abs(pekar._pin_translation(modes, f) - pinned)) <= 1e-14


def tensordot_potential(modes, G, f):
    """V(x) = -2 Re sum_i w_i conj(f_i) G_x(k_i) on the full grid, from the
    coupling-field table G."""
    return -2.0 * np.tensordot(modes.weights * np.conj(f), G, axes=1).real


def full_grid_sweep(modes, G, f, grid):
    """lambda, T and the amplitudes <phi, G_x(k_i) phi> of a sweep by the
    full-grid route: the tensordot potential, split over the axis groups by
    full-grid means (the split is checked), one group eigensystem per term,
    and phi, the product of the group ground vectors, read on the grid."""
    V = tensordot_potential(modes, G, f)
    offset = V.mean()
    lam, phi, split = offset, np.ones((1, 1, 1)), offset
    for g in modes.axis_groups:
        term = V.mean(axis=tuple(a for a in range(3) if a not in g), keepdims=True) - offset
        e, u = resolvent.group_eigensystem(grid, len(g), term)
        lam, phi, split = lam + e[0], phi * u[:, 0].reshape(term.shape), split + term
    assert np.max(np.abs(split - V)) <= 1e-12  # V separates over the groups
    rho = phi.real**2 / (np.sum(phi.real**2) * grid.cell_volume)
    T = lam - float(np.sum(rho * V)) * grid.cell_volume
    return lam, T, np.tensordot(G, rho, axes=3) * grid.cell_volume


@pytest.mark.parametrize("name", ["pair-x", "quad-xy", "hex-xyz", "axis-plus-diagonal"])
@pytest.mark.parametrize("n", [8, 16])
def test_group_sweep_matches_the_full_grid_route(name, n, request):
    # lambda, T and the new amplitudes of a sweep, group by group against the
    # full-grid route, from the first sweep's Gaussian amplitudes and from the
    # fixed point
    grid, modes = Grid3(n, 4 * np.pi), _mode_set(name, request)
    G = modes.coupling_fields(grid)
    groups = modes.group_fields(G)
    f_init = pekar._mode_amplitudes(G, gaussian(grid, pekar.DISCRETE_SIGMA_INIT))
    for f in (f_init, solve_discrete_pekar(grid, modes, tol=1e-7).f0):
        lam, T, f_new = pekar._group_sweep(modes, groups, f, grid)
        lam_ref, T_ref, f_ref = full_grid_sweep(modes, G, f, grid)
        assert abs(lam - lam_ref) <= 1e-13
        assert abs(T - T_ref) <= 1e-13
        assert np.max(np.abs(f_new - f_ref)) <= 1e-13


@pytest.mark.parametrize("name", ["pair-x", "quad-xy", "hex-xyz", "axis-plus-diagonal"])
@pytest.mark.parametrize("n", [8, 16])
def test_potential_is_the_tensordot_of_the_coupling_fields(name, n, request):
    # V_eff, the broadcast sum of the group terms, is the full-grid potential
    # of the converged amplitudes: it separates over the groups by construction
    grid, modes = Grid3(n, 4 * np.pi), _mode_set(name, request)
    dsol = solve_discrete_pekar(grid, modes, tol=1e-7)
    want = tensordot_potential(modes, modes.coupling_fields(grid), dsol.f0)
    assert np.max(np.abs(dsol.V_eff.values - want)) <= 1e-13


def test_discrete_solve_builds_grid_data_once(monkeypatch):
    # the sweeps never touch the n^3 grid: the coupling-field table and the
    # spectrum are built once per solve, the spectrum by the final sweep
    calls = {"spectrum": 0, "fields": 0}
    spectrum, fields = resolvent.separable_spectrum, ModeSet.coupling_fields

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(resolvent, "separable_spectrum", count("spectrum", spectrum))
    monkeypatch.setattr(ModeSet, "coupling_fields", count("fields", fields))
    grid = Grid3(16, 4 * np.pi)
    sol = solve_discrete_pekar(grid, mode_preset("quad-xy", grid.box_length), tol=1e-7)
    assert sol.iterations > 1
    assert calls == {"spectrum": 1, "fields": 1}
