"""Bogoliubov map and quasi-free density evolution."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from polaronlab import quasifree as qf
from polaronlab.experiments import build_bundle


@pytest.fixture(scope="module")
def gen(bundle):
    return bundle.generator


@pytest.fixture(scope="module")
def converged_bundle(desk_small_config):
    """pair-x on 24^3 at discrete Pekar tolerance 1e-10: the translation
    zero mode makes A nearly defective (eigenvector condition number 3e5)."""
    return build_bundle(replace(desk_small_config, grid_n=24, pekar_tol=1e-10))


def test_generator_block_structure(gen):
    M = gen.M
    A = gen.A
    K = gen.kernels.K
    G = gen.kernels.G
    assert np.array_equal(A[:M, M:], K)
    assert np.array_equal(A[:M, :M], np.eye(M) - G)
    assert gen.s_hermiticity_defect() <= 1e-12


def test_map_is_symplectic_over_long_times(gen):
    for tau in (0.5, 1.0, 5.0, 10.0):
        bmap = qf.propagate_map(gen, tau, 1.0)
        assert bmap.symplectic_defect() <= 1e-8


def test_group_law(gen):
    t1, t2 = 3.7, 2.3
    V1 = qf.propagate_map(gen, t1, 1.0).V
    V2 = qf.propagate_map(gen, t2, 1.0).V
    V12 = qf.propagate_map(gen, t1 + t2, 1.0).V
    assert np.max(np.abs(V12 - V2 @ V1)) <= 1e-9


def test_alpha_time_rescaling(gen):
    # V depends on t only through tau = t / alpha^2
    Va = qf.propagate_map(gen, 8.0, 2.0).V
    Vb = qf.propagate_map(gen, 2.0, 1.0).V
    assert np.max(np.abs(Va - Vb)) <= 1e-12


def test_vacuum_stays_pure_and_physical(gen):
    st0 = qf.vacuum_state(gen.M)
    for tau in (0.5, 2.0, 5.0):
        st = qf.evolve_quasifree(st0, qf.propagate_map(gen, tau, 1.0))
        assert np.max(np.abs(st.gamma - st.gamma.conj().T)) <= 1e-10
        assert np.max(np.abs(st.pairing - st.pairing.T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(st.gamma)) >= -1e-10
        assert st.purity_defect() <= 1e-10
        assert qf.expected_number(st) >= 0


def squeezed_vacuum(M: int, r: float, theta: float = 0.0) -> qf.QuasiFreeState:
    """Mode-diagonal squeezed vacuum with uniform squeezing r."""
    sh, ch = np.sinh(r), np.cosh(r)
    gamma = np.eye(M) * sh**2
    pairing = np.eye(M) * (-np.exp(1j * theta) * sh * ch)
    return qf.QuasiFreeState(gamma=gamma.astype(np.complex128), pairing=pairing)


def test_squeezed_vacuum_is_pure():
    st = squeezed_vacuum(3, r=0.7, theta=0.4)
    assert np.max(np.abs(st.gamma - st.gamma.conj().T)) <= 1e-8
    assert np.max(np.abs(st.pairing - st.pairing.T)) <= 1e-8
    assert np.min(np.linalg.eigvalsh(st.gamma)) >= -1e-8
    assert st.purity_defect() <= 1e-12
    assert np.isclose(qf.expected_number(st), 3 * np.sinh(0.7) ** 2)


def test_ode_route_matches_exponential_route(gen):
    tau = 5.0
    st0 = qf.vacuum_state(gen.M)
    via_map = qf.evolve_quasifree(st0, qf.propagate_map(gen, tau, 1.0))
    via_ode = qf.evolve_odes(st0, gen, tau, 1.0, dt=0.005)
    assert np.max(np.abs(via_map.gamma - via_ode.gamma)) <= 1e-6
    assert np.max(np.abs(via_map.pairing - via_ode.pairing)) <= 1e-6


def rk4_reference(state0, gen, t, alpha, dt):
    """The per-step RK4 loop over density_rhs that evolve_odes tabulates."""
    nsteps = max(1, int(round(abs(t) / dt)))
    h = t / nsteps
    g, p = state0.gamma.copy(), state0.pairing.copy()
    for _ in range(nsteps):
        k1g, k1p = qf.density_rhs(gen, g, p, alpha)
        k2g, k2p = qf.density_rhs(gen, g + 0.5 * h * k1g, p + 0.5 * h * k1p, alpha)
        k3g, k3p = qf.density_rhs(gen, g + 0.5 * h * k2g, p + 0.5 * h * k2p, alpha)
        k4g, k4p = qf.density_rhs(gen, g + h * k3g, p + h * k3p, alpha)
        g = g + (h / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)
        p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
    return qf.QuasiFreeState(gamma=g, pairing=p)


@pytest.fixture(scope="module", params=["desk-small", "desk-standard"])
def any_gen(request, gen, quad_xy_kernels):
    return gen if request.param == "desk-small" else qf.build_generator(quad_xy_kernels)


@pytest.mark.parametrize("start", ["vacuum", "tau1"])
def test_tabulated_ode_matches_per_step_rk4(any_gen, start):
    st0 = qf.vacuum_state(any_gen.M)
    if start == "tau1":
        st0 = qf.evolve_quasifree(st0, qf.propagate_map(any_gen, 1.0, 1.0))
    ref = rk4_reference(st0, any_gen, 5.0, 1.0, dt=0.005)
    got = qf.evolve_odes(st0, any_gen, 5.0, 1.0, dt=0.005)
    assert np.max(np.abs(got.gamma - ref.gamma)) <= 1e-11
    assert np.max(np.abs(got.pairing - ref.pairing)) <= 1e-11


@pytest.mark.parametrize("nsteps", [1, 2, 999, 1000, 1001])
def test_ode_matches_per_step_rk4_at_each_step_count(any_gen, nsteps):
    # the step power is taken by repeated squaring, whose products follow the
    # binary digits of the count: one and two steps, and three neighbours
    dt = 0.005
    st0 = qf.evolve_quasifree(qf.vacuum_state(any_gen.M), qf.propagate_map(any_gen, 1.0, 1.0))
    ref = rk4_reference(st0, any_gen, nsteps * dt, 1.0, dt)
    got = qf.evolve_odes(st0, any_gen, nsteps * dt, 1.0, dt)
    assert np.max(np.abs(got.gamma - ref.gamma)) <= 1e-11
    assert np.max(np.abs(got.pairing - ref.pairing)) <= 1e-11


def eight_term_reference(state, bmap):
    """(gamma, pairing) through the map by the block products that the
    congruence of evolve_quasifree expands, with a_i(t) = U a + W a^dag:

      gamma' = U gamma U^+ + W (1 + gamma^T) W^+ + U pairing W^+ + W pairing^- U^+
      pair'  = U pairing U^T + W pairing^- W^T + U gamma W^T + W (1 + gamma^T) U^T
    """
    U, W = bmap.heisenberg_blocks()
    g0, p0 = state.gamma, state.pairing
    eye = np.eye(state.M)
    gamma = (
        U @ g0 @ U.conj().T
        + W @ (eye + g0.T) @ W.conj().T
        + U @ p0 @ W.conj().T
        + W @ p0.conj() @ U.conj().T
    )
    pairing = U @ p0 @ U.T + W @ p0.conj() @ W.T + U @ g0 @ W.T + W @ (eye + g0.T) @ U.T
    return qf.QuasiFreeState(gamma=gamma, pairing=pairing)


@pytest.mark.parametrize("start", ["vacuum", "mixed"])
def test_congruence_matches_eight_term_formula(any_gen, start):
    M = any_gen.M
    st0 = qf.vacuum_state(M)
    if start == "mixed":
        # a thermal state sent through the map at tau = 1: mixed, with pairing
        thermal = qf.QuasiFreeState(np.diag(0.3 / 3.0 ** np.arange(M)), np.zeros((M, M)))
        st0 = eight_term_reference(thermal, qf.propagate_map(any_gen, 1.0, 1.0))
        assert np.max(np.abs(st0.pairing)) > 1e-2 and st0.purity_defect() > 1e-2
    bmap = qf.propagate_map(any_gen, 5.0, 1.0)
    got, want = qf.evolve_quasifree(st0, bmap), eight_term_reference(st0, bmap)
    assert np.max(np.abs(got.gamma - want.gamma)) <= 1e-13
    assert np.max(np.abs(got.pairing - want.pairing)) <= 1e-13
    assert np.max(np.abs(got.gamma - got.gamma.conj().T)) <= 1e-13
    assert np.max(np.abs(got.pairing - got.pairing.T)) <= 1e-13


def test_preset_maps_never_reach_scipy_expm(any_gen, monkeypatch):
    # scipy.linalg.expm runs on scipy's bundled BLAS, a second thread pool
    # next to numpy's that slowed a later Pekar solve in the same process;
    # _expm scales and squares on numpy alone, for every generator
    def refuse(*args, **kwargs):
        raise AssertionError("propagate_map reached scipy.linalg.expm")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    for tau in (1.0, 5.0, 10.0):
        qf.propagate_map(any_gen, tau, 1.0)


def test_nilpotent_generator_maps_exactly(bundle):
    # G = 0 and K = [[0, 1], [1, 0]] on the pair-x modes give A^2 = 0, so
    # V(tau) = 1 - i tau A exactly; a nilpotent A has no eigenbasis at all
    K = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    gen = qf.build_generator(replace(bundle.kernels, K=K, G=0 * K, epsilon=0.0))
    assert not np.any(gen.A @ gen.A)
    for tau in (1.0, 5.0, 50.0):
        bmap = qf.propagate_map(gen, tau, 1.0)
        assert np.max(np.abs(bmap.V - (np.eye(4) - 1j * tau * gen.A))) <= 1e-14
        assert bmap.symplectic_defect() <= 1e-14


def test_map_is_accurate_on_a_nearly_defective_generator(converged_bundle):
    # scipy's Pade expm serves as an oracle here, in the test only
    gen = converged_bundle.generator
    for tau in (1.0, 5.0):
        bmap = qf.propagate_map(gen, tau, 1.0)
        assert bmap.symplectic_defect() <= 1e-13
        assert np.max(np.abs(bmap.V - scipy.linalg.expm(-1j * tau * gen.A))) <= 1e-13


def test_affine_step_reproduces_rk4_step(any_gen, rng):
    M, h, alpha = any_gen.M, 0.01, 2.0
    g, p = (rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M)) for _ in range(2))
    P, q = qf._rk4_affine(any_gen, h, alpha)
    want = qf._pack(*qf._rk4_step(any_gen, g, p, h, alpha))
    got = P @ qf._pack(g, p) + q
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_ode_cost_does_not_depend_on_dt(gen, monkeypatch):
    calls = []
    rhs = qf.density_rhs

    def counted(*args):
        calls.append(1)
        return rhs(*args)

    monkeypatch.setattr(qf, "density_rhs", counted)
    counts = []
    for dt in (0.01, 0.005):
        calls.clear()
        qf.evolve_odes(qf.vacuum_state(gen.M), gen, 5.0, 1.0, dt=dt)
        counts.append(len(calls))
    assert counts[0] == counts[1] == 4  # one batched RK4 step tabulates the map


def test_ode_refuses_coarse_step(gen):
    with pytest.raises(ValueError, match="dt"):
        qf.evolve_odes(qf.vacuum_state(gen.M), gen, 1.0, 0.1, dt=50.0)


def test_identity_at_zero_time(gen):
    bmap = qf.propagate_map(gen, 0.0, 1.0)
    assert np.max(np.abs(bmap.V - np.eye(2 * gen.M))) <= 1e-14
    st = qf.evolve_quasifree(qf.vacuum_state(gen.M), bmap)
    assert np.max(np.abs(st.gamma)) <= 1e-14
    assert np.max(np.abs(st.pairing)) <= 1e-14


def test_heisenberg_blocks_preserve_ccr(gen):
    # [a(t), a(t)^dag] = 1 translates to U U^dag - W W^dag = 1
    U, W = qf.propagate_map(gen, 1.7, 1.0).heisenberg_blocks()
    M = gen.M
    assert np.max(np.abs(U @ U.conj().T - W @ W.conj().T - np.eye(M))) <= 1e-10
    # [a(t), a(t)] = 0 translates to U W^T symmetric under swap
    assert np.max(np.abs(U @ W.T - W @ U.T)) <= 1e-10


def test_density_rhs_is_structure_preserving(gen):
    # the flow keeps gamma Hermitian and pairing symmetric
    st = squeezed_vacuum(gen.M, 0.3)
    dg, dp = qf.density_rhs(gen, st.gamma, st.pairing, alpha=1.0)
    assert np.max(np.abs(dg - dg.conj().T)) <= 1e-12
    assert np.max(np.abs(dp - dp.T)) <= 1e-12


def test_generator_requires_valid_kernels(bundle):
    kp = bundle.kernels
    bad = replace(kp, K=kp.K + 1e-3 * np.tril(np.ones_like(kp.K), -1))
    with pytest.raises(ValueError):
        qf.build_generator(bad)


def test_translation_is_a_zero_mode_on_a_converged_grid(converged_bundle):
    # pair-x on 24^3: moving the polaron along x is a zero mode of A, which
    # the lattice of desk-small's 8^3 grid pins (there it reads 0.419)
    bundle = converged_bundle
    diag = bundle.generator.zero_mode_diagnostics(bundle.dsol.f0)
    assert set(diag) == {"lowest_symplectic_frequency", "zero_mode_defect_axis0"}
    assert diag["zero_mode_defect_axis0"] <= 1e-10
    assert diag["lowest_symplectic_frequency"] <= 1e-4


def test_zero_mode_diagnostics_on_the_lattice_pinned_model(gen, bundle):
    diag = gen.zero_mode_diagnostics(bundle.dsol.f0)
    assert abs(diag["lowest_symplectic_frequency"] - 0.6472) <= 1e-4
    assert abs(diag["zero_mode_defect_axis0"] - 0.4188) <= 1e-4
