"""Experiment pipelines: model assembly, effective-vs-full comparisons with
their electron trace distances, coupling-strength scans and truncation
tables."""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import fock as fk
from . import quasifree as qf
from .config import InvariantError, RunConfig
from .grid import Field, Grid3
from .modes import ModeSet, mode_preset
from .pekar import DiscretePekarSolution, solve_discrete_pekar
from .resolvent import KernelPair, ResolventHandle, apply_h, build_kernels


@dataclass
class ModelBundle:
    """Everything downstream experiments need, built once per configuration."""

    grid: Grid3
    modes: ModeSet
    dsol: DiscretePekarSolution
    gap: float  # gap of h; (2 pi / L)^2 where an axis is uncoupled
    sector_gap: float  # gap within the coupled axis groups
    rh: ResolventHandle
    kernels: KernelPair
    generator: qf.Generator


def build_bundle(cfg: RunConfig, manifest=None) -> ModelBundle:
    """Solve the ground state, build kernels and the dynamics generator."""

    stage = manifest.time_stage if manifest is not None else lambda _: nullcontext()
    grid = Grid3(cfg.grid_n, cfg.box_length)
    modes = mode_preset(cfg.mode_preset, grid.box_length)
    with stage("solve_ground_state"):
        dsol = solve_discrete_pekar(grid, modes, tol=cfg.pekar_tol)
    rh = ResolventHandle(dsol)
    with stage("build_kernels"):
        kp = build_kernels(rh)
    gen = qf.build_generator(kp)
    if manifest is not None:
        defect = gen.s_hermiticity_defect()
        manifest.record_check("generator_s_hermitian", defect <= 1e-10, defect)
        manifest.diagnostics.update(gen.zero_mode_diagnostics(dsol.f0))  # recorded, not gated
    return ModelBundle(grid, modes, dsol, rh.gap, rh.sector_gap, rh, kp, gen)


# ---------------------------------------------------------------------------
# full-vs-effective comparison (the headline scaling experiment)
# ---------------------------------------------------------------------------

COMPARE_HEADER = [
    "t [strong-coupling units]",
    "tau = t/alpha^2",
    "err_effective [state norm]",
    "err_phase_only [state norm]",
    "N_full [phonons]",
    "N_eff [phonons]",
    "top_level_population",
    "trace_distance_electron",
]


def compare_trajectory(bundle: ModelBundle, cfg: RunConfig, alpha: float):
    """Evolve the coupled state and its effective approximation, sampling the
    tau grid.  Returns rows matching COMPARE_HEADER.

    The effective state is the frozen ground state tensored with the
    quadratically evolved phonon state; the phase-only baseline freezes the
    phonons too (in the displaced frame the reference phase is zero).  All
    states live on the invariant sector of ``fk.CoupledHamiltonian``.
    """
    fs = fk.FockSpace(bundle.modes.M, cfg.n_max)
    H = fk.CoupledHamiltonian(bundle.dsol, fs, alpha=alpha)
    bounds = H.spectral_bounds()
    Hq = fk.build_quadratic_hamiltonian(bundle.kernels, fs)
    qbounds = fk.gershgorin_bounds(Hq)
    psi0 = np.outer(H.electron, fs.vacuum())
    ndiag = fs.numbers

    rows = []
    taus = cfg.tau_grid  # taus[0] = 0 samples the initial states themselves
    psis = [psi0, *fk.propagate(H.apply, psi0, [tau * alpha**2 for tau in taus[1:]], bounds)]
    etas = [fs.vacuum(), *fk.propagate(Hq.dot, fs.vacuum(), taus[1:], qbounds)]
    for tau, psi, eta in zip(taus, psis, etas):
        # effective phonon state: exp(-i tau (N - A)) Omega, N - A = Hq - eps
        xi = np.outer(H.electron, eta * np.exp(1j * bundle.kernels.epsilon * tau))
        top = fk.top_level_population(psi, fs)
        if top > cfg.top_pop_limit:
            raise InvariantError(
                f"top-level population {top:.3e} exceeds limit "
                f"{cfg.top_pop_limit:.1e} at tau = {tau}; raise n_max"
            )
        rows.append(
            [
                tau * alpha**2,
                tau,
                float(np.linalg.norm(psi - xi)),
                float(np.linalg.norm(psi - psi0)),
                float(np.sum(ndiag * np.sum(np.abs(psi) ** 2, axis=0))),
                float(np.sum(ndiag * np.abs(eta) ** 2)),
                top,
                fk.trace_distance_to_ground(psi, H.electron),
            ]
        )
    return rows


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------


def fit_alpha_slope(alphas, errors):
    """Least-squares slope p of log err = const - p log alpha; returns
    (p, rms residual)."""
    la = np.log(np.asarray(alphas, dtype=float))
    le = np.log(np.asarray(errors, dtype=float))
    coef = np.polyfit(la, le, 1)
    resid = le - np.polyval(coef, la)
    return float(-coef[0]), float(np.sqrt(np.mean(resid**2)))


def _bounding_exponential(x: np.ndarray, y: np.ndarray):
    """Least-squares line y = log C + c x, lifted by its largest residual so
    that C exp(c x) bounds every sample exp(y); returns (C, c)."""
    c, logC = np.polyfit(x, y, 1)
    slack = np.max(y - (logC + c * x))
    return float(np.exp(logC + slack)), float(c)


def fit_envelope(curves: dict):
    """Fit err <= C alpha^-1 exp(c tau) over all per-alpha error curves.

    curves maps alpha -> list of (tau, err) with tau > 0.  A least-squares
    line through log(err * alpha) vs tau gives (log C, c); C is then inflated
    so the envelope bounds every sample.  Returns (C, c); InvariantError
    unless the samples span two distinct tau, as one tau fixes no slope.
    """
    taus, ys = [], []
    for alpha, pts in curves.items():
        for tau, err in pts:
            if tau > 0 and err > 0:
                taus.append(tau)
                ys.append(np.log(err * alpha))
    if len(set(taus)) < 2:
        raise InvariantError("an envelope needs samples at two distinct tau > 0")
    return _bounding_exponential(np.asarray(taus), np.asarray(ys))


def envelope_bounds_all(curves: dict, C: float, c: float) -> bool:
    return all(
        err <= C / alpha * np.exp(c * tau) + 1e-12
        for alpha, pts in curves.items()
        for tau, err in pts
    )


# ---------------------------------------------------------------------------
# truncation table (oracle vs quasi-free map)
# ---------------------------------------------------------------------------

BOGOLIUBOV_HEADER = [
    "n_max [per-mode cutoff]",
    "max_abs_dev_gamma",
    "max_abs_dev_pairing",
    "top_level_population",
]


def bogoliubov_table(kp: KernelPair, tau: float, n_max_list):
    """Reduced densities of exp(-i tau H_quad) vacuum, truncated at each
    n_max, against the exact quasi-free transformation; tau = t / alpha^2.
    The deviation must fall row by row unless it is at roundoff (<= 1e-12)."""
    gen = qf.build_generator(kp)
    bmap = qf.propagate_map(gen, tau, 1.0)
    exact = qf.evolve_quasifree(qf.vacuum_state(kp.modes.M), bmap)
    rows = []
    for n_max in n_max_list:
        fs = fk.FockSpace(kp.modes.M, n_max)
        Hq = fk.build_quadratic_hamiltonian(kp, fs)
        (psi,) = fk.propagate(Hq.dot, fs.vacuum(), [tau], fk.gershgorin_bounds(Hq))
        g, p = fk.reduced_densities(psi, fs)
        rows.append(
            [
                int(n_max),
                float(np.max(np.abs(exact.gamma - g))),
                float(np.max(np.abs(exact.pairing - p))),
                fk.top_level_population(psi, fs),
            ]
        )
    devs = [max(r[1], r[2]) for r in rows]
    if any(b >= a and b > 1e-12 for a, b in zip(devs, devs[1:])):
        raise InvariantError(
            f"truncation deviation is not decreasing in n_max: {devs}"
        )
    return rows


# ---------------------------------------------------------------------------
# quick invariant sweep (selftest)
# ---------------------------------------------------------------------------


def selftest_report(cfg: RunConfig, manifest=None) -> dict:
    """Cheap end-to-end invariant sweep on the configured preset."""
    bundle = build_bundle(cfg, manifest)
    kp = bundle.kernels
    report = {}
    kp.check(tol=1e-8)
    report["kernel_symmetry"] = float(np.max(np.abs(kp.K - kp.K.T)))
    report["kernel_hermiticity"] = float(np.max(np.abs(kp.G - kp.G.conj().T)))
    report["epsilon_trace"] = abs(kp.epsilon - 0.5 * np.trace(kp.G).real)
    # ||R^{1/2} e^{-ikx} phi0||^2 from the table vs the Rayleigh-quotient route
    par = bundle.modes.parity
    t_norm_sq = np.real(kp.t_table[np.arange(bundle.modes.M), par])
    report["diag_cross_route"] = float(np.max(np.abs(t_norm_sq - kp.diag_rayleigh)))
    # resolvent identity spot check
    rng = np.random.default_rng(cfg.seed)
    v = Field(
        rng.standard_normal(bundle.grid.shape)
        + 1j * rng.standard_normal(bundle.grid.shape),
        bundle.grid,
    )
    u = bundle.rh.apply(v)
    qv = bundle.rh.project_out_ground(v)
    hu = apply_h(bundle.dsol, u)
    report["resolvent_residual"] = float(
        Field(hu.values - bundle.dsol.lam * u.values - qv.values, bundle.grid).norm()
    )
    # symplectic and purity checks at tau = 1
    bmap = qf.propagate_map(bundle.generator, 1.0, 1.0)
    report["symplectic_defect"] = bmap.symplectic_defect()
    st = qf.evolve_quasifree(qf.vacuum_state(bundle.modes.M), bmap)
    report["purity_defect"] = st.purity_defect()
    # criterion 5: the exponential map against the density ODEs at tau = 5
    vac = qf.vacuum_state(bundle.modes.M)
    via_map = qf.evolve_quasifree(vac, qf.propagate_map(bundle.generator, 5.0, 1.0))
    via_ode = qf.evolve_odes(vac, bundle.generator, 5.0, 1.0, dt=0.005)
    report["map_vs_ode"] = float(max(np.max(np.abs(via_map.gamma - via_ode.gamma)),
                                     np.max(np.abs(via_map.pairing - via_ode.pairing))))
    # normal-ordering identity on a tiny Fock space
    fs = fk.FockSpace(bundle.modes.M, 2)
    Hq = fk.build_quadratic_hamiltonian(kp, fs)
    Hd = fk.build_effective_operator_direct(kp, fs)
    report["normal_ordering_defect"] = float(np.abs(Hq - Hd).max())
    if manifest is not None:
        tolerances = {
            "kernel_symmetry": 1e-10,
            "kernel_hermiticity": 1e-10,
            "epsilon_trace": 1e-12,
            "diag_cross_route": 1e-8,
            "resolvent_residual": 1e-8,
            "symplectic_defect": 1e-8,
            "purity_defect": 1e-8,
            "map_vs_ode": 1e-6,
            "normal_ordering_defect": 1e-10,
        }
        for name, tol in tolerances.items():
            manifest.record_check(name, report[name] <= tol, report[name])
    return report
