"""Experiment pipelines: model assembly, effective-vs-full comparisons,
coupling-strength scans, truncation tables, reduced-density distances,
and phonon-number growth fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock as fk
from . import quasifree as qf
from .config import RunConfig
from .grid import Grid3
from .modes import ModeSet, mode_preset
from .pekar import DiscretePekarSolution, _coupled_axes, solve_discrete_pekar
from .resolvent import KernelPair, ResolventHandle, build_kernels, spectral_gap


class InvariantError(RuntimeError):
    """A checked physical invariant failed; distinct from non-convergence."""


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

    def stage(name):
        if manifest is not None:
            return manifest.time_stage(name)
        import contextlib

        return contextlib.nullcontext()

    grid = Grid3(cfg.grid_n, cfg.box_length)
    modes = mode_preset(cfg.mode_preset, grid.box_length)
    with stage("solve_ground_state"):
        dsol = solve_discrete_pekar(grid, modes, tol=cfg.pekar_tol)
    with stage("spectral_gap"):
        gaps = spectral_gap(dsol)
    rh = ResolventHandle(dsol, gaps["gap"])
    with stage("build_kernels"):
        kp = build_kernels(dsol, modes, rh)
    gen = qf.build_generator(kp)
    if manifest is not None:
        sector_gap = gaps["sector_gap"]
        manifest.record_check("spectral_gap_positive", sector_gap > 0, sector_gap)
        manifest.record_check(
            "generator_s_hermitian",
            gen.s_hermiticity_defect() <= 1e-10,
            gen.s_hermiticity_defect(),
        )
    return ModelBundle(grid, modes, dsol, gaps["gap"], gaps["sector_gap"], rh, kp, gen)


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


def available_memory() -> int | None:
    """MemAvailable from /proc/meminfo in bytes; None where it is unreadable."""
    try:
        with open("/proc/meminfo") as fh:
            return next(int(ln.split()[1]) * 1024 for ln in fh if ln.startswith("MemAvail"))
    except (OSError, StopIteration):
        return None


def preflight_compare(cfg: RunConfig):
    """Raise FockDimensionError when the estimated peak memory of
    compare_trajectory exceeds MemAvailable: sector x Fock states for the
    Krylov basis, its conjugate copy and 8 work vectors, plus the dense
    quadratic Hamiltonian, its eigenvectors and eigh workspace."""
    modes = mode_preset(cfg.mode_preset, cfg.box_length)
    fock_dim = (cfg.n_max + 1) ** modes.M
    state = cfg.grid_n ** len(_coupled_axes(modes)) * fock_dim
    need = 16 * (state * (2 * cfg.krylov_dim + 8) + 3 * fock_dim**2)
    avail = available_memory()
    if avail is not None and need > avail:
        raise fk.FockDimensionError(
            f"compare needs about {need / 2**20:.0f} MiB but only "
            f"{avail / 2**20:.0f} MiB are available; lower n_max or grid_n"
        )


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
    Hq = fk.build_quadratic_hamiltonian(bundle.kernels, fs).toarray()
    evq, Pq = np.linalg.eigh(Hq)
    eps = bundle.kernels.epsilon
    eta0 = fs.vacuum()
    psi0 = np.outer(H.electron, eta0)
    ndiag = fs.occupations.sum(axis=1).astype(np.float64)

    rows = []
    psi = psi0.copy()
    taus = cfg.tau_grid
    for i, tau in enumerate(taus):
        if i > 0:
            dt_seg = (tau - taus[i - 1]) * alpha**2
            psi = fk.evolve_state(
                H.apply, psi, dt_seg, dt=cfg.dt_fock, krylov_dim=cfg.krylov_dim
            )
        # effective phonon state: exp(-i tau (N - A)) Omega, N - A = Hq - eps
        eta = Pq @ (np.exp(-1j * tau * evq) * (Pq.conj().T @ eta0))
        eta = eta * np.exp(1j * eps * tau)
        xi = np.outer(H.electron, eta)
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


def fit_envelope(curves: dict):
    """Fit err <= C alpha^-1 exp(c tau) over all per-alpha error curves.

    curves maps alpha -> list of (tau, err) with tau > 0.  A least-squares
    line through log(err * alpha) vs tau gives (log C, c); C is then inflated
    so the envelope bounds every sample.  Returns (C, c).
    """
    taus, ys = [], []
    for alpha, pts in curves.items():
        for tau, err in pts:
            if tau > 0 and err > 0:
                taus.append(tau)
                ys.append(np.log(err * alpha))
    if len(taus) < 2:
        raise InvariantError("not enough samples to fit an envelope")
    taus = np.asarray(taus)
    ys = np.asarray(ys)
    c, logC = np.polyfit(taus, ys, 1)
    slack = np.max(ys - (logC + c * taus))
    return float(np.exp(logC + slack)), float(c)


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
    n_max, against the exact quasi-free transformation; tau = t / alpha^2."""
    gen = qf.build_generator(kp)
    bmap = qf.propagate_map(gen, tau, 1.0)
    exact = qf.evolve_quasifree(qf.vacuum_state(kp.modes.M), bmap)
    rows = []
    for n_max in n_max_list:
        fs = fk.FockSpace(kp.modes.M, n_max)
        Hq = fk.build_quadratic_hamiltonian(kp, fs).toarray()
        ev, P = np.linalg.eigh(Hq)
        psi = P @ (np.exp(-1j * tau * ev) * (P.conj().T @ fs.vacuum()))
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
    if any(b >= a for a, b in zip(devs, devs[1:])):
        raise InvariantError(
            f"truncation deviation is not decreasing in n_max: {devs}"
        )
    return rows


# ---------------------------------------------------------------------------
# phonon-number growth
# ---------------------------------------------------------------------------

NUMBER_HEADER = ["tau = t/alpha^2", "N_expectation [phonons]"]


def number_growth(gen: qf.Generator, state0: qf.QuasiFreeState, tau_grid):
    """<N>(tau) under the quadratic effective dynamics (exact map route)."""
    rows = []
    for tau in tau_grid:
        bmap = qf.propagate_map(gen, float(tau), 1.0)
        st = qf.evolve_quasifree(state0, bmap)
        rows.append([float(tau), qf.expected_number(st)])
    return rows


def gronwall_fit(rows, curvature_tol: float = 0.1):
    """Exponential-envelope fit of a number-growth curve.

    Fits log of the running maximum of N(tau) (skipping zero values) to a
    line, giving the Gronwall constants (C, c); also reports the maximum
    second difference of that log-envelope, which stays <= curvature_tol
    for at-most-exponential growth.  Returns dict with C, c, max_curvature,
    super_exponential flag.
    """
    taus = np.array([r[0] for r in rows], dtype=float)
    N = np.array([r[1] for r in rows], dtype=float)
    env = np.maximum.accumulate(N)
    mask = env > 0
    if mask.sum() < 3:
        raise InvariantError("number-growth curve has too few nonzero samples")
    lt, le = taus[mask], np.log(env[mask])
    c, logC = np.polyfit(lt, le, 1)
    slack = np.max(le - (logC + c * lt))
    # uniform grid second differences of the log-envelope
    d2 = np.diff(le, 2)
    max_curv = float(np.max(d2)) if d2.size else 0.0
    return {
        "C": float(np.exp(logC + slack)),
        "c": float(c),
        "max_curvature": max_curv,
        "super_exponential": bool(max_curv > curvature_tol),
    }


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
    from .grid import Field
    from .resolvent import apply_h

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
            "normal_ordering_defect": 1e-10,
        }
        for name, tol in tolerances.items():
            manifest.record_check(name, report[name] <= tol, report[name])
    return report
