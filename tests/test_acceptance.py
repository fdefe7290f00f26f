"""Acceptance suite: the ten headline guarantees of the package, each
reported as a single pass/fail line at its stated tolerance.

The heavy coupled-evolution scan (criteria 7, 8, 10) is run once per
session and shared.
"""

import numpy as np
import pytest

from polaronlab import fock as fk
from polaronlab import quasifree as qf
from polaronlab.config import load_config, write_csv
from polaronlab.experiments import (
    COMPARE_HEADER,
    InvariantError,
    _bounding_exponential,
    bogoliubov_table,
    compare_trajectory,
    envelope_bounds_all,
    fit_alpha_slope,
    fit_envelope,
)
from polaronlab.grid import Field, Grid3
from polaronlab.pekar import GAUSSIAN_BOUND, minimize_pekar
from polaronlab.resolvent import apply_h


def _report(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="session")
def scan_results(bundle, desk_small_config):
    """Coupled-vs-effective trajectories for alpha in {2, 4, 8} at tau <= 1."""
    cfg = desk_small_config
    return {alpha: compare_trajectory(bundle, cfg, alpha) for alpha in cfg.alphas}


def test_criterion_01_pekar_ground_state():
    sol = minimize_pekar(Grid3(48, 96.0))
    virial = abs(sol.D - 4.0 * sol.T) / sol.D
    lam_ratio = abs(sol.lam - 3.0 * sol.energy) / abs(sol.energy)
    ok = (
        sol.energy <= GAUSSIAN_BOUND
        and virial <= 1e-3
        and lam_ratio <= 1e-3
        and sol.residual <= 1e-6
    )
    _report(
        "criterion 1 (ground-state solve)",
        ok,
        f"E={sol.energy:.8f} (bound {GAUSSIAN_BOUND:.8f}), |D-4T|/D={virial:.2e}, "
        f"|lam-3E|/|E|={lam_ratio:.2e}, residual={sol.residual:.2e}",
    )


def test_criterion_02_resolvent_identities(bundle, rng):
    worst_resid = worst_overlap = worst_bound = 0.0
    for _ in range(20):
        v = Field(
            rng.standard_normal(bundle.grid.shape)
            + 1j * rng.standard_normal(bundle.grid.shape),
            bundle.grid,
        )
        u = bundle.rh.apply(v)
        qv = bundle.rh.project_out_ground(v)
        hu = apply_h(bundle.dsol, u)
        resid = Field(
            hu.values - bundle.dsol.lam * u.values - qv.values, bundle.grid
        ).norm()
        from polaronlab.grid import inner

        worst_resid = max(worst_resid, resid)
        worst_overlap = max(worst_overlap, abs(inner(bundle.dsol.phi0, u)))
        worst_bound = max(worst_bound, u.norm() - qv.norm() / bundle.gap)
    ok = worst_resid <= 1e-8 and worst_overlap <= 1e-10 and worst_bound <= 1e-12
    _report(
        "criterion 2 (restricted resolvent)",
        ok,
        f"max residual={worst_resid:.2e}, max ground overlap={worst_overlap:.2e}, "
        f"max norm-bound excess={worst_bound:.2e}",
    )


def test_criterion_03_kernel_structure(bundle):
    kp = bundle.kernels
    sym = float(np.max(np.abs(kp.K - kp.K.T)))
    herm = float(np.max(np.abs(kp.G - kp.G.conj().T)))
    realness = float(max(np.max(np.abs(kp.K.imag)), np.max(np.abs(kp.G.imag))))
    eps_exact = kp.epsilon == 0.5 * float(np.trace(kp.G).real)
    par = bundle.modes.parity
    cross = float(
        np.max(
            np.abs(
                np.real(kp.t_table[np.arange(bundle.modes.M), par]) - kp.diag_rayleigh
            )
        )
    )
    ok = sym <= 1e-10 and herm <= 1e-10 and realness <= 1e-8 and eps_exact and cross <= 1e-8
    _report(
        "criterion 3 (kernel structure)",
        ok,
        f"K asym={sym:.2e}, G non-herm={herm:.2e}, imag part={realness:.2e}, "
        f"eps exact={eps_exact}, diagonal cross-route={cross:.2e}",
    )


def test_criterion_04_normal_ordering_identity(bundle):
    fs = fk.FockSpace(2, 4)
    H1 = fk.build_quadratic_hamiltonian(bundle.kernels, fs)
    H2 = fk.build_effective_operator_direct(bundle.kernels, fs)
    defect = float(np.abs(H1 - H2).max())
    _report(
        "criterion 4 (normal-ordering identity)",
        defect <= 1e-10,
        f"entrywise defect={defect:.2e} on M=2, n_max=4",
    )


def test_criterion_05_bogoliubov_map(bundle):
    gen = bundle.generator
    sympl = max(
        qf.propagate_map(gen, tau, 1.0).symplectic_defect()
        for tau in (1.0, 2.5, 5.0, 7.5, 10.0)
    )
    V1 = qf.propagate_map(gen, 3.7, 1.0).V
    V2 = qf.propagate_map(gen, 2.3, 1.0).V
    V12 = qf.propagate_map(gen, 6.0, 1.0).V
    group = float(np.max(np.abs(V12 - V2 @ V1)))
    st0 = qf.vacuum_state(gen.M)
    via_map = qf.evolve_quasifree(st0, qf.propagate_map(gen, 5.0, 1.0))
    via_ode = qf.evolve_odes(st0, gen, 5.0, 1.0, dt=0.005)
    route = float(
        max(
            np.max(np.abs(via_map.gamma - via_ode.gamma)),
            np.max(np.abs(via_map.pairing - via_ode.pairing)),
        )
    )
    ok = sympl <= 1e-8 and group <= 1e-9 and route <= 1e-6
    _report(
        "criterion 5 (time-dependent map)",
        ok,
        f"symplectic defect={sympl:.2e} (tau<=10), group law={group:.2e}, "
        f"ODE-vs-exponential={route:.2e} at tau=5",
    )


def test_criterion_06_oracle_equivalence(bundle):
    rows = bogoliubov_table(bundle.kernels, tau=2.0, n_max_list=[4, 6, 8])
    devs = [max(r[1], r[2]) for r in rows]
    monotone = all(b < a for a, b in zip(devs, devs[1:]))
    ok = devs[-1] <= 1e-4 and monotone
    _report(
        "criterion 6 (oracle equivalence)",
        ok,
        f"deviations={['%.2e' % d for d in devs]} at n_max={[r[0] for r in rows]}, "
        f"tau=2, monotone={monotone}",
    )


def test_criterion_07_error_scaling(scan_results, desk_small_config):
    alphas = sorted(scan_results)
    finals = [scan_results[a][-1] for a in alphas]
    p, resid = fit_alpha_slope(alphas, [r[2] for r in finals])
    beats_baseline = all(r[2] < r[3] for r in finals)
    curves = {a: [(r[1], r[2]) for r in scan_results[a]] for a in alphas}
    C, c = fit_envelope(curves)
    bounded = envelope_bounds_all(curves, C, c)
    ok = p >= 0.8 and beats_baseline and c > 0 and bounded
    _report(
        "criterion 7 (error scaling in alpha)",
        ok,
        f"fitted slope p={p:.3f} (rms {resid:.3f}), effective beats baseline={beats_baseline}, "
        f"envelope C={C:.3f}, c={c:.3f}, bounds all samples={bounded}",
    )


def test_criterion_08_reduced_density_bound(scan_results):
    alphas = sorted(scan_results)
    bound_ok = all(
        r[7] <= 2.0 * r[2] + 1e-12 for a in alphas for r in scan_results[a]
    )
    final_dist = [scan_results[a][-1][7] for a in alphas]
    decreasing = all(b < a for a, b in zip(final_dist, final_dist[1:]))
    ok = bound_ok and decreasing
    _report(
        "criterion 8 (electron reduced density)",
        ok,
        f"distance <= 2*err everywhere={bound_ok}, final distances="
        f"{['%.3e' % d for d in final_dist]} decreasing in alpha={decreasing}",
    )


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
    C, c = _bounding_exponential(lt, le)
    # uniform grid second differences of the log-envelope
    d2 = np.diff(le, 2)
    max_curv = float(np.max(d2)) if d2.size else 0.0
    return {
        "C": C,
        "c": c,
        "max_curvature": max_curv,
        "super_exponential": bool(max_curv > curvature_tol),
    }


def test_criterion_09_number_growth(bundle):
    taus = np.linspace(0.0, 5.0, 26)
    rows = number_growth(bundle.generator, qf.vacuum_state(bundle.modes.M), taus)
    fit = gronwall_fit(rows)
    ok = np.isfinite(fit["c"]) and not fit["super_exponential"]
    _report(
        "criterion 9 (number-growth envelope)",
        ok,
        f"Gronwall fit C={fit['C']:.3f}, c={fit['c']:.3f}, "
        f"max log-curvature={fit['max_curvature']:.3f} (tol 0.1)",
    )


def test_criterion_10_determinism(bundle, desk_small_config, tmp_path):
    cfg = desk_small_config
    alpha = cfg.alphas[0]
    paths = []
    for sub in ("a", "b"):
        rows = compare_trajectory(bundle, cfg, alpha)
        path = str(tmp_path / f"compare_{sub}.csv")
        write_csv(path, COMPARE_HEADER, rows)
        paths.append(path)
    blobs = [open(p, "rb").read() for p in paths]
    identical = blobs[0] == blobs[1]
    _report(
        "criterion 10 (determinism)",
        identical,
        f"rerun CSV bytes identical={identical} at alpha={alpha:g}",
    )
