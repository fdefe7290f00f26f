"""Command-line experiment runner.

Verbs: solve-pekar, build-kernels, compare, scan-alpha, bogoliubov-check,
selftest.  Exit codes: 0 success, 2 for any config.InvariantError (a failed
check, a bad configuration, a run whose memory estimate exceeds
MemAvailable), 3 for any config.NonConvergenceError; any other exception is
a programming error and leaves with its traceback (exit 1).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .config import (
    InvariantError,
    NonConvergenceError,
    RunManifest,
    bogoliubov_bytes,
    bundle_bytes,
    compare_bytes,
    load_config,
    normal_ordering_bytes,
    pekar_bytes,
    require_memory,
    write_csv,
    write_json,
)

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_NONCONVERGED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polaron",
        description="Strong-coupling polaron experiments on a periodic toy model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="flat key=value config file")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument(
            "--alpha",
            metavar="X",
            action="append",
            type=float,
            help="coupling value; repeat for several",
        )
        p.add_argument("--preset", metavar="NAME", help="named configuration preset")
        p.add_argument("--seed", metavar="N", type=int, help="rng seed")
    return parser


def _load_config(args):
    overrides = {"out_dir": args.out, "seed": args.seed, "alphas": args.alpha}
    return load_config(path=args.config, preset=args.preset, overrides=overrides)


def cmd_solve_pekar(cfg, manifest):
    from .grid import Grid3
    from .pekar import GAUSSIAN_BOUND, minimize_pekar

    grid = Grid3(cfg.grid_n, cfg.box_length)
    with manifest.time_stage("minimize"):
        sol = minimize_pekar(grid, tol=cfg.pekar_tol)
    sol.save(os.path.join(cfg.out_dir, "pekar"))
    virial = abs(sol.D - 4.0 * sol.T) / sol.D
    lam_ratio = abs(sol.lam - 3.0 * sol.energy) / abs(sol.energy)
    manifest.record_check("energy_below_gaussian_bound", sol.energy <= GAUSSIAN_BOUND, sol.energy)
    manifest.record_check("virial_D_4T", virial <= 1e-3, virial)
    manifest.record_check("virial_lambda_3E", lam_ratio <= 1e-3, lam_ratio)
    manifest.record_check("euler_lagrange_residual", sol.residual <= 1e-6, sol.residual)
    print(f"E = {sol.energy:.8f}  T = {sol.T:.8f}  D = {sol.D:.8f}  lambda = {sol.lam:.8f}")
    print(f"virial |D-4T|/D = {virial:.3e}   |lambda-3E|/|E| = {lam_ratio:.3e}")
    print(f"residual = {sol.residual:.3e}  iterations = {sol.iterations}")
    manifest.hash_inputs(cfg.out_dir, "pekar")


def cmd_build_kernels(cfg, manifest):
    from .experiments import build_bundle

    bundle = build_bundle(cfg, manifest)
    bundle.kernels.save(os.path.join(cfg.out_dir, "kernels"))
    bundle.dsol.save(os.path.join(cfg.out_dir, "ground"))
    print(
        f"lambda = {bundle.dsol.lam:.8f}  sector gap = {bundle.rh.sector_gap:.8f}  "
        f"epsilon = {bundle.kernels.epsilon:.8f}"
    )
    _print_diagnostics(manifest)
    manifest.hash_inputs(cfg.out_dir, "kernels", "ground")


def _print_diagnostics(manifest):
    for name, value in manifest.diagnostics.items():
        print(f"{name:28s} {value:.3e}  [not gated]")


def cmd_compare(cfg, manifest):
    """One compare CSV and its checks per alpha; returns alpha -> rows."""
    from .experiments import COMPARE_HEADER, build_bundle, compare_trajectory

    bundle = build_bundle(cfg, manifest)
    # the first sparse assembly would charge this one-time import to the first alpha
    with manifest.time_stage("import_scipy_sparse"):
        import scipy.sparse  # noqa: F401
    curves = {}
    for alpha in cfg.alphas:
        with manifest.time_stage(f"compare_alpha_{alpha:g}"):
            rows = compare_trajectory(bundle, cfg, alpha)
        path = os.path.join(cfg.out_dir, f"compare_alpha{alpha:g}.csv")
        write_csv(path, COMPARE_HEADER, rows)
        curves[alpha] = rows
        final = rows[-1]
        manifest.record_check(
            f"err_zero_at_t0_alpha{alpha:g}", rows[0][2] <= 1e-12, rows[0][2]
        )
        # the electron trace distance is bounded by twice the state error
        manifest.record_check(
            f"trace_distance_bound_alpha{alpha:g}",
            all(r[7] <= 2.0 * r[2] + 1e-12 for r in rows),
        )
        # the Pekar residual delta leaves a force sqrt(w_i) delta / alpha on
        # the phonons for t = alpha^2 tau: its error floor must stay below a
        # tenth of the measured error
        floor = float(alpha * cfg.tau_final * max(bundle.modes.weights) ** 0.5
                      * bundle.dsol.residual)
        manifest.record_check(f"pekar_floor_alpha{alpha:g}", floor <= 0.1 * final[2], floor)
        print(
            f"alpha = {alpha:g}: wrote {path} ({len(rows)} samples); "
            f"err_effective({final[1]:g}) = {final[2]:.4e}  "
            f"err_phase_only = {final[3]:.4e}  trace distance = {final[7]:.4e}"
        )
    return curves


def cmd_scan_alpha(cfg, manifest):
    from .experiments import envelope_bounds_all, fit_alpha_slope, fit_envelope

    if len(cfg.alphas) < 3:
        raise InvariantError("scan-alpha needs at least 3 alpha values")
    if len({tau for tau in cfg.tau_grid if tau > 0}) < 2:
        raise InvariantError("scan-alpha needs tau_final > 0 and tau_samples >= 2")
    curves = cmd_compare(cfg, manifest)
    alphas = sorted(curves)
    eff_final = [curves[a][-1][2] for a in alphas]
    phase_final = [curves[a][-1][3] for a in alphas]
    p_eff, resid_eff = fit_alpha_slope(alphas, eff_final)
    p_phase, resid_phase = fit_alpha_slope(alphas, phase_final)
    env_curves = {a: [(r[1], r[2]) for r in curves[a]] for a in alphas}
    C, c = fit_envelope(env_curves)
    bounded = envelope_bounds_all(env_curves, C, c)
    write_csv(
        os.path.join(cfg.out_dir, "scan_alpha.csv"),
        ["alpha", "err_effective [state norm]", "err_phase_only [state norm]"],
        [[a, e, p] for a, e, p in zip(alphas, eff_final, phase_final)],
    )
    write_json(
        os.path.join(cfg.out_dir, "scan_fit.json"),
        {
            "slope_effective": p_eff,
            "slope_residual_effective": resid_eff,
            "slope_phase_only": p_phase,
            "slope_residual_phase_only": resid_phase,
            "envelope_C": C,
            "envelope_c": c,
            "envelope_bounds_all_samples": bounded,
        },
    )
    manifest.record_check("envelope_bounds_all_samples", bounded, {"C": C, "c": c})
    print(
        f"fitted slope p = {p_eff:.3f} (phase-only {p_phase:.3f}); "
        f"envelope C = {C:.3e}, c = {c:.3f}"
    )


def cmd_bogoliubov_check(cfg, manifest):
    from .experiments import BOGOLIUBOV_HEADER, bogoliubov_table, build_bundle

    bundle = build_bundle(cfg, manifest)
    with manifest.time_stage("truncation_table"):
        rows = bogoliubov_table(bundle.kernels, cfg.tau_final, cfg.bogoliubov_cutoffs)
    write_csv(os.path.join(cfg.out_dir, "bogoliubov_check.csv"), BOGOLIUBOV_HEADER, rows)
    final_dev = max(rows[-1][1], rows[-1][2])
    manifest.record_check("deviation_at_top_cutoff", final_dev <= 1e-4, final_dev)
    for r in rows:
        print(f"n_max = {r[0]:2d}: dev_gamma = {r[1]:.3e}  dev_pairing = {r[2]:.3e}")


def cmd_selftest(cfg, manifest):
    from .experiments import selftest_report

    with manifest.time_stage("selftest"):
        report = selftest_report(cfg, manifest)
    for name, value in report.items():
        status = "ok" if manifest.checks.get(name, {}).get("passed", True) else "FAIL"
        print(f"{name:28s} {value:.3e}  [{status}]")
    _print_diagnostics(manifest)


# verb -> (function, help, memory stages): main charges the sum of the
# stages' peak estimates once, before the verb runs; a verb records its checks
# and artifacts in the manifest, and main writes the manifest and derives the
# exit code
_COMMANDS = {
    "solve-pekar": (
        cmd_solve_pekar,
        "continuum Pekar solve and virial checks; needs --preset pekar-hi or a larger box",
        (pekar_bytes,),
    ),
    "build-kernels": (
        cmd_build_kernels, "solve the discrete model and persist the kernel matrices",
        (bundle_bytes,),
    ),
    "compare": (
        cmd_compare, "full vs effective evolution error curves per alpha",
        (bundle_bytes, compare_bytes),
    ),
    "scan-alpha": (
        cmd_scan_alpha, "fit the error scaling exponent across alphas",
        (bundle_bytes, compare_bytes),
    ),
    "bogoliubov-check": (
        cmd_bogoliubov_check, "truncated-oracle vs quasi-free map at n_max - 4 ... n_max + 4",
        (bundle_bytes, bogoliubov_bytes),
    ),
    "selftest": (
        cmd_selftest, "fast invariant sweep on the configured preset",
        (bundle_bytes, normal_ordering_bytes),
    ),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except InvariantError as exc:  # load_config raises only ConfigError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest = RunManifest(config=cfg.as_dict(), command=args.command, version=__version__)
    run, _, stages = _COMMANDS[args.command]
    try:
        require_memory(args.command, sum(stage(cfg) for stage in stages))
        run(cfg, manifest)
        code = EXIT_OK if manifest.all_passed() else EXIT_INVARIANT
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        manifest.record_check("run_completed", False, str(exc))
        code = EXIT_INVARIANT
    except NonConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        manifest.record_check("run_completed", False, str(exc))
        code = EXIT_NONCONVERGED
    manifest.write(cfg.out_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
