"""Command-line experiment runner.

Verbs: solve-pekar, build-kernels, compare, scan-alpha, bogoliubov-check,
reduced-density, selftest.  Exit codes: 0 success, 2 invariant failure,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_NONCONVERGED = 3


def _cap_threads():
    """POLARON_THREADS caps BLAS/FFT parallelism; must run before numpy."""
    n = os.environ.get("POLARON_THREADS")
    if n:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, n)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polaron",
        description="Strong-coupling polaron experiments on a periodic toy model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("solve-pekar", "solve the ground-state problem and report virial checks"),
        ("build-kernels", "solve the discrete model and persist the kernel matrices"),
        ("compare", "full vs effective evolution error curves per alpha"),
        ("scan-alpha", "fit the error scaling exponent across alphas"),
        ("bogoliubov-check", "truncated-oracle vs quasi-free map deviation table"),
        ("reduced-density", "electron reduced-density trace-distance curves"),
        ("selftest", "fast invariant sweep on the configured preset"),
    ]:
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
    from .config import load_config

    overrides = {"out_dir": args.out, "seed": args.seed, "alphas": args.alpha}
    preset = args.preset
    if preset is None and args.config is None:
        preset = "desk-small"
    return load_config(path=args.config, preset=preset, overrides=overrides)


def _new_manifest(cfg, command):
    from . import __version__
    from .config import RunManifest

    return RunManifest(config=cfg.as_dict(), command=command, version=__version__)


def cmd_solve_pekar(cfg, manifest) -> int:
    from .grid import Grid3
    from .pekar import GAUSSIAN_BOUND, minimize_pekar

    grid = Grid3(cfg.grid_n, cfg.box_length)
    with manifest.time_stage("minimize"):
        sol = minimize_pekar(grid, tol=cfg.pekar_tol)
    outdir = os.path.join(cfg.out_dir, "pekar")
    sol.save(outdir)
    virial = abs(sol.D - 4.0 * sol.T) / sol.D
    lam_ratio = abs(sol.lam - 3.0 * sol.energy) / abs(sol.energy)
    manifest.record_check("energy_below_gaussian_bound", sol.energy <= GAUSSIAN_BOUND, sol.energy)
    manifest.record_check("virial_D_4T", virial <= 1e-3, virial)
    manifest.record_check("virial_lambda_3E", lam_ratio <= 1e-3, lam_ratio)
    manifest.record_check("euler_lagrange_residual", sol.residual <= 1e-6, sol.residual)
    print(f"E = {sol.energy:.8f}  T = {sol.T:.8f}  D = {sol.D:.8f}  lambda = {sol.lam:.8f}")
    print(f"virial |D-4T|/D = {virial:.3e}   |lambda-3E|/|E| = {lam_ratio:.3e}")
    print(f"residual = {sol.residual:.3e}  iterations = {sol.iterations}")
    manifest.hash_inputs(outdir)
    manifest.write(cfg.out_dir)
    return EXIT_OK if manifest.all_passed() else EXIT_INVARIANT


def cmd_build_kernels(cfg, manifest) -> int:
    from .experiments import build_bundle

    bundle = build_bundle(cfg, manifest)
    outdir = os.path.join(cfg.out_dir, "kernels")
    bundle.kernels.save(outdir)
    bundle.dsol.save(os.path.join(cfg.out_dir, "ground"))
    print(
        f"lambda = {bundle.dsol.lam:.8f}  sector gap = {bundle.sector_gap:.8f}  "
        f"epsilon = {bundle.kernels.epsilon:.8f}"
    )
    manifest.hash_inputs(cfg.out_dir)
    manifest.write(cfg.out_dir)
    return EXIT_OK if manifest.all_passed() else EXIT_INVARIANT


def _run_compares(cfg, manifest):
    from .config import write_csv
    from .experiments import COMPARE_HEADER, build_bundle, compare_trajectory
    from .experiments import preflight_compare

    preflight_compare(cfg)
    bundle = build_bundle(cfg, manifest)
    curves = {}
    for alpha in cfg.alphas:
        with manifest.time_stage(f"compare_alpha_{alpha:g}"):
            rows = compare_trajectory(bundle, cfg, alpha)
        path = os.path.join(cfg.out_dir, f"compare_alpha{alpha:g}.csv")
        write_csv(path, COMPARE_HEADER, rows)
        curves[alpha] = rows
        print(f"alpha = {alpha:g}: wrote {path} ({len(rows)} samples)")
    return bundle, curves


def cmd_compare(cfg, manifest) -> int:
    _, curves = _run_compares(cfg, manifest)
    for alpha, rows in curves.items():
        final = rows[-1]
        manifest.record_check(
            f"err_zero_at_t0_alpha{alpha:g}", rows[0][2] <= 1e-12, rows[0][2]
        )
        print(
            f"alpha = {alpha:g}: err_effective({final[1]:g}) = {final[2]:.4e}  "
            f"err_phase_only = {final[3]:.4e}"
        )
    manifest.write(cfg.out_dir)
    return EXIT_OK if manifest.all_passed() else EXIT_INVARIANT


def cmd_scan_alpha(cfg, manifest) -> int:
    from .config import write_csv
    from .experiments import envelope_bounds_all, fit_alpha_slope, fit_envelope

    if len(cfg.alphas) < 3:
        print("scan-alpha needs at least 3 alpha values", file=sys.stderr)
        return EXIT_INVARIANT
    _, curves = _run_compares(cfg, manifest)
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
    fit = {
        "slope_effective": p_eff,
        "slope_residual_effective": resid_eff,
        "slope_phase_only": p_phase,
        "slope_residual_phase_only": resid_phase,
        "envelope_C": C,
        "envelope_c": c,
        "envelope_bounds_all_samples": bounded,
    }
    tmp = os.path.join(cfg.out_dir, "scan_fit.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(fit, fh, indent=2, sort_keys=True)
    os.replace(tmp, os.path.join(cfg.out_dir, "scan_fit.json"))
    manifest.record_check("envelope_bounds_all_samples", bounded, {"C": C, "c": c})
    print(
        f"fitted slope p = {p_eff:.3f} (phase-only {p_phase:.3f}); "
        f"envelope C = {C:.3e}, c = {c:.3f}"
    )
    manifest.write(cfg.out_dir)
    return EXIT_OK if manifest.all_passed() else EXIT_INVARIANT


def cmd_bogoliubov_check(cfg, manifest) -> int:
    from .config import write_csv
    from .experiments import BOGOLIUBOV_HEADER, bogoliubov_table, build_bundle

    bundle = build_bundle(cfg, manifest)
    n_max_list = sorted({max(2, cfg.n_max - 4), max(3, cfg.n_max - 2), cfg.n_max})
    with manifest.time_stage("truncation_table"):
        rows = bogoliubov_table(bundle.kernels, cfg.tau_final, n_max_list)
    write_csv(os.path.join(cfg.out_dir, "bogoliubov_check.csv"), BOGOLIUBOV_HEADER, rows)
    final_dev = max(rows[-1][1], rows[-1][2])
    manifest.record_check("deviation_at_top_cutoff", final_dev <= 1e-4, final_dev)
    for r in rows:
        print(f"n_max = {r[0]:2d}: dev_gamma = {r[1]:.3e}  dev_pairing = {r[2]:.3e}")
    manifest.write(cfg.out_dir)
    return EXIT_OK if manifest.all_passed() else EXIT_INVARIANT


def cmd_reduced_density(cfg, manifest) -> int:
    from .config import write_csv

    _, curves = _run_compares(cfg, manifest)
    ok = True
    for alpha, rows in curves.items():
        table = [[r[0], r[1], r[7], r[2]] for r in rows]
        write_csv(
            os.path.join(cfg.out_dir, f"reduced_density_alpha{alpha:g}.csv"),
            [
                "t [strong-coupling units]",
                "tau = t/alpha^2",
                "trace_distance_to_ground",
                "err_effective [state norm]",
            ],
            table,
        )
        bound_ok = all(r[7] <= 2.0 * r[2] + 1e-12 for r in rows)
        ok = ok and bound_ok
        manifest.record_check(f"trace_distance_bound_alpha{alpha:g}", bound_ok)
        print(
            f"alpha = {alpha:g}: final trace distance = {rows[-1][7]:.4e} "
            f"(bound 2*err = {2*rows[-1][2]:.4e})"
        )
    manifest.write(cfg.out_dir)
    return EXIT_OK if ok and manifest.all_passed() else EXIT_INVARIANT


def cmd_selftest(cfg, manifest) -> int:
    from .experiments import selftest_report

    with manifest.time_stage("selftest"):
        report = selftest_report(cfg, manifest)
    for name, value in report.items():
        status = "ok" if manifest.checks.get(name, {}).get("passed", True) else "FAIL"
        print(f"{name:28s} {value:.3e}  [{status}]")
    manifest.write(cfg.out_dir)
    return EXIT_OK if manifest.all_passed() else EXIT_INVARIANT


_COMMANDS = {
    "solve-pekar": cmd_solve_pekar,
    "build-kernels": cmd_build_kernels,
    "compare": cmd_compare,
    "scan-alpha": cmd_scan_alpha,
    "bogoliubov-check": cmd_bogoliubov_check,
    "reduced-density": cmd_reduced_density,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    _cap_threads()
    args = _build_parser().parse_args(argv)
    from .config import ConfigError

    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest = _new_manifest(cfg, args.command)

    from .experiments import InvariantError
    from .fock import EvolutionError, FockDimensionError
    from .pekar import DelocalizedError, PekarError
    from .quasifree import SymplecticError
    from .resolvent import GapError, ResolventError

    try:
        return _COMMANDS[args.command](cfg, manifest)
    except (
        InvariantError, SymplecticError, GapError, FockDimensionError, DelocalizedError,
        ValueError,
    ) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        manifest.record_check("run_completed", False, str(exc))
        manifest.write(cfg.out_dir)
        return EXIT_INVARIANT
    except (PekarError, ResolventError, EvolutionError) as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        manifest.record_check("run_completed", False, str(exc))
        manifest.write(cfg.out_dir)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
