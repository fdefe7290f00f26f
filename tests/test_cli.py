"""Command-line interface: exit codes, artifacts, manifests."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import polaronlab
from polaronlab import config, experiments, fock, pekar, resolvent
from polaronlab.cli import _COMMANDS, EXIT_INVARIANT, EXIT_NONCONVERGED, EXIT_OK, main
from polaronlab.config import RunConfig, file_sha256
from polaronlab.fock import SectorError
from polaronlab.resolvent import SeparationError

from conftest import assert_kernels_saved, assert_solution_saved


def test_unknown_preset_exits_with_invariant_code(tmp_path, capsys):
    code = main(["selftest", "--preset", "desk-enormous", "--out", str(tmp_path)])
    assert code == EXIT_INVARIANT
    assert "config error" in capsys.readouterr().err


def test_selftest_passes_on_default_preset(tmp_path):
    code = main(["selftest", "--out", str(tmp_path)])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "selftest"
    assert all(c["passed"] for c in manifest["checks"].values())


def test_selftest_rerun_manifest_differs_only_in_timings(tmp_path):
    manifests = []
    for _ in range(2):
        assert main(["selftest", "--out", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest.pop("timings")
        manifest.pop("wall_time")
        manifests.append(manifest)
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("preset", ["desk-small", "desk-standard"])
def test_selftest_records_map_vs_ode(preset, tmp_path):
    # criterion 5's second route: the exponential map against the density ODEs
    assert main(["selftest", "--preset", preset, "--out", str(tmp_path)]) == EXIT_OK
    check = json.loads((tmp_path / "manifest.json").read_text())["checks"]["map_vs_ode"]
    assert check["passed"] and check["value"] <= 1e-6


def test_solve_pekar_writes_artifacts(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_n = 40\nbox_length = 80.0\n")
    code = main(
        ["solve-pekar", "--config", str(cfg), "--out", str(tmp_path / "out")]
    )
    assert code == EXIT_OK
    outdir = tmp_path / "out"
    assert (outdir / "pekar" / "phi0.pfld").exists()
    assert (outdir / "pekar" / "scalars.json").exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["checks"]["virial_D_4T"]["passed"]
    assert manifest["checks"]["energy_below_gaussian_bound"]["passed"]
    assert manifest["input_hashes"]  # pfld files were hashed


def test_solve_pekar_rerun_is_deterministic(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_n = 40\nbox_length = 80.0\n")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["solve-pekar", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        outs.append((out / "pekar" / "scalars.json").read_bytes())
    assert outs[0] == outs[1]


def test_delocalized_ground_state_exits_as_invariant_failure(tmp_path, capsys):
    # on a small box the descent reaches the uniform state, which is refused:
    # the set-up is wrong, the solver did converge
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_n = 16\nbox_length = 16.0\n")
    code = main(["solve-pekar", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_INVARIANT
    assert "delocalized" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert not manifest["checks"]["run_completed"]["passed"]


def test_build_kernels_writes_kernel_directory(tmp_path, bundle):
    # the files hold the bytes of the in-process desk-small bundle
    code = main(["build-kernels", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert_kernels_saved(bundle.kernels, tmp_path / "kernels")
    assert_solution_saved(bundle.dsol, tmp_path / "ground")


def test_build_kernels_hashes_only_its_own_artifacts(tmp_path):
    # a continuum solve left in the same directory is not part of this run
    assert main(["solve-pekar", "--preset", "pekar-hi", "--out", str(tmp_path)]) == EXIT_OK
    assert main(["build-kernels", "--out", str(tmp_path)]) == EXIT_OK
    hashes = json.loads((tmp_path / "manifest.json").read_text())["input_hashes"]
    assert {key.split("/")[0] for key in hashes} == {"kernels", "ground"}
    assert hashes["ground/phi0.pfld"] == file_sha256(tmp_path / "ground" / "phi0.pfld")


def test_bogoliubov_check_table(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau_final = 2.0\nn_max = 8\n")
    code = main(
        ["bogoliubov-check", "--config", str(cfg), "--out", str(tmp_path / "out")]
    )
    assert code == EXIT_OK
    csv_path = tmp_path / "out" / "bogoliubov_check.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert "n_max" in lines[0]
    assert len(lines) == 5  # header + four cutoffs


@pytest.mark.parametrize("lines", ["n_max = 24\n", "tau_final = 0.25\nn_max = 16\n"],
                         ids=["n_max-24", "tau-0.25-n_max-16"])
def test_bogoliubov_check_passes_a_table_converged_to_roundoff(tmp_path, lines):
    # every row reads 1e-16 to 2e-14, where the deviation no longer falls with n_max
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    out = tmp_path / "out"
    assert main(["bogoliubov-check", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = (out / "bogoliubov_check.csv").read_text().splitlines()[1:]
    assert max(max(float(x) for x in r.split(",")[1:3]) for r in rows) <= 1e-12


def test_bogoliubov_cutoffs_bracket_the_preset_cutoff():
    assert RunConfig(n_max=8).bogoliubov_cutoffs == [4, 6, 8, 12]
    assert RunConfig(n_max=6).bogoliubov_cutoffs == [2, 4, 6, 10]
    assert RunConfig(n_max=3).bogoliubov_cutoffs == [2, 3, 7]


def test_fit_envelope_needs_two_distinct_tau():
    one_tau = {a: [(0.0, 0.0), (1.0, 0.1 / a)] for a in (2.0, 4.0, 8.0)}
    with pytest.raises(experiments.InvariantError, match="two distinct tau"):
        experiments.fit_envelope(one_tau)


def test_bogoliubov_check_desk_standard_passes_above_the_preset_cutoff(tmp_path):
    out = tmp_path / "out"
    code = main(["bogoliubov-check", "--preset", "desk-standard", "--out", str(out)])
    assert code == EXIT_OK
    rows = [line.split(",") for line in (out / "bogoliubov_check.csv").read_text().splitlines()]
    devs = {int(r[0]): max(float(r[1]), float(r[2])) for r in rows[1:]}
    assert sorted(devs) == [2, 4, 6, 10]
    # the preset's own cutoff still misses the gate; the row stays in the table
    assert devs[6] > 1e-4 >= devs[10]


def test_scan_alpha_requires_three_points(tmp_path, capsys):
    code = main(
        ["scan-alpha", "--out", str(tmp_path), "--alpha", "2", "--alpha", "4"]
    )
    assert code == EXIT_INVARIANT
    assert "at least 3" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert not manifest["checks"]["run_completed"]["passed"]


@pytest.mark.parametrize("schedule", ["tau_samples = 1", "tau_final = 0"])
def test_scan_alpha_refuses_a_tau_schedule_without_two_positive_tau(schedule, tmp_path,
                                                                    capsys):
    # one positive tau leaves the envelope exponent undetermined; none leaves
    # only zero errors, whose logarithm the slope fit cannot take
    cfg = tmp_path / "run.cfg"
    cfg.write_text(schedule + "\n")
    out = tmp_path / "out"
    assert main(["scan-alpha", "--config", str(cfg), "--out", str(out)]) == EXIT_INVARIANT
    assert "tau_samples >= 2" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_duplicate_alphas_and_zero_pekar_tol_exit_before_any_work(tmp_path, capsys):
    # a repeated alpha would rewrite its compare CSV and fit a slope through
    # two points; a zero tolerance would run the solve to its iteration cap
    out = tmp_path / "out"
    argv = ["scan-alpha", "--out", str(out), "--alpha", "2", "--alpha", "2", "--alpha", "4"]
    assert main(argv) == EXIT_INVARIANT
    assert "distinct" in capsys.readouterr().err
    assert not list(tmp_path.rglob("compare_alpha*.csv"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pekar_tol = 0\n")
    argv = ["solve-pekar", "--preset", "pekar-hi", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == EXIT_INVARIANT
    assert "pekar_tol" in capsys.readouterr().err
    assert not (out / "pekar").exists()


def test_compare_single_alpha(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alphas = 2\ntau_final = 0.5\ntau_samples = 2\n")
    code = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    csv_path = tmp_path / "out" / "compare_alpha2.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert "tau = t/alpha^2" in lines[0]
    assert len(lines) == 4  # header + three samples
    first = lines[1].split(",")
    assert float(first[2]) <= 1e-12  # err_effective(0) = 0


def test_compare_records_the_trace_distance_bound(tmp_path):
    # the electron trace distance stays below twice the state error at every sample
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alphas = 2, 4\ntau_final = 0.5\ntau_samples = 2\n")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    for alpha in (2, 4):
        assert checks[f"err_zero_at_t0_alpha{alpha}"]["passed"]
        assert checks[f"trace_distance_bound_alpha{alpha}"]["passed"]


def test_scan_alpha_records_the_compare_checks_of_every_alpha(tmp_path):
    # scan-alpha runs the same compares as compare, so it records their checks too
    assert main(["scan-alpha", "--out", str(tmp_path)]) == EXIT_OK
    checks = json.loads((tmp_path / "manifest.json").read_text())["checks"]
    for alpha in (2, 4, 8):
        assert checks[f"err_zero_at_t0_alpha{alpha}"]["passed"]
        assert checks[f"trace_distance_bound_alpha{alpha}"]["passed"]


@pytest.mark.parametrize("pekar_tol, code", [("1e-7", EXIT_OK), ("1e-2", EXIT_INVARIANT)])
def test_compare_checks_the_pekar_floor(pekar_tol, code, tmp_path):
    # desk-small at alpha = 8, where a tenth of the final err_effective is
    # 6.2e-3: the default tolerance leaves a residual of 5.2e-9 and a floor
    # 8 x 1 x sqrt(16) x residual of 1.7e-7; pekar_tol = 1e-2 leaves 5.1e-4
    # and 1.6e-2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alphas = 8\npekar_tol = {pekar_tol}\n")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == code
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    final_err = float((out / "compare_alpha8.csv").read_text().splitlines()[-1].split(",")[2])
    floor = checks["pekar_floor_alpha8"]
    assert floor["passed"] == (code == EXIT_OK) == (floor["value"] <= 0.1 * final_err)
    assert [name for name, c in checks.items() if not c["passed"]] == (
        [] if code == EXIT_OK else ["pekar_floor_alpha8"])
    if code == EXIT_OK:
        assert floor["value"] <= 1e-4 * final_err


def _narrow_spectral_bounds(monkeypatch):
    """CoupledHamiltonian.spectral_bounds without the top half of the interval."""
    bounds = fock.CoupledHamiltonian.spectral_bounds

    def narrow(self):
        lo, hi = bounds(self)
        return lo, 0.5 * (lo + hi)

    monkeypatch.setattr(fock.CoupledHamiltonian, "spectral_bounds", narrow)


def _shifted_h(monkeypatch):
    """h - lambda off by 1e-6 inside the resolvent's own residual check."""
    apply_h = resolvent.apply_h
    monkeypatch.setattr(resolvent, "apply_h", lambda sol, f: apply_h(sol, f) + 1e-6 * f)


@pytest.mark.parametrize(
    "argv, patch, message",
    [
        (["build-kernels"], lambda mp: mp.setattr(pekar, "DISCRETE_MAX_ITER", 1),
         "fixed point not converged"),
        (["solve-pekar", "--preset", "pekar-hi"],
         lambda mp: mp.setattr(pekar, "DESCENT_MAX_ITER", 1), "no convergence after 1"),
        (["build-kernels"], _shifted_h, "resolvent residual"),
        (["compare"], _narrow_spectral_bounds, "misses part of the spectrum"),
    ],
    ids=["discrete-pekar", "continuum-pekar", "resolvent", "propagator"],
)
def test_non_convergence_exits_3(argv, patch, message, tmp_path, monkeypatch, capsys):
    patch(monkeypatch)
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_NONCONVERGED
    err = capsys.readouterr().err
    assert "numerical non-convergence" in err and message in err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert not manifest["checks"]["run_completed"]["passed"]


def _no_solve(*args, **kwargs):
    raise AssertionError("the memory check should stop the run before any solve")


@pytest.mark.parametrize("verb", list(_COMMANDS))
def test_memory_preflight_exits_before_allocating(verb, tmp_path, monkeypatch, capsys):
    # below every desk-small estimate (compare and scan-alpha need 766 KiB,
    # bogoliubov-check 414 KiB, selftest 247 KiB, build-kernels 176 KiB,
    # solve-pekar 36 KiB)
    monkeypatch.setattr(config, "available_memory", lambda: 1 << 14)
    monkeypatch.setattr(experiments, "build_bundle", _no_solve)
    monkeypatch.setattr(pekar, "minimize_pekar", _no_solve)
    code = main([verb, "--out", str(tmp_path)])
    assert code == EXIT_INVARIANT
    assert "MiB are available" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert not (tmp_path / "pekar").exists()


def test_selftest_preflight_counts_the_normal_ordering_check(tmp_path, monkeypatch, capsys):
    # hex-xyz (M = 6): the bundle alone needs 208 KiB, the normal-ordering
    # check's direct build brings the estimate to 14 MiB
    monkeypatch.setattr(config, "available_memory", lambda: 1 << 20)
    monkeypatch.setattr(experiments, "build_bundle", _no_solve)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode_preset = hex-xyz\n")
    code = main(["selftest", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_INVARIANT
    assert "selftest needs about 14 MiB" in capsys.readouterr().err


# desk-small at grid_n = 64: the bundle needs 56.1 MiB; the compare states,
# H_quad and Chebyshev series add 4.36 MiB, bogoliubov-check's H_quad
# 0.23 MiB and selftest's normal-ordering check 0.07 MiB.  A verb added to
# the command table without an entry here fails this test.
_GRID64_MIB = {"build-kernels": 56, "compare": 60, "scan-alpha": 60,
               "bogoliubov-check": 56, "selftest": 56}


@pytest.mark.parametrize("verb", [v for v in _COMMANDS if v != "solve-pekar"])
def test_preflight_counts_the_bundle_of_every_verb_that_builds_one(
    verb, tmp_path, monkeypatch, capsys
):
    # every stage but the bundle fits in 8 MiB, so only its charge can refuse
    monkeypatch.setattr(config, "available_memory", lambda: 8 << 20)
    monkeypatch.setattr(experiments, "build_bundle", _no_solve)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_n = 64\n")
    code = main([verb, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_INVARIANT
    assert f"{verb} needs about {_GRID64_MIB[verb]} MiB" in capsys.readouterr().err


@pytest.mark.parametrize("error", [SectorError, SeparationError], ids=lambda e: e.__name__)
def test_sector_and_separation_failures_exit_as_invariant_failures(
    error, tmp_path, monkeypatch, capsys
):
    from polaronlab import experiments

    def fail(*args, **kwargs):
        raise error("the model does not separate")

    monkeypatch.setattr(experiments, "build_bundle", fail)
    assert main(["build-kernels", "--out", str(tmp_path)]) == EXIT_INVARIANT
    assert "invariant failure" in capsys.readouterr().err


def test_mode_preset_the_box_cannot_hold_is_a_config_error(tmp_path, capsys):
    # pekar-hi has no modes, and its box is not commensurate with |k| = 0.5
    code = main(["build-kernels", "--preset", "pekar-hi", "--out", str(tmp_path)])
    assert code == EXIT_INVARIANT
    assert "not commensurate" in capsys.readouterr().err


def _skewed_kernels(eps):
    """build_kernels with K made asymmetric by eps below the diagonal."""

    def build(*args, **kwargs):
        kp = resolvent.build_kernels(*args, **kwargs)
        return dataclasses.replace(kp, K=kp.K + eps * np.tril(np.ones_like(kp.K), -1))

    return build


@pytest.mark.parametrize(
    "defect, verb, message",
    [
        ("kernel-pair", "build-kernels", "K is not symmetric"),
        ("generator", "build-kernels", "S.A is not Hermitian"),
        ("quadratic-hamiltonian", "bogoliubov-check", "Hermiticity defect"),
    ],
)
def test_kernel_defects_exit_as_invariant_failures(
    defect, verb, message, tmp_path, monkeypatch, capsys
):
    if defect == "kernel-pair":  # far outside KernelPair.check's 1e-8
        monkeypatch.setattr(experiments, "build_kernels", _skewed_kernels(1e-3))
    elif defect == "generator":  # inside KernelPair.check, outside the S.A check's 1e-10
        monkeypatch.setattr(experiments, "build_kernels", _skewed_kernels(1e-9))
    else:  # a complex diagonal in H_quad, from the G it is built with
        build = fock.build_quadratic_hamiltonian

        def skewed(kp, fs):
            return build(dataclasses.replace(kp, G=kp.G + 1e-6j * np.eye(fs.M)), fs)

        monkeypatch.setattr(fock, "build_quadratic_hamiltonian", skewed)
    code = main([verb, "--out", str(tmp_path)])
    assert code == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "invariant failure" in err and message in err


def test_plain_value_error_is_not_an_invariant_failure(tmp_path):
    # a ValueError no check raised on purpose is a programming error: the
    # traceback reaches the user and the interpreter exits 1
    script = (
        "import sys\n"
        "from polaronlab import experiments\n"
        "def boom(*args, **kwargs):\n"
        "    raise ValueError('a programming error')\n"
        "experiments.build_bundle = boom\n"
        "from polaronlab.cli import main\n"
        f"sys.exit(main(['build-kernels', '--out', {str(tmp_path)!r}]))\n"
    )
    src = os.path.dirname(os.path.dirname(polaronlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 1
    assert "ValueError: a programming error" in run.stderr
    assert "invariant failure" not in run.stderr


def test_solve_pekar_does_not_load_the_fock_layer(tmp_path):
    # a fresh interpreter, so modules other tests imported do not count
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_n = 40\nbox_length = 80.0\n")
    args = ["solve-pekar", "--config", str(cfg), "--out", str(tmp_path / "out")]
    script = (
        "import sys\n"
        "from polaronlab.cli import main\n"
        f"code = main({args!r})\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('polaronlab')))\n"
    )
    src = os.path.dirname(os.path.dirname(polaronlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    code, *loaded = run.stdout.splitlines()[-1].split()
    assert int(code) == EXIT_OK
    assert "polaronlab.pekar" in loaded
    assert "polaronlab.fock" not in loaded
    assert "polaronlab.experiments" not in loaded
