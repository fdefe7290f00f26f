"""Command-line interface: exit codes, artifacts, manifests."""

import json

import pytest

from polaronlab.cli import EXIT_INVARIANT, EXIT_OK, main


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


def test_build_kernels_writes_kernel_directory(tmp_path):
    code = main(["build-kernels", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "kernels" / "K.pfld").exists()
    assert (tmp_path / "kernels" / "kernels.json").exists()
    assert (tmp_path / "ground" / "phi0.pfld").exists()
    from polaronlab.resolvent import KernelPair

    kp = KernelPair.load(str(tmp_path / "kernels"))
    kp.check(tol=1e-10)


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
    assert len(lines) == 4  # header + three cutoffs


def test_scan_alpha_requires_three_points(tmp_path, capsys):
    code = main(
        ["scan-alpha", "--out", str(tmp_path), "--alpha", "2", "--alpha", "4"]
    )
    assert code == EXIT_INVARIANT
    assert "at least 3" in capsys.readouterr().err


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


@pytest.mark.parametrize("verb", ["compare", "scan-alpha", "reduced-density"])
def test_memory_preflight_exits_before_allocating(verb, tmp_path, monkeypatch, capsys):
    from polaronlab import experiments

    def no_bundle(*args, **kwargs):
        raise AssertionError("the preflight should stop the run before build_bundle")

    monkeypatch.setattr(experiments, "available_memory", lambda: 1 << 20)
    monkeypatch.setattr(experiments, "build_bundle", no_bundle)
    code = main([verb, "--out", str(tmp_path)])
    assert code == EXIT_INVARIANT
    assert "MiB are available" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
