"""Configuration parsing, presets, overrides, manifests, CSV output."""

import json
import math
import os
from pathlib import Path

import pytest

import polaronlab
from polaronlab.config import (
    ConfigError,
    PRESETS,
    RunConfig,
    RunManifest,
    atomic_write,
    load_config,
    write_csv,
)


def test_defaults_are_desk_small():
    cfg = load_config(preset="desk-small")
    assert cfg.grid_n == 8
    assert cfg.box_length == pytest.approx(4 * math.pi)
    assert cfg.mode_preset == "pair-x"
    assert cfg.alphas == [2.0, 4.0, 8.0]


def test_all_presets_validate():
    for name in PRESETS:
        load_config(preset=name)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="preset"):
        load_config(preset="desk-enormous")


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment line\n"
        "grid_n = 16\n"
        "alphas = 2, 4\n"
        "tau_final = 0.5   # trailing comment\n"
        "out_dir = /tmp/somewhere\n"
    )
    cfg = load_config(path=str(p))
    assert cfg.grid_n == 16
    assert cfg.alphas == [2.0, 4.0]
    assert cfg.tau_final == 0.5
    assert cfg.out_dir == "/tmp/somewhere"


def test_unknown_key_is_an_error(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("grid_m = 16\n")
    with pytest.raises(ConfigError, match="grid_m"):
        load_config(path=str(p))


def test_malformed_line_is_an_error(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("just a sentence\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config(path=str(p))


def test_override_wins_over_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seed = 1\nn_max = 4\n")
    cfg = load_config(path=str(p), overrides={"seed": 99, "out_dir": "x"})
    assert cfg.seed == 99
    assert cfg.n_max == 4
    assert cfg.out_dir == "x"


def test_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        RunConfig(alphas=[]).validate()
    with pytest.raises(ConfigError):
        RunConfig(alphas=[-2.0]).validate()
    with pytest.raises(ConfigError):
        RunConfig(grid_n=7).validate()
    # values that would otherwise fail deep inside a solver with a ValueError
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-1).validate()
    # a duplicate alpha would rewrite its compare CSV and weigh twice in the
    # slope fit; a zero tolerance can never be met
    for bad, match in [
        ({"alphas": [float("nan")]}, "finite"),
        ({"alphas": [float("inf")]}, "finite"),
        ({"box_length": float("nan")}, "finite"),
        ({"tau_final": float("inf")}, "finite"),
        ({"top_pop_limit": float("nan")}, "finite"),
        ({"pekar_tol": float("nan")}, "finite"),
        ({"alphas": [2.0, 2.0, 4.0]}, "distinct"),
        ({"pekar_tol": 0.0}, "positive"),
        ({"pekar_tol": -1e-7}, "positive"),
        ({"top_pop_limit": 0.0}, "positive"),
        ({"top_pop_limit": -2e-3}, "positive"),
    ]:
        with pytest.raises(ConfigError, match=match):
            RunConfig(**bad).validate()
    # a key that nothing reads is refused, not echoed into the manifest
    with pytest.raises(ConfigError, match="unknown config key 'eta0'"):
        load_config(overrides={"eta0": "vacuum"})


@pytest.mark.parametrize("line", ["dt_fock = 0.5", "krylov_dim = 40"])
def test_removed_propagator_keys_are_unknown(line, tmp_path, capsys):
    # the Chebyshev propagator takes its interval from the Hamiltonian, so
    # the Lanczos step size and Krylov dimension are no longer config keys
    from polaronlab.cli import EXIT_INVARIANT, main

    key, value = (part.strip() for part in line.split("="))
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        load_config(overrides={key: value})
    p = tmp_path / "old.cfg"
    p.write_text(line + "\n")
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        load_config(path=str(p))
    code = main(["compare", "--config", str(p), "--out", str(tmp_path / "out")])
    assert code == EXIT_INVARIANT
    assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_config_file_cannot_name_a_preset(tmp_path, capsys):
    # the line would relabel the run without applying the preset's keys
    from polaronlab.cli import EXIT_INVARIANT, main

    p = tmp_path / "run.cfg"
    p.write_text("preset = desk-standard\n")
    with pytest.raises(ConfigError, match="--preset"):
        load_config(path=str(p))
    code = main(["selftest", "--config", str(p), "--out", str(tmp_path / "out")])
    assert code == EXIT_INVARIANT
    assert "--preset" in capsys.readouterr().err


def test_tau_grid_monotone():
    cfg = RunConfig(tau_final=1.0, tau_samples=4)
    grid = cfg.tau_grid
    assert grid[0] == 0.0
    assert grid[-1] == 1.0
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_manifest_write_and_contents(tmp_path):
    cfg = load_config(preset="desk-small")
    m = RunManifest(config=cfg.as_dict(), command="selftest", version="0.1.0")
    with m.time_stage("stage_one"):
        pass
    m.record_check("some_invariant", True, 1e-12)
    m.record_check("other_invariant", False, 0.5)
    m.write(str(tmp_path))
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["command"] == "selftest"
    assert payload["config"]["grid_n"] == 8
    assert "stage_one" in payload["timings"]
    assert payload["checks"]["some_invariant"]["passed"]
    assert not payload["checks"]["other_invariant"]["passed"]
    assert not m.all_passed()
    # no stray temp file left behind
    assert not os.path.exists(str(tmp_path / "manifest.json.tmp"))


def test_write_csv_roundtrips_floats(tmp_path):
    path = str(tmp_path / "t.csv")
    value = 0.1234567890123456789
    write_csv(path, ["x [unit]"], [[value]])
    with open(path) as fh:
        header = fh.readline().strip()
        cell = fh.readline().strip()
    assert header == "x [unit]"
    assert float(cell) == value


def test_atomic_write_replaces_existing_file(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"old contents")
    atomic_write(str(path), b"new")
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]


def test_config_owns_the_only_atomic_rename():
    # every artifact goes through config.atomic_write; a second tmp-file
    # writer elsewhere in the package would be a copy of that decision
    package = Path(polaronlab.__file__).parent
    users = sorted(p.name for p in package.glob("*.py") if "os.replace" in p.read_text())
    assert users == ["config.py"]
