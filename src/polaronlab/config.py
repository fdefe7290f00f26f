"""Run configuration: flat key=value files, named presets, command-line
overrides, and the reproducibility manifest written next to every result."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything a run needs; every field is echoed into the manifest."""

    preset: str = "desk-small"
    grid_n: int = 8
    box_length: float = 4.0 * math.pi
    mode_preset: str = "pair-x"
    n_max: int = 8
    alphas: list = field(default_factory=lambda: [2.0, 4.0, 8.0])
    tau_final: float = 1.0
    tau_samples: int = 4
    dt_fock: float = 1.0
    krylov_dim: int = 40
    seed: int = 12345
    out_dir: str = "runs/out"
    top_pop_limit: float = 2e-3
    pekar_tol: float = 1e-7

    def validate(self):
        if not self.alphas or any(a <= 0 for a in self.alphas):
            raise ConfigError("alphas must be a nonempty list of positive reals")
        if self.tau_final < 0 or self.tau_samples < 1:
            raise ConfigError("tau schedule must be nonnegative with >= 1 samples")
        if self.grid_n < 4 or self.grid_n % 2:
            raise ConfigError("grid_n must be an even integer >= 4")
        if self.box_length <= 0:
            raise ConfigError("box_length must be positive")
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        return self

    @property
    def tau_grid(self):
        """Monotone sample times 0 = tau_0 < ... < tau_final."""
        return [self.tau_final * i / self.tau_samples for i in range(self.tau_samples + 1)]

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


PRESETS = {
    "desk-small": {},  # the RunConfig defaults
    "desk-standard": {
        "preset": "desk-standard",
        "grid_n": 16,
        "mode_preset": "quad-xy",
        "n_max": 6,
        "alphas": [2.0, 4.0],
    },
    "pekar-hi": {
        "preset": "pekar-hi",
        "grid_n": 48,
        "box_length": 96.0,
        "mode_preset": "none",
    },
}

_FIELD_TYPES = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    raw = raw.strip()
    if key == "alphas":
        try:
            return [float(x) for x in raw.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad alpha list {raw!r}") from exc
    target = _FIELD_TYPES[key].type
    try:
        if target == "int":
            return int(raw)
        if target == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={raw!r}") from exc


def load_config(
    path: str | None = None,
    preset: str | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """Preset defaults, then config-file keys, then overrides; later wins."""
    values: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        values.update(PRESETS[preset])
        values.setdefault("preset", preset)
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, raw = line.split("=", 1)
                key = key.strip()
                values[key] = _parse_value(key, raw)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = val
    return RunConfig(**values).validate()


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Config echo, timings, artifact hashes and check outcomes for one run."""

    config: dict
    command: str
    version: str
    timings: dict = field(default_factory=dict)
    input_hashes: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    started_at: float = field(default_factory=time.time)

    def time_stage(self, name: str):
        manifest = self

        class _Timer:
            def __enter__(self):
                self.t0 = time.perf_counter()
                return self

            def __exit__(self, *exc):
                manifest.timings[name] = round(time.perf_counter() - self.t0, 6)
                return False

        return _Timer()

    def record_check(self, name: str, passed: bool, value=None):
        self.checks[name] = {"passed": bool(passed), "value": value}

    def hash_inputs(self, outdir: str):
        for root, _, files in os.walk(outdir):
            for fn in sorted(files):
                if fn.endswith(".pfld"):
                    p = os.path.join(root, fn)
                    self.input_hashes[os.path.relpath(p, outdir)] = file_sha256(p)

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def write(self, outdir: str):
        os.makedirs(outdir, exist_ok=True)
        payload = {
            "command": self.command,
            "version": self.version,
            "config": self.config,
            "timings": self.timings,
            "input_hashes": self.input_hashes,
            "checks": self.checks,
            "wall_time": round(time.time() - self.started_at, 3),
        }
        tmp = os.path.join(outdir, "manifest.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        os.replace(tmp, os.path.join(outdir, "manifest.json"))


def write_csv(path: str, header: list, rows: list):
    """Write rows atomically with full-precision floats (repr round-trip)."""
    import csv

    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    os.replace(tmp, path)
