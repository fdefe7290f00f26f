"""Run configuration: flat key=value files, named presets, command-line
overrides, the manifest written next to every result, atomic writes, the
peak-memory estimate of every pipeline stage with the one check a run makes
against them, and the two bases of every failure type, by exit code."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field


class InvariantError(Exception):
    """A checked invariant failed, a bad configuration included: exit 2."""


class NonConvergenceError(Exception):
    """A numerical method missed its tolerance: exit 3."""


class ConfigError(InvariantError, ValueError):
    pass


@dataclass
class RunConfig:
    """Everything a run needs; every field is echoed into the manifest.
    ConfigError unless every value is in range."""

    preset: str = "desk-small"
    grid_n: int = 8
    box_length: float = 4.0 * math.pi
    mode_preset: str = "pair-x"
    n_max: int = 8
    alphas: list = field(default_factory=lambda: [2.0, 4.0, 8.0])
    tau_final: float = 1.0
    tau_samples: int = 4
    seed: int = 12345
    out_dir: str = "runs/out"
    top_pop_limit: float = 2e-3
    pekar_tol: float = 1e-7

    def __post_init__(self):
        reals = [*self.alphas, self.tau_final, self.box_length, self.top_pop_limit, self.pekar_tol]
        if not all(math.isfinite(x) for x in reals):
            raise ConfigError(
                "alphas, tau_final, box_length, top_pop_limit and pekar_tol must be finite"
            )
        if not self.alphas or min(self.alphas) <= 0 or len(set(self.alphas)) < len(self.alphas):
            raise ConfigError("alphas must be a nonempty list of distinct positive reals")
        if self.top_pop_limit <= 0 or self.pekar_tol <= 0:
            raise ConfigError("top_pop_limit and pekar_tol must be positive")
        if self.tau_final < 0 or self.tau_samples < 1:
            raise ConfigError("tau schedule must be nonnegative with >= 1 samples")
        if self.grid_n < 4 or self.grid_n % 2:
            raise ConfigError("grid_n must be an even integer >= 4")
        if self.box_length <= 0:
            raise ConfigError("box_length must be positive")
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    @property
    def tau_grid(self):
        """Monotone sample times 0 = tau_0 < ... < tau_final."""
        return [self.tau_final * i / self.tau_samples for i in range(self.tau_samples + 1)]

    @property
    def bogoliubov_cutoffs(self):
        """The bogoliubov-check cutoffs: n_max - 4 (at least 2), n_max - 2 (at
        least 3), n_max itself and n_max + 4, where the deviation gate is read."""
        n = self.n_max
        return sorted({max(2, n - 4), max(3, n - 2), n, n + 4})

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


PRESETS = {
    "desk-small": {},  # the RunConfig defaults
    "desk-standard": {
        "grid_n": 16,
        "mode_preset": "quad-xy",
        "n_max": 6,
        "alphas": [2.0, 4.0],
    },
    "pekar-hi": {
        "grid_n": 48,
        "box_length": 96.0,
        "mode_preset": "none",
    },
}

_FIELD_TYPES = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    if key == "preset":
        # a preset sets several keys; in a file it would only relabel the run
        raise ConfigError("a config file cannot name a preset; use --preset")
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
    """Preset defaults (without one, the RunConfig defaults: desk-small), then
    config-file keys, then overrides; later wins.  RunConfig checks them."""
    values: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        values.update(PRESETS[preset], preset=preset)
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
    return RunConfig(**values)


# memory: one peak estimate per pipeline stage, each a function of the run
# configuration; a verb names the stages it runs, and cli.main charges their
# sum once, before anything is allocated.  A process's first FFT loads
# numpy.fft, whose import keeps 119 KB: the first stage of every verb, the
# Pekar solve or the bundle, charges it.  The import of scipy.sparse keeps
# 14.2 MB (27 MiB of peak RSS, after the desk-small bundle): each stage that
# builds H_quad, compare, bogoliubov-check or normal ordering, charges it
_FIRST_FFT_BYTES = 1 << 17
_SCIPY_SPARSE_BYTES = 15 << 20


def available_memory() -> int | None:
    """MemAvailable from /proc/meminfo in bytes; None where it is unreadable."""
    try:
        with open("/proc/meminfo") as fh:
            return next(int(ln.split()[1]) * 1024 for ln in fh if ln.startswith("MemAvail"))
    except (OSError, StopIteration):
        return None


def require_memory(verb: str, need: int):
    """Raise ConfigError when need bytes exceed MemAvailable."""
    avail = available_memory()
    if avail is not None and need > avail:
        raise ConfigError(
            f"{verb} needs about {need / 2**20:.0f} MiB but only "
            f"{avail / 2**20:.0f} MiB are available; lower n_max or grid_n"
        )


def _modes(cfg: RunConfig):
    from .modes import mode_preset  # modes imports ConfigError from here

    return mode_preset(cfg.mode_preset, cfg.box_length)


def _entry_slots(modes) -> int:
    """Entry slots a row of H_quad: the diagonal, and two for each of the P
    mode pairs within one axis group, since K and G vanish between groups."""
    return 1 + 2 * sum(len(idx) ** 2 for idx in modes.group_modes)


def _quadratic_bytes(modes, n_max: int) -> int:
    """Peak of building and propagating the sparse H_quad on the Fock space
    (M, n_max), per entry slot; set by the build, whose moves span the mode
    pairs within each axis group, traced at 54-125 bytes (M = 2, 4, 6 and
    n_max from 4 up to 300), and the scipy.sparse import."""
    return 160 * (n_max + 1) ** modes.M * _entry_slots(modes) + _SCIPY_SPARSE_BYTES


def pekar_bytes(cfg: RunConfig) -> int:
    """minimize_pekar's peak: the first FFT and 72 B a grid point, at its
    Euler-Lagrange check, whose transform temporaries take about 41 B a point
    on top of the unfolded phi (8 B) and the half-spectrum caches (8 B):
    traced peaks of 58, 57 and 57 B a point at n = 32, 48, 64; peak RSS, with
    pocketfft's scratch, 61 and 58 B at n = 64, 96."""
    return 72 * cfg.grid_n**3 + _FIRST_FFT_BYTES


def bundle_bytes(cfg: RunConfig) -> int:
    """build_bundle's peak: the first FFT, twelve complex n^3 fields plus one
    per mode and 64 KiB of small arrays (peaks traced after an FFT: 178-274 B
    a grid point for n = 8-32, M = 2-6, set by the kernel assembly's grid
    route; the Pekar sweeps and the band route of t work on the axis groups)."""
    return 16 * (12 + _modes(cfg).M) * cfg.grid_n**3 + (1 << 16) + _FIRST_FFT_BYTES


def _chebyshev_half_width(cfg: RunConfig, alpha: float) -> float:
    """A bound on half the width of CoupledHamiltonian.spectral_bounds before
    any solve: |V_eff| <= 2 sum_i w_i c_i^2 and |delta G_i| <= 2 c_i, with c_i
    the coupling constants (1.13-1.73 times the bundle's half-width for
    pair-x on 8^3 and 24^3, quad-xy on 16^3 and hex-xyz on 8^3 at alpha = 2,
    8 and 32)."""
    modes = _modes(cfg)
    w, c, n = modes.weights, modes.coupling_constants, cfg.n_max
    return 0.5 * (len(modes.coupled_axes) * (math.pi * cfg.grid_n / cfg.box_length) ** 2
                  + 4.0 * float(w @ c**2) + modes.M * n / alpha**2
                  + 8.0 * math.sqrt(n) / alpha * float(w**0.5 @ c))


def compare_bytes(cfg: RunConfig) -> int:
    """compare_trajectory's peak at the largest alpha, in sector x Fock
    states: 10 (the initial state, the Hamiltonian's diagonal and scratch
    state, the drift checks' products and the caller's row arithmetic), 2M
    coefficient planes of the coupling, and per sample time an accumulator,
    its share of a block product and a slot of the Chebyshev block (at least
    three slots); plus the sparse H_quad and one Chebyshev series per sample:
    at x = half-width x alpha^2 x tau at most 2x + 65 terms of 16 B, and
    40 B an angle for the 4x + 128 angles of the largest one's FFT.  Traced on
    desk-small: 247 KB at alpha = 2 (23.8 states of 10.4 KB); at alpha = 32,
    1.47 and 5.27 MB at tau_samples = 4 and 32, set by the series;
    desk-standard at alpha = 2, 232 MB (23.6 states of 9.8 MB)."""
    modes = _modes(cfg)
    state = cfg.grid_n ** len(modes.coupled_axes) * (cfg.n_max + 1) ** modes.M
    alpha = max(cfg.alphas)
    xs = [int(_chebyshev_half_width(cfg, alpha) * alpha**2 * tau) for tau in cfg.tau_grid[1:]]
    series = 16 * sum(2 * x + 65 for x in xs) + 40 * (4 * max(xs) + 128)
    states = 10 + 2 * modes.M + 2 * cfg.tau_samples + max(cfg.tau_samples, 3)
    return 16 * states * state + _quadratic_bytes(modes, cfg.n_max) + series


def bogoliubov_bytes(cfg: RunConfig) -> int:
    """bogoliubov_table's peak: H_quad at the top cutoff."""
    return _quadratic_bytes(_modes(cfg), cfg.bogoliubov_cutoffs[-1])


def normal_ordering_bytes(cfg: RunConfig) -> int:
    """selftest_report's normal-ordering check, which builds H_quad directly on
    the n_max = 2 Fock space: 64 bytes per entry slot of 4^M states, and
    64 KiB (the check traced 57 KB, 0.28 MB and 5.1 MB for pair-x, quad-xy
    and hex-xyz, M = 2, 4, 6, after the scipy.sparse import it charges)."""
    modes = _modes(cfg)
    return 64 * 4**modes.M * _entry_slots(modes) + (1 << 16) + _SCIPY_SPARSE_BYTES


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Config echo, timings, artifact hashes, check outcomes and ungated
    diagnostic values for one run."""

    config: dict
    command: str
    version: str
    timings: dict = field(default_factory=dict)
    input_hashes: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    started_at: float = field(default_factory=time.time)

    @contextlib.contextmanager
    def time_stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = round(time.perf_counter() - t0, 6)

    def record_check(self, name: str, passed: bool, value=None):
        self.checks[name] = {"passed": bool(passed), "value": value}

    def hash_inputs(self, outdir: str, *subdirs: str):
        """Hash the .pfld files this run wrote under outdir/subdir, keyed by
        their path relative to outdir, where manifest.json goes."""
        for sub in subdirs:
            for root, _, files in os.walk(os.path.join(outdir, sub)):
                for fn in sorted(files):
                    if fn.endswith(".pfld"):
                        p = os.path.join(root, fn)
                        self.input_hashes[os.path.relpath(p, outdir)] = file_sha256(p)

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def write(self, outdir: str):
        os.makedirs(outdir, exist_ok=True)
        write_json(os.path.join(outdir, "manifest.json"), {
            "command": self.command,
            "version": self.version,
            "config": self.config,
            "timings": self.timings,
            "input_hashes": self.input_hashes,
            "checks": self.checks,
            "diagnostics": self.diagnostics,
            "wall_time": round(time.time() - self.started_at, 3),
        })


def atomic_write(path: str, *chunks):
    """Write the chunks (bytes or any contiguous buffer) in order through a
    temporary file renamed over path, so a reader never sees a partly
    written file."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def write_json(path: str, obj):
    """Write obj atomically as indented JSON with sorted keys."""
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True).encode())


def write_csv(path: str, header: list, rows: list):
    """Write rows atomically with full-precision floats (repr round-trip)."""
    import csv

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    atomic_write(path, buf.getvalue().encode())
