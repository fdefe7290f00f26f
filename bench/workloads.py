"""Benchmark workloads: the jobs each runs through the package's public
API, and the check of every job's output against recorded references.

A job returns a flat dict of named result values (floats, or lists of
floats).  Values named in ``reference.json`` must match the recorded value
to ``ATOL``; every gate in ``GATES`` must hold.  A job that raises, misses a
reference or fails a gate counts as failed.  Keys starting with ``_`` hand
objects to later jobs of the same pass and are neither checked nor recorded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Layers are reached through their modules, never imported by name, so that
# the traced run's patches on those modules see every call.
from polaronlab import experiments as ex
from polaronlab import fock as fk
from polaronlab import pekar
from polaronlab import quasifree as qf
from polaronlab import resolvent
from polaronlab.config import load_config
from polaronlab.grid import Field, Grid3

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Absolute tolerance on recorded values: loose enough for a correct Chebyshev
# or sector-restricted propagator to pass, tight enough to catch a wrong one.
ATOL = 1e-8

# value name -> largest allowed value (the acceptance tolerances)
GATES = {
    "normal_ordering_defect": 1e-10,
    "map_vs_ode": 1e-6,
    "resolvent_residual_max": 1e-8,
    "virial_D_4T": 1e-3,
    "virial_lambda_3E": 1e-3,
    "pekar_residual": 1e-6,
    "energy_minus_gaussian_bound": 0.0,
}

# Gate-only values: roundoff-level defects, the solver residual and the
# seed-dependent resolvent residual are not recorded as references.
NOT_RECORDED = {
    "normal_ordering_defect",
    "map_vs_ode",
    "resolvent_residual_max",
    "pekar_residual",
}

# resolvent spot-check batch size (criterion 2 uses 20 fields)
N_RANDOM_FIELDS = 20


@dataclass
class Job:
    name: str  # as the output, the record and reference.json call it
    run: object  # callable(state, done) -> dict of values
    # end-to-end metric: seconds from the start of a pass until this job's
    # result is ready (time to the k-th result; wall_s is time to the last)
    metric: str | None = None


@dataclass
class Workload:
    name: str
    setup: object  # callable(seed) -> state; its cold cost is setup_s
    jobs: list = field(default_factory=list)
    # jobs run once, untimed, before the timed passes: a process's first
    # call pays one-off costs (page faults on fresh buffers, BLAS thread
    # start) that would otherwise land on whichever job happens to go first
    warmup: tuple = ()


# ---------------------------------------------------------------------------
# coupled-scan: compare_trajectory at alpha = 2, 4, 8 on desk-small
# ---------------------------------------------------------------------------


def _setup_small(seed):
    cfg = load_config(preset="desk-small")
    return {"cfg": cfg, "bundle": ex.build_bundle(cfg)}


def _compare(alpha):
    def run(state, done):
        rows = ex.compare_trajectory(state["bundle"], state["cfg"], alpha)
        return {"rows": [list(map(float, r)) for r in rows], "err_final": rows[-1][2]}

    return run


def _fit_slope(state, done):
    alphas = [2.0, 4.0, 8.0]
    finals = [done[f"compare.a{a:g}"]["err_final"] for a in alphas]
    p, rms = ex.fit_alpha_slope(alphas, finals)
    return {"slope_p": p, "slope_rms": rms}


# ---------------------------------------------------------------------------
# quadratic-oracle: truncated-Fock oracle vs the quasi-free map, desk-standard
# ---------------------------------------------------------------------------


def _setup_standard(seed):
    cfg = load_config(preset="desk-standard")
    return {"cfg": cfg, "bundle": ex.build_bundle(cfg)}


def _bogoliubov(state, done):
    cfg = state["cfg"]
    # the n_max list the bogoliubov-check verb uses
    n_max_list = sorted({max(2, cfg.n_max - 4), max(3, cfg.n_max - 2), cfg.n_max})
    rows = ex.bogoliubov_table(state["bundle"].kernels, cfg.tau_final, n_max_list)
    return {
        "rows": [list(map(float, r)) for r in rows],
        "top_cutoff_deviation": max(rows[-1][1], rows[-1][2]),
    }


def _normal_ordering(state, done):
    kp = state["bundle"].kernels
    fs = fk.FockSpace(kp.modes.M, state["cfg"].n_max)
    H1 = fk.build_quadratic_hamiltonian(kp, fs)
    H2 = fk.build_effective_operator_direct(kp, fs)
    return {"normal_ordering_defect": float(abs(H1 - H2).max())}


def _map_vs_ode(bundle_of):
    """Criterion 5 on the generator of ``bundle_of(state, done)``."""

    def run(state, done):
        return _map_vs_ode_on(bundle_of(state, done).generator)

    return run


def _map_vs_ode_on(gen):
    st0 = qf.vacuum_state(gen.M)
    via_map = qf.evolve_quasifree(st0, qf.propagate_map(gen, 5.0, 1.0))
    via_ode = qf.evolve_odes(st0, gen, 5.0, 1.0, dt=0.005)
    return {
        "map_vs_ode": float(
            max(
                np.max(np.abs(via_map.gamma - via_ode.gamma)),
                np.max(np.abs(via_map.pairing - via_ode.pairing)),
            )
        ),
        "number_tau5": qf.expected_number(via_map),
    }


# ---------------------------------------------------------------------------
# ground-state: continuum Pekar, discrete bundle, resolvent spot checks
# ---------------------------------------------------------------------------


def _setup_ground(seed):
    hi = load_config(preset="pekar-hi")
    std = load_config(preset="desk-standard")
    grid = Grid3(std.grid_n, std.box_length)
    rng = np.random.default_rng(seed)
    fields = [
        rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        for _ in range(N_RANDOM_FIELDS)
    ]
    return {"hi": hi, "std": std, "fields": fields}


def _pekar_solve(state, done):
    cfg = state["hi"]
    sol = pekar.minimize_pekar(Grid3(cfg.grid_n, cfg.box_length), tol=cfg.pekar_tol)
    return {
        "E": sol.energy,
        "T": sol.T,
        "D": sol.D,
        "lambda": sol.lam,
        "virial_D_4T": abs(sol.D - 4.0 * sol.T) / sol.D,
        "virial_lambda_3E": abs(sol.lam - 3.0 * sol.energy) / abs(sol.energy),
        "pekar_residual": sol.residual,
        "energy_minus_gaussian_bound": sol.energy - pekar.GAUSSIAN_BOUND,
    }


def _kernels(state, done):
    bundle = ex.build_bundle(state["std"])
    return {
        "_bundle": bundle,
        "lambda": bundle.dsol.lam,
        "discrete_energy": bundle.dsol.energy,
        "gap": bundle.gap,
        "epsilon": bundle.kernels.epsilon,
    }


def _resolvent(state, done):
    bundle = done["kernels"]["_bundle"]
    worst = 0.0
    for values in state["fields"]:
        v = Field(values, bundle.grid)
        u = bundle.rh.apply(v)
        qv = bundle.rh.project_out_ground(v)
        hu = resolvent.apply_h(bundle.dsol, u)
        r = Field(hu.values - bundle.dsol.lam * u.values - qv.values, bundle.grid).norm()
        worst = max(worst, r)
    return {"resolvent_residual_max": worst}


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "coupled-scan",
            _setup_small,
            [
                Job("compare.a2", _compare(2.0), "result1_s"),
                Job("compare.a4", _compare(4.0), "result2_s"),
                Job("compare.a8", _compare(8.0)),
                Job("fit_slope", _fit_slope),
                # the bogoliubov-check oracle at desk-small size (n_max 4, 6,
                # 8; Fock dimension at most 81): cheap, but it keeps the
                # oracle's fock and experiments paths measured and checked
                Job("bogoliubov_table", _bogoliubov),
                Job("normal_ordering", _normal_ordering),
            ],
            warmup=("compare.a2", "bogoliubov_table", "normal_ordering"),
        ),
        Workload(
            "quadratic-oracle",
            _setup_standard,
            [
                Job("bogoliubov_table", _bogoliubov, "result1_s"),
                Job("normal_ordering", _normal_ordering, "result2_s"),
                Job("map_vs_ode", _map_vs_ode(lambda state, done: state["bundle"])),
            ],
            warmup=("normal_ordering", "map_vs_ode"),
        ),
        Workload(
            "ground-state",
            _setup_ground,
            [
                Job("pekar_solve", _pekar_solve, "result1_s"),
                Job("kernels", _kernels, "result2_s"),
                Job("resolvent_apply", _resolvent),
                # criterion 5 on the desk-standard generator built by "kernels"
                Job("map_vs_ode", _map_vs_ode(lambda state, done: done["kernels"]["_bundle"])),
            ],
            warmup=("pekar_solve", "kernels", "resolvent_apply", "map_vs_ode"),
        ),
    ]
}


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _flat(value):
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _flat(v)]
    return [float(value)]


def check(values: dict, reference: dict) -> list[str]:
    """Problems with one job's values: reference mismatches beyond ATOL and
    violated gates.  An empty list means the job passed."""
    problems = []
    for name, ref in reference.items():
        if name not in values:
            problems.append(f"{name}: missing")
            continue
        got, want = _flat(values[name]), _flat(ref)
        if len(got) != len(want):
            problems.append(f"{name}: {len(got)} values, reference has {len(want)}")
            continue
        worst = max(
            (abs(g - w) if math.isfinite(g) else math.inf for g, w in zip(got, want)),
            default=0.0,
        )
        if worst > ATOL:
            problems.append(f"{name}: off the reference by {worst:.3e} > {ATOL:g}")
    for name, limit in GATES.items():
        if name in values and not values[name] <= limit:
            problems.append(f"{name} = {values[name]:.3e} exceeds {limit:g}")
    return problems
