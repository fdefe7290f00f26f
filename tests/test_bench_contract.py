"""The benchmark's contract with the package: ``bench/workloads.py`` and
``bench/tracing.py`` load unchanged, a ground-state job still matches the
recorded reference, and every name the tracer patches still resolves.  A
renamed function or a moved number then fails here, not in a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    """A bench script as a module of its own, without touching sys.path
    (registered before it runs, as its dataclasses need)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_ground_state_pekar_job_matches_the_bench_reference():
    workloads = _load("workloads")
    wl = workloads.WORKLOADS["ground-state"]
    job = next(j for j in wl.jobs if j.name == "pekar_solve")
    values = job.run(wl.setup(0), {})
    reference = workloads.load_reference()["ground-state"]["pekar_solve"]
    assert workloads.check(values, reference) == []


def test_tracer_patches_resolve_and_uninstall_restores():
    tracing, run = _load("tracing"), _load("run")
    package = {m: importlib.import_module(f"polaronlab.{m}") for m in run.PACKAGE_MODULES}
    before = {name: dict(vars(mod)) for name, mod in package.items()}
    fft = {name: getattr(np.fft, name) for name in ("fftn", "ifftn")}
    tracer = tracing.Tracer()
    tracer.install(package, np.fft)  # raises on any patch target that is gone
    try:
        assert package["resolvent"].cg is not before["resolvent"]["cg"]
        assert package["pekar"].minimize_pekar is not before["pekar"]["minimize_pekar"]
        assert np.fft.fftn is not fft["fftn"]
    finally:
        tracer.uninstall()
    for name, mod in package.items():
        assert all(vars(mod)[k] is v for k, v in before[name].items()), name
    assert all(getattr(np.fft, name) is fn for name, fn in fft.items())
