"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload coupled-scan --seed 1 --seconds 45 --trace 0

One process runs one workload, jobs one after another (a closed loop with
one client).  Set-up is timed cold, in fresh interpreters, several times and
reported as its median; after one untimed warm-up of the workload's cheap
jobs, timed passes repeat until ``--seconds`` would be exceeded, at least one.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` an untraced pass and a traced pass run back to back, the
traced outputs must equal the untraced ones exactly, and the last line holds
the per-layer metrics and the tracing overhead.  Every job is checked
against ``reference.json``; the exit code is 1 if any job failed, 2 if the
package cannot be found.  Full records and spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 11
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PACKAGE_MODULES = (
    "grid", "modes", "pekar", "resolvent", "quasifree", "fock", "experiments",
    "config", "cli",
)


def blas_threads() -> int:
    """BLAS threads: the cores this process may use, capped at two."""
    return min(len(os.sched_getaffinity(0)), 2)


def prepare() -> int:
    """Point imports at the checkout's sources and cap BLAS threads; must
    run before numpy is imported.  Returns the thread setting."""
    if not (ROOT / "src" / "polaronlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no polaronlab sources under {ROOT / 'src'}")
    threads = blas_threads()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    return threads


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _runtime_blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_sizes() -> dict:
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for ln in fh:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(seed: int, threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "cache": _cache_sizes(),
        "blas": {
            "name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown"),
            "threads_set": threads,
            "threads_runtime": _runtime_blas_threads(),
        },
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(jobs_to_run, state, reference: dict) -> dict:
    """Run the jobs once, in order; time and check each."""
    from workloads import check

    done, jobs = {}, []
    t0 = time.perf_counter()
    for job in jobs_to_run:
        t = time.perf_counter()
        try:
            values, error = job.run(state, done), None
        except Exception:  # a failing job is recorded and the pass goes on
            values, error = {}, traceback.format_exc()
        end = time.perf_counter()
        done[job.name] = values
        public = {k: v for k, v in values.items() if not k.startswith("_")}
        problems = [error] if error else check(public, reference.get(job.name, {}))
        jobs.append({
            "name": job.name, "s": end - t, "ready_s": end - t0,
            "problems": problems, "values": public,
        })
    return {"wall_s": time.perf_counter() - t0, "jobs": jobs}


def cold_setups(workload, seed: int) -> list:
    """Seconds of SETUP_REPEATS cold set-ups, each in a fresh interpreter:
    package import plus the workload's set-up, as a command-line run pays."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def warm_up(workload, state, reference: dict) -> dict:
    return run_pass([j for j in workload.jobs if j.name in workload.warmup], state, reference)


def measure(workload, seed: int, seconds: float, reference: dict) -> tuple:
    """Untraced run: cold set-ups, one warm-up, then passes for about
    ``seconds`` (at least one)."""
    setup_times = cold_setups(workload, seed)
    state = workload.setup(seed)
    warm = warm_up(workload, state, reference)
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(workload.jobs, state, reference))
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - t0 + typical > seconds:
            break
    return setup_times, warm, passes


def end_to_end(workload, setup_times, passes) -> tuple:
    jobs = [j for p in passes for j in p["jobs"]]
    attempted = len(jobs)
    failed = sum(1 for j in jobs if j["problems"])
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "passed_frac": ((attempted - failed) / attempted, "frac"),
    }
    for job in workload.jobs:
        if job.metric:
            ready = [j["ready_s"] for j in jobs if j["name"] == job.name]
            metrics[job.metric] = (statistics.median(ready), "s")
    return attempted, failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(workload, seed: int, reference: dict, package: dict, np_fft):
    """One untraced and one traced set-up plus pass; per-layer metrics,
    overhead, and an exact comparison of the two runs' outputs."""
    from tracing import Tracer, aggregate, layer_metrics

    warm_up(workload, workload.setup(seed), reference)
    t = time.perf_counter()
    state = workload.setup(seed)
    plain = run_pass(workload.jobs, state, reference)
    plain_s = time.perf_counter() - t

    tracer = Tracer()
    tracer.install(package, np_fft)
    try:
        t = time.perf_counter()
        state = workload.setup(seed)
        trace = run_pass(workload.jobs, state, reference)
        traced_s = time.perf_counter() - t
    finally:
        tracer.uninstall()

    for a, b in zip(plain["jobs"], trace["jobs"]):
        if a["values"] != b["values"]:
            b["problems"].append("traced outputs differ from the untraced run")
    metrics = layer_metrics(aggregate(tracer.spans))
    metrics["trace.untraced_s"] = {"value": plain_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    jobs = plain["jobs"] + trace["jobs"]
    failed = sum(1 for j in jobs if j["problems"])
    return [plain, trace], len(jobs), failed, metrics, tracer.dump()


def _write_json(path: Path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1)
    os.replace(tmp, path)


def _parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        threads = prepare()
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    import importlib

    import numpy

    package = {m: importlib.import_module(f"polaronlab.{m}") for m in PACKAGE_MODULES}
    import workloads

    import_s = time.perf_counter() - t0

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()[workload.name]
    facts = machine_facts(args.seed, threads)
    record = {"workload": workload.name, "trace": args.trace, "machine": facts}

    if args.trace:
        passes, attempted, failed, metrics, spans = traced(
            workload, args.seed, reference, package, numpy.fft
        )
        _write_json(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json", spans)
    else:
        setup_times, warm, passes = measure(workload, args.seed, args.seconds, reference)
        attempted, failed, metrics = end_to_end(workload, setup_times, passes)
        record.update(import_s=import_s, setup_times_s=setup_times, warmup=warm)

    record.update(passes=passes, metrics=metrics)
    _write_json(OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", record)

    print("machine " + json.dumps(facts, sort_keys=True))
    slots = {j.name: j.metric for j in workload.jobs if j.metric}
    for i, p in enumerate(passes):
        for j in p["jobs"]:
            status = "ok" if not j["problems"] else "FAILED: " + "; ".join(j["problems"])
            print(f"pass {i} {j['name']:18s} {j['s']:9.4f} s  "
                  f"ready at {j['ready_s']:9.4f} s ({slots.get(j['name'], '-')})  {status}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
