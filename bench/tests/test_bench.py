"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.prepare()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, aggregate, self_times  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# ---------------------------------------------------------------------------
# reference checks
# ---------------------------------------------------------------------------


def test_perturbed_reference_marks_job_failed():
    wl = workloads.WORKLOADS["ground-state"]
    reference = workloads.load_reference()["ground-state"]
    kernels = next(j for j in wl.jobs if j.name == "kernels")
    state = wl.setup(0)

    ok = run.run_pass([kernels], state, reference)
    assert ok["jobs"][0]["problems"] == []

    bad = json.loads(json.dumps(reference))
    bad["kernels"]["gap"] += 10 * workloads.ATOL
    failed = run.run_pass([kernels], state, bad)
    assert len(failed["jobs"][0]["problems"]) == 1
    assert "gap" in failed["jobs"][0]["problems"][0]

    only = workloads.Workload("kernels-only", wl.setup, [kernels])
    attempted, n_failed, metrics = run.end_to_end(only, [0.1], [ok, failed])
    assert (attempted, n_failed) == (2, 1)
    assert metrics["passed_frac"]["value"] == 0.5


def test_check_flags_gate_and_shape():
    assert workloads.check({"map_vs_ode": 1e-5}, {}) != []
    assert workloads.check({"map_vs_ode": 1e-9}, {}) == []
    assert workloads.check({"rows": [[1.0, 2.0]]}, {"rows": [[1.0]]}) != []
    assert workloads.check({}, {"E": 1.0}) == ["E: missing"]
    assert workloads.check({"E": float("nan")}, {"E": 1.0}) != []


def test_raising_job_counts_as_failed():
    def boom(state, done):
        raise RuntimeError("boom")

    p = run.run_pass([workloads.Job("j", boom, "result1_s")], {}, {})
    assert "RuntimeError: boom" in p["jobs"][0]["problems"][0]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_self_time_on_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 6.0, 0),
        Span("a.x", 2.0, 2.5, 1),
        Span("a.y", 3.0, 3.5, 1),
        Span("c", 7.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 0.5, 0.5, 2.0])
    agg = aggregate(spans)
    assert agg["root"]["calls"] == 1 and agg["root"]["self_s"] == pytest.approx(4.0)


def test_tracer_records_parents_counts_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        tracer.count("items")
        tracer.count("items")
        return 1

    def outer():
        return traced_leaf() + traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    assert tracer.wrap("outer", outer)() == 2
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("leaf", 0), ("leaf", 0)]
    agg = aggregate(tracer.spans)
    assert agg["leaf"]["sum"]["items"] == 4
    assert agg["leaf"]["max"]["items"] == 2
    # outer: ticks 0..5; leaves 1..2 and 3..4
    assert agg["outer"]["self_s"] == pytest.approx(3.0)


def test_install_patches_by_name_imports_and_uninstall_restores():
    import importlib

    package = {m: importlib.import_module(f"polaronlab.{m}") for m in run.PACKAGE_MODULES}
    original = package["experiments"].solve_discrete_pekar
    original_fft = np.fft.fftn
    tracer = Tracer()
    tracer.install(package, np.fft)
    try:
        assert package["experiments"].solve_discrete_pekar is not original
        grid = package["grid"]
        f = grid.gaussian(grid.Grid3(8, 4.0), 0.5)
        package["pekar"].pekar_energy(f)
    finally:
        tracer.uninstall()
    assert package["experiments"].solve_discrete_pekar is original
    assert np.fft.fftn is original_fft
    agg = aggregate(tracer.spans)
    assert agg["pekar.pekar_energy"]["calls"] == 1
    assert agg["grid.apply_laplacian"]["calls"] == 1
    assert agg["grid.fft"]["calls"] >= 2
    assert agg["grid.fft"]["sum"]["bytes"] > 0


# ---------------------------------------------------------------------------
# the printed result
# ---------------------------------------------------------------------------


def test_metric_names_match_benchmark_json_for_every_workload():
    spec = _spec()
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    # quadratic-oracle stays runnable by name but is not listed (see NOTES.md)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for wl in workloads.WORKLOADS.values():
        fake = {"wall_s": 1.0, "jobs": [
            {"name": j.name, "s": 1.0, "ready_s": 1.0, "problems": []} for j in wl.jobs
        ]}
        _, _, metrics = run.end_to_end(wl, [0.1], [fake])
        assert set(metrics) == e2e, wl.name
    assert set(tracing.layer_metrics({})) | {
        "trace.untraced_s", "trace.overhead_s", "trace.spans"
    } == layer


def test_result_metrics_are_median_ready_times():
    wl = workloads.WORKLOADS["coupled-scan"]
    passes = [
        {"wall_s": w, "jobs": [
            {"name": j.name, "s": 1.0, "ready_s": w * (k + 1) / 4, "problems": []}
            for k, j in enumerate(wl.jobs)
        ]}
        for w in (4.0, 8.0, 6.0)
    ]
    _, _, m = run.end_to_end(wl, [0.1, 0.3, 0.2], passes)
    assert m["wall_s"]["value"] == 6.0 and m["setup_s"]["value"] == 0.2
    assert m["result1_s"]["value"] == 1.5 and m["result2_s"]["value"] == 3.0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_result_line(trace):
    spec = _spec()
    key = "end_to_end" if trace == "0" else "per_layer"
    proc = _run_bench("--workload", "ground-state", "--seed", "3", "--seconds", "0",
                      "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}
    units = {m["name"]: m["unit"] for m in spec[key]}
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name]
    if trace == "1":
        assert result["metrics"]["resolvent.apply.calls"]["value"] == 4 + workloads.N_RANDOM_FIELDS
        assert result["metrics"]["fock.matvec.calls"]["value"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench("--workload", "ground-state", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
