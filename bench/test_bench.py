"""Tests of the benchmark itself: python3 -m pytest -q bench"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import adlab  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _adlab_bindings() -> dict:
    return {
        (modname, name): value
        for modname, module in sys.modules.items()
        if modname == "adlab" or modname.startswith("adlab.")
        for name, value in vars(module).items()
    }


def _small_suite_pass():
    """Exact and budget-truncated dimension searches, with repeats, in about a second."""
    wide = workloads.wide_suite(1).instances
    dense = workloads.dense_suite(1).instances
    suite = workloads.Suite(workloads.SWEEP_CLAIMS, wide[:3] + wide[15:16] + dense[-6:], workloads.SWEEP_BUDGET)
    return lambda tracer=None: worker.suite_pass("small", suite, tracer)


def _small_ops_pass():
    ops = workloads.ops_calls(1)
    return lambda tracer=None: worker.ops_pass(ops, tracer)


def test_tracer_restores_every_name():
    before = _adlab_bindings()
    with Tracer():
        during = _adlab_bindings()
        assert adlab.harness.claims.dim_bounds is not before[("adlab.dissociation", "dim_bounds")]
    after = _adlab_bindings()
    changed = [key for key in before if during[key] is not before[key]]
    assert len(changed) > 100
    assert all(after[key] is before[key] for key in before)
    assert after.keys() == before.keys()


def test_layer_self_times_sum_to_traced_wall():
    for run_pass in (_small_suite_pass(), _small_ops_pass()):
        plain = run_pass()
        traced = worker.traced_pass(run_pass)
        wall = traced["measured_s"]
        total = sum(traced["trace"]["layer_self_s"].values())
        overhead = wall - plain["measured_s"]
        assert -1e-6 <= wall - total <= max(overhead, 0.05 * wall)


def test_counters_repeat_across_traced_runs():
    dims = []
    for run_pass in (_small_suite_pass(), _small_ops_pass()):
        first, second = (worker.traced_pass(run_pass) for _ in range(2))
        assert first["digest"] == second["digest"]
        counters = worker.deterministic_counters(first["trace"])
        assert counters == worker.deterministic_counters(second["trace"])
        assert first["pairs_by_states"] == second["pairs_by_states"]
        dims.append(counters["dissociation.dim_k_exact"])
    assert dims[0]["truncated"] > 0 and dims[0]["repeats"] > 0 and dims[0]["states"] > 0


def test_seed_changes_wide_and_ops_inputs():
    assert workloads.wide_suite(1).instances != workloads.wide_suite(2).instances
    assert workloads.wide_suite(1).instances == workloads.wide_suite(1).instances

    def energies(seed):
        return [op.call().value for op in workloads.ops_calls(seed) if op.name.endswith(".2")]

    assert energies(1) != energies(2)
    assert energies(1) == energies(1)


def test_tail_percentile_leaves_ten_operations_beyond():
    assert worker.tail_percentile(615) == 98.0
    assert worker.tail_percentile(147) == 90.0
    assert worker.tail_percentile(7371) == 99.5


def test_benchmark_json_names_match_what_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_pass = _small_ops_pass()
    traced = worker.layer_metrics([run_pass()], [worker.traced_pass(run_pass)])
    printed = set(traced) | {f"setup.import.{n}_s" for n in ("sympy", "numpy", "adlab")}
    assert {m["name"] for m in spec["per_layer"]} == printed
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert set(run.WORKLOADS) == set(workloads.SUITES) | {"ops"}
    assert {m["name"] for m in spec["workloads"]} <= set(run.WORKLOADS)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "core", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_times_are_scaled_by_the_reference(monkeypatch):
    # A reference twice the nominal time means a host at half speed: every
    # time is reported at half its measured length.
    monkeypatch.setattr(worker, "reference_seconds", lambda: 2 * worker.NOMINAL_REFERENCE_S)
    monkeypatch.setattr(worker, "CALIBRATE_EVERY_S", 0.0)
    ops = workloads.ops_calls(1)[:25]
    result = worker.ops_pass(ops)
    assert result["reference_samples"] == len(ops) + 2
    assert abs(result["wall_s"] - result["measured_s"] / 2) < 1e-9
    assert result["scale"] == 0.5
    assert sum(result["latencies"]) <= result["wall_s"]
