"""Child process of the benchmark: runs one workload's passes, prints JSON.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE

``bench/run.py`` starts it with ``src`` on PYTHONPATH and thread counts
pinned.  It runs whole passes of the workload, at least one, and stops
when one more would run past SECONDS.  With TRACE = 0 it also times a
fresh-interpreter ``import adlab`` seven times, spread over the run
between passes.  With TRACE = 1 untraced and traced passes alternate
instead, so that the tracing overhead is measured in the same process.
Times are reported at nominal host speed (see ``HostSpeed``).  Every pass
starts with ``clear_caches()``, as every CLI run starts cold.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Optional

import numpy
import sympy

from adlab.harness import clear_caches, report_to_json, runner
from adlab.records import canonical, stable_dumps

import workloads
from tracer import LAYERS, Tracer

TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
MAX_ERRORS = 5
# Fresh-interpreter imports are timed this many times a run, between
# passes and spread evenly over the run.
SETUP_RUNS = 7

# (layer, function, fields) reported by the traced run; fields ending in
# _frac are ratios whose base is the function's call count.
TRACED_FUNCTIONS = (
    ("dissociation", "dim_k_exact", ("calls", "incl_s", "states", "truncated_frac", "repeat_frac")),
    ("dissociation", "d_k_exact", ("calls", "incl_s", "states")),
    ("dissociation", "span_k", ("calls", "incl_s")),
    ("dissociation", "max_dissociated_greedy", ("calls", "incl_s")),
    ("dissociation", "dim_bounds", ("calls", "incl_s")),
    ("dissociation", "is_k_dissociated", ("calls", "incl_s")),
    ("harness", "evaluate_claim", ("calls", "incl_s")),
    ("groundset", "sumset", ("calls", "incl_s", "out_elems")),
    ("groundset", "rep_fn", ("calls", "incl_s", "support")),
    ("groundset", "mult_embed", ("calls", "incl_s")),
    ("energy", "t_k", ("calls", "incl_s")),
    ("energy", "additive_energy", ("calls", "incl_s")),
    ("energy", "dim_alpha_k", ("calls", "incl_s")),
    ("modular", "dirichlet_min", ("calls", "incl_s", "q_evals")),
    ("modular", "verify_dirichlet_dim", ("incl_s",)),
    ("modular", "subgroup_growth_experiment", ("incl_s",)),
    ("growth", "verify_growth_bounds", ("incl_s",)),
    ("growth", "growth_sequence", ("incl_s",)),
    ("growth", "polynomial_growth_fit", ("incl_s",)),
    ("growth", "dim_shift_ratio", ("incl_s",)),
    ("decompose", "dec_tk", ("incl_s",)),
    ("decompose", "ratio_box", ("incl_s",)),
    ("decompose", "sidon_extract", ("incl_s",)),
    ("decompose", "dissociated_peeling", ("incl_s",)),
    ("decompose", "bsg_asymmetric", ("incl_s",)),
)
FRAC_BASES = {"truncated_frac": "truncated", "repeat_frac": "repeats"}
SLOWEST_PAIRS = 10

# Host-speed calibration.  Other tenants of a shared machine slow every
# process on it, by up to 2x for minutes at a time, and CPU time slows
# with wall time.  A fixed slice of reference work, timed between
# operations at most every CALIBRATE_EVERY_S, measures how fast the host
# runs at that moment.  Every stretch of time between two samples is
# reported at nominal host speed: scaled by NOMINAL_REFERENCE_S over the
# mean of the reference's times at its two ends.
CALIBRATE_EVERY_S = 0.2
NOMINAL_REFERENCE_S = 0.003
_REFERENCE_BITS = (1 << 2_000_000) - 987_654_321


def tail_percentile(n_ops: int) -> float:
    """The highest ladder percentile that leaves >= 10 operations beyond it."""
    for p in TAIL_LADDER:
        if n_ops * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def reference_seconds() -> float:
    """Time of a fixed slice of interpreted and big-integer work.

    adlab spends its time in interpreted loops and in shifts and ors of
    bitsets held as Python integers; the slice does a little of both.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    for shift in range(1, 4):
        ((_REFERENCE_BITS << shift) | _REFERENCE_BITS).bit_count()
    return time.perf_counter() - start


class HostSpeed:
    """Reference samples of one pass and the stretches of time between them.

    A pass starts and ends with ``sample()``; ``tick()`` before each
    operation samples again when the last sample is CALIBRATE_EVERY_S old.
    Operations never straddle a sample, so operation i lies in stretch
    ``stretch_of[i]``; time spent sampling lies in none.  In a traced pass
    it lies in no layer's self time either.
    """

    def __init__(self, tracer: Optional[Tracer] = None):
        self.refs: list = []
        self.stretches: list = []
        self._end = 0.0
        self._tracer = tracer

    def sample(self) -> None:
        now = time.perf_counter()
        if self.refs:
            self.stretches.append(now - self._end)
        self.refs.append(reference_seconds())
        self._end = time.perf_counter()
        if self._tracer is not None:
            self._tracer.exclude(self._end - now)

    def tick(self) -> int:
        """Sample if due; return the number of the stretch the next operation lies in."""
        if time.perf_counter() - self._end >= CALIBRATE_EVERY_S:
            self.sample()
        return len(self.refs) - 1

    def scales(self) -> list:
        """Nominal seconds per measured second, one per stretch."""
        return [2 * NOMINAL_REFERENCE_S / (a + b) for a, b in zip(self.refs, self.refs[1:])]


class _TimedClaims:
    """Stands in for ``runner.evaluate_claim``: times each call, counts failures.

    An escaped exception or a hard violation fails the operation; the
    exception is swallowed so that the rest of the pass still runs.
    """

    def __init__(self, inner, speed: HostSpeed):
        self.inner = inner
        self.speed = speed
        self.latencies: list = []
        self.stretch_of: list = []
        self.failed = 0
        self.errors: list = []

    def __call__(self, claim_id, a, instance, budget=None):
        self.stretch_of.append(self.speed.tick())
        start = time.perf_counter()
        try:
            records = self.inner(claim_id, a, instance, budget=budget)
        except Exception as exc:  # reported as a failed operation
            records = None
            self.errors.append(f"{claim_id} on {instance.get('label')}: {exc!r}")
        self.latencies.append(time.perf_counter() - start)
        if records is None:
            self.failed += 1
            return []
        hard = [r for r in records if r.violated and r.klass == "hard"]
        if hard:
            self.failed += 1
            self.errors.append(f"{claim_id} on {instance.get('label')}: {hard[0].note}")
        return records


def suite_pass(name: str, suite, tracer: Optional[Tracer] = None) -> dict:
    speed = HostSpeed(tracer)
    hook = _TimedClaims(runner.evaluate_claim, speed)
    runner.evaluate_claim = hook
    try:
        gc.collect()
        clear_caches()
        speed.sample()
        report = runner.run_suite(suite.claims, suite.instances, budget=suite.budget, name=name)
        speed.sample()
    finally:
        runner.evaluate_claim = hook.inner
    digest = hashlib.sha256(report_to_json(report, drop_timing=True).encode()).hexdigest()
    return _summary(speed, hook.latencies, hook.stretch_of, hook.failed, hook.errors, digest)


def ops_pass(ops: list, tracer: Optional[Tracer] = None) -> dict:
    results: dict = {}
    latencies: list = []
    stretch_of: list = []
    errors: list = []
    failed = set()
    speed = HostSpeed(tracer)
    gc.collect()
    clear_caches()
    speed.sample()
    for op in ops:
        stretch_of.append(speed.tick())
        t0 = time.perf_counter()
        try:
            results[op.name] = op.call()
        except Exception as exc:  # reported as a failed operation
            failed.add(op.name)
            errors.append(f"{op.name}: {exc!r}")
        latencies.append(time.perf_counter() - t0)
    speed.sample()
    for op in ops:
        if op.check is None or op.name not in results:
            continue
        problem = op.check(results[op.name], results)
        if problem:
            failed.add(op.name)
            errors.append(f"{op.name}: {problem}")
    body = stable_dumps([[op.name, canonical(results.get(op.name))] for op in ops])
    digest = hashlib.sha256(body.encode()).hexdigest()
    return _summary(speed, latencies, stretch_of, len(failed), errors, digest)


def _summary(speed: HostSpeed, latencies: list, stretch_of: list, failed: int, errors: list,
             digest: str) -> dict:
    """One pass: its times at nominal host speed, and the measured wall time."""
    scales = speed.scales()
    measured = sum(speed.stretches)
    wall = sum(t * k for t, k in zip(speed.stretches, scales))
    return {
        "wall_s": wall,
        "measured_s": measured,
        "scale": wall / measured,
        "reference_samples": len(speed.refs),
        "ops": len(latencies),
        "latencies": [t * scales[i] for t, i in zip(latencies, stretch_of)],
        "failed": failed,
        "errors": errors[:MAX_ERRORS],
        "digest": digest,
    }


def timing_metrics(passes: list) -> dict:
    """wall_s and the latency percentiles: medians over passes, at nominal host speed.

    ``wall_s`` is the median of the passes' calibrated times.  Passes run
    the same operations in the same order from the same cold caches, so
    operation i of one pass repeats operation i of every other; the
    percentiles are taken over each operation's median calibrated latency.
    """
    per_op = [statistics.median(ts) for ts in zip(*(p["latencies"] for p in passes))]
    tail = tail_percentile(len(per_op))
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "eval_p50_ms": 1000 * statistics.median(per_op),
        "eval_tail_ms": 1000 * percentile(per_op, tail),
        "tail_pct": tail,
    }


def setup_seconds() -> float:
    """Calibrated time of ``import adlab`` in a fresh interpreter.

    The reference is sampled just before and just after the import.
    """
    probe = "import time; t = time.perf_counter(); import adlab; print(time.perf_counter() - t)"
    speed = HostSpeed()
    speed.sample()
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    speed.sample()
    return float(out.stdout) * speed.scales()[0]


def make_pass(workload: str, seed: int):
    """A callable that runs one pass of the workload, given the tracer if it is traced."""
    if workload == "ops":
        ops = workloads.ops_calls(seed)
        return lambda tracer=None: ops_pass(ops, tracer)
    suite = workloads.SUITES[workload](seed)
    return lambda tracer=None: suite_pass(workload, suite, tracer)


def traced_pass(run_pass) -> dict:
    tracer = Tracer()
    with tracer:
        result = run_pass(tracer)
    snap = tracer.snapshot()
    result["trace"] = snap
    result["pairs_by_time"] = _top(tracer.pair_incl)
    result["pairs_by_states"] = _top(tracer.pair_states)
    return result


def _top(table: dict) -> list:
    ranked = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))[:SLOWEST_PAIRS]
    return [[claim, instance, value] for (claim, instance), value in ranked]


def deterministic_counters(snap: dict) -> dict:
    """Every counter of a trace snapshot except times."""
    return {
        key: {k: v for k, v in fields.items() if k != "incl_s"}
        for key, fields in snap["functions"].items()
    }


def layer_metrics(untraced: list, traced: list) -> dict:
    """Per-layer metrics: times are calibrated medians over traced passes, counts from the first.

    Untraced and traced passes alternate; the tracing overhead is the median
    over those pairs of the traced pass's calibrated time over the untraced
    one's, minus 1.
    """
    first = traced[0]["trace"]["functions"]
    out = {}
    for layer in dict.fromkeys(LAYERS.values()):
        out[f"{layer}.self_s"] = statistics.median(
            p["trace"]["layer_self_s"].get(layer, 0.0) * p["scale"] for p in traced
        )
    for layer, fn, fields in TRACED_FUNCTIONS:
        key = f"{layer}.{fn}"
        stats = first[key]
        for field in fields:
            if field == "incl_s":
                value = statistics.median(
                    p["trace"]["functions"][key]["incl_s"] * p["scale"] for p in traced
                )
            elif field in FRAC_BASES:
                value = stats.get(FRAC_BASES[field], 0) / stats["calls"] if stats["calls"] else 0.0
            else:
                value = stats.get(field, 0)
            out[f"{key}.{field}"] = value
    claims = first["harness.evaluate_claim"]
    out["harness.budget_skip_frac"] = (
        claims.get("budget_skips", 0) / claims["calls"] if claims["calls"] else 0.0
    )
    out["trace.overhead_frac"] = statistics.median(
        t["wall_s"] / u["wall_s"] - 1
        for u, t in zip(untraced, traced)
    )
    return out


def main(argv: list) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    run_pass = make_pass(workload, seed)
    untraced: list = []
    traced: list = []
    setup: list = []
    started = time.perf_counter()
    while True:
        untraced.append(run_pass())
        if trace:
            traced.append(traced_pass(run_pass))
        elapsed = time.perf_counter() - started
        while not trace and len(setup) < min(SETUP_RUNS, SETUP_RUNS * elapsed / max(seconds, 1e-9)):
            setup.append(setup_seconds())
        # Stop when one more round would run past the measuring time.
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            break
    while not trace and len(setup) < SETUP_RUNS:
        setup.append(setup_seconds())
    out = {
        "workload": workload,
        **timing_metrics(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "sympy": sympy.__version__,
        },
    }
    if setup:
        out["setup_s"] = statistics.median(setup)
        out["setup_runs"] = len(setup)
    if trace:
        counters = [deterministic_counters(p["trace"]) for p in traced]
        out["counters_repeat"] = all(c == counters[0] for c in counters)
        out["layer_metrics"] = layer_metrics(untraced, traced)
        out["pairs_by_time"] = traced[0]["pairs_by_time"]
        out["pairs_by_states"] = traced[0]["pairs_by_states"]
    drop = ("latencies", "trace", "pairs_by_time", "pairs_by_states")
    out["passes"] = [{k: v for k, v in p.items() if k not in drop} for p in untraced]
    out["traced"] = [{k: v for k, v in p.items() if k not in drop} for p in traced]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
