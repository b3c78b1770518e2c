"""adlab benchmark: one workload, end-to-end or traced, with output checks.

    python3 bench/run.py --workload {core,wide,dense,ops} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program is the ``src`` tree next to this
directory.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Times are
reported at nominal host speed (see ``worker.HostSpeed``).  See
bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("core", "wide", "dense", "ops")

# Single-process workloads: native thread pools pinned to one thread, and
# a fixed hash seed so that every process iterates sets of strings alike.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
IMPORTTIME_RUNS = 3
# Every child must end within this many seconds of the start, so that a
# run ends within the 180 s it is allowed.
DEADLINE_S = 170

# sha256 of ``report_to_json(run_core_suite(), drop_timing=True)`` when this
# benchmark was written.  A change that moves it changes the core report
# and must say why.
CORE_DIGEST = "84eb41ff9d9d4582dc617319dd06a3b0e364ec594bb8179725d3be4fb92273f0"
CORE_DIGEST_PROBE = (
    "import hashlib; from adlab.harness import report_to_json, run_core_suite; "
    "print(hashlib.sha256(report_to_json(run_core_suite(), drop_timing=True).encode()).hexdigest())"
)

END_TO_END = (
    ("wall_s", "s"),
    ("eval_p50_ms", "ms"),
    ("eval_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ADLAB_BUDGET"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list, env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run a Python child to completion; past ``deadline`` it is killed and reaped."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args} did not finish within {DEADLINE_S} s of the start") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def import_breakdown(env: dict, deadline: float) -> dict:
    """Cumulative import times of sympy, numpy and adlab from -X importtime."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        err = run_child(["-X", "importtime", "-c", "import adlab"], env, deadline).stderr
        cumulative = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m and m.group(2) in ("sympy", "numpy", "adlab"):
                cumulative.setdefault(m.group(2), int(m.group(1)) / 1e6)
        runs.append(cumulative)
    return {
        f"setup.import.{name}_s": statistics.median(r.get(name, 0.0) for r in runs)
        for name in ("sympy", "numpy", "adlab")
    }


def run_worker(workload: str, seed: int, seconds: float, trace: bool, env: dict,
               deadline: float) -> dict:
    proc = run_child(
        [str(HERE / "worker.py"), workload, str(seed), str(seconds), "1" if trace else "0"],
        env, deadline,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed nothing:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def check_passes(passes: list, want: str) -> tuple[int, int, list]:
    """(attempted, failed, problems) over passes, adding the digest check.

    A pass whose digest is not ``want`` fails all its operations.
    """
    attempted = failed = 0
    problems = []
    for i, p in enumerate(passes):
        attempted += p["ops"]
        if p["digest"] != want:
            failed += p["ops"]
            problems.append(f"pass {i}: digest {p['digest']} != {want}")
        else:
            failed += p["failed"]
        problems += p["errors"]
    return attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adlab" / "__init__.py").is_file():
        print(f"error: no adlab package under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()
    trace = bool(args.trace)
    try:
        imports = import_breakdown(env, deadline) if trace else {}
        started = time.perf_counter()
        child = run_worker(args.workload, args.seed, args.seconds, trace, env, deadline)
        measured_s = time.perf_counter() - started
        passes = child["passes"] + child["traced"]
        want = passes[0]["digest"]
        if args.workload == "core":
            want = CORE_DIGEST
            optimized = run_child(["-O", "-c", CORE_DIGEST_PROBE], env, deadline).stdout.strip()
            passes.append({**passes[0], "digest": optimized, "failed": 0, "errors": []})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems = check_passes(passes, want)
    if trace and not child["counters_repeat"]:
        problems.append("deterministic counters differ between traced passes")

    env_block = {
        **child["versions"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "pinned": PINNED_ENV,
        "passes": len(child["passes"]),
        "traced_passes": len(child["traced"]),
        "setup_runs": child.get("setup_runs", 0),
        "child_s": measured_s,
    }
    ops = passes[0]["ops"]
    print(f"# workload {args.workload}, seed {args.seed}: {ops} operations a pass, "
          f"{len(passes)} passes checked" + (", the last under python -O" if args.workload == "core" else ""))
    print("# env " + json.dumps(env_block, sort_keys=True))

    if trace:
        metrics = {**child["layer_metrics"], **imports}
        for title, key in (("inclusive time", "pairs_by_time"), ("dim_k_exact states", "pairs_by_states")):
            print(f"# slowest (claim, instance) pairs by {title}")
            for claim, instance, value in child[key]:
                print(f"#   {value:>14.6g}  {claim}  {instance}")
        out = {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}
    else:
        out = {name: {"value": child[name], "unit": unit} for name, unit in END_TO_END}
        print("# measured pass times (s): " + " ".join(f"{p['measured_s']:.3f}" for p in child["passes"]))
        print("# the same at nominal host speed: " + " ".join(f"{p['wall_s']:.3f}" for p in child["passes"]))
        for name, unit in END_TO_END:
            note = f"  (p{child['tail_pct']:g} of {ops} operations)" if name == "eval_tail_ms" else ""
            print(f"{name:>14} {child[name]:14.6g} {unit}{note}")
        print(f"{'failed_frac':>14} {failed / attempted:14.6g} ratio  ({failed} of {attempted} operations)")
    for problem in problems[:10]:
        print(f"# FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
