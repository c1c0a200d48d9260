"""monowave benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ns-uniform-2d --seed 9 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  ns-uniform-2d  CLI ns-estimate, uniform measure, m=2, W=4, h=0.05, 50 trials, --threads 2
  mesh-3d        per draw: sample_uniform(3, 512), grid fill at h=0.06 over B(3),
                 labeling, zero-set area, topology, nesting tree
  wave-report    CLI doubling (20 centers) and compare (1000 samples) on one wave,
                 m=2, N=64, R=200, W=2

Every child process (perfbench/child.py) runs with the BLAS and OpenMP pools
pinned to one thread and src/ first on PYTHONPATH. A run starts a few children
that only set up, for the set-up time, then one that sets up and runs the
workload. With --trace 0 that child repeats the workload's operation for
--seconds and checks each output against an independent reference; with
--trace 1 it runs a fixed amount of work untraced, then replays it through the
library's public functions with spans around each call.

Lines before the last are a readable report. The last stdout line is the JSON
result: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics for --trace 0 and the per-layer metrics for --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ns-uniform-2d", "mesh-3d", "wave-report")
SETUP_ONLY_CHILDREN = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",  # child start to first timed call, median over the run's children
    "run_s": "s",  # wall seconds of one operation, median over the run
    "cpu_s": "s",  # user + system CPU seconds of one operation, median over the run
    "peak_rss_mb": "MiB",  # ru_maxrss of the workload child
    "kept_frac": "ratio",  # 1 - excluded_frac: draws that yield a measurement
}

PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one child to completion; returns (monotonic spawn time, its JSON)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("time budget spent before the child could start")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"child timed out after {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return t_spawn, json.loads(lines[-1])


def upper_percentile(values: list[float]) -> str:
    """Highest nearest-rank percentile with at least ten values above it."""
    n = len(values)
    if n <= 10:
        return f"no percentile with ten runs beyond it ({n} runs)"
    k = n - 10
    return f"p{100 * k / n:.0f} {sorted(values)[k - 1]:.6g}"


def end_to_end(setups: list[float], res: dict) -> dict:
    walls = [op["wall"] for op in res["ops"]]
    cpus = [op["cpu"] for op in res["ops"]]
    draws = res["draws"]
    excluded_frac = res["excluded"] / draws if draws else 1.0
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": res["peak_rss_mb"],
        "kept_frac": 1.0 - excluded_frac,
    }


def report(workload: str, seed: int, trace: int, setups: list[float], res: dict) -> None:
    env = res["env"]
    print(f"{workload} seed={seed} trace={trace} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} omp_threads={env['omp_threads']}")
    walls = [op["wall"] for op in res["ops"]]
    if not trace:
        m = end_to_end(setups, res)
        print(f"  setup_s       {m['setup_s']:.6g} s   median of {len(setups)} child starts")
        print(f"  run_s         {m['run_s']:.6g} s   median of {len(walls)} operations; "
              f"{upper_percentile(walls)}")
        print(f"  cpu_s         {m['cpu_s']:.6g} s   median per operation")
        print(f"  peak_rss_mb   {m['peak_rss_mb']:.6g} MiB")
        print(f"  excluded_frac {1.0 - m['kept_frac']:.6g}     "
              f"{res['excluded']} excluded of {res['draws']} draws")
    else:
        for name, val in res["layers"].items():
            print(f"  {name:28s} {val:.6g}")
        for note in res["notes"]:
            print(f"  {note}")
    for i, op in enumerate(res["ops"]):
        if op["error"]:
            print(f"  operation {i} failed: {op['error']}")
    for i, op in enumerate(res.get("replays", [])):
        if op["error"]:
            print(f"  traced replay {i} failed: {op['error']}")
    for problem in res["run_problems"]:
        print(f"  check failed: {problem}")


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metrics_for(trace: int, values: dict, spec: dict) -> dict:
    """Values keyed and united exactly as BENCHMARK.json lists them."""
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    if not trace and any(END_TO_END.get(e["name"]) != e["unit"] for e in entries):
        raise RunError("end-to-end units in BENCHMARK.json differ from run.py's")
    if set(values) != {e["name"] for e in entries}:
        raise RunError("measured metrics do not match BENCHMARK.json: "
                       f"{sorted(set(values) ^ {e['name'] for e in entries})}")
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="monowave benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        print("need --seed >= 0 and 0 < --seconds <= 60", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "monowave" / "__init__.py").is_file():
        print(f"no monowave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        spec = bench_spec()
        setups = []
        for k in range(SETUP_ONLY_CHILDREN):
            t_spawn, res = spawn([*common, "--out", str(work / f"setup{k}"), "--setup-only"],
                                 deadline)
            setups.append(res["ready"] - t_spawn)
        t_spawn, res = spawn([*common, "--seconds", repr(args.seconds), "--trace",
                              str(args.trace), "--out", str(work / "run")], deadline)
        setups.append(res["ready"] - t_spawn)
        values = res["layers"] if args.trace else end_to_end(setups, res)
        metrics = metrics_for(args.trace, values, spec)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    report(args.workload, args.seed, args.trace, setups, res)
    ops = res["ops"] + res.get("replays", [])
    attempted = len(ops)
    failed = sum(1 for op in ops if op["error"])
    if res["run_problems"]:
        failed = attempted  # a run-level check failing condemns every operation
    if not all(math.isfinite(v["value"]) for v in metrics.values()):
        print("a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
