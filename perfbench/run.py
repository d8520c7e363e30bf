"""Benchmark entry point for the tvq package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is braid_compile, error_stretch, state_loop, code_space or all.
Every round runs in a fresh process (worker.py), so module caches start
cold as in every tvq invocation. Rounds repeat until S seconds have
passed; each round does the same operations and checks its outputs.

--trace 0 first starts SETUP_PROBES processes that only set up, then
the rounds, and reports the end-to-end metrics: setup_s (median over
probes and rounds), cpu_s (median round), work_per_cpu_s and
peak_rss_mb. The rounds' wall times go to stderr.
--trace 1 runs one untraced round and then traced rounds, and reports
the per-layer metrics (medians over traced rounds) and the tracing
overhead. The last line of stdout is one JSON object; the exit status
is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("braid_compile", "error_stretch", "state_loop", "code_space")
SETUP_PROBES = 5
ROUND_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    """A worker process died without reporting a result."""


def spawn(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    # One BLAS thread: on code_space a second one nearly doubled cpu_s for
    # a tenth less wall time, and its share moved cpu_s 9 % between runs.
    # No bytecode cache: every worker compiles tvq from source, so setup_s
    # does not depend on what earlier runs left in the checkout.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at), *extra],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rounds_until(deadline: float, workload: str, seed: int, *extra: str) -> list[dict]:
    """At least one round, then more until the deadline has passed."""
    out = [spawn(workload, seed, *extra)]
    while time.monotonic() < deadline:
        out.append(spawn(workload, seed, *extra))
    return out


def summarize(rounds: list[dict]) -> tuple[bool, int, int]:
    failures = [f for r in rounds for f in r["failures"]]
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return not failures, sum(r["ops"] for r in rounds), sum(r["failed"] for r in rounds)


def measure(workload: str, seed: int, seconds: float) -> dict:
    setups = [spawn(workload, seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    rounds = rounds_until(time.monotonic() + seconds, workload, seed)
    correct, attempted, failed = summarize(rounds)
    cpus = [r["cpu_s"] for r in rounds]
    metrics = {
        "setup_s": (statistics.median(setups + [r["setup_s"] for r in rounds]), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "work_per_cpu_s": (sum(r["work"] for r in rounds) / sum(cpus), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    # wall time moves with the steal time of a shared VM, so it is shown, not gated
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in rounds)
    print(f"{workload}: wall_s of the rounds: {walls}", file=sys.stderr)
    for r in rounds:
        if r.get("diagnostics"):
            print(f"{workload} (not gated): {json.dumps(r['diagnostics'])}", file=sys.stderr)
    return result(correct, attempted, failed, metrics)


def trace(workload: str, seed: int, seconds: float) -> dict:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    deadline = time.monotonic() + seconds
    plain = spawn(workload, seed)
    path = out_dir / f"trace-{workload}-{seed}.jsonl"
    traced = rounds_until(deadline, workload, seed, "--trace", str(path))
    correct, attempted, failed = summarize([plain] + traced)
    layers = {}
    for name, unit in metric_units().items():
        if name != "trace.overhead_s":
            layers[name] = (statistics.median(r["layers"][name] for r in traced), unit)
    overhead = statistics.median(r["cpu_s"] for r in traced) - plain["cpu_s"]
    layers["trace.overhead_s"] = (overhead, "s")
    return result(correct, attempted, failed, layers)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    run_one = trace if args.trace else measure
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name, res in results.items():
            print(name, json.dumps(res))
        final = result(
            all(r["correct"] for r in results.values()),
            sum(r["attempted"] for r in results.values()),
            sum(r["failed"] for r in results.values()),
            {},
        )
        final["metrics"] = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
