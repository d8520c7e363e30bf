"""One benchmark round in a fresh process: set up, run, check.

    python3 perfbench/worker.py --workload NAME --seed N [--spawned-at T]
        [--setup-only] [--trace PATH]

T is CLOCK_MONOTONIC when the parent started this process, so setup_s
covers interpreter start, imports, fibonacci_data() and the inputs.
Prints one JSON line: the timings, the failed checks ("failures", empty
when every expected value matched) and what the checker said about a
copy of the result with one fault put in ("mutant_rejected").
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)
ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, default=None, help="default: when this script started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans here and report per-layer metrics")
    args = ap.parse_args()
    if args.spawned_at is None:
        args.spawned_at = STARTED

    sys.path.insert(0, str(ROOT / "src"))
    import tvq

    if not Path(tvq.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"tvq was imported from {tvq.__file__}, not from this checkout's src/")
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    data = tvq.fibonacci_data()
    inputs = wl.setup(args.seed, data)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer:
        tracer.enabled = True
    start, cpu_start = time.perf_counter(), time.process_time()
    outcomes = wl.run(inputs, data)
    wall_s, cpu_s = time.perf_counter() - start, time.process_time() - cpu_start
    if tracer:
        tracer.enabled = False

    failures = wl.check(inputs, outcomes)
    # the checker must reject a copy of this round's result with one fault put in
    rejected = [] if failures else wl.check(inputs, wl.mutate(outcomes))
    if not failures and not rejected:
        failures.append(("checker", "accepted a deliberately wrong result"))
    failed_labels = {label for label, _ in failures}
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ops": wl.OPS,
        "failed": min(wl.OPS, len(failed_labels)),
        "work": wl.WORK,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": [f"{label}: {msg}" for label, msg in failures],
        "mutant_rejected": [f"{label}: {msg}" for label, msg in rejected],
    }
    if hasattr(wl, "diagnostics"):
        result["diagnostics"] = wl.diagnostics(outcomes)
    if tracer:
        layers = tracer.layer_metrics()
        for name, want in wl.EXPECTED_CALLS.items():
            if layers[f"{name}.calls"] != want:
                result["failures"].append(f"trace: {name}.calls is {layers[name + '.calls']}, expected {want}")
        result["layers"] = layers
        tracer.write(args.trace, start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
