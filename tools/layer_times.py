"""CPU time per stage of the braid, per move, in two checkouts.

    python3 tools/layer_times.py --parent DIR --change DIR \
        --distances 16,32,64,128,256 --repeats 3 --name NAME

For each distance d, each garbage-collector mode (on, and off under
gc.disable()) and each repeat, runs one new process per checkout, the
side that runs first alternating, with PYTHONPATH set to that
checkout's src and one BLAS thread, as perfbench runs it: an idle
OpenBLAS worker spins for a while after numpy's first call, and its
CPU time would land in whichever stage runs then. The process builds
`braid_arena(d)` and times, with time.process_time, the four stages
of the braid: `braid_schedule`, `compile_schedule`,
`run_schedule(None, ...)` (the lattice-only replay) and
`export_circuit` of the compiled circuit to os.devnull. Per stage it
also counts the garbage collections that started (a gc.callbacks hook)
and reads its own peak RSS (ru_maxrss) when the stage returns.
After the stages it times one gc.collect(), so that collection work a
stage defers past its return shows, and it reads its own peak RSS
at the end. Collections that start between the stages are counted and
timed apart: a stage that pauses the collector leaves a young
collection due at the first allocation after it returns. Per stage,
side and mode the table keeps the median CPU time over the repeats, in
seconds and in µs per move (9d² + 6 moves), the most collections any
repeat started and the highest peak RSS at the stage's return; per
side and mode, the most collections started between the stages and the
median CPU time they took, the median gc.collect() time and the
highest peak RSS. The table goes
under "layers" of BENCH_<name>.json in the current directory; the rest
of that file is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

STAGES = ("braid_schedule", "compile_schedule", "run_schedule", "export_circuit")

CHILD = """
import gc, json, os, resource, sys, time
from tvq.circuits import compile_schedule, export_circuit
from tvq.gadgets import braid_arena, braid_schedule, run_schedule
d, gc_on = int(sys.argv[1]), sys.argv[2] == "on"
lat, _, anyon = braid_arena(d)
if not gc_on:
    gc.disable()
# collections started since the arena was built, and their CPU time
gcs = {"started": 0, "cpu_s": 0.0, "since": 0.0}

def count(phase, info):
    now = time.process_time()
    if phase == "start":
        gcs["started"] += 1
        gcs["since"] = now
    else:
        gcs["cpu_s"] += now - gcs["since"]

gc.callbacks.append(count)
out = {}
inside = {"started": 0, "cpu_s": 0.0}

def stage(name, call):
    # no tracked allocation between the call and these reads, so a
    # collection the call leaves due runs after them
    started, cpu_s = gcs["started"], gcs["cpu_s"]
    t = time.process_time()
    result = call()
    out[name] = time.process_time() - t
    out[name + "_collections"] = gcs["started"] - started
    inside["started"] += gcs["started"] - started
    inside["cpu_s"] += gcs["cpu_s"] - cpu_s
    # getrusage allocates a tracked object, so it reads after the counts
    out[name + "_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result

sched = stage("braid_schedule", lambda: braid_schedule(lat, anyon, 0, steps=6))
circ = stage("compile_schedule", lambda: compile_schedule(lat, sched))
stage("run_schedule", lambda: run_schedule(None, lat, sched))
stage("export_circuit", lambda: export_circuit(circ, os.devnull))
# a stage that pauses the collector leaves a young collection due at the
# first allocation after it returns, outside every timed stage; counting
# the moves allocates, so the last stage's has run by the reads below
out["moves"] = sched.move_count()
out["between_collections"] = gcs["started"] - inside["started"]
out["between_collect"] = gcs["cpu_s"] - inside["cpu_s"]
t = time.process_time()
gc.collect()
out["final_collect"] = time.process_time() - t
out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(out))
"""


def run_once(checkout: Path, d: int, gc_mode: str) -> dict:
    env = {
        **os.environ,
        "PYTHONPATH": str(checkout / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(d), gc_mode], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--distances", default="16,32,64,128", help="comma list of even distances")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    args = ap.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rows, i = [], 0
    for d in [int(x) for x in args.distances.split(",")]:
        for gc_mode in ("on", "off"):
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for _ in range(args.repeats):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                i += 1
                for side in order:
                    runs[side].append(run_once(sides[side], d, gc_mode))
            moves = runs["parent"][0]["moves"]
            row = {"d": d, "gc": gc_mode, "moves": moves}
            for stage in STAGES:
                row[stage] = {}
                for side, got in runs.items():
                    cpu = statistics.median(r[stage] for r in got)
                    row[stage][side] = {
                        "cpu_s": round(cpu, 4),
                        "us_per_move": round(cpu / moves * 1e6, 2),
                        "collections": max(r[stage + "_collections"] for r in got),
                        "peak_rss_mb": round(max(r[stage + "_rss_mb"] for r in got), 1),
                    }
            for side, got in runs.items():
                row[side] = {
                    "between_collections": max(r["between_collections"] for r in got),
                    "between_collect_s": round(statistics.median(r["between_collect"] for r in got), 4),
                    "final_collect_s": round(statistics.median(r["final_collect"] for r in got), 4),
                    "peak_rss_mb": round(max(r["peak_rss_mb"] for r in got), 1),
                }
            print(json.dumps(row), file=sys.stderr)
            rows.append(row)

    path = Path(f"BENCH_{args.name}.json")
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["layers"] = {
        "command": f"python3 tools/layer_times.py --distances {args.distances} --repeats {args.repeats}",
        "what": "median CPU seconds per stage over the repeats, one new process per run with one "
        "BLAS thread; gc off means gc.disable() after the arena is built; collections is the most "
        "garbage collections any repeat started during the stage; per side, between_collections and "
        "between_collect_s are the collections started outside the timed stages (most over the "
        "repeats) and their median CPU time (gc.callbacks start to stop), final_collect_s is the "
        "median CPU time of one gc.collect() after the four stages and peak_rss_mb the highest "
        "ru_maxrss of the runs; a stage's peak_rss_mb is the highest ru_maxrss read as it returned",
        "rows": rows,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
