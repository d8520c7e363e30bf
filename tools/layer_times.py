"""CPU time per stage of the braid, per move, in two checkouts.

    python3 tools/layer_times.py --parent DIR --change DIR \
        --distances 16,32,64,128 --repeats 3 --name NAME

For each distance d, each garbage-collector mode (on, and off under
gc.disable()) and each repeat, runs one new process per checkout, the
side that runs first alternating, with PYTHONPATH set to that
checkout's src and one BLAS thread, as perfbench runs it: an idle
OpenBLAS worker spins for a while after numpy's first call, and its
CPU time would land in whichever stage runs then. The process builds
`braid_arena(d)` and times, with time.process_time, the three stages
of the braid: `braid_schedule`, `compile_schedule` and
`run_schedule(None, ...)` (the lattice-only replay). Per stage, side and mode it keeps the median over the
repeats, in seconds and in µs per move (9d² + 6 moves). The table goes
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

STAGES = ("braid_schedule", "compile_schedule", "run_schedule")

CHILD = """
import gc, json, sys, time
from tvq.circuits import compile_schedule
from tvq.gadgets import braid_arena, braid_schedule, run_schedule
d, gc_on = int(sys.argv[1]), sys.argv[2] == "on"
lat, _, anyon = braid_arena(d)
if not gc_on:
    gc.disable()
out = {}
t = time.process_time()
sched = braid_schedule(lat, anyon, 0, steps=6)
out["braid_schedule"] = time.process_time() - t
t = time.process_time()
compile_schedule(lat, sched)
out["compile_schedule"] = time.process_time() - t
t = time.process_time()
run_schedule(None, lat, sched)
out["run_schedule"] = time.process_time() - t
out["moves"] = sched.move_count()
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
                    row[stage][side] = {"cpu_s": round(cpu, 4), "us_per_move": round(cpu / moves * 1e6, 2)}
            print(json.dumps(row), file=sys.stderr)
            rows.append(row)

    path = Path(f"BENCH_{args.name}.json")
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["layers"] = {
        "command": f"python3 tools/layer_times.py --distances {args.distances} --repeats {args.repeats}",
        "what": "median CPU seconds per stage over the repeats, one new process per run with one "
        "BLAS thread; gc off means gc.disable() after the arena is built",
        "rows": rows,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
