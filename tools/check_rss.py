"""Peak RSS, step by step, of one benchmark round and its check.

    python3 tools/check_rss.py --parent DIR --change DIR --repeats 3 --name NAME \
        [--workload braid_compile|state_loop]

For each repeat, runs one new process per checkout, the side that runs
first alternating, in that checkout with PYTHONPATH set to its src, one
BLAS thread and no bytecode written. The process imports the
checkout's perfbench/workloads.py and walks the workload at seed 1 as
perfbench/worker.py does, reading its peak RSS (ru_maxrss, a high water
mark) after each step:

- braid_compile: start-up, setup, the timed round, then for each
  circuit of the round the export and the import that the check's round
  trip makes (export_circuit into a StringIO, then import_circuit of
  that text), then the whole check;
- state_loop: start-up, setup, the braid leg, each F-move of the
  baseline leg (with the size of its result), the baseline leg, then
  the check. The walk wraps tvq.baseline_schedule, which the workload
  calls once the braid leg is done, and gadgets.apply_fmove, which
  run_schedule calls for each F-move.

Per step and side the table keeps the median over the repeats. It goes
under "check_rss" of BENCH_<name>.json in the current directory; the
rest of that file is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PRELUDE = """
import io, json, resource, sys
sys.path.insert(0, "perfbench")
import tvq
from workloads import WORKLOADS

steps = []

def step(name):
    steps.append([name, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024])

data = tvq.fibonacci_data()
step("start")
"""

WALKS = {
    "braid_compile": """
wl = WORKLOADS["braid_compile"]
inputs = wl.setup(1, data)
step("setup")
outcomes = wl.run(inputs, data)
step("round")
for label, (sched, circ), err in outcomes:
    text = tvq.export_circuit(circ, io.StringIO())
    step("export " + label)
    back = tvq.import_circuit(io.StringIO(text))
    step("import " + label)
    del text, back
""",
    "state_loop": """
import tvq.gadgets as gadgets

wl = WORKLOADS["state_loop"]
inputs = wl.setup(1, data)
step("setup")
baseline_schedule, apply_fmove = tvq.baseline_schedule, gadgets.apply_fmove
moves = []

def fmove(*args, **kwargs):
    got = apply_fmove(*args, **kwargs)
    moves.append(got[0].nnz())
    step(f"baseline F-move {len(moves)} ({moves[-1]} configs)")
    return got

def back_leg(*args, **kwargs):
    step("braid leg")
    gadgets.apply_fmove = fmove
    return baseline_schedule(*args, **kwargs)

tvq.baseline_schedule = back_leg
outcomes = wl.run(inputs, data)
step("baseline leg")
""",
}

CHECK = """
failures = wl.check(inputs, outcomes)
step("check")
print(json.dumps({"steps": steps, "failures": len(failures)}))
"""


def run_once(checkout: Path, workload: str) -> dict:
    env = {
        **os.environ,
        "PYTHONPATH": str(checkout / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }
    child = PRELUDE + WALKS[workload] + CHECK
    proc = subprocess.run(
        [sys.executable, "-c", child], cwd=checkout, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--workload", choices=sorted(WALKS), default="braid_compile")
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    args = ap.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.repeats):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(sides[side], args.workload))
    names = [name for name, _ in runs["parent"][0]["steps"]]
    rows = [
        {
            "step": name,
            **{
                side: round(statistics.median(r["steps"][k][1] for r in got), 1)
                for side, got in runs.items()
            },
        }
        for k, name in enumerate(names)
    ]
    for row in rows:
        print(json.dumps(row), file=sys.stderr)

    path = Path(f"BENCH_{args.name}.json")
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["check_rss"] = {
        "command": f"python3 tools/check_rss.py --workload {args.workload} --repeats {args.repeats}",
        "what": f"median peak RSS (MB, ru_maxrss) after each step of one {args.workload} round (seed 1) "
        "and its check, one new process per run, one BLAS thread, first side alternating",
        "check_failures": {side: [r["failures"] for r in got] for side, got in runs.items()},
        "rows": rows,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
