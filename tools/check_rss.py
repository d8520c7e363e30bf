"""Peak RSS, step by step, of one braid_compile round and its check.

    python3 tools/check_rss.py --parent DIR --change DIR --repeats 3 --name NAME

For each repeat, runs one new process per checkout, the side that runs
first alternating, in that checkout with PYTHONPATH set to its src, one
BLAS thread and no bytecode written. The process imports the
checkout's perfbench/workloads.py and walks the braid_compile workload
as perfbench/worker.py does, reading its peak RSS (ru_maxrss, a high
water mark) after each step: start-up, setup, the timed round, then
for each circuit of the round the export and the import that the
check's round trip makes (export_circuit into a StringIO, then
import_circuit of that text), then the whole check. Per step and side
the table keeps the median over the repeats. It goes under
"check_rss" of BENCH_<name>.json in the current directory; the rest of
that file is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """
import io, json, resource, sys
sys.path.insert(0, "perfbench")
import tvq
from workloads import WORKLOADS

steps = []

def step(name):
    steps.append([name, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024])

wl = WORKLOADS["braid_compile"]
data = tvq.fibonacci_data()
step("start")
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
failures = wl.check(inputs, outcomes)
step("check")
print(json.dumps({"steps": steps, "failures": len(failures)}))
"""


def run_once(checkout: Path) -> dict:
    env = {
        **os.environ,
        "PYTHONPATH": str(checkout / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=checkout, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    args = ap.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.repeats):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(sides[side]))
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
        "command": f"python3 tools/check_rss.py --repeats {args.repeats}",
        "what": "median peak RSS (MB, ru_maxrss) after each step of one braid_compile round and its "
        "check, one new process per run, one BLAS thread, first side alternating",
        "check_failures": {side: [r["failures"] for r in got] for side, got in runs.items()},
        "rows": rows,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
