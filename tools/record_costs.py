"""Cost of the records that build and compile make per flip, in two checkouts.

    python3 tools/record_costs.py --parent DIR --change DIR --repeats 5 --name NAME

For each checkout, in a new process with PYTHONPATH set to its src, times
with timeit (best of 7 repeats of 20 000 calls each, in µs per call):

- building one gate, `Gate("MCX", (9,), (1, 2, 3), (1, 1, 0))`, through
  the public constructor;
- building one F-move record,
  `MoveRecord(kind=F_MOVE, edge=9, legs=(1, 2, 3, 4), triangles=(5, 6),
  qubits=(9, 1, 2, 3, 4))`;
- one stamped gate: one flip's `circuits._fmove_layers(9, (1, 2, 3, 4))`,
  which compile_schedule calls once per F-move record, divided by the
  seven gates it returns;
- the relabeling check `lattice._relabel` of the d = 16 braid's shear
  rotation (1 680 edges, 1 104 triangles), per call.

Each checkout runs `--repeats` times, the side that runs first
alternating; per row and side the table keeps the median over the
repeats. The rows go under "records" of BENCH_<name>.json in the current
directory; the rest of that file is kept.
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
import json, timeit
from tvq.circuits import Gate, _fmove_layers
from tvq.gadgets import braid_arena, braid_schedule
from tvq.lattice import F_MOVE, MoveRecord, _relabel, replay_moves

def best(call, number=20000):
    return min(timeit.repeat(call, number=number, repeat=7)) / number * 1e6

lat, _, anyon = braid_arena(16)
flips, rotation = braid_schedule(lat, anyon, 0, steps=6).groups[:2]
flipped = replay_moves(lat, flips.records())
(rec,) = rotation.records()
assert len(_fmove_layers(9, (1, 2, 3, 4))) == 7
print(json.dumps({
    "gate_us": best(lambda: Gate("MCX", (9,), (1, 2, 3), (1, 1, 0))),
    "fmove_record_us": best(
        lambda: MoveRecord(kind=F_MOVE, edge=9, legs=(1, 2, 3, 4), triangles=(5, 6), qubits=(9, 1, 2, 3, 4))
    ),
    "stamped_gate_us": best(lambda: _fmove_layers(9, (1, 2, 3, 4))) / 7,
    "relabel_d16_us": best(lambda: _relabel(flipped, rotation.target, rec.vmap), number=50),
}))
"""


def run_once(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    args = ap.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.repeats):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(sides[side]))
    table = {}
    for row in runs["parent"][0]:
        table[row] = {side: round(statistics.median(r[row] for r in got), 3) for side, got in runs.items()}
        table[row]["change_over_parent"] = round(table[row]["change"] / table[row]["parent"], 3)
        print(row, json.dumps(table[row]))

    path = Path(f"BENCH_{args.name}.json")
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["records"] = {"repeats": args.repeats, "rows": table}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
