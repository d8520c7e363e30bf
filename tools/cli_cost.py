"""CPU time and peak RSS of tvq CLI commands, in two checkouts.

    python3 tools/cli_cost.py --parent DIR --change DIR --repeats 3 \
        --name NAME "compile --distance 64 --out circ.json" ...

For each command and repeat, runs `python -m tvq.cli COMMAND` once per
checkout, the side that runs first alternating, in a new empty working
directory, with PYTHONPATH set to that checkout's src, one BLAS thread
and no bytecode written; stdout and stderr are discarded. The child's
user plus system CPU seconds and its peak RSS come from os.wait4, so
they cover the whole process: interpreter start-up, the command and
the writing of its output. Per command and side the table keeps the
median CPU seconds over the repeats, the highest peak RSS and the exit
statuses. It goes under "cli" of BENCH_<name>.json in the current
directory; the rest of that file is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_once(checkout: Path, command: str) -> dict:
    env = {
        **os.environ,
        "PYTHONPATH": str(checkout / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.Popen(
            [sys.executable, "-m", "tvq.cli", *command.split()],
            cwd=cwd,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "status": proc.returncode,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    ap.add_argument("commands", nargs="+", help="tvq CLI arguments, one quoted string per command")
    args = ap.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rows, i = [], 0
    for command in args.commands:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for _ in range(args.repeats):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            i += 1
            for side in order:
                runs[side].append(run_once(sides[side], command))
        row = {"command": f"tvq {command}"}
        for side, got in runs.items():
            row[side] = {
                "cpu_s": round(statistics.median(r["cpu_s"] for r in got), 3),
                "peak_rss_mb": round(max(r["peak_rss_mb"] for r in got), 1),
                "statuses": sorted({r["status"] for r in got}),
            }
        print(json.dumps(row), file=sys.stderr)
        rows.append(row)

    path = Path(f"BENCH_{args.name}.json")
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["cli"] = {
        "command": f"python3 tools/cli_cost.py --repeats {args.repeats}",
        "what": "median CPU seconds (user + system, os.wait4) over the repeats and the highest peak RSS "
        "of one `python -m tvq.cli` process per run, one BLAS thread, first side alternating",
        "rows": rows,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
