"""Paired benchmark runs of two checkouts: the parent commit and a change.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --seeds 401-410 --name NAME

For each seed, runs `perfbench/run.py --workload NAME --seed SEED` once
in each checkout, one process at a time, with the side that runs first
alternating (the parent first on the first seed); the run length is the
benchmark's own. Each run's result is the last line of its stdout. The
pairs, and per end-to-end metric each side's median and quartiles, the
pairs the change wins and the gap between the medians over the parent's
interquartile range, go under workloads.NAME of BENCH_<name>.json in the
current directory; other workloads already in that file are kept.
Metric directions, units and bounds are read from the parent's
BENCHMARK.json. A run that prints no result is kept with its exit status
and the tail of its stderr, and its pair is a win for neither side.

Each checkout's commit (`git rev-parse HEAD`) and whether its src/ has
uncommitted changes (`git status --porcelain -- src` not empty) go under
the workload's checkouts.parent and checkouts.change, both null when
the checkout is not the top of a git work tree, so the file can be
traced to the code it measured.

Bytecode would make one side import faster than the other: before the
series, every __pycache__ directory under each checkout's src/ is
deleted, and the runs do not write new ones (PYTHONDONTWRITEBYTECODE).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def clean_bytecode(checkout: Path) -> None:
    for cache in sorted((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
        print(f"deleted {cache}", file=sys.stderr)


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"exit": proc.returncode, "stderr_tail": proc.stderr[-2000:]}


def git_state(checkout: Path) -> dict:
    """The checkout's commit and whether src/ differs from it, or nulls
    when the checkout is not the top of a git work tree."""

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)

    top = git("rev-parse", "--show-toplevel")
    if top.returncode or Path(top.stdout.strip()).resolve() != checkout.resolve():
        return {"head": None, "src_dirty": None}
    head = git("rev-parse", "HEAD").stdout.strip() or None
    return {"head": head, "src_dirty": bool(git("status", "--porcelain", "--", "src").stdout.strip())}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def value(result: dict, name: str) -> float | None:
    return result.get("metrics", {}).get(name, {}).get("value")


def summarize(pairs: list[dict], specs: dict[str, dict]) -> dict:
    out = {}
    for name, spec in specs.items():
        got = [(value(p["parent"], name), value(p["change"], name)) for p in pairs]
        if all(a is None and b is None for a, b in got):
            continue
        lower = spec["better"] == "lower"
        wins = sum(1 for a, b in got if a is not None and b is not None and a != b and (b < a) == lower)
        entry = {
            "better": spec["better"],
            "unit": spec["unit"],
            "bound": spec["bound"],
            "parent": quartiles([a for a, _ in got if a is not None]),
            "change": quartiles([b for _, b in got if b is not None]),
            "change_better_in_pairs": f"{wins} of {len(pairs)}",
        }
        pm, cm = entry["parent"].get("median"), entry["change"].get("median")
        if pm and cm is not None:
            entry["change_over_parent_median"] = cm / pm
            if entry["parent"].get("iqr"):
                entry["median_gap_over_parent_iqr"] = abs(cm - pm) / entry["parent"]["iqr"]
        out[name] = entry
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_range, help="first-last, inclusive")
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    args = ap.parse_args()

    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    checkouts = {"parent": git_state(args.parent), "change": git_state(args.change)}
    for checkout in (args.parent, args.change):
        clean_bytecode(checkout.resolve())
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            pair[side] = run_once(checkout.resolve(), args.workload, seed)
        for side in ("parent", "change"):
            shown = {m: value(pair[side], m) for m in ("cpu_s", "work_per_cpu_s")}
            print(f"seed {seed} {side}: {shown if None not in shown.values() else pair[side]}", file=sys.stderr)
        pairs.append(pair)

    path = Path(f"BENCH_{args.name}.json")
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("host", {
        "cpus": os.cpu_count(),
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    })
    doc.setdefault("workloads", {})[args.workload] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED",
        "checkouts": checkouts,
        "seeds": args.seeds,
        "quartiles": "statistics.quantiles(values, n=4, method='inclusive') over each side's runs",
        "failed": {s: sum(p[s].get("failed", 0) for p in pairs) for s in ("parent", "change")},
        "all_correct": {s: all(p[s].get("correct", False) for p in pairs) for s in ("parent", "change")},
        "summary": summarize(pairs, specs),
        "pairs": pairs,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
