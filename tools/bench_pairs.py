"""Paired runs of two checkouts, the parent commit and a change.

    python3 tools/bench_pairs.py MODE --parent DIR --change DIR --name NAME [--repeats 7] ...

Each run is a new process with PYTHONPATH at its checkout's src, one BLAS
thread (an idle OpenBLAS worker spins for 70-90 ms of CPU after numpy's
first call) and no bytecode written; every __pycache__ under both src/
is deleted first. A discarded warm-up pair runs, then --repeats pairs
per unit, the side that runs first alternating. A child that exits
non-zero is kept under failed_runs with its status and stderr tail and
left out of every median, count and win. The table goes into
BENCH_<name>.json in the current directory, keeping its other sections,
with each checkout's commit and whether its src/ is dirty. Modes:

workload --workload NAME --seeds 401-410 --repeats 1  ->  workloads.NAME
    `perfbench/run.py --workload NAME --seed SEED` in the checkout, each
    seed a unit, the result its last stdout line. Per end-to-end metric
    of the parent's BENCHMARK.json: each side's median and quartiles, the
    pairs the change wins (a tie wins for neither) and the gap between
    the medians over the parent's IQR.
cli "compile --distance 64 --out circ.json" ...  ->  cli
    `python -m tvq.cli COMMAND` in a new empty directory: median CPU
    seconds, highest peak RSS (os.wait4) and exit statuses.
layers --distances 16,32,64,128  ->  layers
    LAYERS_CHILD, per distance d and collector mode, times the braid's
    four stages (time.process_time), counts the collections in and
    between them and reads peak RSS as each returns; per stage and side
    the median CPU time, also in µs per move (9d² + 6 moves).
report 32:100 4,8:40  ->  report
    REPORT_CHILD times one tvq.errors.stretch_report call at the given
    distances and trial count (seed 1, time.process_time), after the
    imports and the fusion data; per unit and side, the median CPU
    seconds and the highest peak RSS of the process.
codespace  ->  codespace
    CODESPACE_CHILD runs the code_space workload's lattices (seed 1) in
    order, one code_space_dim each, with the plaquette-table build
    (statevec._bp_build), the plaquette loop (statevec._project, less
    the table builds inside it) and the Gram-Schmidt filter
    (statevec._filter_block) timed by time.process_time; per lattice and
    side, the median CPU seconds of each and of the whole call.
rss --workload braid_compile|state_loop  ->  check_rss
    RSS_PRELUDE, a walk and RSS_CHECK run the checkout's workload at
    seed 1 as perfbench/worker.py does and read peak RSS after each step
    (for state_loop, each F-move of the baseline leg); per step and
    side, the median.
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
import tempfile
from importlib import metadata
from pathlib import Path
from statistics import median

SIDES = ("parent", "change")

LAYERS_CHILD = """
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

REPORT_CHILD = """
import json, resource, sys, time
from tvq.errors import stretch_report
from tvq.fusion import fibonacci_data
distances, trials = [int(d) for d in sys.argv[1].split(",")], int(sys.argv[2])
data = fibonacci_data()
t = time.process_time()
stretch_report(distances, trials, 1, data)
cpu_s = time.process_time() - t
print(json.dumps({"cpu_s": cpu_s, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

CODESPACE_CHILD = """
import json, sys, time
sys.path.insert(0, "perfbench")
import tvq
import tvq.statevec as statevec
from workloads import WORKLOADS

spent = {}

def timed(name, fn):
    def call(*args, **kwargs):
        t = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] = spent.get(name, 0.0) + time.process_time() - t
    return call

statevec._bp_build = timed("tables", statevec._bp_build)
statevec._project = timed("project", statevec._project)
statevec._filter_block = timed("filter", statevec._filter_block)
data = tvq.fibonacci_data()
rows = []
for label, lat in WORKLOADS["code_space"].setup(1, data):
    spent.clear()
    t = time.process_time()
    dim = tvq.code_space_dim(lat, data)
    row = {"lattice": label, "dim": dim, "code_space_s": time.process_time() - t}
    row["tables_s"] = spent.get("tables", 0.0)
    row["loop_s"] = spent.get("project", 0.0) - row["tables_s"]
    row["filter_s"] = spent.get("filter", 0.0)
    rows.append(row)
print(json.dumps({"rows": rows}))
"""

RSS_PRELUDE = """
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

RSS_WALKS = {
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

RSS_CHECK = """
failures = wl.check(inputs, outcomes)
step("check")
print(json.dumps({"steps": steps, "failures": len(failures)}))
"""


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def clean_bytecode(checkout: Path) -> None:
    for cache in sorted((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
        print(f"deleted {cache}", file=sys.stderr)


def git_state(checkout: Path) -> dict:
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)

    top = git("rev-parse", "--show-toplevel")
    if top.returncode or Path(top.stdout.strip()).resolve() != checkout.resolve():
        return {"head": None, "src_dirty": None}
    head = git("rev-parse", "HEAD").stdout.strip() or None
    return {"head": head, "src_dirty": bool(git("status", "--porcelain", "--", "src").stdout.strip())}


def run_child(checkout: Path, argv: list[str], in_checkout: bool) -> dict:
    """`python ARGV` in the checkout or a new empty directory: exit status,
    CPU seconds and peak RSS (os.wait4), the JSON on its last stdout line
    (or None) and, if it exits non-zero, the tail of its stderr."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=checkout if in_checkout else tmp, env=env, stdout=out, stderr=err
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        run = {"exit": proc.returncode, "cpu_s": usage.ru_utime + usage.ru_stime}
        run["peak_rss_mb"] = usage.ru_maxrss / 1024
        try:
            run["out"] = json.loads(out.read().strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            run["out"] = None
        if proc.returncode:
            run["stderr_tail"] = err.read()[-2000:]
    return run


def failed(run: dict) -> bool:
    return run["exit"] != 0


def run_pairs(sides: dict[str, Path], jobs: list[tuple[dict, list[str], bool]]) -> tuple[dict, list[dict]]:
    """The warm-up pair (the first job, change first) and one pair per job,
    the side that runs first alternating, so the parent starts the first."""
    pairs = []
    for i, (unit, argv, in_checkout) in enumerate([jobs[0], *jobs]):
        order = SIDES[::-1] if i % 2 == 0 else SIDES
        pair = {"unit": unit, "first": order[0]}
        for side in order:
            run = pair[side] = run_child(sides[side], argv, in_checkout)
            print(f"{'warm-up ' * (i == 0)}{unit} {side}: exit {run['exit']}, {run['cpu_s']:.3f} s", file=sys.stderr)
        pairs.append(pair)
    return pairs[0], pairs[1:]


def by_unit(pairs: list[dict]) -> list[tuple[dict, dict[str, list[dict]]]]:
    """Per unit, in the order they first ran, each side's runs."""
    units = {}
    for pair in pairs:
        _, runs = units.setdefault(json.dumps(pair["unit"]), (pair["unit"], {s: [] for s in SIDES}))
        for side in SIDES:
            runs[side].append(pair[side])
    return list(units.values())


def outs(runs: list[dict]) -> list[dict]:
    """What the runs that did not fail printed."""
    return [r["out"] for r in runs if not failed(r)]


def stat(fn, values, digits: int) -> float | None:
    """fn (median or max) of the values, rounded, or None if there are none."""
    values = list(values)
    return round(fn(values), digits) if values else None


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def value(run: dict, name: str) -> float | None:
    return None if failed(run) else (run["out"] or {}).get("metrics", {}).get(name, {}).get("value")


def summarize(pairs: list[dict], specs: dict[str, dict]) -> dict:
    out = {}
    for name, spec in specs.items():
        got = [(value(p["parent"], name), value(p["change"], name)) for p in pairs]
        if all(a is None and b is None for a, b in got):
            continue
        lower = spec["better"] == "lower"
        wins = sum(1 for a, b in got if a is not None and b is not None and a != b and (b < a) == lower)
        entry = out[name] = {key: spec[key] for key in ("better", "unit", "bound")}
        entry["parent"] = quartiles([a for a, _ in got if a is not None])
        entry["change"] = quartiles([b for _, b in got if b is not None])
        entry["change_better_in_pairs"] = f"{wins} of {len(pairs)}"
        pm, cm = entry["parent"].get("median"), entry["change"].get("median")
        if pm and cm is not None:
            entry["change_over_parent_median"] = cm / pm
            if entry["parent"].get("iqr"):
                entry["median_gap_over_parent_iqr"] = abs(cm - pm) / entry["parent"]["iqr"]
    return out


def workload_mode(args):
    argv = ["perfbench/run.py", "--workload", args.workload, "--seed"]
    jobs = [({"seed": seed}, [*argv, str(seed)], True) for seed in args.seeds]

    def section(pairs):
        # a pair keeps each run's result, with its exit status and stderr tail if it failed
        kept = [{**p["unit"], "first": p["first"], **{s: {**(p[s]["out"] or {}), **failure(p[s])} for s in SIDES}}
                for p in pairs]
        specs = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
        return {
            "seeds": [p["unit"]["seed"] for p in pairs],
            "quartiles": "statistics.quantiles(values, n=4, method='inclusive') over each side's runs",
            "failed": {s: sum(p[s].get("failed", 0) for p in kept) for s in SIDES},
            "all_correct": {s: all(p[s].get("correct", False) for p in kept) for s in SIDES},
            "summary": summarize(pairs, {m["name"]: m for m in specs}),
            "pairs": kept,
        }

    return ("workloads", args.workload), f"workload --workload {args.workload}", jobs, section


def cli_mode(args):
    jobs = [({"command": c}, ["-m", "tvq.cli", *c.split()], False) for c in args.commands]

    def section(pairs):
        rows = []
        for unit, runs in by_unit(pairs):
            row = {"command": f"tvq {unit['command']}"}
            for side, rs in runs.items():
                good = [r for r in rs if not failed(r)]
                row[side] = {
                    "cpu_s": stat(median, (r["cpu_s"] for r in good), 3),
                    "peak_rss_mb": stat(max, (r["peak_rss_mb"] for r in good), 1),
                    "statuses": sorted({r["exit"] for r in rs}),
                }
            rows.append(row)
        return {"what": "median CPU seconds (user + system) and highest peak RSS of the process", "rows": rows}

    return ("cli",), "cli " + " ".join(json.dumps(c) for c in args.commands), jobs, section


def layers_mode(args):
    units = [(int(d), gc) for d in args.distances.split(",") for gc in ("on", "off")]
    jobs = [({"d": d, "gc": gc}, ["-c", LAYERS_CHILD, str(d), gc], False) for d, gc in units]

    def section(pairs):
        rows = []
        for unit, runs in by_unit(pairs):
            got = {side: outs(rs) for side, rs in runs.items()}
            moves = next(r["moves"] for rs in got.values() for r in rs)
            row = {**unit, "moves": moves}
            for stage in ("braid_schedule", "compile_schedule", "run_schedule", "export_circuit"):
                row[stage] = {
                    side: {
                        "cpu_s": stat(median, (r[stage] for r in rs), 4),
                        "us_per_move": stat(median, (r[stage] / moves * 1e6 for r in rs), 2),
                        "collections": stat(max, (r[stage + "_collections"] for r in rs), 0),
                        "peak_rss_mb": stat(max, (r[stage + "_rss_mb"] for r in rs), 1),
                    }
                    for side, rs in got.items()
                }
            for side, rs in got.items():
                row[side] = {
                    "between_collections": stat(max, (r["between_collections"] for r in rs), 0),
                    "between_collect_s": stat(median, (r["between_collect"] for r in rs), 4),
                    "final_collect_s": stat(median, (r["final_collect"] for r in rs), 4),
                    "peak_rss_mb": stat(max, (r["peak_rss_mb"] for r in rs), 1),
                }
            rows.append(row)
        what = "median CPU seconds per stage; gc off means gc.disable() after the arena is built; collections "
        what += "are the most any repeat started, peak RSS the highest; per side, those between the stages "
        return {"what": what + "and one gc.collect() after them", "rows": rows}

    return ("layers",), f"layers --distances {args.distances}", jobs, section


def report_mode(args):
    units = [run.split(":") for run in args.runs]
    jobs = [({"distances": d, "trials": int(n)}, ["-c", REPORT_CHILD, d, n], False) for d, n in units]

    def section(pairs):
        rows = []
        for unit, runs in by_unit(pairs):
            got = {side: outs(rs) for side, rs in runs.items()}
            row = dict(unit)
            for side, rs in got.items():
                row[side] = {
                    "cpu_s": stat(median, (r["cpu_s"] for r in rs), 4),
                    "peak_rss_mb": stat(max, (r["peak_rss_mb"] for r in rs), 1),
                }
            rows.append(row)
        return {"what": "median CPU seconds of one stretch_report call and highest peak RSS", "rows": rows}

    return ("report",), "report " + " ".join(args.runs), jobs, section


CODESPACE_STAGES = ("code_space_s", "tables_s", "loop_s", "filter_s")


def codespace_mode(args):
    jobs = [({"workload": "code_space"}, ["-c", CODESPACE_CHILD], True)]

    def section(pairs):
        ((_, runs),) = by_unit(pairs)
        got = {side: outs(rs) for side, rs in runs.items()}
        labels = [(row["lattice"], row["dim"]) for row in next(r["rows"] for rs in got.values() for r in rs)]
        rows = []
        for k, (label, dim) in enumerate(labels):
            row = {"lattice": label, "dim": dim}
            for side, rs in got.items():
                row[side] = {stage: stat(median, (r["rows"][k][stage] for r in rs), 5) for stage in CODESPACE_STAGES}
            rows.append(row)
        what = "median CPU seconds per lattice of one code_space_dim call (code_space_s) and, inside it, of the "
        what += "plaquette-table builds (tables_s), the rest of the plaquette loop (loop_s) and the filter (filter_s)"
        return {"what": what, "rows": rows}

    return ("codespace",), "codespace", jobs, section


def rss_mode(args):
    jobs = [({"workload": args.workload}, ["-c", RSS_PRELUDE + RSS_WALKS[args.workload] + RSS_CHECK], True)]

    def section(pairs):
        ((_, runs),) = by_unit(pairs)
        got = {side: outs(rs) for side, rs in runs.items()}
        names = [name for name, _ in next(r["steps"] for rs in got.values() for r in rs)]
        return {
            "what": f"median peak RSS (MB, ru_maxrss) after each step of one {args.workload} round and its check",
            "check_failures": {side: [r["failures"] for r in rs] for side, rs in got.items()},
            "rows": [
                {"step": name, **{side: stat(median, (r["steps"][k][1] for r in rs), 1) for side, rs in got.items()}}
                for k, name in enumerate(names)
            ],
        }

    return ("check_rss",), f"rss --workload {args.workload}", jobs, section


def failure(run: dict) -> dict:
    return {"exit": run["exit"], "stderr_tail": run["stderr_tail"]} if failed(run) else {}


def write_bench(name: str, keys: tuple[str, ...], section: dict) -> Path:
    """Puts section at keys of BENCH_<name>.json in the current directory,
    keeping the file's other sections and its host block."""
    path = Path(f"BENCH_{name}.json")
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("host", {
        "cpus": os.cpu_count(),
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    })
    at = doc
    for key in keys[:-1]:
        at = at.setdefault(key, {})
    at[keys[-1]] = section
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


MODES = {
    "workload": workload_mode,
    "cli": cli_mode,
    "layers": layers_mode,
    "report": report_mode,
    "codespace": codespace_mode,
    "rss": rss_mode,
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    common.add_argument("--change", required=True, type=Path, help="checkout of the change")
    common.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    common.add_argument("--repeats", type=int, default=7, help="counted pairs per unit, after one warm-up pair")
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    modes = ap.add_subparsers(dest="mode", required=True)
    mode = modes.add_parser("workload", parents=[common])
    mode.add_argument("--workload", required=True)
    mode.add_argument("--seeds", required=True, type=seed_range, help="first-last, inclusive; each seed is a unit")
    mode = modes.add_parser("cli", parents=[common])
    mode.add_argument("commands", nargs="+", help="tvq CLI arguments, one quoted string per command")
    mode = modes.add_parser("layers", parents=[common])
    mode.add_argument("--distances", default="16,32,64,128", help="comma list of even distances")
    mode = modes.add_parser("report", parents=[common])
    mode.add_argument("runs", nargs="+", help="DISTANCES:TRIALS, e.g. 16,32:100")
    modes.add_parser("codespace", parents=[common])
    mode = modes.add_parser("rss", parents=[common])
    mode.add_argument("--workload", choices=sorted(RSS_WALKS), default="braid_compile")
    return ap.parse_args(argv)


def main() -> int:
    args = parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    keys, command, jobs, section = MODES[args.mode](args)
    checkouts = {side: git_state(checkout) for side, checkout in sides.items()}
    for checkout in sides.values():
        clean_bytecode(checkout)
    warmup, pairs = run_pairs(sides, [job for job in jobs for _ in range(args.repeats)])
    path = write_bench(args.name, keys, {
        "command": f"python3 tools/bench_pairs.py {command} --repeats {args.repeats}",
        "checkouts": checkouts,
        "repeats": args.repeats,
        "warmup": {**warmup["unit"], "discarded": True},
        "failed_runs": [{**p["unit"], "side": s, **failure(p[s])} for p in pairs for s in SIDES if failed(p[s])],
        **section(pairs),
    })
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
