"""tools/bench_pairs.py: the tvq names its child programs use still
resolve, and its pairing, failure and summary rules hold.

The child programs run as strings in new processes, so a rename in tvq
would only show as a failed run or, where a walk patches a name that
nothing calls any more, as a table without its steps. These tests read
the programs without running them, load the tool without writing
bytecode next to it, and feed its pairing and summary code synthetic
runs in place of child processes: no test starts a benchmark process.
"""

import argparse
import ast
import importlib
import importlib.util
import inspect
import json
import statistics
import sys
from pathlib import Path

import pytest

import tvq.gadgets

ROOT = Path(__file__).resolve().parents[1]
SPECS = {
    "cpu_s": {"better": "lower", "unit": "s", "bound": 0.24},
    "work_per_cpu_s": {"better": "higher", "unit": "1/s", "bound": 0.24},
}


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
    return module


@pytest.fixture(scope="module")
def bench():
    return load(ROOT / "tools" / "bench_pairs.py", "tools_bench_pairs")


def child_programs(bench):
    yield "layers", bench.LAYERS_CHILD
    yield "report", bench.REPORT_CHILD
    for name, walk in bench.RSS_WALKS.items():
        yield f"rss {name}", bench.RSS_PRELUDE + walk + bench.RSS_CHECK


def tvq_names(source):
    """(module, name, assigned) of each tvq name the program imports,
    reads or assigns."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "tvq"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tvq":
            yield from ((node.module, alias.name, False) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            yield aliases[node.value.id], node.attr, isinstance(node.ctx, ast.Store)


def test_every_tvq_name_of_the_child_programs_resolves(bench):
    for program, source in child_programs(bench):
        names = list(tvq_names(source))
        assert names, program
        for module, name, _ in names:
            assert hasattr(importlib.import_module(module), name), f"{program}: {module}.{name} does not resolve"


def test_every_patched_name_is_called_through_the_patched_binding(bench):
    """The state_loop walk swaps tvq.baseline_schedule, which the
    workload calls through the package, and gadgets.apply_fmove, which
    run_schedule calls as a global of tvq.gadgets. If either call went
    through another binding, the walk would record no F-move steps."""
    patched = {(m, n) for _, source in child_programs(bench) for m, n, store in tvq_names(source) if store}
    assert patched == {("tvq", "baseline_schedule"), ("tvq.gadgets", "apply_fmove")}
    assert "tvq.baseline_schedule(" in (ROOT / "perfbench" / "workloads.py").read_text()
    assert "apply_fmove" in inspect.unwrap(tvq.gadgets.run_schedule).__code__.co_names
    workloads = load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads").WORKLOADS
    assert set(bench.RSS_WALKS) <= set(workloads)


def run(exit=0, **metrics):
    out = {"metrics": {name: {"value": v} for name, v in metrics.items()}}
    return {"exit": exit, "cpu_s": 1.0, "peak_rss_mb": 30.0, "out": out, **({"stderr_tail": "boom"} if exit else {})}


def pair(parent, change, unit=None):
    return {"unit": unit or {"seed": 1}, "first": "parent", "parent": parent, "change": change}


def test_summary_counts_ties_and_failed_runs_as_wins_for_neither_side(bench):
    pairs = [
        pair(run(cpu_s=1.0), run(cpu_s=1.0)),  # tie
        pair(run(cpu_s=2.0), run(cpu_s=1.0)),  # change lower: a win
        pair(run(cpu_s=1.0), run(exit=1, cpu_s=0.5)),  # failed change run
        pair(run(cpu_s=3.0), run(cpu_s=4.0)),  # parent lower
    ]
    got = bench.summarize(pairs, SPECS)
    assert set(got) == {"cpu_s"}  # no run reports work_per_cpu_s
    assert got["cpu_s"]["change_better_in_pairs"] == "1 of 4"
    # the failed run is left out of the change's quartiles, not the parent's
    assert got["cpu_s"]["change"]["median"] == statistics.median([1.0, 1.0, 4.0])
    assert got["cpu_s"]["parent"]["median"] == statistics.median([1.0, 2.0, 1.0, 3.0])


def test_summary_quartiles_and_median_gap_over_parent_iqr(bench):
    parent = [5.0, 1.0, 4.0, 2.0, 3.0]
    change = [10.0, 8.0, 6.0, 9.0, 7.0]
    got = bench.summarize([pair(run(work_per_cpu_s=a), run(work_per_cpu_s=b)) for a, b in zip(parent, change)], SPECS)
    entry = got["work_per_cpu_s"]
    assert entry["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert entry["change"] == {"median": 8.0, "q1": 7.0, "q3": 9.0, "iqr": 2.0}
    assert entry["change_better_in_pairs"] == "5 of 5"  # higher is better here
    assert entry["change_over_parent_median"] == pytest.approx(8.0 / 3.0)
    assert entry["median_gap_over_parent_iqr"] == pytest.approx((8.0 - 3.0) / 2.0)


def test_pairs_alternate_sides_after_a_discarded_warm_up(bench, monkeypatch):
    calls = []

    def fake(checkout, argv, in_checkout):
        calls.append((checkout.name, argv[0]))
        return run()

    monkeypatch.setattr(bench, "run_child", fake)
    jobs = [({"u": k}, [f"job{k}"], False) for k in range(3)]
    warmup, pairs = bench.run_pairs({"parent": Path("P"), "change": Path("C")}, jobs)
    assert calls == [
        ("C", "job0"), ("P", "job0"),  # the warm-up, first
        ("P", "job0"), ("C", "job0"),
        ("C", "job1"), ("P", "job1"),
        ("P", "job2"), ("C", "job2"),
    ]  # fmt: skip
    assert warmup["unit"] == {"u": 0}
    assert [p["unit"] for p in pairs] == [{"u": k} for k in range(3)]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent"]


def test_main_writes_the_section_with_failed_runs_left_out(bench, monkeypatch, tmp_path):
    """The cli table, end to end with fake children: two commands, two
    repeats, one failing change run. The failure is listed with its
    stderr tail and left out of the median, and the warm-up's runs are in
    no row."""
    exits = iter([0, 0, 0, 0, 1, 0, 0, 0, 0, 0])
    cpu = iter([9.0, 9.0, 1.0, 2.0, 50.0, 4.0, 5.0, 6.0, 7.0, 8.0])

    def fake(checkout, argv, in_checkout):
        assert argv[:2] == ["-m", "tvq.cli"] and not in_checkout
        got = run(exit=next(exits))
        got["cpu_s"] = next(cpu)
        return got

    monkeypatch.setattr(bench, "run_child", fake)
    monkeypatch.setattr(bench, "git_state", lambda checkout: {"head": checkout.name, "src_dirty": False})
    monkeypatch.chdir(tmp_path)
    argv = ["cli", "--parent", "P", "--change", "C", "--name", "t", "--repeats", "2", "verify all", "braid"]
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", *argv])
    assert bench.main() == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert set(doc) == {"host", "cli"}
    section = doc["cli"]
    assert section["warmup"] == {"command": "verify all", "discarded": True}
    assert section["repeats"] == 2
    assert section["checkouts"] == {side: {"head": side[0].upper(), "src_dirty": False} for side in ("parent", "change")}
    # (parent, change) CPU of the counted pairs: verify all (1, 2) and
    # (4, 50, failed), braid (5, 6) and (8, 7)
    assert section["failed_runs"] == [{"command": "verify all", "side": "change", "exit": 1, "stderr_tail": "boom"}]
    rows = {row["command"]: row for row in section["rows"]}
    assert rows["tvq verify all"]["parent"] == {"cpu_s": 2.5, "peak_rss_mb": 30.0, "statuses": [0]}
    assert rows["tvq verify all"]["change"] == {"cpu_s": 2.0, "peak_rss_mb": 30.0, "statuses": [0, 1]}
    assert rows["tvq braid"]["parent"]["cpu_s"] == rows["tvq braid"]["change"]["cpu_s"] == 6.5


def test_layers_rows_have_the_table_fields(bench):
    args = argparse.Namespace(distances="16", repeats=1)
    keys, _, jobs, section = bench.layers_mode(args)
    assert keys == ("layers",) and [unit for unit, _, _ in jobs] == [{"d": 16, "gc": "on"}, {"d": 16, "gc": "off"}]
    stages = ("braid_schedule", "compile_schedule", "run_schedule", "export_circuit")
    out = {"moves": 2310, "between_collections": 0, "between_collect": 0.0, "final_collect": 0.01, "peak_rss_mb": 40.0}
    for stage in stages:
        out.update({stage: 0.00231, stage + "_collections": 0, stage + "_rss_mb": 40.0})
    ok = {"exit": 0, "out": out}
    pairs = [{"unit": unit, "parent": ok, "change": ok} for unit, _, _ in jobs]
    (row, _) = section(pairs)["rows"]
    assert set(row) == {"d", "gc", "moves", "parent", "change", *stages}
    assert row["braid_schedule"]["parent"] == {"cpu_s": 0.0023, "us_per_move": 1.0, "collections": 0, "peak_rss_mb": 40.0}


def test_report_rows_take_medians_over_the_runs_that_did_not_fail(bench):
    args = argparse.Namespace(runs=["32:100", "4,8:40"], repeats=1)
    keys, _, jobs, section = bench.report_mode(args)
    units = [unit for unit, _, _ in jobs]
    assert keys == ("report",) and units == [{"distances": "32", "trials": 100}, {"distances": "4,8", "trials": 40}]
    assert jobs[1][1][2:] == ["4,8", "40"]
    runs = [{"exit": 0, "out": {"cpu_s": s, "peak_rss_mb": 40.0 + s}} for s in (0.2, 0.1, 0.4)]
    pairs = [{"unit": units[0], "parent": r, "change": r} for r in runs]
    pairs.append({"unit": units[0], "parent": {"exit": 1, "out": None}, "change": runs[0]})
    (row,) = section(pairs)["rows"]
    assert row["parent"] == {"cpu_s": 0.2, "peak_rss_mb": 40.4}
    assert row["change"] == {"cpu_s": 0.2, "peak_rss_mb": 40.4}
