"""The benchmark's traced names and calls still resolve in the package.

perfbench wraps tvq functions by name from outside the package, and
calls them with fixed arguments, so a rename or a dropped parameter it
does not follow would only show as a failed benchmark run. These tests
load its tracing and workload modules without writing bytecode next to
them, read its sources without running them, and check every name and
call they use.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tvq
import tvq.cli  # noqa: F401  (loads every module a layer names)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
    return module


def test_every_traced_name_resolves():
    for layer, names in load("tracing").LAYERS.items():
        home = importlib.import_module(f"tvq.{layer}")
        for qual in names:
            obj = home
            for part in qual.split("."):
                assert hasattr(obj, part), f"tvq.{layer}.{qual} does not resolve"
                obj = getattr(obj, part)
            assert callable(obj), f"tvq.{layer}.{qual} is not callable"


def test_expected_calls_name_traced_spans():
    spans = set(load("tracing").span_names())
    for name, workload in load("workloads").WORKLOADS.items():
        assert set(workload.EXPECTED_CALLS) <= spans, name


def tvq_calls():
    """(file, line, dotted name, call node) of every tvq.<name>(...) call."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            parts, func = [], node.func
            while isinstance(func, ast.Attribute):
                parts.append(func.attr)
                func = func.value
            if isinstance(func, ast.Name) and func.id == "tvq" and parts:
                yield path.name, node.lineno, ".".join(reversed(parts)), node


def test_benchmark_calls_bind():
    calls = list(tvq_calls())
    assert calls, "no tvq calls found in perfbench"
    for name, line, dotted, node in calls:
        where = f"{name}:{line} tvq.{dotted}"
        assert not any(isinstance(a, ast.Starred) for a in node.args), where
        assert all(k.arg is not None for k in node.keywords), where
        obj = tvq
        for part in dotted.split("."):
            assert hasattr(obj, part), f"{where} does not resolve"
            obj = getattr(obj, part)
        try:
            inspect.signature(obj).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"{where}: {exc}") from None


@pytest.mark.parametrize("workload", ["braid_compile", "error_stretch", "state_loop", "code_space"])
def test_one_traced_round_passes_every_check(workload, tmp_path):
    """One traced round of the workload in its own worker process, with
    this checkout's src and one BLAS thread, writing no bytecode: no
    check fails, so the traced call counts equal the workload's
    EXPECTED_CALLS, which untraced rounds do not compare."""
    env = {
        **os.environ,
        "PYTHONPATH": str(PERFBENCH.parent / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    trace = tmp_path / f"{workload}.jsonl"
    argv = [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload, "--seed", "1"]
    proc = subprocess.run(
        [*argv, "--trace", str(trace)], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    for name, want in load("workloads").WORKLOADS[workload].EXPECTED_CALLS.items():
        assert result["layers"][f"{name}.calls"] == want, name
    assert trace.stat().st_size > 0
