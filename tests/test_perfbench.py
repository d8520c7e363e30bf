"""The benchmark's traced names still resolve in the package.

perfbench wraps tvq functions by name from outside the package, so a
rename it does not follow would only show in a traced benchmark run.
These tests load its tracing and workload modules without writing
bytecode next to them and check every name they use.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
