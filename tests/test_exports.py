"""Every exported name resolves, so a deleted helper cannot leave a
dangling entry in ``__all__``."""

import importlib
import pkgutil

import pytest

import tvq

MODULES = ["tvq"] + [f"tvq.{m.name}" for m in pkgutil.iter_modules(tvq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


def test_the_package_and_its_layers_declare_exports():
    declared = [n for n in MODULES if hasattr(importlib.import_module(n), "__all__")]
    assert {"tvq", "tvq.circuits", "tvq.errors", "tvq.gadgets"} <= set(declared)
