"""Every name a ``faircut`` module lists in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import faircut

MODULES = sorted(m.name for m in pkgutil.iter_modules(faircut.__path__) if not m.name.startswith("_"))


def test_modules_found():
    assert {"approximator", "driver", "flowcut", "graph", "oracles"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"faircut.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"faircut.{name}.__all__ names missing attributes: {missing}"
