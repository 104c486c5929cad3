"""Every name a ``faircut`` module lists in ``__all__``, or the benchmark tracer wraps, exists."""

import importlib
import pathlib
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


def test_traced_boundaries_resolve(monkeypatch):
    # The benchmark's --trace runs wrap these names; a deleted one would only
    # fail there.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    missing = [(owner.__name__, attr) for owner, attr, _, _ in tracer.BOUNDARIES if not hasattr(owner, attr)]
    assert not missing, f"traced boundaries missing: {missing}"
