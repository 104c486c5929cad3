"""Every name a ``faircut`` module lists in ``__all__``, or the benchmark reaches, exists."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import faircut
from faircut import approximator, dimacs, oracles
from faircut.driver import fair_cut
from faircut.graph import CapacitatedGraph

MODULES = sorted(m.name for m in pkgutil.iter_modules(faircut.__path__) if not m.name.startswith("_"))
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


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
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = [(owner.__name__, attr) for owner, attr, _, _ in tracer.BOUNDARIES if not hasattr(owner, attr)]
    assert not missing, f"traced boundaries missing: {missing}"


def test_workload_calls_resolve(monkeypatch):
    # The benchmark's workloads import names from faircut and read attributes
    # of three of its modules; a deleted one would only fail in a benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")
    modules = {"approximator": approximator, "dimacs": dimacs, "oracles": oracles}
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert read, "no module attribute reads found in workloads.py"
    missing = sorted((owner, attr) for owner, attr in read if not hasattr(modules[owner], attr))
    assert not missing, f"workload calls missing: {missing}"
    g = CapacitatedGraph(2, [(0, 1, 1)])
    inspect.signature(fair_cut).bind(g, 0, 1, eps=0.05, approximator="multitree:8", seed=0, certify=True)
