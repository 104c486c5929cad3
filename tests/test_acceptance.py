"""Acceptance suite: every shipped guarantee checked at its stated tolerance.

Criteria 1-3 share one 200-instance batch; each test prints a PASS line
with the measured margins (visible with ``pytest -s`` or on failure).
"""

import json
import math
import re
import time
from dataclasses import dataclass

import numpy as np
import pytest

from faircut.approximator import build_exhaustive, build_multi_tree, build_tree
from faircut.cli import main as cli_main
from faircut.dimacs import serialize_dimacs
from faircut.driver import fair_cut
from faircut.flowcut import CutResult, FlowResult, flow_or_cut, threshold_cut
from faircut.generators import random_connected_graph, random_feasible_flow
from faircut.graph import (
    FlowAssignment,
    ResidualView,
    divergence,
    st_demand,
    undirected_cut_value,
)
from faircut.oracles import max_flow_exact, min_congestion_routing

from conftest import brute_directed_cut, operator_row_norms

SUITE_SEED = 20260810
SUITE_SIZE = 200
SUITE_EPS = 0.05
FAIRNESS_CONSTANT = 32.0  # fixed across the whole suite
CONTRACTION_FACTOR = 0.75


@dataclass
class SuiteRun:
    graph: object
    s: int
    t: int
    alpha: float
    cut_value: float
    maxflow: float
    potentials: list
    branches: list


@pytest.fixture(scope="module")
def suite():
    rng = np.random.default_rng(SUITE_SEED)
    runs = []
    start = time.perf_counter()
    for i in range(SUITE_SIZE):
        n = int(rng.integers(8, 101))
        m = int(rng.integers(n - 1, min(600, n * (n - 1) // 2) + 1))
        g = random_connected_graph(n, m, rng, max_cap=100)
        s = int(rng.integers(0, g.n))
        t = int(rng.integers(0, g.n))
        while t == s:
            t = int(rng.integers(0, g.n))
        approx = "exhaustive" if g.n <= 16 else "multitree:8"
        result = fair_cut(g, s, t, eps=SUITE_EPS, approximator=approx, seed=i)
        value, _, _ = max_flow_exact(g, s, t)
        runs.append(
            SuiteRun(
                graph=g,
                s=s,
                t=t,
                alpha=result.achieved_alpha,
                cut_value=undirected_cut_value(g, result.cut),
                maxflow=float(value),
                potentials=[rec.potential for rec in result.iterations] + [result.final_potential],
                branches=[rec.branch for rec in result.iterations],
            )
        )
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_fairness_certification(suite):
    runs, elapsed = suite
    assert len(runs) == SUITE_SIZE  # every instance terminated
    worst_c = 0.0
    for run in runs:
        bound = 1.0 + FAIRNESS_CONSTANT * SUITE_EPS * math.log2(run.graph.n)
        assert run.alpha <= bound, (run.alpha, bound, run.graph)
        worst_c = max(worst_c, (run.alpha - 1.0) / (SUITE_EPS * math.log2(run.graph.n)))
    assert elapsed < 300.0, f"suite took {elapsed:.1f}s, budget is 300s"
    print(
        f"criterion 1 PASS: {SUITE_SIZE} instances in {elapsed:.1f}s, "
        f"worst alpha {max(r.alpha for r in runs):.4f}, "
        f"implementation constant C={worst_c:.3f} (cap {FAIRNESS_CONSTANT})"
    )


def test_criterion_2_approximate_min_cut(suite):
    runs, _ = suite
    worst = 0.0
    for run in runs:
        assert run.cut_value <= run.alpha * run.maxflow * (1 + 1e-6), (
            run.cut_value,
            run.alpha,
            run.maxflow,
        )
        worst = max(worst, run.cut_value / (run.alpha * run.maxflow))
    print(f"criterion 2 PASS: cut value within alpha * maxflow on all runs (worst ratio {worst:.6f})")


def test_criterion_3_contraction(suite):
    runs, _ = suite
    violations = 0
    checked = 0
    for run in runs:
        slack = 1e-9 * run.graph.max_capacity
        for prev, nxt in zip(run.potentials, run.potentials[1:]):
            checked += 1
            if nxt > CONTRACTION_FACTOR * prev + slack:
                violations += 1
    assert violations == 0, f"{violations} contraction violations"
    print(f"criterion 3 PASS: 0 violations across {checked} certified iterations")


def test_criterion_4_flow_or_cut_contract():
    rng = np.random.default_rng(SUITE_SEED + 1)
    eps = 0.1
    flows = cuts_seen = 0
    for i in range(200):
        n = int(rng.integers(4, 51))
        g = random_connected_graph(n, int(rng.integers(n - 1, 3 * n)), rng, max_cap=30)
        prior = random_feasible_flow(g, rng)
        view = ResidualView(g, prior)
        s, t = 0, g.n - 1
        value, _, _ = max_flow_exact(view, s, t)
        tau = max(float(value) * float(rng.uniform(0.2, 2.0)), 0.05)
        matrix = build_exhaustive(g) if g.n <= 12 else build_multi_tree(g, 8, seed=i)
        out = flow_or_cut(view, s, t, tau, eps, lambda: matrix, budget=400)
        if isinstance(out, CutResult):
            cuts_seen += 1
            assert s in out.cut.side and t not in out.cut.side
            exact = brute_directed_cut(g.tails, g.heads, view.arc_caps, set(out.cut.side), g.n)
            assert exact < tau
        else:
            flows += 1
            assert isinstance(out, FlowResult)
            assert np.all(out.flow.values <= view.arc_caps * (1 + 1e-9) + 1e-9 * g.arc_caps)
            opt, _ = min_congestion_routing(g, st_demand(g.n, s, t, tau) - divergence(out.flow))
            assert opt <= eps + 1e-6, (opt, eps)
    print(f"criterion 4 PASS: 200 calls ({flows} flow exits, {cuts_seen} cut exits), all rechecked")


def test_criterion_5_threshold_sweep():
    rng = np.random.default_rng(SUITE_SEED + 2)
    generic = st_form = 0
    while generic < 500:
        n = int(rng.integers(3, 30))
        g = random_connected_graph(n, 2 * n, rng, max_cap=20)
        view = ResidualView(g, random_feasible_flow(g, rng))
        phi = rng.normal(size=g.n)
        if rng.uniform() < 0.3:
            phi = np.round(phi * 2) / 2  # tie-heavy potentials
        drops = view.arc_caps * np.maximum(phi[g.tails] - phi[g.heads], 0.0)
        saturated = float(drops.sum())
        d0 = rng.normal(size=g.n)
        d0 -= d0.mean()
        scale = float(phi @ d0)
        if abs(scale) < 1e-9:
            continue
        d = d0 * (saturated + float(rng.uniform(0.05, 3.0))) / scale
        cut = threshold_cut(view, phi, d)
        side = set(cut.side)
        boundary = brute_directed_cut(g.tails, g.heads, view.arc_caps, side, g.n)
        assert float(d[sorted(side)].sum()) > boundary - 1e-9
        generic += 1
    while st_form < 500:
        n = int(rng.integers(3, 30))
        g = random_connected_graph(n, 2 * n, rng, max_cap=20)
        view = ResidualView(g, random_feasible_flow(g, rng))
        s, t = 0, g.n - 1
        bits = int(rng.integers(1, 1 << (g.n - 1)))
        side = ({v for v in range(g.n - 1) if (bits >> v) & 1} | {s}) - {t}
        boundary = brute_directed_cut(g.tails, g.heads, view.arc_caps, side, g.n)
        tau = boundary * float(rng.uniform(1.01, 2.5)) + 0.01
        phi = np.zeros(g.n)
        phi[sorted(side)] = 1.0
        cut = threshold_cut(view, phi, st_demand(g.n, s, t, tau))
        assert s in cut.side and t not in cut.side
        value = brute_directed_cut(g.tails, g.heads, view.arc_caps, set(cut.side), g.n)
        assert value < tau
        st_form += 1
    print("criterion 5 PASS: 1000 sweeps, every prefix violates on independent recomputation")


def test_criterion_6_operator_norms():
    rng = np.random.default_rng(SUITE_SEED + 3)
    for i in range(100):
        n = int(rng.integers(4, 40))
        g = random_connected_graph(n, int(rng.integers(n - 1, 3 * n)), rng, max_cap=50)
        if i % 3 == 0 and g.n <= 16:
            matrix = build_exhaustive(g)
        elif i % 3 == 1:
            matrix = build_tree(g, seed=i)
        else:
            matrix = build_multi_tree(g, 4, seed=i)
        # full bidirected view: rows exactly 2
        norms = operator_row_norms(matrix, g)
        assert np.all(np.abs(norms - 2.0) <= 1e-12)
        # subgraph of the bidirected view: at most 2
        active = np.ones(g.m, dtype=bool)
        active[rng.choice(g.m, size=g.m // 4, replace=False)] = False
        sub = ResidualView(g, FlowAssignment(g), active)
        assert np.all(operator_row_norms(matrix, sub) <= 2.0 + 1e-9)
        # residual of a feasible flow: at most 4
        res = ResidualView(g, random_feasible_flow(g, rng))
        assert np.all(operator_row_norms(matrix, res) <= 4.0 + 1e-9)
    print("criterion 6 PASS: 100 graph/flow pairs, all row norms within bounds")


def test_criterion_7_oracle_cross_validation():
    rng = np.random.default_rng(SUITE_SEED + 4)
    worst_rel = 0.0
    for i in range(30):
        n = int(rng.integers(4, 13))
        g = random_connected_graph(n, int(rng.integers(n - 1, 3 * n)), rng, max_cap=20)
        exhaustive = build_exhaustive(g)
        tree = build_tree(g, seed=i)
        multi = build_multi_tree(g, 4, seed=i)
        demands = 0
        while demands < 100:
            k = int(rng.integers(2, g.n + 1))
            verts = rng.choice(g.n, size=k, replace=False)
            vals = rng.normal(size=k)
            vals -= vals.mean()
            d = np.zeros(g.n)
            d[verts] = vals
            if np.abs(d).sum() < 1e-9:
                continue
            demands += 1
            opt, _ = min_congestion_routing(g, d)
            est = exhaustive.estimate(d)
            rel = abs(opt - est) / max(opt, est, 1e-30)
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-9, (opt, est)
            assert tree.estimate(d) <= opt * (1 + 1e-9) + 1e-15
            assert multi.estimate(d) <= opt * (1 + 1e-9) + 1e-15
    print(f"criterion 7 PASS: 30x100 demands, worst exhaustive-vs-oracle rel diff {worst_rel:.2e}")


def test_criterion_8_runtime_smoke():
    rng = np.random.default_rng(SUITE_SEED + 5)
    g = random_connected_graph(1000, 5000, rng, max_cap=100)
    start = time.perf_counter()
    result = fair_cut(g, 0, 999, eps=0.1, approximator="multitree:8", seed=0, certify=False)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"smoke run took {elapsed:.1f}s"
    assert result.final_potential < 4 * 0.1
    print(f"criterion 8 PASS: n=1000 m=5000 solved in {elapsed:.2f}s ({len(result.iterations)} rounds)")


def test_criterion_9_determinism(tmp_path, capsys):
    rng = np.random.default_rng(SUITE_SEED + 6)
    g = random_connected_graph(30, 90, rng, max_cap=40)
    path = tmp_path / "instance.dimacs"
    path.write_text(serialize_dimacs(g, 0, 29))
    argv = ["solve", "--input", str(path), "--seed", "11", "--verify"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    strip = lambda text: re.sub(r'"wall_clock_ms": [^,\n]+', '"wall_clock_ms": 0', text)
    assert strip(first) == strip(second)
    assert json.loads(first)["schema"] == 1
    print("criterion 9 PASS: byte-identical result documents modulo wall clock")
