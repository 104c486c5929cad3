"""Instance families for benchmarks and tests."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .graph import CapacitatedGraph, FlowAssignment

__all__ = [
    "cycle_graph",
    "grid_graph",
    "path_graph",
    "random_connected_graph",
    "random_feasible_flow",
    "bench_instance",
]


def path_graph(n: int, rng: np.random.Generator, max_cap: int = 100) -> CapacitatedGraph:
    edges = [(i, i + 1, int(rng.integers(1, max_cap + 1))) for i in range(n - 1)]
    return CapacitatedGraph(n, edges)


def cycle_graph(n: int, rng: np.random.Generator, max_cap: int = 100) -> CapacitatedGraph:
    edges = [(i, (i + 1) % n, int(rng.integers(1, max_cap + 1))) for i in range(n)]
    return CapacitatedGraph(n, edges)


def grid_graph(n: int, rng: np.random.Generator, max_cap: int = 100) -> CapacitatedGraph:
    """Near-square grid with about n vertices."""
    rows = max(2, int(np.sqrt(n)))
    cols = max(2, (n + rows - 1) // rows)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, int(rng.integers(1, max_cap + 1))))
            if r + 1 < rows:
                edges.append((v, v + cols, int(rng.integers(1, max_cap + 1))))
    return CapacitatedGraph(rows * cols, edges)


def random_connected_graph(
    n: int, m: int, rng: np.random.Generator, max_cap: int = 100
) -> CapacitatedGraph:
    """Random spanning tree plus extra random edges, capacities in [1, max_cap].

    The realized edge count can fall slightly below ``m`` when random picks
    collide with existing edges.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    m = max(m, n - 1)
    edges = {}
    order = rng.permutation(n)
    for i in range(1, n):
        u = int(order[i])
        v = int(order[int(rng.integers(0, i))])
        edges[(min(u, v), max(u, v))] = int(rng.integers(1, max_cap + 1))
    attempts = 0
    while len(edges) < m and attempts < 20 * m:
        attempts += 1
        u, v = rng.integers(0, n, size=2)
        u, v = int(u), int(v)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in edges:
            continue
        edges[key] = int(rng.integers(1, max_cap + 1))
    return CapacitatedGraph(n, [(u, v, c) for (u, v), c in edges.items()])


def random_feasible_flow(
    graph: CapacitatedGraph, rng: np.random.Generator, rounds: Optional[int] = None
) -> FlowAssignment:
    """Random feasible flow: push random fractions along random paths."""
    values = np.zeros(graph.num_arcs, dtype=np.float64)
    rounds = rounds if rounds is not None else max(2, graph.n // 2)
    for _ in range(rounds):
        a, b = rng.choice(graph.n, size=2, replace=False)
        residual = graph.arc_caps - values
        # BFS path from a to b over arcs with leftover capacity.
        parent_arc = np.full(graph.n, -1, dtype=np.int64)
        parent_arc[a] = -2
        queue = [int(a)]
        found = False
        while queue and not found:
            u = queue.pop(0)
            for arc in np.flatnonzero(graph.tails == u):
                v = int(graph.heads[arc])
                if parent_arc[v] == -1 and residual[arc] > 1e-9:
                    parent_arc[v] = arc
                    if v == b:
                        found = True
                        break
                    queue.append(v)
        if not found:
            continue
        arcs = []
        v = int(b)
        while v != a:
            arc = int(parent_arc[v])
            arcs.append(arc)
            v = int(graph.tails[arc])
        bottleneck = min(float(residual[arc]) for arc in arcs)
        push = bottleneck * float(rng.uniform(0.1, 0.9))
        for arc in arcs:
            values[arc] += push
    return FlowAssignment(graph, values)


def bench_instance(
    family: str, n: int, rng: np.random.Generator, max_cap: int = 100
) -> tuple[CapacitatedGraph, int, int]:
    """Instance plus (s, t) for one bench family."""
    if family == "path":
        g = path_graph(n, rng, max_cap)
        return g, 0, g.n - 1
    if family == "cycle":
        g = cycle_graph(n, rng, max_cap)
        return g, 0, g.n // 2
    if family == "grid":
        g = grid_graph(n, rng, max_cap)
        return g, 0, g.n - 1
    if family == "random":
        g = random_connected_graph(n, 3 * n, rng, max_cap)
        return g, 0, g.n - 1
    raise ValueError(f"unknown bench family {family!r}")
