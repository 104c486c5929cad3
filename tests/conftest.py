"""Shared fixtures and independent brute-force oracles for the test suite.

The brute-force routines here enumerate vertex subsets directly and are the
reference implementations the faster library code is checked against; they
must stay independent of the modules under test.  ``reference_round`` and
``reference_routing`` are the exceptions: the first replays a driver round
the long way, on a copy of s's component, to check the round that runs on
the input graph itself; the second searches the minimum congestion by
bisection over the library's max-flow, to check its Newton steps.
"""

import math
from itertools import combinations
from typing import Mapping, Optional

import numpy as np
import pytest
from hypothesis import strategies as st

from faircut import driver
from faircut.flowcut import FlowResult, flow_or_cut
from faircut.graph import CapacitatedGraph, FlowAssignment, ResidualView, VertexCut, add_flows
from faircut.oracles import _component_balanced, _Dinic


def brute_min_cut_value(g: CapacitatedGraph, s: int, t: int) -> int:
    """Minimum undirected boundary over all S with s in S, t outside, in exact integers."""
    others = [v for v in range(g.n) if v not in (s, t)]
    best = float("inf")
    for k in range(len(others) + 1):
        for extra in combinations(others, k):
            side = {s, *extra}
            value = 0
            for u, v, c in zip(g.us, g.vs, g.caps):
                if (int(u) in side) != (int(v) in side):
                    value += int(c)
            best = min(best, value)
    return best


def brute_opt_congestion(g: CapacitatedGraph, d: np.ndarray) -> float:
    """max over proper subsets of demand-inside / boundary-capacity."""
    best = 0.0
    for bits in range(1, (1 << g.n) - 1):
        side = [v for v in range(g.n) if (bits >> v) & 1]
        delta = float(d[side].sum())
        if delta <= 0:
            continue
        value = 0.0
        for u, v, c in zip(g.us, g.vs, g.caps):
            if ((bits >> int(u)) & 1) != ((bits >> int(v)) & 1):
                value += float(c)
        if value <= 0:
            return float("inf")
        best = max(best, delta / value)
    return best


def from_arc_dict(graph: CapacitatedGraph, flows: Mapping[tuple[int, int], float]) -> FlowAssignment:
    """The flow with value ``x`` on arc ``u -> v`` for each ``(u, v): x``, zero elsewhere."""
    values = np.zeros(graph.num_arcs, dtype=np.float64)
    for (u, v), x in flows.items():
        values[graph.arc_index(u, v)] = float(x)
    return FlowAssignment(graph, values)


def net_flow_across(flow: FlowAssignment, cut: VertexCut) -> float:
    """Flow leaving S minus flow entering S."""
    g = flow.graph
    mask = cut.member_mask(g.n)
    tail_in, head_in = mask[g.tails], mask[g.heads]
    return float(flow.values[tail_in & ~head_in].sum() - flow.values[~tail_in & head_in].sum())


def operator_row_norms(cuts, view) -> np.ndarray:
    """Per row, the l1 norm of the cut matrix composed with the arc operator, densely.

    Row r's entry on arc a is ``w_r * cap_a * (1[tail in S_r] - 1[head in S_r])``,
    so its norm is ``w_r`` times the capacity crossing S_r in either direction.
    ``view`` is anything with ``tails``/``heads``/``arc_caps`` arrays.
    """
    M = cuts.indicator.toarray().astype(bool)
    caps = np.asarray(view.arc_caps, dtype=np.float64)
    return cuts.weights * ((M[:, view.tails] != M[:, view.heads]) @ caps)


def dense_row_violation(view, demand, cuts, x) -> float:
    """Largest scaled row of the unmet demand at congestion ``x``, densely.

    Row r reads ``0.25 * w_r * sum over v in S_r of (B @ x - demand)[v]``,
    where column a of B holds ``+cap_a`` at its tail and ``-cap_a`` at its head.
    """
    arcs = np.arange(len(x))
    B = np.zeros((len(demand), len(x)))
    B[view.tails, arcs] = view.arc_caps
    B[view.heads, arcs] = -np.asarray(view.arc_caps, dtype=np.float64)
    rows = 0.25 * cuts.weights * (cuts.indicator.toarray() @ (B @ x - demand))
    return float(np.abs(rows).max()) if rows.size else 0.0


def assert_same_matrix(a, b) -> None:
    """Equal CSR indicator arrays, row weights and ``alpha_bound``."""
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a.indicator, name), getattr(b.indicator, name)), name
    assert a.indicator.shape == b.indicator.shape
    assert np.array_equal(a.weights, b.weights)
    assert a.alpha_bound == b.alpha_bound


def brute_directed_cut(tails, heads, caps, side: set, n: int) -> float:
    """Directed boundary value recomputed from scratch."""
    total = 0.0
    for a in range(len(tails)):
        if int(tails[a]) in side and int(heads[a]) not in side:
            total += float(caps[a])
    return total


def reference_sweep(view, phi, d) -> tuple[Optional[frozenset], list[tuple[float, float]]]:
    """Decreasing-potential prefix sweep, one vertex at a time.

    Vertices are taken by decreasing ``phi``, ties by id.  Each step adds the
    vertex's demand, then updates the boundary over its out-arcs and in-arcs
    in ascending arc id.  Returns ``(side, trail)``: the first proper prefix
    whose demand exceeds its boundary (None when there is none), and the
    ``(demand, boundary)`` pair of every prefix examined.
    """
    n = view.n
    tails, heads, caps = view.tails, view.heads, view.arc_caps
    order = np.lexsort((np.arange(n), -np.asarray(phi, dtype=np.float64)))
    in_side = np.zeros(n, dtype=bool)
    delta = 0.0
    boundary = 0.0
    trail = []
    for k in range(n - 1):
        v = int(order[k])
        in_side[v] = True
        delta += float(d[v])
        for a in np.flatnonzero(tails == v):
            if not in_side[heads[a]]:
                boundary += caps[a]
        for a in np.flatnonzero(heads == v):
            if in_side[tails[a]]:
                boundary -= caps[a]
        trail.append((delta, boundary))
        if delta > boundary:
            return frozenset(int(x) for x in order[: k + 1]), trail
    return None, trail


def bfs_components(n: int, us, vs, active=None) -> list[frozenset]:
    """Vertex sets of the components over the edges where ``active`` holds, by BFS."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(zip(us, vs)):
        if active is None or active[e]:
            adj[int(u)].append(int(v))
            adj[int(v)].append(int(u))
    seen = [False] * n
    parts = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        part, frontier = {root}, [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        part.add(v)
                        nxt.append(v)
            frontier = nxt
        parts.append(frozenset(part))
    return parts


def reference_round(state, eps: float, builder, seed: int = 0):
    """One driver round solved on an induced copy of s's component.

    Copies the unmasked edges of the component of s, remaps s and t, runs
    the primitive on the copy and lifts its flow or cut back to the input
    graph.  Returns ``(new_state, record)`` like ``driver.iterate_once``.
    """
    graph = state.graph
    s, t = state.cut.source, state.cut.sink
    tau = driver.THRESHOLD_FACTOR * state.potential_value
    labels = graph.connected_components(active_edges=state.residual.active_edges)

    primal_gap = float("nan")
    if labels[s] != labels[t]:
        side = frozenset(int(v) for v in np.nonzero(labels == labels[s])[0])
        branch = "cut"
        new_cut, new_flow = driver._uncross(state, VertexCut(side, source=s, sink=t)), state.flow
    else:
        comp = np.nonzero(labels == labels[s])[0]
        sub, vkeep, ekeep = graph.induced(comp, active_edges=state.residual.active_edges)
        remap = -np.ones(graph.n, dtype=np.int64)
        remap[vkeep] = np.arange(len(vkeep))
        sub_vals = np.concatenate([state.flow.values[ekeep], state.flow.values[ekeep + graph.m]])
        sub_res = ResidualView(sub, FlowAssignment(sub, sub_vals))
        cuts = lambda: builder(sub, seed)
        result = flow_or_cut(sub_res, int(remap[s]), int(remap[t]), tau, eps, cuts)
        if isinstance(result, FlowResult):
            lifted = np.zeros(graph.num_arcs, dtype=np.float64)
            lifted[ekeep] = result.flow.values[: sub.m]
            lifted[ekeep + graph.m] = result.flow.values[sub.m :]
            branch = "flow"
            primal_gap = result.primal_gap
            new_cut, new_flow = state.cut, add_flows(state.flow, FlowAssignment(graph, lifted))
        else:
            side = frozenset(int(vkeep[v]) for v in result.cut.side)
            branch = "cut"
            new_cut, new_flow = driver._uncross(state, VertexCut(side, source=s, sink=t)), state.flow

    new_state = driver._make_state(graph, new_cut, new_flow, eps, state.index + 1)
    record = driver.IterationRecord(
        index=state.index, potential=state.potential_value, branch=branch, primal_gap=primal_gap
    )
    return new_state, record


def reference_routing(g: CapacitatedGraph, d: np.ndarray) -> tuple[float, FlowAssignment]:
    """Minimum congestion by a doubling bracket, bisection and a cut-ratio polish.

    Each candidate ``kappa`` is a super-source/super-sink max-flow with arcs
    scaled to ``kappa * c``.  The bisection stops at 1e-10 relative width or
    1e-18 absolute width; the optimum is then the ratio of the violated set
    found at the last infeasible candidate, when that ratio is at least the
    lower end.  Below about 1e-18 the absolute stop makes the answer wrong.
    """
    d = np.asarray(d, dtype=np.float64)
    tol = 1e-9 * max(1.0, float(np.abs(d).sum()))
    if abs(float(d.sum())) > tol:
        raise ValueError("demand entries must sum to zero")
    supply = float(d[d > 0].sum())
    if supply <= tol:
        return 0.0, FlowAssignment(g)
    if not _component_balanced(g, d, tol):
        raise ValueError("demand crosses disconnected components; no routing exists")

    src, snk = g.n, g.n + 1
    target = min(supply, float(-d[d < 0].sum())) - 1e-12 * supply
    ends = np.flatnonzero(d)
    tails = np.concatenate([g.tails, np.where(d[ends] > 0, src, ends)])
    heads = np.concatenate([g.heads, np.where(d[ends] > 0, ends, snk)])

    def attempt(kappa):
        solver = _Dinic(g.n + 2, tails, heads, np.concatenate([kappa * g.arc_caps, np.abs(d[ends])]))
        return solver.solve(src, snk) >= target, solver

    violated = None

    def record_violation(solver):
        nonlocal violated
        side = frozenset(v for v in solver.reachable(src, zero=1e-12 * supply) if v < g.n)
        if side:
            violated = side

    hi = 1.0
    ok, solver = attempt(hi)
    doublings = 0
    while not ok:
        record_violation(solver)
        hi *= 2.0
        doublings += 1
        if doublings > 80:
            raise RuntimeError("congestion search failed to bracket; demand appears unroutable")
        ok, solver = attempt(hi)
    lo = 0.0 if doublings == 0 else hi / 2.0
    while hi - lo > 1e-10 * max(hi, 1e-30) and hi - lo > 1e-18:
        mid = 0.5 * (lo + hi)
        ok, cand_solver = attempt(mid)
        if ok:
            hi, solver = mid, cand_solver
        else:
            record_violation(cand_solver)
            lo = mid

    opt = float(hi)
    if violated is not None and len(violated) < g.n:
        mask = np.zeros(g.n, dtype=bool)
        mask[list(violated)] = True
        boundary = float(g.caps[mask[g.us] != mask[g.vs]].sum())
        if boundary > 0:
            ratio = float(d[list(violated)].sum()) / boundary
            if ratio >= lo * (1.0 - 1e-12):
                opt = ratio
    return opt, FlowAssignment(g, np.maximum(solver.flow()[: g.num_arcs], 0.0)).cancel_antiparallel()


def reference_kruskal(n: int, us, vs, keys) -> set[int]:
    """Maximum-key spanning forest, ties by edge id, by relabelling components."""
    comp = list(range(n))
    chosen = set()
    for e in sorted(range(len(keys)), key=lambda e: (-float(keys[e]), e)):
        a, b = comp[int(us[e])], comp[int(vs[e])]
        if a != b:
            comp = [a if c == b else c for c in comp]
            chosen.add(e)
    return chosen


def reference_tree_rows(g: CapacitatedGraph, tree_edges) -> tuple[list[tuple[int, ...]], list[float], float]:
    """Fundamental cuts of a spanning tree rooted at 0, recomputed from scratch.

    One row per non-root vertex v, in preorder, where each vertex's children
    are visited in decreasing tree-edge id.  The row is v's subtree, collected
    by BFS over the tree edges away from the root; its crossing capacity
    scans every graph edge.  Returns the rows as sorted tuples, their
    crossings, and the worst crossing to parent-edge capacity ratio (0 when
    there are no rows).
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e in sorted(int(e) for e in tree_edges):
        adj[int(g.us[e])].append((int(g.vs[e]), e))
        adj[int(g.vs[e])].append((int(g.us[e]), e))
    parent, parent_edge, frontier = {0: -1}, {}, [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w, e in adj[u]:
                if w not in parent:
                    parent[w], parent_edge[w] = u, e
                    nxt.append(w)
        frontier = nxt
    preorder, stack = [], [0]
    while stack:
        v = stack.pop()
        preorder.append(v)
        children = [(e, w) for w, e in adj[v] if parent.get(w) == v]
        stack.extend(w for _, w in sorted(children))  # last pushed (largest id) pops first
    rows, crossings, stretch = [], [], 0.0
    for v in preorder[1:]:
        side, frontier = {v}, [v]
        while frontier:
            frontier = [w for u in frontier for w, _ in adj[u] if w != parent[u] and w not in side]
            side.update(frontier)
        crossing = sum(float(c) for a, b, c in zip(g.us, g.vs, g.caps) if (int(a) in side) != (int(b) in side))
        rows.append(tuple(sorted(side)))
        crossings.append(crossing)
        stretch = max(stretch, crossing / float(g.caps[parent_edge[v]]))
    return rows, crossings, stretch


@st.composite
def int64_spread_instance(draw, n_max: int = 8) -> tuple[CapacitatedGraph, int, int]:
    """A small connected graph with capacities log-uniform in [1, 2**63 - 1], and its terminals.

    A random tree (each vertex joins an earlier one) plus up to n extra edges.
    """
    n = draw(st.integers(2, n_max))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    log_cap = st.floats(0.0, 63.0).map(lambda e: min(2**63 - 1, int(2.0**e)))
    edges = {(min(u, v), max(u, v)): draw(log_cap) for u, v in pairs if u != v}
    s, t = draw(st.permutations(range(n)))[:2]
    return CapacitatedGraph(n, [(u, v, c) for (u, v), c in edges.items()]), s, t


def fairness_bound(n: int, eps: float) -> float:
    """Acceptance criterion 1's cap on the achieved fairness factor (constant 32)."""
    return 1.0 + 32.0 * eps * math.log2(n)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def small_graph(rng, n_lo=3, n_hi=10, max_cap=9, density=2.0) -> CapacitatedGraph:
    from faircut.generators import random_connected_graph

    n = int(rng.integers(n_lo, n_hi + 1))
    m = int(max(n - 1, min(n * (n - 1) // 2, round(density * n))))
    return random_connected_graph(n, m, rng, max_cap=max_cap)
