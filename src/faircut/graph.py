"""Undirected capacitated graphs, their bidirected arcs, flows, and cuts.

Conventions shared by every module in this package:

* Vertices are integers ``0 .. n-1``.
* An undirected edge ``e`` with endpoints ``(us[e], vs[e])`` and integer
  capacity ``caps[e]`` induces two antiparallel arcs of equal capacity:
  arc ``e`` runs ``us[e] -> vs[e]`` and arc ``e + m`` runs ``vs[e] -> us[e]``.
* Per-arc quantities (flows, residual capacities) are dense ``float64``
  arrays of length ``2 * m`` in that arc order, so the reverse of arc ``a``
  is arc ``(a + m) % (2 * m)``.

Capacities are 64-bit integers; flows are 64-bit floats.  Every per-arc
"is zero" / "is saturated" comparison in the package allows float error of
``REL_TOL * c_a``, relative to that arc's own capacity ``c_a``, so a small
arc is judged on its own scale whatever the largest capacity is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "CapacitatedGraph",
    "FlowAssignment",
    "ResidualView",
    "VertexCut",
    "add_flows",
    "directed_cut_value",
    "divergence",
    "st_demand",
    "undirected_cut_value",
]

# Float error allowed on an arc, as a fraction of that arc's capacity.
REL_TOL = 1e-9


class CapacitatedGraph:
    """Immutable undirected graph with positive integer edge capacities.

    Parallel input edges are merged by summing capacities and self-loops are
    rejected, so the stored edge list is simple.  Every capacity, merged
    ones included, must fit in int64.  The graph is stored as flat edge and
    arc arrays only, with no adjacency index.  Instances never mutate after
    construction and are safe to share across threads.

    Args:
        vertex_count: number of vertices ``n``; ids are ``0 .. n-1``.
        edges: iterable of ``(u, v, capacity)`` triples.
    """

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int, int]]) -> None:
        if vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        self.n = int(vertex_count)

        merged: dict[tuple[int, int], int] = {}
        for u, v, c in edges:
            u, v, c = int(u), int(v), int(c)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) references a vertex outside 0..{self.n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if c < 1:
                raise ValueError(f"edge ({u},{v}) has non-positive capacity {c}")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0) + c
        for (u, v), c in merged.items():
            if c > 2**63 - 1:
                raise ValueError(f"edge ({u},{v}) capacity {c}, parallel edges summed, exceeds int64 max 2**63 - 1")

        items = sorted(merged.items())
        self.m = len(items)
        self.us = np.fromiter((u for (u, _), _ in items), dtype=np.int64, count=self.m)
        self.vs = np.fromiter((v for (_, v), _ in items), dtype=np.int64, count=self.m)
        self.caps = np.fromiter((c for _, c in items), dtype=np.int64, count=self.m)

        # Bidirected arc arrays: arc e is us->vs, arc e+m is vs->us.
        self.tails = np.concatenate([self.us, self.vs])
        self.heads = np.concatenate([self.vs, self.us])
        self.arc_caps = np.concatenate([self.caps, self.caps]).astype(np.float64)

        self._arc_lookup: Optional[dict[tuple[int, int], int]] = None

    # ------------------------------------------------------------------
    # basic properties

    @property
    def max_capacity(self) -> int:
        """Largest edge capacity W (1 for an edgeless graph)."""
        return int(self.caps.max()) if self.m else 1

    @property
    def num_arcs(self) -> int:
        return 2 * self.m

    def edge_list(self) -> list[tuple[int, int, int]]:
        return [(int(u), int(v), int(c)) for u, v, c in zip(self.us, self.vs, self.caps)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CapacitatedGraph):
            return NotImplemented
        return self.n == other.n and self.edge_list() == other.edge_list()

    def __repr__(self) -> str:
        return f"CapacitatedGraph(n={self.n}, m={self.m}, W={self.max_capacity})"

    # ------------------------------------------------------------------
    # arc helpers

    def edge_of_arc(self, a) -> int:
        return a % self.m

    def arc_index(self, u: int, v: int) -> int:
        """Arc id of u->v; raises KeyError when the edge does not exist."""
        if self._arc_lookup is None:
            lookup = {}
            for a in range(2 * self.m):
                lookup[(int(self.tails[a]), int(self.heads[a]))] = a
            self._arc_lookup = lookup
        return self._arc_lookup[(u, v)]

    # ------------------------------------------------------------------
    # structure

    def spanning_forest(self, order: np.ndarray) -> tuple[list[int], np.ndarray]:
        """Kruskal's union-find over the edge ids in ``order``, in that order.

        An edge is chosen when it joins two components of the edges chosen
        before it; the scan stops once ``n - 1`` edges are chosen.  Returns
        ``(chosen_edges, labels)`` where ``labels[v]`` is the smallest vertex
        id in v's component of the chosen edges.
        """
        parent = list(range(self.n))

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        us, vs = self.us.tolist(), self.vs.tolist()
        chosen: list[int] = []
        for e in order.tolist():
            ru, rv = find(us[e]), find(vs[e])
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
                chosen.append(e)
                if len(chosen) == self.n - 1:
                    # A spanning tree: one component, labelled by vertex 0.
                    return chosen, np.zeros(self.n, dtype=np.int64)
        labels = np.fromiter((find(v) for v in range(self.n)), dtype=np.int64, count=self.n)
        return chosen, labels

    def connected_components(self, active_edges: Optional[np.ndarray] = None) -> np.ndarray:
        """Component label per vertex, using only edges where active_edges is True.

        A label is the smallest vertex id in its component.
        """
        order = np.arange(self.m) if active_edges is None else np.flatnonzero(active_edges)
        return self.spanning_forest(order)[1]

    def induced(
        self, vertices: Sequence[int], active_edges: Optional[np.ndarray] = None
    ) -> tuple["CapacitatedGraph", np.ndarray, np.ndarray]:
        """Subgraph induced on a vertex subset.

        Returns ``(subgraph, kept_vertices, kept_edges)`` where
        ``kept_vertices[i]`` is the original id of subgraph vertex ``i`` and
        ``kept_edges[j]`` is the original edge id of subgraph edge ``j``.
        Edges outside ``active_edges`` (when given) are dropped.
        """
        keep = np.asarray(sorted(set(int(v) for v in vertices)), dtype=np.int64)
        remap = -np.ones(self.n, dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        in_sub = remap[self.us] >= 0
        in_sub &= remap[self.vs] >= 0
        if active_edges is not None:
            in_sub &= active_edges
        edge_ids = np.nonzero(in_sub)[0].astype(np.int64)
        sub_edges = [
            (int(remap[self.us[e]]), int(remap[self.vs[e]]), int(self.caps[e])) for e in edge_ids
        ]
        # The parent's edges are sorted and remap keeps vertex order, so the
        # subgraph lists its edges in edge_ids order.
        return CapacitatedGraph(len(keep), sub_edges), keep, edge_ids


class FlowAssignment:
    """Nonnegative flow values on the bidirected arcs of a graph.

    Values are absolute (same scale as capacities).  Antiparallel arcs may
    both carry flow; sums never cancel.  Cancellation is a separate,
    explicit normalization (:meth:`cancel_antiparallel`) used by verifiers.
    """

    def __init__(self, graph: CapacitatedGraph, values: Optional[np.ndarray] = None) -> None:
        self.graph = graph
        if values is None:
            values = np.zeros(graph.num_arcs, dtype=np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != (graph.num_arcs,):
                raise ValueError(f"expected {graph.num_arcs} arc values, got {values.shape}")
            if np.any(values < -REL_TOL * graph.arc_caps):
                raise ValueError("flow values must be nonnegative")
            values = np.maximum(values, 0.0)
        self.values = values

    def flow(self, u: int, v: int) -> float:
        return float(self.values[self.graph.arc_index(u, v)])

    def congestion(self) -> float:
        """max over arcs of flow/capacity; 0 for the empty flow."""
        if self.graph.m == 0:
            return 0.0
        return float(np.max(self.values / self.graph.arc_caps))

    def cancel_antiparallel(self) -> "FlowAssignment":
        """Cancel min(f(u,v), f(v,u)) on every arc pair.

        Preserves divergence exactly; the result carries flow in at most one
        direction per edge.
        """
        m = self.graph.m
        fwd, bwd = self.values[:m], self.values[m:]
        low = np.minimum(fwd, bwd)
        return FlowAssignment(self.graph, np.concatenate([fwd - low, bwd - low]))

    def __repr__(self) -> str:
        nz = int(np.count_nonzero(self.values))
        return f"FlowAssignment(arcs={self.graph.num_arcs}, nonzero={nz})"


class ResidualView:
    """Directed arc capacities of a graph under a flow, on its active edges.

    Arc capacities follow ``c'(u,v) = c(u,v) - f(u,v) + f(v,u)``.
    ``active_edges`` is a boolean array with one entry per undirected edge
    (all edges when omitted).  Flow on inactive edges is dropped before the
    computation (the restriction of the flow to the active edges); inactive
    arcs expose capacity 0.  A derived capacity below ``-REL_TOL * c_a`` on
    an arc of capacity ``c_a`` raises; smaller negatives are clamped to 0.
    """

    def __init__(
        self,
        graph: CapacitatedGraph,
        flow: FlowAssignment,
        active_edges: Optional[np.ndarray] = None,
    ) -> None:
        if flow.graph is not graph:
            raise ValueError("flow was built for a different graph")
        m = graph.m
        active = np.ones(m, dtype=bool) if active_edges is None else active_edges
        if not (isinstance(active, np.ndarray) and active.dtype == bool and active.shape == (m,)):
            raise ValueError(f"active_edges must be a boolean array of shape ({m},)")
        self.graph = graph
        self.flow = flow
        self.active_edges = active
        act2 = np.concatenate([active, active])
        restricted = np.where(act2, flow.values, 0.0)
        caps = np.where(act2, graph.arc_caps, 0.0)
        fwd, bwd = restricted[:m], restricted[m:]
        raw = caps - restricted + np.concatenate([bwd, fwd])
        if np.any(raw < -REL_TOL * graph.arc_caps):
            raise ValueError(f"negative residual capacity {raw.min()} beyond tolerance; flow infeasible")
        self.arc_caps = np.maximum(raw, 0.0)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def tails(self) -> np.ndarray:
        return self.graph.tails

    @property
    def heads(self) -> np.ndarray:
        return self.graph.heads


@dataclass(frozen=True)
class VertexCut:
    """Vertex subset S defining the cut (S, V \\ S).

    ``source``/``sink`` are optional; when present they must sit on the
    correct sides.
    """

    side: frozenset[int]
    source: Optional[int] = None
    sink: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.side:
            raise ValueError("cut side must be nonempty")
        if self.source is not None and self.source not in self.side:
            raise ValueError(f"source {self.source} must lie inside the cut side")
        if self.sink is not None and self.sink in self.side:
            raise ValueError(f"sink {self.sink} must lie outside the cut side")

    def member_mask(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=bool)
        out[list(self.side)] = True
        return out

    def sorted_ids(self) -> list[int]:
        return sorted(int(v) for v in self.side)

    def __repr__(self) -> str:
        ids = self.sorted_ids()
        shown = ids if len(ids) <= 8 else ids[:8] + ["..."]
        return f"VertexCut(side={shown}, s={self.source}, t={self.sink})"


def directed_cut_value(g, cut: VertexCut) -> float:
    """Total capacity of arcs with tail in S and head outside S.

    Accepts a CapacitatedGraph (interpreted as its bidirected arcs) or a
    ResidualView.  Raises on improper cuts (S empty or S = V).
    """
    tails, heads, caps, n = g.tails, g.heads, g.arc_caps, g.n
    if len(cut.side) >= n:
        raise ValueError("improper cut: side covers every vertex")
    mask = cut.member_mask(n)
    crossing = mask[tails] & ~mask[heads]
    return float(caps[crossing].sum())


def undirected_cut_value(graph: CapacitatedGraph, cut: VertexCut) -> float:
    """Total capacity of undirected edges with exactly one endpoint in S."""
    if len(cut.side) >= graph.n:
        raise ValueError("improper cut: side covers every vertex")
    mask = cut.member_mask(graph.n)
    crossing = mask[graph.us] != mask[graph.vs]
    # A sum of int64 capacities can pass 2**63 - 1; Python integers cannot overflow.
    return float(sum(graph.caps[crossing].tolist()))


def divergence(flow: FlowAssignment) -> np.ndarray:
    """Net outflow per vertex: sum of outgoing minus incoming flow.

    The result sums to zero up to float rounding; it is the demand the flow
    routes.
    """
    g = flow.graph
    out = np.bincount(g.tails, weights=flow.values, minlength=g.n)
    inc = np.bincount(g.heads, weights=flow.values, minlength=g.n)
    return out - inc


def add_flows(f: FlowAssignment, g: FlowAssignment) -> FlowAssignment:
    """Arcwise sum; antiparallel arcs are never cancelled here."""
    if f.graph is not g.graph:
        raise ValueError("flows live on different graphs")
    return FlowAssignment(f.graph, f.values + g.values)


def st_demand(n: int, s: int, t: int, value: float = 1.0) -> np.ndarray:
    """Demand vector routing ``value`` units from s to t."""
    d = np.zeros(n, dtype=np.float64)
    d[s] += value
    d[t] -= value
    return d
