"""Exact combinatorial oracles: max-flow, min-congestion routing, fairness.

These certify the approximate pipeline at desk scale.  Max-flow is a Dinic
(level graph + blocking flow) implementation; it is exact on integer
capacities and works on float capacities with the global tolerance.  It is
the package's one max-flow: :mod:`faircut.flowcut` warm-starts from it on
residual views.  Minimum-congestion routing takes discrete Newton steps over
the violated cuts of scaled max-flows and returns the exact optimum, a cut's
demand-to-capacity ratio, in a few max-flows.  The fairness check reduces to
a flow-with-lower-bounds feasibility problem and the minimal fairness factor
is found by binary search.

The per-arc fairness requirement is interpreted in the net sense: the
witness must push at least ``c(u,v)/alpha`` net flow across every cut arc.
(A reading that allowed opposite flow on the reverse arc to coexist would be
vacuous: a zero-value eddy on each cut edge would make every cut 1-fair.)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Union

import numpy as np

from .graph import (
    CapacitatedGraph,
    FlowAssignment,
    ResidualView,
    VertexCut,
    undirected_cut_value,
)

__all__ = [
    "FairnessCertificate",
    "FairnessRefusal",
    "max_flow_exact",
    "min_congestion_routing",
    "min_fair_alpha",
    "verify_fairness",
]

# Binary-search precision knob, fixed and referenced by the tests.
ALPHA_INTERVAL_REL = 1e-6


class _Dinic:
    """Array-backed Dinic max-flow over an explicit directed arc list."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list = []

    def add_arc(self, u: int, v: int, cap) -> int:
        """Add arc u->v with the given capacity; returns its id."""
        a = len(self.to)
        self.adj[u].append(a)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(a + 1)
        self.to.append(u)
        self.cap.append(cap * 0)  # zero of the same numeric type
        return a

    def copy(self) -> "_Dinic":
        """An independent solver with the same arcs and capacities."""
        other = _Dinic(self.n)
        other.adj = [list(arcs) for arcs in self.adj]
        other.to = list(self.to)
        other.cap = list(self.cap)
        return other

    def _bfs(self, s: int, zero) -> None:
        """Level of every vertex reachable from s over arcs above ``zero``; -1 elsewhere."""
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        to, cap, adj, level = self.to, self.cap, self.adj, self.level
        while q:
            u = q.popleft()
            for a in adj[u]:
                v = to[a]
                if level[v] < 0 and cap[a] > zero:
                    level[v] = level[u] + 1
                    q.append(v)

    def _dfs(self, s: int, t: int, zero):
        """One blocking-flow phase on the current level graph."""
        to, cap, adj, level = self.to, self.cap, self.adj, self.level
        it = [0] * self.n
        total = 0
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bottleneck = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= bottleneck
                    cap[a ^ 1] += bottleneck
                total += bottleneck
                # Retreat to the shallowest saturated arc on the path.
                k = 0
                while cap[path[k]] > zero:
                    k += 1
                u = to[path[k] ^ 1]
                del path[k:]
                continue
            advanced = False
            while it[u] < len(adj[u]):
                a = adj[u][it[u]]
                v = to[a]
                if cap[a] > zero and level[v] == level[u] + 1:
                    path.append(a)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                if u == s:
                    return total
                level[u] = -1  # dead end; prune from this phase
                u = to[path.pop() ^ 1]

    def solve(self, s: int, t: int, zero=0):
        total = 0
        self._bfs(s, zero)
        while self.level[t] >= 0:
            total += self._dfs(s, t, zero)
            self._bfs(s, zero)
        return total

    def reachable(self, s: int, zero=0) -> set[int]:
        self._bfs(s, zero)
        return {v for v, lvl in enumerate(self.level) if lvl >= 0}


def _zero_for(graph_like) -> float:
    if isinstance(graph_like, ResidualView):
        return graph_like.graph.tolerance
    return 0


def max_flow_exact(
    g: Union[CapacitatedGraph, ResidualView], s: int, t: int
) -> tuple[float, FlowAssignment, VertexCut]:
    """Exact maximum (s,t)-flow with a minimum cut.

    On a CapacitatedGraph the bidirected arcs are used and the value is
    integral.  On a ResidualView the residual arc capacities are used.  When
    s cannot reach t the value is 0 and the cut is s's reachable set.

    Returns:
        (value, flow, mincut) where the flow is cancellation-free and
        attains the value, and the min cut separates s from t.
    """
    if s == t:
        raise ValueError("source and sink must differ")
    if isinstance(g, CapacitatedGraph):
        base, arc_caps = g, g.arc_caps
        integral = True
    else:
        base, arc_caps = g.graph, g.arc_caps
        integral = False

    live = np.flatnonzero(arc_caps > 0)
    caps = arc_caps[live].tolist()
    if integral:
        caps = [int(c) for c in caps]
    solver = _Dinic(base.n)
    for u, v, c in zip(base.tails[live].tolist(), base.heads[live].tolist(), caps):
        solver.add_arc(u, v, c)
    zero = _zero_for(g)
    value = solver.solve(s, t, zero=zero)

    used = np.zeros(base.num_arcs, dtype=np.float64)
    used[live] = [c - left for c, left in zip(caps, solver.cap[::2])]  # live arc k has id 2k
    flow = FlowAssignment(base, used).cancel_antiparallel()

    reach = solver.reachable(s, zero=zero)
    if t in reach:
        raise RuntimeError("max-flow terminated with sink still reachable")
    cut = VertexCut(frozenset(reach), source=s, sink=t)
    return value, flow, cut


def _component_balanced(g: CapacitatedGraph, d: np.ndarray, tol: float) -> bool:
    labels = g.connected_components()
    for root in np.unique(labels):
        if abs(float(d[labels == root].sum())) > tol:
            return False
    return True


def min_congestion_routing(
    g: CapacitatedGraph, d: np.ndarray
) -> tuple[float, FlowAssignment]:
    """Minimum congestion needed to route demand ``d`` in the bidirected graph.

    The optimum is the largest ratio of demand inside a vertex set to its
    boundary capacity.  Feasibility at a candidate congestion ``kappa`` is a
    super-source/super-sink max-flow with arcs scaled to ``kappa * c``.
    Discrete Newton (Dinkelbach) steps start ``kappa`` at the ratio of the
    positive-demand vertices; each infeasible solve leaves a violated set on
    the source side of its residual, whose ratio is strictly larger and
    becomes the next ``kappa``.  The first feasible ``kappa`` is a set's
    ratio, so it is the exact optimum, and its flow routes ``d`` with
    congestion at most ``opt``.  A call takes a few max-flows.

    Raises:
        ValueError: if some connected component's demand does not balance,
            or a set with demand inside has no boundary capacity (no finite
            congestion can route it).
        RuntimeError: if float noise stalls the Newton steps.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (g.n,):
        raise ValueError(f"demand must have {g.n} entries")
    tol = 1e-9 * max(1.0, float(np.abs(d).sum()))
    if abs(float(d.sum())) > tol:
        raise ValueError("demand entries must sum to zero")
    supply = float(d[d > 0].sum())
    if supply <= tol:
        return 0.0, FlowAssignment(g)
    if not _component_balanced(g, d, tol):
        raise ValueError("demand crosses disconnected components; no routing exists")

    src, snk = g.n, g.n + 1
    feas_tol = 1e-12 * supply  # relative: float noise in the flow sums is far below this

    tails, heads, arc_caps, demands = g.tails.tolist(), g.heads.tolist(), g.arc_caps.tolist(), d.tolist()

    def attempt(kappa: float):
        solver = _Dinic(g.n + 2)
        for u, v, c in zip(tails, heads, arc_caps):
            solver.add_arc(u, v, kappa * c)
        for v, dv in enumerate(demands):
            if dv > 0:
                solver.add_arc(src, v, dv)
            elif dv < 0:
                solver.add_arc(v, snk, -dv)
        value = solver.solve(src, snk, zero=0.0)
        return value >= supply - feas_tol, solver

    def ratio(side: frozenset) -> float:
        """Demand inside ``side`` over its boundary capacity, from exact sums."""
        mask = np.zeros(g.n, dtype=bool)
        mask[list(side)] = True
        boundary = float(g.caps[mask[g.us] != mask[g.vs]].sum())
        if boundary <= 0:
            raise ValueError("demand is trapped in a set with no boundary capacity; no routing exists")
        return float(d[list(side)].sum()) / boundary

    kappa = scale = ratio(frozenset(np.flatnonzero(d > 0).tolist()))
    ok, solver = attempt(kappa)
    while not ok:
        side = frozenset(v for v in solver.reachable(src, zero=1e-12 * supply) if v < g.n)
        following = ratio(side) if 0 < len(side) < g.n else kappa
        if following <= kappa:
            # In exact arithmetic the violated set's ratio exceeds kappa; when
            # float noise says otherwise, kappa is the optimum up to that noise.
            scale = kappa * (1.0 + 1e-10)
            ok, solver = attempt(scale)
            if not ok:
                raise RuntimeError(f"congestion search stalled at kappa={kappa!r}")
            break
        kappa = scale = following
        ok, solver = attempt(kappa)

    # Arc a of g was added first, in order, so its forward id is 2a.
    used = scale * g.arc_caps - np.asarray(solver.cap[: 2 * g.num_arcs : 2], dtype=np.float64)
    flow = FlowAssignment(g, np.maximum(used, 0.0)).cancel_antiparallel()
    return kappa, flow


@dataclass(frozen=True)
class FairnessCertificate:
    """Witness that a cut is alpha-fair.

    The witness flow is feasible, routes ``value`` units from source to
    sink, and pushes at least ``c(u,v)/alpha`` across every cut arc (the
    reverse arcs of cut edges carry nothing, so the bound holds in the net
    sense too).
    """

    alpha: float
    witness_flow: FlowAssignment
    value: float


@dataclass(frozen=True)
class FairnessRefusal:
    """No feasible flow meets the per-arc bound; carries the blocking set.

    ``blocking_set`` is the violated cut found in the auxiliary network:
    the lower bounds demand more capacity into its complement than exists.
    """

    alpha: float
    blocking_set: frozenset[int]
    deficit: float


class _FairnessNetwork:
    """The lower-bound circulation network of one cut, for any alpha.

    Arc ids, adjacency lists and the capacities of non-cut edges and of the
    return arc do not depend on alpha, so they are laid out once.  Each
    :meth:`check` copies that layout, sets the cut arcs to ``c - c/alpha``
    and adds the auxiliary source and sink arcs of its alpha.  The arcs get
    the same ids and order as in a network built for that alpha alone, so a
    check's answer does not depend on the network being shared.
    """

    def __init__(self, g: CapacitatedGraph, cut: VertexCut) -> None:
        s, t = cut.source, cut.sink
        if s is None or t is None:
            raise ValueError("cut must carry source and sink designations")
        if not (0 < len(cut.side) < g.n):
            raise ValueError("improper cut")
        self.g = g
        mask = cut.member_mask(g.n)
        crossing = mask[g.us] != mask[g.vs]
        self.total_cap = float(g.caps.sum())

        base = _Dinic(g.n + 2)
        # (edge, arc_id, direction, capacity); cut arcs carry a placeholder
        # capacity here and get ``c - c/alpha`` in each check.
        self.edge_arcs: list[tuple[int, int, int, float]] = []
        self.cut_arcs: list[tuple[int, int, int, float]] = []  # (arc_id, tail, head, capacity)
        for e in range(g.m):
            u, v, c = int(g.us[e]), int(g.vs[e]), float(g.caps[e])
            if crossing[e]:
                # Orient the single working arc out of the cut side with bounds
                # [c/alpha, c]; the reverse direction is dropped so the lower
                # bound constrains the net flow.
                if not mask[u]:
                    u, v = v, u
                arc = base.add_arc(u, v, c)
                self.cut_arcs.append((arc, u, v, c))
                self.edge_arcs.append((e, arc, 0 if u == int(g.us[e]) else 1, c))
            else:
                self.edge_arcs.append((e, base.add_arc(u, v, c), 0, c))
                self.edge_arcs.append((e, base.add_arc(v, u, c), 1, c))
        self.return_arc = base.add_arc(t, s, self.total_cap + 1.0)
        self.base = base

    def check(self, alpha: float) -> Union[FairnessCertificate, FairnessRefusal]:
        """Decide alpha-fairness of the cut; see :func:`verify_fairness`."""
        g = self.g
        solver = self.base.copy()
        aux_src, aux_snk = g.n, g.n + 1

        excess = np.zeros(g.n, dtype=np.float64)
        lowers: dict[int, float] = {}
        for arc, u, v, c in self.cut_arcs:
            lower = c / alpha
            solver.cap[arc] = c - lower
            lowers[arc] = lower
            excess[v] += lower
            excess[u] -= lower

        need = 0.0
        for v in range(g.n):
            if excess[v] > 0:
                solver.add_arc(aux_src, v, float(excess[v]))
                need += float(excess[v])
            elif excess[v] < 0:
                solver.add_arc(v, aux_snk, float(-excess[v]))

        value = solver.solve(aux_src, aux_snk, zero=0.0)
        feas_tol = 1e-11 * max(1.0, need)
        if value < need - feas_tol:
            reach = solver.reachable(aux_src, zero=1e-12 * max(1.0, self.total_cap))
            blocking = frozenset(v for v in reach if v < g.n)
            return FairnessRefusal(alpha=alpha, blocking_set=blocking, deficit=need - value)

        flow_vals = np.zeros(g.num_arcs, dtype=np.float64)
        for e, arc, direction, c in self.edge_arcs:
            lower = lowers.get(arc, 0.0)
            upper = (c - lower) if lower else c
            pushed = upper - solver.cap[arc]
            flow_vals[e + direction * g.m] += max(0.0, pushed) + lower
        # Normalize non-cut edges so the witness is cancellation-free everywhere.
        flow = FlowAssignment(g, flow_vals).cancel_antiparallel()
        tau = (self.total_cap + 1.0) - solver.cap[self.return_arc]
        return FairnessCertificate(alpha=alpha, witness_flow=flow, value=float(tau))


def verify_fairness(
    g: CapacitatedGraph, cut: VertexCut, alpha: float
) -> Union[FairnessCertificate, FairnessRefusal]:
    """Decide whether ``cut`` is alpha-fair, producing a witness or refusal.

    A feasible (s,t)-flow must send at least ``c(u,v)/alpha`` across every
    arc leaving the cut side.  The decision reduces to standard circulation
    feasibility with lower bounds: subtract the bounds, route the induced
    excess from an auxiliary source, and close the (s,t) pair with a
    return arc.
    """
    if alpha < 1:
        raise ValueError(f"fairness factor must be at least 1, got {alpha}")
    return _FairnessNetwork(g, cut).check(alpha)


def min_fair_alpha(g: CapacitatedGraph, cut: VertexCut) -> float:
    """Smallest alpha for which ``verify_fairness`` accepts, to 1e-6 relative.

    Feasibility is monotone in alpha, so binary search over
    ``[1, c(dS) * |dS|]`` is exact up to the interval width; the bracket is
    widened defensively if its upper end somehow refuses.  Every step checks
    the same network (:class:`_FairnessNetwork`), laid out once.
    """
    network = _FairnessNetwork(g, cut)

    def accepts(alpha: float) -> bool:
        return isinstance(network.check(alpha), FairnessCertificate)

    if accepts(1.0):
        return 1.0
    boundary = undirected_cut_value(g, cut)
    mask = cut.member_mask(g.n)
    arcs = int(np.count_nonzero(mask[g.us] != mask[g.vs]))
    hi = max(2.0, boundary * max(arcs, 1))
    while not accepts(hi):
        hi *= 4.0
        if hi > 1e15:
            raise RuntimeError("no finite fairness factor found; cut appears unreachable")
    lo = 1.0
    while hi - lo > ALPHA_INTERVAL_REL * lo:
        mid = 0.5 * (lo + hi)
        if accepts(mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


def maxflow_value(g: CapacitatedGraph, s: int, t: int) -> float:
    """Convenience wrapper returning only the exact max-flow value."""
    value, _, _ = max_flow_exact(g, s, t)
    return float(value)
