"""Exact combinatorial oracles: max-flow, min-congestion routing, fairness.

These certify the approximate pipeline at desk scale.  Max-flow is a Dinic
(level graph + blocking flow) implementation built from arc arrays.  On
integer capacities it runs in Python integers, so it is exact for every
int64 capacity.  On float capacities an arc is dead only at exactly zero
residual capacity, whatever the spread of the capacities, so the min cut
it leaves has the flow's value up to summation order.  It is the package's
one max-flow: every caller hands it arc arrays and reads the flow back per
arc, and :mod:`faircut.flowcut` warm-starts from it on residual views and
falls back on its min cut.  Minimum-congestion routing takes discrete
Newton steps over the violated cuts of scaled max-flows and returns the
exact optimum, a cut's demand-to-capacity ratio, in a few max-flows.  The
fairness check reduces to a flow-with-lower-bounds feasibility problem,
laid out once per cut as arrays, and the minimal fairness factor is found
by binary search.

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
    "maxflow_value",
    "min_congestion_routing",
    "min_fair_alpha",
    "verify_fairness",
]

# Binary-search precision knob, fixed and referenced by the tests.
ALPHA_INTERVAL_REL = 1e-6


class _Dinic:
    """Dinic max-flow over a directed network given as arc arrays.

    Arc k runs ``tails[k] -> heads[k]`` with capacity ``caps[k]``.  Its
    residual arc has id ``2k`` and its reverse ``2k + 1``, which starts at a
    zero of the capacities' dtype, so an integer network is solved in exact
    Python integers.  Each vertex scans its residual arcs in ascending id.
    :meth:`flow` reads the flow on every arc back after a solve.
    """

    def __init__(self, n: int, tails: np.ndarray, heads: np.ndarray, caps: np.ndarray) -> None:
        self.n = n
        self.caps = caps
        owner = np.column_stack([tails, heads]).ravel()
        to = np.column_stack([heads, tails]).ravel()
        cap = np.column_stack([caps, np.zeros_like(caps)]).ravel()
        arcs = np.argsort(owner, kind="stable").tolist()
        ends = np.cumsum(np.bincount(owner, minlength=n)).tolist()
        self.adj: list[list[int]] = [arcs[a:b] for a, b in zip([0, *ends], ends)]
        self.to: list[int] = to.tolist()
        self.cap: list = cap.tolist()

    def flow(self) -> np.ndarray:
        """Flow on each arc k: its capacity minus its residual, in the capacities' dtype."""
        return self.caps - np.array(self.cap[0::2], dtype=self.caps.dtype)

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

    def _dfs(self, s: int, t: int):
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
                while cap[path[k]] > 0:
                    k += 1
                u = to[path[k] ^ 1]
                del path[k:]
                continue
            advanced = False
            while it[u] < len(adj[u]):
                a = adj[u][it[u]]
                v = to[a]
                if cap[a] > 0 and level[v] == level[u] + 1:
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

    def solve(self, s: int, t: int):
        """Max-flow value; an arc is dead only at exactly zero residual capacity.

        On return ``level`` holds the last BFS, which missed t: the vertices
        with a level form s's side of a minimum cut.
        """
        total = 0
        self._bfs(s, 0)
        while self.level[t] >= 0:
            total += self._dfs(s, t)
            self._bfs(s, 0)
        return total

    def reachable(self, s: int, zero=0) -> set[int]:
        self._bfs(s, zero)
        return {v for v, lvl in enumerate(self.level) if lvl >= 0}


def max_flow_exact(
    g: Union[CapacitatedGraph, ResidualView], s: int, t: int
) -> tuple[float, FlowAssignment, VertexCut]:
    """Exact maximum (s,t)-flow with a minimum cut.

    On a CapacitatedGraph the bidirected arcs are used and the value is an
    exact integer.  On a ResidualView the residual arc capacities are used.
    When s cannot reach t the value is 0 and the cut is s's reachable set.

    Returns:
        (value, flow, mincut) where the flow is cancellation-free and
        attains the value, and the min cut separates s from t.
    """
    if s == t:
        raise ValueError("source and sink must differ")
    if isinstance(g, CapacitatedGraph):
        base, arc_caps = g, np.concatenate([g.caps, g.caps])
    else:
        base, arc_caps = g.graph, g.arc_caps

    live = np.flatnonzero(arc_caps > 0)
    solver = _Dinic(base.n, base.tails[live], base.heads[live], arc_caps[live])
    value = solver.solve(s, t)

    used = np.zeros(base.num_arcs, dtype=np.float64)
    used[live] = solver.flow()
    flow = FlowAssignment(base, used).cancel_antiparallel()

    cut = VertexCut(frozenset(v for v, lvl in enumerate(solver.level) if lvl >= 0), source=s, sink=t)
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
    # d balances only within tol, so at most the smaller of its two sides can
    # be routed; float noise in the flow sums is far below 1e-12 relative.
    target = min(supply, float(-d[d < 0].sum())) - 1e-12 * supply

    # The arcs of g, then one arc from src or into snk per vertex with demand.
    ends = np.flatnonzero(d)
    tails = np.concatenate([g.tails, np.where(d[ends] > 0, src, ends)])
    heads = np.concatenate([g.heads, np.where(d[ends] > 0, ends, snk)])
    demand_caps = np.abs(d[ends])

    def attempt(kappa: float):
        solver = _Dinic(g.n + 2, tails, heads, np.concatenate([kappa * g.arc_caps, demand_caps]))
        value = solver.solve(src, snk)
        return value >= target, solver

    def ratio(side: frozenset) -> float:
        """Demand inside ``side`` over its boundary capacity, from exact sums."""
        mask = np.zeros(g.n, dtype=bool)
        mask[list(side)] = True
        boundary = float(sum(g.caps[mask[g.us] != mask[g.vs]].tolist()))
        if boundary <= 0:
            raise ValueError("demand is trapped in a set with no boundary capacity; no routing exists")
        return float(d[list(side)].sum()) / boundary

    kappa = ratio(frozenset(np.flatnonzero(d > 0).tolist()))
    ok, solver = attempt(kappa)
    while not ok:
        side = frozenset(v for v in solver.reachable(src, zero=1e-12 * supply) if v < g.n)
        following = ratio(side) if 0 < len(side) < g.n else kappa
        if following <= kappa:
            # In exact arithmetic the violated set's ratio exceeds kappa; when
            # float noise says otherwise, kappa is the optimum up to that noise.
            ok, solver = attempt(kappa * (1.0 + 1e-10))
            if not ok:
                raise RuntimeError(f"congestion search stalled at kappa={kappa!r}")
            break
        kappa = following
        ok, solver = attempt(kappa)

    flow = FlowAssignment(g, np.maximum(solver.flow()[: g.num_arcs], 0.0)).cancel_antiparallel()
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

    The arcs and their order do not depend on alpha, so they are laid out
    once as arrays: per edge, a cut edge once, out of the cut side, and any
    other edge ``u->v`` then ``v->u``; then the return arc ``t->s``.  Each
    :meth:`check` lowers the cut arcs to ``c - c/alpha``, appends the
    auxiliary source and sink arcs of its alpha and solves a fresh network,
    so its answer does not depend on the layout being shared.
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
        self.total_cap = float(sum(g.caps.tolist()))  # the int64 sum can overflow

        # Orient the single working arc of a cut edge out of the cut side with
        # bounds [c/alpha, c]; the reverse direction is dropped so the lower
        # bound constrains the net flow.
        copies = np.where(crossing, 1, 2)
        edge = np.repeat(np.arange(g.m), copies)
        backward = np.ones(len(edge), dtype=bool)
        backward[np.cumsum(copies) - copies] = crossing & ~mask[g.us]
        # Index of each edge arc into the flow vector: arc e or its reverse e + m.
        self.arc_index = edge + backward * g.m
        self.tails = np.append(g.tails[self.arc_index], t)
        self.heads = np.append(g.heads[self.arc_index], s)
        self.caps = np.append(g.arc_caps[self.arc_index], self.total_cap + 1.0)
        self.is_cut = np.append(crossing[edge], False)
        # Endpoints that each cut arc's lower bound feeds and drains, head first.
        self.cut_ends = np.column_stack([self.heads[self.is_cut], self.tails[self.is_cut]]).ravel()

    def check(self, alpha: float) -> Union[FairnessCertificate, FairnessRefusal]:
        """Decide alpha-fairness of the cut; see :func:`verify_fairness`."""
        g = self.g
        aux_src, aux_snk = g.n, g.n + 1

        lower = np.where(self.is_cut, self.caps / alpha, 0.0)
        cut_lower = lower[self.is_cut]
        excess = np.zeros(g.n, dtype=np.float64)
        np.add.at(excess, self.cut_ends, np.column_stack([cut_lower, -cut_lower]).ravel())
        need = sum(excess[excess > 0].tolist(), 0.0)

        ends = np.flatnonzero(excess)
        solver = _Dinic(
            g.n + 2,
            np.concatenate([self.tails, np.where(excess[ends] > 0, aux_src, ends)]),
            np.concatenate([self.heads, np.where(excess[ends] > 0, ends, aux_snk)]),
            np.concatenate([self.caps - lower, np.abs(excess[ends])]),
        )
        value = solver.solve(aux_src, aux_snk)
        feas_tol = 1e-11 * max(1.0, need)
        if value < need - feas_tol:
            reach = solver.reachable(aux_src, zero=1e-12 * max(1.0, self.total_cap))
            blocking = frozenset(v for v in reach if v < g.n)
            return FairnessRefusal(alpha=alpha, blocking_set=blocking, deficit=need - value)

        pushed = solver.flow()
        k = len(self.arc_index)
        flow_vals = np.zeros(g.num_arcs, dtype=np.float64)
        flow_vals[self.arc_index] = np.maximum(pushed[:k], 0.0) + lower[:k]
        # Normalize non-cut edges so the witness is cancellation-free everywhere.
        flow = FlowAssignment(g, flow_vals).cancel_antiparallel()
        return FairnessCertificate(alpha=alpha, witness_flow=flow, value=float(pushed[k]))


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
    if not alpha >= 1:
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


def maxflow_value(g: CapacitatedGraph, s: int, t: int) -> int:
    """Convenience wrapper returning only the exact max-flow value, an integer."""
    value, _, _ = max_flow_exact(g, s, t)
    return value
