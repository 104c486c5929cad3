"""Iterative fair-cut driver.

Maintains a cut and a cumulative flow, both on the one input graph that
every round works on.  Each iteration masks out the cut edges already
near-saturated in the outgoing direction, asks the flow-or-cut primitive
about the residual of the input graph on the remaining edges at half the
current boundary potential, and then either grows the flow or replaces the
cut by the better of union/intersection with the returned one.  Edges
outside s's component of the remaining edges are masked too, so stranded
vertices carry no residual capacity; only the cut matrix is built on that
component, and its rows are lifted back to the input's vertex ids.  The
boundary potential contracts by at least one quarter per certified
iteration, so the loop needs only logarithmically many rounds before every
outgoing cut arc is near-saturated; the achieved fairness of the final cut
is then measured exactly by the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .approximator import BuilderFn, CutMatrix, resolve_builder
from .flowcut import FlowResult, flow_or_cut
from .graph import (
    REL_TOL,
    CapacitatedGraph,
    FlowAssignment,
    ResidualView,
    VertexCut,
    add_flows,
    directed_cut_value,
)
from .oracles import min_fair_alpha

__all__ = [
    "FairCutResult",
    "IterationRecord",
    "fair_cut",
    "iterate_once",
    "unsaturated_arcs",
]

# Cut arcs with flow above (1 - SATURATION_MARGIN*eps) * cap are treated as
# saturated and temporarily removed; the loop stops once the residual
# boundary potential drops below POTENTIAL_EXIT*eps (at that point every
# outgoing cut arc is saturated, since capacities are at least 1).
SATURATION_MARGIN = 4.0
POTENTIAL_EXIT = 4.0
THRESHOLD_FACTOR = 0.5
CONTRACTION = 0.75


@dataclass
class IterationRecord:
    index: int
    potential: float
    branch: str
    primal_gap: float


@dataclass
class IterationState:
    """Snapshot at the top of one iteration (before the primitive call)."""

    index: int
    cut: VertexCut
    flow: FlowAssignment
    residual: ResidualView
    potential_value: float

    @property
    def graph(self) -> CapacitatedGraph:
        return self.flow.graph


@dataclass
class FairCutResult:
    cut: VertexCut
    achieved_alpha: Optional[float]
    iterations: list[IterationRecord]
    final_flow: FlowAssignment
    eps: float
    seed: int
    approximator: str
    max_rounds: int
    final_potential: float


def _crossing_arcs(
    graph: CapacitatedGraph, flow: FlowAssignment, cut: VertexCut, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Outgoing cut arcs, and per arc whether its flow is at most ``(1 - 4*eps + REL_TOL) * capacity``."""
    mask = cut.member_mask(graph.n)
    crossing = np.nonzero(mask[graph.tails] & ~mask[graph.heads])[0]
    limit = (1.0 - SATURATION_MARGIN * eps + REL_TOL) * graph.arc_caps[crossing]
    return crossing, flow.values[crossing] <= limit


def unsaturated_arcs(
    graph: CapacitatedGraph, flow: FlowAssignment, cut: VertexCut, eps: float
) -> np.ndarray:
    """Outgoing cut arcs whose flow is at most ``(1 - 4*eps) * capacity``.

    The comparison is inclusive, with float error of ``REL_TOL * capacity``
    allowed per arc.
    """
    crossing, unsaturated = _crossing_arcs(graph, flow, cut, eps)
    return crossing[unsaturated]


def _make_state(
    graph: CapacitatedGraph, cut: VertexCut, flow: FlowAssignment, eps: float, index: int
) -> IterationState:
    """The state whose residual masks out every saturated outgoing cut edge."""
    crossing, unsaturated = _crossing_arcs(graph, flow, cut, eps)
    active = np.ones(graph.m, dtype=bool)
    active[graph.edge_of_arc(crossing[~unsaturated])] = False
    residual = ResidualView(graph, flow, active)
    potential = directed_cut_value(residual, cut)
    return IterationState(
        index=index,
        cut=cut,
        flow=flow,
        residual=residual,
        potential_value=potential,
    )


def _uncross(state: IterationState, x_cut: VertexCut) -> VertexCut:
    """Better of union/intersection with the current cut, by residual value."""
    s, t = state.cut.source, state.cut.sink
    union = VertexCut(state.cut.side | x_cut.side, source=s, sink=t)
    inter = VertexCut(state.cut.side & x_cut.side, source=s, sink=t)
    v_union = directed_cut_value(state.residual, union)
    v_inter = directed_cut_value(state.residual, inter)
    return union if v_union < v_inter else inter


def _component_matrix(
    graph: CapacitatedGraph, in_comp: np.ndarray, active: np.ndarray, builder: BuilderFn, seed: int
) -> CutMatrix:
    """``builder``'s matrix for the subgraph on ``in_comp``, lifted to ``graph``'s vertex ids.

    The kept vertex ids are increasing, so every lifted row stays sorted;
    when the component is all of V the lift is the identity.
    """
    sub, vkeep, _ = graph.induced(np.flatnonzero(in_comp), active_edges=active)
    cuts = builder(sub, seed)
    rows = cuts.indicator
    lifted = sp.csr_matrix((rows.data, vkeep[rows.indices], rows.indptr), shape=(rows.shape[0], graph.n))
    return CutMatrix(graph.n, lifted, cuts.weights, alpha_bound=cuts.alpha_bound)


def iterate_once(
    state: IterationState,
    eps: float,
    builder: BuilderFn,
    seed: int = 0,
) -> tuple[IterationState, IterationRecord]:
    """One driver round: call the primitive, grow the flow or move the cut.

    The primitive runs on the input graph itself, on the unmasked edges of
    the component containing both endpoints: every other edge, including
    all edges of stranded vertices, is masked, so it has zero residual
    capacity and can carry neither flow nor part of a cut's boundary.  The
    cut matrix is built by ``builder`` on that component's subgraph, and
    its rows lifted to the input's vertex ids, only if the primitive asks
    for it (the warm-start max-flow did not reach the threshold), at most
    once per round.
    """
    graph = state.graph
    s, t = state.cut.source, state.cut.sink
    tau = THRESHOLD_FACTOR * state.potential_value
    labels = graph.connected_components(active_edges=state.residual.active_edges)
    in_comp = labels == labels[s]

    primal_gap = float("nan")
    if labels[s] != labels[t]:
        # Every remaining path is gone; the endpoint's component is a cut of
        # residual value zero, well under tau.
        x_cut = VertexCut(frozenset(np.flatnonzero(in_comp).tolist()), source=s, sink=t)
        branch = "cut"
        new_cut, new_flow = _uncross(state, x_cut), state.flow
    else:
        active = state.residual.active_edges & in_comp[graph.us]
        residual = ResidualView(graph, state.flow, active)
        cuts = lambda: _component_matrix(graph, in_comp, active, builder, seed)
        result = flow_or_cut(residual, s, t, tau, eps, cuts)

        if isinstance(result, FlowResult):
            branch = "flow"
            primal_gap = result.primal_gap
            new_cut, new_flow = state.cut, add_flows(state.flow, result.flow)
        else:
            # A sweep prefix may take in stranded vertices; they add nothing
            # to its demand or boundary, so the cut is its part in the component.
            x_cut = VertexCut(frozenset(v for v in result.cut.side if in_comp[v]), source=s, sink=t)
            branch = "cut"
            new_cut, new_flow = _uncross(state, x_cut), state.flow

    new_state = _make_state(graph, new_cut, new_flow, eps, state.index + 1)
    record = IterationRecord(
        index=state.index,
        potential=state.potential_value,
        branch=branch,
        primal_gap=primal_gap,
    )
    return new_state, record


def default_round_limit(n: int, max_capacity: int, eps: float) -> int:
    """Round budget guaranteeing the exit potential is reached.

    The starting potential is at most ``n^2 * W`` and contracts by 3/4 per
    round, so this many rounds suffice to fall below ``4 * eps``.
    """
    return int(math.ceil(math.log(n * n * max_capacity * 16.0 / eps) / math.log(4.0 / 3.0)))


def _iteration_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def fair_cut(
    graph: CapacitatedGraph,
    s: int,
    t: int,
    eps: float,
    approximator: str = "multitree:8",
    seed: int = 0,
    certify: bool = True,
) -> FairCutResult:
    """Compute a fair (s,t)-cut with its oracle-measured fairness factor.

    Starts from the singleton cut at ``s`` with the empty flow and runs
    driver rounds until the residual boundary potential falls below
    ``4 * eps`` (or :func:`default_round_limit` rounds have run).  Each
    primitive call gets the saddle budget ``flowcut.SADDLE_BUDGET``.  With
    ``certify=True`` the output fairness is measured exactly by the oracle
    and stored in ``achieved_alpha``.

    Args:
        graph: connected undirected instance.
        s, t: distinct terminals.
        eps: saturation margin, in ``(0, 1/8)``.
        approximator: builder descriptor, ``exhaustive`` or ``multitree:K``.
        seed: base seed; each round derives its own stream from it.
        certify: measure ``achieved_alpha`` with the exact oracle.

    Raises:
        ValueError: bad eps/terminals/descriptor or a disconnected instance.
    """
    if s == t:
        raise ValueError("source and sink must differ")
    if not (0.0 < eps < 1.0 / 8.0):
        raise ValueError(f"eps must lie in (0, 1/8), got {eps}")
    if not (0 <= s < graph.n and 0 <= t < graph.n):
        raise ValueError("terminal out of range")
    labels = graph.connected_components()
    if labels[s] != labels[t] or not np.all(labels == labels[0]):
        stranded = sorted(int(v) for v in np.nonzero(labels != labels[s])[0])
        raise ValueError(f"graph must be connected; stranded vertices include {stranded[:6]}")

    builder = resolve_builder(approximator)
    limit = default_round_limit(graph.n, graph.max_capacity, eps)

    cut = VertexCut(frozenset({s}), source=s, sink=t)
    flow = FlowAssignment(graph)
    state = _make_state(graph, cut, flow, eps, 1)
    records: list[IterationRecord] = []
    for i in range(1, limit + 1):
        if state.potential_value < POTENTIAL_EXIT * eps:
            break
        state, record = iterate_once(state, eps, builder, seed=_iteration_seed(seed, i))
        records.append(record)

    achieved = min_fair_alpha(graph, state.cut) if certify else None
    return FairCutResult(
        cut=state.cut,
        achieved_alpha=achieved,
        iterations=records,
        final_flow=state.flow,
        eps=eps,
        seed=seed,
        approximator=approximator,
        max_rounds=limit,
        final_potential=state.potential_value,
    )
