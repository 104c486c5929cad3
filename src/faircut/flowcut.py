"""Flow-or-cut primitive on residual graphs.

Given a residual view of a base graph, vertices ``s, t`` and a threshold
``tau``, :func:`flow_or_cut` returns either an (s,t)-cut of residual value
below ``tau`` or a feasible residual flow whose unrouted remainder is
routable in the base graph with congestion at most ``eps``.

The decision is an l-infinity problem over the cut-matrix rows, scaled by
1/4 so that each row has l1 norm at most 1 on the residual operator: find a
congestion vector ``x`` in [0,1]^arcs whose divergence meets the demand on
every scaled row within the slack.  The saddle solver runs multiplicative
weights over the scaled rows and their negations.  Its averaged weights
give one signed weight per row, and the pullback of that signed vector is
a vertex potential.  Every round sweeps that potential with
:func:`threshold_cut`, in O(m + n log n): a decreasing-potential prefix
whose demand beats its residual boundary is itself the certificate, and
the loop's only dual exit.  The loop reports one :class:`SaddleOutcome`:
a primal point within the slack, a swept side, or neither when the budget
runs out.

The solver is warm-started from the exact residual max-flow of
:func:`faircut.oracles.max_flow_exact`, the package's one max-flow, so the
call always ends in a flow or a cut.  A max-flow of 0 means t is
unreachable, and its min cut is returned at once.  When the max-flow
already reaches ``tau``, the scaled warm flow routes the whole demand, so
the call returns it without building the cut matrix or entering the loop.
Otherwise the matrix is built and the loop runs from the warm start; on
unroutable instances the swept pullback certifies a cut within a few
rounds.  Should the budget run out first, or the swept side's exact value
miss ``tau``, the max-flow's own min cut is returned: its value is the
max-flow, which is below ``tau``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .approximator import CutMatrix
from .graph import (
    FlowAssignment,
    ResidualView,
    VertexCut,
    directed_cut_value,
    st_demand,
)
from .oracles import max_flow_exact

__all__ = [
    "CutResult",
    "FlowResult",
    "SaddleOutcome",
    "flow_or_cut",
    "saddle_solve",
    "threshold_cut",
]

# The search target is shrunk by this factor before solving so that the
# estimate-to-optimum conversion lands back at eps (row scale 1/4 undoes it).
EPSILON_SHRINK = 4.0

# Saddle rounds per flow-or-cut call; a swept cut usually ends the loop in round 1.
SADDLE_BUDGET = 400


@dataclass
class SaddleOutcome:
    """How one saddle loop ended.

    ``x`` is set, with its scaled-row violation ``gap``, when a primal
    point met the slack.  ``side`` is set when a sweep of the pullback
    certified a prefix whose demand exceeds its residual boundary, so no
    ``x`` in [0,1]^arcs meets the demand.  Neither is set when the budget
    ran out.
    """

    x: Optional[np.ndarray]
    gap: Optional[float]
    side: Optional[frozenset[int]]
    iterations: int


def saddle_solve(
    residual: ResidualView,
    demand: np.ndarray,
    cuts: CutMatrix,
    slack: float,
    budget: int,
    x0: np.ndarray,
) -> SaddleOutcome:
    """Multiplicative-weights search for a primal point or a violating side.

    The constraint rows are the cut-matrix rows scaled by 1/4, applied to
    ``divergence(arc_caps * x) - demand``.  The experts are those rows and
    their negations; at congestion vector ``x`` row ``i`` loses ``u_i`` and
    its negation ``-u_i``.  Each round checks the best primal point so far
    (at first the warm start ``x0``) against ``slack``, updates the weights,
    sweeps the pullback of the averaged signed weights
    ``y = avg_minus - avg_plus`` with :func:`threshold_cut`, and then plays
    the best-response congestion vector.  A violating sweep prefix ends the
    loop.  The best primal point is checked once more after the last round,
    so an average that meets the slack there is returned with
    ``iterations == budget``.  At budget 0 nothing is checked.
    """
    if not (0.0 < slack < 1.0):
        raise ValueError(f"slack must lie in (0, 1), got {slack}")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if budget == 0:
        return SaddleOutcome(None, None, None, 0)

    n, tails, heads, caps = residual.n, residual.tails, residual.heads, residual.arc_caps

    def rows_at(x: np.ndarray) -> np.ndarray:
        """Scaled rows of the unmet demand ``divergence(caps * x) - demand``."""
        vals = caps * x
        div = np.bincount(tails, weights=vals, minlength=n) - np.bincount(heads, weights=vals, minlength=n)
        return 0.25 * cuts.apply(div - demand)

    def largest(u: np.ndarray) -> float:
        return float(np.max(np.abs(u))) if u.size else 0.0

    r = cuts.row_count
    best_x = x0
    best_gap = largest(rows_at(x0))
    loss_sum = np.zeros((2, r), dtype=np.float64)  # row order: plus, minus
    weight_sum = np.zeros((2, r), dtype=np.float64)
    xbar = np.zeros(len(caps), dtype=np.float64)
    x_play = x0
    width = 1e-12

    for t in range(1, budget + 1):
        if best_gap <= slack:
            return SaddleOutcome(best_x, best_gap, None, t - 1)

        u = rows_at(x_play)
        width = max(width, largest(u))
        loss_sum[0] += u
        loss_sum[1] -= u
        eta = math.sqrt(8.0 * math.log(max(4 * r, 2)) / t) / width
        shifted = eta * loss_sum
        shifted -= shifted.max()
        p = np.exp(shifted)
        p /= p.sum()
        weight_sum += p

        avg = weight_sum / t
        cut = threshold_cut(residual, 0.25 * cuts.pullback(avg[1] - avg[0]), demand)
        if cut is not None:
            return SaddleOutcome(None, None, cut.side, t)

        phi = 0.25 * cuts.pullback(p[0] - p[1])
        x_t = (caps * (phi[tails] - phi[heads]) < 0).astype(np.float64)
        xbar += (x_t - xbar) / t
        gap = largest(rows_at(xbar))
        if gap < best_gap:
            best_gap, best_x = gap, xbar.copy()
        x_play = x_t

    if best_gap <= slack:
        return SaddleOutcome(best_x, best_gap, None, budget)
    return SaddleOutcome(None, None, None, budget)


def threshold_cut(view, phi: np.ndarray, d: np.ndarray) -> Optional[VertexCut]:
    """First decreasing-potential prefix whose demand beats its boundary.

    Vertices are sorted by decreasing ``phi`` with ties broken by vertex id.
    Arc ``a`` leaves prefix ``k`` (the first ``k + 1`` vertices) exactly when
    ``rank[tail] <= k < rank[head]``, so every prefix boundary is one
    cumulative sum over arc-endpoint ranks.  Returns the first proper
    prefix ``S`` with ``sum(d[S]) > boundary(S)``, or None when no proper
    prefix has one.  Such a prefix is a certificate on its own: no ``x`` in
    [0,1]^arcs routes ``d``.  When ``d`` routes ``tau`` units from a source
    to a sink, it is an (s,t)-cut of value below ``tau``.  A boundary is
    never negative, so the running sum is clipped at zero: float
    cancellation in it cannot make a prefix of zero demand violate.

    ``view`` is a ResidualView or a CapacitatedGraph; only its ``n``,
    ``tails``, ``heads`` and ``arc_caps`` are read.
    """
    n = view.n
    phi = np.asarray(phi, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    order = np.lexsort((np.arange(n), -phi))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    tail_rank, head_rank = rank[view.tails], rank[view.heads]
    leaving = tail_rank < head_rank
    caps = view.arc_caps[leaving]
    step = np.bincount(tail_rank[leaving], weights=caps, minlength=n)
    step -= np.bincount(head_rank[leaving], weights=caps, minlength=n)
    boundary = np.maximum(np.cumsum(step[: n - 1]), 0.0)
    hits = np.flatnonzero(np.cumsum(d[order[: n - 1]]) > boundary)
    if not hits.size:
        return None
    return VertexCut(frozenset(order[: hits[0] + 1].tolist()))


@dataclass
class FlowResult:
    """Feasible residual flow; the unrouted demand remainder is small.

    ``primal_gap`` is the saddle loop's scaled-row violation at the returned
    point; it is 0.0 when the warm-start max-flow decided the call, because
    that flow routes the whole demand.
    """

    flow: FlowAssignment
    primal_gap: float
    iterations: int


@dataclass
class CutResult:
    """(s,t)-cut with residual boundary value strictly below the threshold."""

    cut: VertexCut
    value: float
    iterations: int
    via: str


def flow_or_cut(
    residual: ResidualView,
    s: int,
    t: int,
    tau: float,
    eps: float,
    cuts: Callable[[], CutMatrix],
    budget: int = SADDLE_BUDGET,
) -> Union[FlowResult, CutResult]:
    """Feasible flow toward ``tau`` units s->t, or a cut below ``tau``.

    Flow outcome: the returned flow is feasible in the residual view and
    the leftover demand ``tau*(1_s - 1_t) - divergence(flow)`` can be routed
    in the base graph with congestion at most ``eps``.  Cut outcome: the
    returned (s,t)-cut has residual boundary value strictly below ``tau``.

    The exact warm-start max-flow is computed first.  When it reaches
    ``tau`` the flow outcome is returned at once, for any nonnegative
    ``budget``, with ``iterations=0``, ``primal_gap=0.0`` and no cut matrix.
    Otherwise the cut matrix is needed: ``cuts`` is a zero-argument callable
    that builds it, called once and only on this path.  A saddle loop of at
    most ``budget`` rounds that ends without a primal point or a swept cut
    below ``tau`` yields the max-flow's min cut, ``via="salvage"``.

    Raises:
        ValueError: ``tau <= 0``, ``eps`` outside ``(0, 1/2)``, a negative
            ``budget``, or s == t; on the saddle path, a cut matrix built
            for another vertex count or without a finite ``alpha_bound``.
        RuntimeError: the max-flow's min cut is not below ``tau``; an
            invariant check, since its value is the max-flow.
    """
    if tau <= 0:
        raise ValueError(f"threshold must be positive, got {tau}")
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if s == t:
        raise ValueError("source and sink must differ")

    graph = residual.graph
    maxflow, warm, mincut = max_flow_exact(residual, s, t)
    if maxflow == 0:
        # t is unreachable; the min cut is s's positive-capacity reachable set.
        return _min_cut_result(residual, mincut, tau, 0, "reachability")

    caps = residual.arc_caps
    with np.errstate(divide="ignore", invalid="ignore"):
        base_x = np.where(caps > 0, warm.values / np.maximum(caps, 1e-300), 0.0)
    if maxflow >= tau * (1.0 - 1e-12):
        flow = FlowAssignment(graph, np.clip(base_x * (tau / maxflow), 0.0, 1.0) * caps)
        return FlowResult(flow=flow, primal_gap=0.0, iterations=0)

    matrix = cuts()
    if matrix.n != graph.n:
        raise ValueError("cut matrix was built for a different vertex count")
    # An infinite or NaN alpha_bound makes the slack 0 or NaN, which saddle_solve refuses.
    slack = (eps / EPSILON_SHRINK) / matrix.alpha_bound
    demand = st_demand(graph.n, s, t, tau)
    outcome = saddle_solve(residual, demand, matrix, slack, budget, np.clip(base_x, 0.0, 1.0))

    if outcome.x is not None:
        flow = FlowAssignment(graph, outcome.x * caps)
        return FlowResult(flow=flow, primal_gap=outcome.gap, iterations=outcome.iterations)

    if outcome.side is not None:
        cut = VertexCut(outcome.side, source=s, sink=t)
        value = directed_cut_value(residual, cut)
        if value < tau:
            return CutResult(cut=cut, value=value, iterations=outcome.iterations, via="threshold-cut")

    # The budget expired, or the swept side's float sums hid a boundary at
    # or above tau.
    return _min_cut_result(residual, mincut, tau, outcome.iterations, "salvage")


def _min_cut_result(
    residual: ResidualView, mincut: VertexCut, tau: float, iterations: int, via: str
) -> CutResult:
    """The max-flow's min cut as a CutResult; its value is a max-flow below ``tau``."""
    value = directed_cut_value(residual, mincut)
    if value >= tau:
        raise RuntimeError(f"max-flow min cut of value {value!r} is not below tau {tau!r}")
    return CutResult(cut=mincut, value=value, iterations=iterations, via=via)
