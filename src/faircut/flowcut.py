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
the loop's only dual exit.

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
    "DualWitness",
    "ExhaustedOutcome",
    "FlowResult",
    "PrimalCertificate",
    "ReducedProblem",
    "ThresholdCutError",
    "flow_or_cut",
    "reduce_problem",
    "saddle_solve",
    "threshold_cut",
]

# The search target is shrunk by this factor before solving so that the
# estimate-to-optimum conversion lands back at eps (row scale 1/4 undoes it).
EPSILON_SHRINK = 4.0

# Saddle rounds per flow-or-cut call; a swept cut usually ends the loop in round 1.
SADDLE_BUDGET = 400


class ThresholdCutError(RuntimeError):
    """No decreasing-potential prefix has demand above its boundary."""


@dataclass
class ReducedProblem:
    """Scaled row system for one flow-or-cut decision.

    ``demand`` is the target divergence.  ``alpha`` is the factor by which
    the cut-matrix estimate may undershoot the true optimal congestion.
    """

    residual: ResidualView
    demand: np.ndarray
    cuts: CutMatrix
    alpha: float

    def operator(self, x: np.ndarray) -> np.ndarray:
        """Divergence of the absolute flow ``residual_caps * x``."""
        res = self.residual
        vals = res.arc_caps * x
        out = np.bincount(res.tails, weights=vals, minlength=res.n)
        inc = np.bincount(res.heads, weights=vals, minlength=res.n)
        return out - inc

    def adjoint(self, phi: np.ndarray) -> np.ndarray:
        """Per arc: ``c'_a * (phi[tail] - phi[head])``."""
        return self.residual.arc_caps * (phi[self.residual.tails] - phi[self.residual.heads])

    def scaled_rows(self, vertex_vec: np.ndarray) -> np.ndarray:
        """Quarter-scaled cut-matrix action (rows have l1 norm <= 1)."""
        return 0.25 * self.cuts.apply(vertex_vec)

    def scaled_pullback(self, y: np.ndarray) -> np.ndarray:
        return 0.25 * self.cuts.pullback(y)

    def primal_gap(self, x: np.ndarray) -> float:
        """Max scaled-row violation of the demand constraint at ``x``."""
        rows = self.scaled_rows(self.operator(x) - self.demand)
        return float(np.max(np.abs(rows))) if rows.size else 0.0


def reduce_problem(residual: ResidualView, demand: np.ndarray, cuts: CutMatrix) -> ReducedProblem:
    """Assemble the scaled row system for a residual view and a demand.

    Raises:
        ValueError: for a mismatched demand length or vertex count, or a
            matrix that carries no certified ``alpha_bound``.
    """
    n = residual.n
    demand = np.asarray(demand, dtype=np.float64)
    if demand.shape != (n,):
        raise ValueError(f"demand must have {n} entries")
    if cuts.n != n:
        raise ValueError("cut matrix was built for a different vertex count")
    alpha = cuts.alpha_bound
    if not (math.isfinite(alpha) and alpha >= 1):
        raise ValueError("no usable congestion factor: the cut matrix carries no certified bound")
    return ReducedProblem(residual=residual, demand=demand, cuts=cuts, alpha=float(alpha))


@dataclass
class PrimalCertificate:
    """Near-feasible congestion vector: every scaled row within the slack."""

    x: np.ndarray
    gap: float
    iterations: int


@dataclass
class DualWitness:
    """Signed row weights whose pullback sweeps to a violating prefix.

    ``y`` holds one weight per cut-matrix row: positive where the demand
    inside the row outruns the residual capacity leaving it, negative where
    the demand outside outruns the capacity entering it.  ``potential`` is
    ``scaled_pullback(y)``, and ``side`` is the prefix that
    :func:`threshold_cut` returned for it: its demand exceeds its residual
    boundary, so no ``x`` in [0,1]^arcs meets the demand.
    """

    y: np.ndarray
    potential: np.ndarray
    side: frozenset[int]
    iterations: int


@dataclass
class ExhaustedOutcome:
    """Budget ran out: ``best_x`` is the best primal point seen, with gap ``best_gap``."""

    best_x: np.ndarray
    best_gap: float
    iterations: int


SaddleOutcome = Union[PrimalCertificate, DualWitness, ExhaustedOutcome]


def saddle_solve(
    problem: ReducedProblem,
    eps_over_alpha: float,
    budget: int,
    x0: Optional[np.ndarray] = None,
) -> SaddleOutcome:
    """Multiplicative-weights search for a primal point or a dual witness.

    The experts are the scaled rows and their negations; at congestion
    vector ``x`` row ``i`` loses ``u_i`` and its negation ``-u_i``, where
    ``u = scaled_rows(operator(x) - demand)``.  Each round checks the
    running primal average (and the warm start) against the slack, updates
    the weights, sweeps the pullback of the averaged signed weights
    ``y = avg_minus - avg_plus`` with :func:`threshold_cut`, and then plays
    the best-response congestion vector.  A violating sweep prefix ends the
    loop as a DualWitness.

    Returns:
        PrimalCertificate, DualWitness, or ExhaustedOutcome when the budget
        expires with neither.  The best primal point is checked once more
        after the last round, so an average that meets the slack there is a
        PrimalCertificate with ``iterations == budget``.
    """
    if not (0.0 < eps_over_alpha < 1.0):
        raise ValueError(f"slack must lie in (0, 1), got {eps_over_alpha}")
    if budget < 0:
        raise ValueError("budget must be nonnegative")

    r = problem.cuts.row_count
    num_arcs = problem.residual.graph.num_arcs
    if x0 is None:
        x0 = np.zeros(num_arcs, dtype=np.float64)
    best_x = x0
    best_gap = problem.primal_gap(x0)
    if budget == 0:
        return ExhaustedOutcome(best_x, best_gap, 0)

    loss_sum = np.zeros((2, r), dtype=np.float64)  # row order: plus, minus
    weight_sum = np.zeros((2, r), dtype=np.float64)
    xbar = np.zeros(num_arcs, dtype=np.float64)
    x_play = x0
    width = 1e-12

    for t in range(1, budget + 1):
        if best_gap <= eps_over_alpha:
            return PrimalCertificate(best_x, best_gap, t - 1)

        u = problem.scaled_rows(problem.operator(x_play) - problem.demand)
        width = max(width, float(np.max(np.abs(u))) if u.size else 0.0)
        loss_sum[0] += u
        loss_sum[1] -= u
        eta = math.sqrt(8.0 * math.log(max(4 * r, 2)) / t) / width
        shifted = eta * loss_sum
        shifted -= shifted.max()
        p = np.exp(shifted)
        p /= p.sum()
        weight_sum += p

        avg = weight_sum / t
        y = avg[1] - avg[0]
        phi = problem.scaled_pullback(y)
        try:
            return DualWitness(y, phi, threshold_cut(problem.residual, phi, problem.demand).side, t)
        except ThresholdCutError:
            pass

        x_t = (problem.adjoint(problem.scaled_pullback(p[0] - p[1])) < 0).astype(np.float64)
        xbar += (x_t - xbar) / t
        gap = problem.primal_gap(xbar)
        if gap < best_gap:
            best_gap, best_x = gap, xbar.copy()
        x_play = x_t

    if best_gap <= eps_over_alpha:
        return PrimalCertificate(best_x, best_gap, budget)
    return ExhaustedOutcome(best_x, best_gap, budget)


def threshold_cut(view, phi: np.ndarray, d: np.ndarray) -> VertexCut:
    """First decreasing-potential prefix whose demand beats its boundary.

    Vertices are sorted by decreasing ``phi`` with ties broken by vertex id.
    Arc ``a`` leaves prefix ``k`` (the first ``k + 1`` vertices) exactly when
    ``rank[tail] <= k < rank[head]``, so every prefix boundary is one
    cumulative sum over arc-endpoint ranks.  Returns the first proper
    prefix ``S`` with ``sum(d[S]) > boundary(S)``.  Such a prefix is a
    certificate on its own: no ``x`` in [0,1]^arcs routes ``d``.  When ``d``
    routes ``tau`` units from a source to a sink, it is an (s,t)-cut of
    value below ``tau``.  A boundary is never negative, so the running sum
    is clipped at zero: float cancellation in it cannot make a prefix of
    zero demand violate.

    ``view`` is a ResidualView or a CapacitatedGraph; only its ``n``,
    ``tails``, ``heads`` and ``arc_caps`` are read.

    Raises:
        ThresholdCutError: when no proper prefix violates.
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
        raise ThresholdCutError("no decreasing-potential prefix has demand above its boundary")
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
            ``budget``, or s == t.
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

    problem = reduce_problem(residual, st_demand(graph.n, s, t, tau), cuts())
    slack = (eps / EPSILON_SHRINK) / problem.alpha
    outcome = saddle_solve(problem, slack, budget, x0=np.clip(base_x, 0.0, 1.0))

    if isinstance(outcome, PrimalCertificate):
        flow = FlowAssignment(graph, outcome.x * caps)
        return FlowResult(flow=flow, primal_gap=outcome.gap, iterations=outcome.iterations)

    if isinstance(outcome, DualWitness):
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
