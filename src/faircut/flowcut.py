"""Flow-or-cut primitive on residual graphs.

Given a base graph, a residual view, vertices ``s, t`` and a threshold
``tau``, :func:`flow_or_cut` returns either an (s,t)-cut of residual value
below ``tau`` or a feasible residual flow whose unrouted remainder is
routable in the base graph with congestion at most ``eps``.

The decision runs through a two-commodity reduction: the flow's congestion
vector is paired with its per-arc complement, the cut-matrix rows (scaled
by 1/4 so the stacked operator has unit infinity-to-infinity norm) turn the
divergence constraints into a bounded row system, and a saddle solver
produces either a near-feasible primal point or nonnegative row weights
whose pulled-back vertex potential certifies infeasibility.  A potential
with a positive certificate value always admits a violating threshold
prefix, which the sweep in :func:`threshold_cut` extracts in
O(m + n log n).

The saddle solver is a multiplicative-weights loop over the stacked rows,
warm-started from the exact residual max-flow of
:func:`faircut.oracles.max_flow_exact`, the package's one max-flow.  A
max-flow of 0 means t is unreachable, and its min cut is returned at once.
When the max-flow already reaches ``tau``, the scaled warm flow routes the
whole demand, so the call returns it without building the cut matrix or
entering the loop.  Otherwise the matrix is built and the loop runs from
the warm start; on unroutable instances the weight pullback or a single
matrix row certifies a cut within a few rounds, and the loop
remains the authority for every cut certificate it emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .approximator import CutMatrix, row_boundary_values
from .graph import (
    CapacitatedGraph,
    FlowAssignment,
    ResidualView,
    VertexCut,
    directed_cut_value,
    divergence,
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
    "SolverExhausted",
    "ThresholdCutError",
    "dual_to_potential",
    "flow_or_cut",
    "reduce_problem",
    "saddle_solve",
    "threshold_cut",
]

# The search target is shrunk by this factor before solving so that the
# estimate-to-optimum conversion lands back at eps (row scale 1/4 undoes it).
EPSILON_SHRINK = 4.0


class ThresholdCutError(RuntimeError):
    """No violating prefix exists; the potential precondition was not met."""


class SolverExhausted(RuntimeError):
    """Budget expired without a primal point or a usable dual potential."""

    def __init__(self, message: str, iterations: int, best_gap: float) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.best_gap = best_gap


@dataclass
class ReducedProblem:
    """Stacked row system for one flow-or-cut decision.

    ``demand`` is the target divergence; ``empty_demand`` is the divergence
    of the all-ones congestion vector minus ``demand``, so that a congestion
    vector ``x`` together with its complement ``1 - x`` satisfies the paired
    system exactly when ``x`` routes the demand.  ``alpha`` is the factor by
    which the cut-matrix estimate may undershoot the true optimal
    congestion.
    """

    graph: CapacitatedGraph
    residual: ResidualView
    demand: np.ndarray
    empty_demand: np.ndarray
    cuts: CutMatrix
    alpha: float

    def operator(self, x: np.ndarray) -> np.ndarray:
        """Divergence of the absolute flow ``residual_caps * x``."""
        vals = self.residual.arc_caps * x
        out = np.bincount(self.graph.tails, weights=vals, minlength=self.graph.n)
        inc = np.bincount(self.graph.heads, weights=vals, minlength=self.graph.n)
        return out - inc

    def adjoint(self, phi: np.ndarray) -> np.ndarray:
        """Per arc: ``c'_a * (phi[tail] - phi[head])``."""
        return self.residual.arc_caps * (phi[self.graph.tails] - phi[self.graph.heads])

    def scaled_rows(self, vertex_vec: np.ndarray) -> np.ndarray:
        """Quarter-scaled cut-matrix action (rows have l1 norm <= 1)."""
        return 0.25 * self.cuts.apply(vertex_vec)

    def scaled_pullback(self, y: np.ndarray) -> np.ndarray:
        return 0.25 * self.cuts.pullback(y)

    def primal_gap(self, x: np.ndarray) -> float:
        """Max scaled-row violation of the demand constraint at ``x``."""
        rows = self.scaled_rows(self.operator(x) - self.demand)
        return float(np.max(np.abs(rows))) if rows.size else 0.0


def reduce_problem(
    graph: CapacitatedGraph,
    residual: ResidualView,
    demand: np.ndarray,
    cuts: CutMatrix,
    alpha: Optional[float] = None,
) -> ReducedProblem:
    """Assemble the stacked system for a residual view and a demand.

    Raises:
        ValueError: for a cut matrix with non-positive or non-finite row
            weights, a mismatched demand length, or a missing alpha when the
            matrix carries no certified bound.
    """
    if residual.graph is not graph:
        raise ValueError("residual view does not belong to the base graph")
    demand = np.asarray(demand, dtype=np.float64)
    if demand.shape != (graph.n,):
        raise ValueError(f"demand must have {graph.n} entries")
    if cuts.n != graph.n:
        raise ValueError("cut matrix was built for a different vertex count")
    if cuts.weights.size and (not np.all(np.isfinite(cuts.weights)) or cuts.weights.min() <= 0):
        raise ValueError("cut matrix contains a zero-capacity row")
    if alpha is None:
        alpha = cuts.alpha_bound
    if not (math.isfinite(alpha) and alpha >= 1):
        raise ValueError("no usable congestion factor: pass alpha or use a builder with a bound")
    all_ones = np.ones(graph.num_arcs, dtype=np.float64)
    out = np.bincount(graph.tails, weights=residual.arc_caps * all_ones, minlength=graph.n)
    inc = np.bincount(graph.heads, weights=residual.arc_caps * all_ones, minlength=graph.n)
    empty_demand = (out - inc) - demand
    return ReducedProblem(
        graph=graph,
        residual=residual,
        demand=demand,
        empty_demand=empty_demand,
        cuts=cuts,
        alpha=float(alpha),
    )


@dataclass
class PrimalCertificate:
    """Near-feasible congestion vector: every scaled row within the slack."""

    x: np.ndarray
    gap: float
    iterations: int


@dataclass
class DualWitness:
    """Nonnegative weights over the stacked rows certifying infeasibility.

    ``w1/z1`` weight the +/- row copies on the flow column, ``w2/z2`` the
    +/- copies on the complement column.  ``potential`` is the pulled-back
    vertex potential of the successful branch.
    """

    w1: np.ndarray
    z1: np.ndarray
    w2: np.ndarray
    z2: np.ndarray
    potential: Optional[np.ndarray] = None
    branch: Optional[str] = None
    iterations: int = 0


@dataclass
class ExhaustedOutcome:
    """Budget ran out; carries the averaged weights and best primal point."""

    w1: np.ndarray
    z1: np.ndarray
    w2: np.ndarray
    z2: np.ndarray
    best_x: np.ndarray
    best_gap: float
    iterations: int


SaddleOutcome = Union[PrimalCertificate, DualWitness, ExhaustedOutcome]


def dual_to_potential(
    witness: DualWitness, problem: ReducedProblem, x: np.ndarray
) -> tuple[np.ndarray, str]:
    """Derive a vertex potential from stacked-row weights.

    Tries the two weight differences ``w2 - w1`` and ``z1 - z2``; pulled
    back through the scaled rows, one of them must give a potential with
    ``phi . (demand - operator(x)) > 0`` whenever the weights are a valid
    dual for the candidate ``x``.  Scaling the weights by any positive
    constant leaves the outcome unchanged.

    Raises:
        RuntimeError: when neither branch is positive (the weights do not
            certify anything for this candidate).
    """
    residual_vec = problem.demand - problem.operator(x)
    for name, diff in (("w2-w1", witness.w2 - witness.w1), ("z1-z2", witness.z1 - witness.z2)):
        phi = problem.scaled_pullback(diff)
        if float(phi @ residual_vec) > 0.0:
            return phi, name
    raise RuntimeError("dual weights certify nothing: both potential branches are non-positive")


def potential_margin(problem: ReducedProblem, phi: np.ndarray) -> float:
    """Certificate value ``phi . d  -  sum_a c'_a * max(0, drop along a)``.

    A strictly positive margin guarantees a threshold prefix whose demand
    exceeds its residual boundary.
    """
    drops = problem.adjoint(phi)
    saturated = float(np.maximum(drops, 0.0).sum())
    return float(phi @ problem.demand) - saturated


def _margin_ok(problem: ReducedProblem, phi: np.ndarray) -> bool:
    drops = problem.adjoint(phi)
    saturated = float(np.maximum(drops, 0.0).sum())
    value = float(phi @ problem.demand)
    return value - saturated > 1e-10 * max(1.0, abs(value), saturated)


def saddle_solve(
    problem: ReducedProblem,
    eps_over_alpha: float,
    budget: int,
    x0: Optional[np.ndarray] = None,
    trace: Optional[list] = None,
) -> SaddleOutcome:
    """Multiplicative-weights search for a primal point or a dual witness.

    Each round plays the best-response congestion vector against the
    current row weights, checks the running primal average (and the warm
    start) against the slack, and tests whether the averaged weights pull
    back to a potential with a positive certificate margin.  A one-time row
    scan also tests every matrix row directly: any row whose demand excess
    beats its residual boundary is itself a valid witness.

    Returns:
        PrimalCertificate, DualWitness, or ExhaustedOutcome when the budget
        expires with neither.
    """
    if not (0.0 < eps_over_alpha < 1.0):
        raise ValueError(f"slack must lie in (0, 1), got {eps_over_alpha}")
    if budget < 0:
        raise ValueError("budget must be nonnegative")

    r = problem.cuts.row_count
    num_arcs = problem.graph.num_arcs
    if x0 is None:
        x0 = np.zeros(num_arcs, dtype=np.float64)
    best_x = x0
    best_gap = problem.primal_gap(x0)

    uniform = np.full(r, 1.0 / max(4 * r, 1), dtype=np.float64)
    if budget == 0:
        return ExhaustedOutcome(uniform, uniform, uniform, uniform, best_x, best_gap, 0)

    loss_sum = np.zeros((4, r), dtype=np.float64)
    weight_sum = np.zeros((4, r), dtype=np.float64)
    xbar = np.zeros(num_arcs, dtype=np.float64)
    x_play = x0
    width = 1e-12
    row_scan_done = False

    for t in range(1, budget + 1):
        if best_gap <= eps_over_alpha:
            return PrimalCertificate(best_x, best_gap, t - 1)

        u = problem.scaled_rows(problem.operator(x_play) - problem.demand)
        losses = np.stack([u, -u, -u, u])  # block order: w1, z1, w2, z2
        width = max(width, float(np.max(np.abs(u))) if u.size else 0.0)
        loss_sum += losses
        eta = math.sqrt(8.0 * math.log(max(4 * r, 2)) / t) / width
        shifted = eta * loss_sum
        shifted -= shifted.max()
        p = np.exp(shifted)
        p /= p.sum()
        weight_sum += p

        avg = weight_sum / t
        witness = DualWitness(w1=avg[0], z1=avg[1], w2=avg[2], z2=avg[3], iterations=t)
        try:
            phi, branch = dual_to_potential(witness, problem, best_x)
        except RuntimeError:
            phi = None
        if phi is not None and _margin_ok(problem, phi):
            witness.potential = phi
            witness.branch = branch
            if trace is not None:
                trace.append((t, best_gap, potential_margin(problem, phi)))
            return witness

        if not row_scan_done:
            row_scan_done = True
            witness = _scan_rows(problem, t)
            if witness is not None:
                return witness

        cost_flow = problem.adjoint(problem.scaled_pullback(p[0] - p[1]))
        cost_rest = problem.adjoint(problem.scaled_pullback(p[2] - p[3]))
        x_t = (cost_flow < cost_rest).astype(np.float64)
        xbar += (x_t - xbar) / t
        gap = problem.primal_gap(xbar)
        if gap < best_gap:
            best_gap, best_x = gap, xbar.copy()
        if trace is not None:
            trace.append((t, best_gap, float("nan")))
        x_play = x_t

    avg = weight_sum / budget
    return ExhaustedOutcome(avg[0], avg[1], avg[2], avg[3], best_x, best_gap, budget)


def _scan_rows(problem: ReducedProblem, iterations: int) -> Optional[DualWitness]:
    """Test every cut-matrix row as a one-row dual witness.

    A row certifies infeasibility when the demand inside it exceeds the
    residual capacity leaving it (or the mirrored statement for its
    complement).  Returns a witness built from the best-margin row,
    preferring the outgoing side; None when no row has positive margin.
    """
    cuts = problem.cuts
    if not cuts.row_count:
        return None
    delta = np.asarray(cuts.indicator @ problem.demand).ravel()
    out_bound, in_bound = row_boundary_values(cuts, problem.residual)
    scale = np.maximum(1.0, np.maximum(np.abs(delta), np.maximum(out_bound, in_bound)))
    fwd_margin = (delta - out_bound) / scale
    bwd_margin = (-delta - in_bound) / scale
    best_fwd = int(np.argmax(fwd_margin)) if fwd_margin.size else -1
    best_bwd = int(np.argmax(bwd_margin)) if bwd_margin.size else -1
    zeros = np.zeros(cuts.row_count, dtype=np.float64)
    if best_fwd >= 0 and fwd_margin[best_fwd] > 1e-10:
        w2 = zeros.copy()
        w2[best_fwd] = 1.0
        witness = DualWitness(w1=zeros.copy(), z1=zeros.copy(), w2=w2, z2=zeros.copy(), iterations=iterations)
        phi = problem.scaled_pullback(w2)
        if _margin_ok(problem, phi):
            witness.potential = phi
            witness.branch = "w2-w1"
            return witness
    if best_bwd >= 0 and bwd_margin[best_bwd] > 1e-10:
        # Complement side: weight the positive row copy on the flow column,
        # so the branch difference w2 - w1 pulls back to a negated indicator.
        w1 = zeros.copy()
        w1[best_bwd] = 1.0
        phi = problem.scaled_pullback(-w1)
        if _margin_ok(problem, phi):
            witness = DualWitness(w1=w1, z1=zeros.copy(), w2=zeros.copy(), z2=zeros.copy(), iterations=iterations)
            witness.potential = phi
            witness.branch = "w2-w1"
            return witness
    return None


def threshold_cut(
    view, phi: np.ndarray, d: np.ndarray, source: Optional[int] = None, sink: Optional[int] = None
) -> VertexCut:
    """First decreasing-potential prefix whose demand beats its boundary.

    Vertices are sorted by decreasing ``phi`` with ties broken by vertex id;
    the sweep maintains the prefix demand and the directed boundary value
    incrementally and returns the first proper prefix ``S`` with
    ``sum(d[S]) > boundary(S)``.  When ``d`` routes ``tau`` units from a
    source to a sink, the returned prefix is an (s,t)-cut of value below
    ``tau``.

    Raises:
        ThresholdCutError: when no prefix violates (the potential did not
            satisfy the positive-margin precondition).
    """
    graph = view.graph
    n = graph.n
    phi = np.asarray(phi, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    order = np.lexsort((np.arange(n), -phi))
    caps = view.arc_caps
    heads, tails = graph.heads, graph.tails
    in_side = np.zeros(n, dtype=bool)
    delta = 0.0
    boundary = 0.0
    for k in range(n - 1):
        v = int(order[k])
        in_side[v] = True
        delta += float(d[v])
        for a in graph.out_arcs(v):
            if not in_side[heads[a]]:
                boundary += caps[a]
        for a in graph.in_arcs(v):
            if in_side[tails[a]]:
                boundary -= caps[a]
        if delta > boundary:
            side = frozenset(int(x) for x in order[: k + 1])
            return VertexCut(side, source=source, sink=sink)
    raise ThresholdCutError("no violating prefix; potential margin was not positive")


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
    residual_demand: np.ndarray


@dataclass
class CutResult:
    """(s,t)-cut with residual boundary value strictly below the threshold."""

    cut: VertexCut
    value: float
    iterations: int
    via: str
    witness: Optional[DualWitness] = None


def flow_or_cut(
    graph: CapacitatedGraph,
    residual: ResidualView,
    s: int,
    t: int,
    tau: float,
    eps: float,
    cuts: Union[CutMatrix, Callable[[], CutMatrix]],
    budget: int = 1000,
    alpha: Optional[float] = None,
    trace: Optional[list] = None,
) -> Union[FlowResult, CutResult]:
    """Feasible flow toward ``tau`` units s->t, or a cut below ``tau``.

    Flow outcome: the returned flow is feasible in the residual view and
    the leftover demand ``tau*(1_s - 1_t) - divergence(flow)`` can be routed
    in the base graph with congestion at most ``eps``.  Cut outcome: the
    returned (s,t)-cut has residual boundary value strictly below ``tau``.

    The exact warm-start max-flow is computed first.  When it reaches
    ``tau`` (and ``budget >= 1``) the flow outcome is returned at once with
    ``iterations=0``, ``primal_gap=0.0`` and no cut matrix.  Otherwise the
    cut matrix is needed: ``cuts`` may be the matrix itself or a
    zero-argument callable that builds it, called at most once and only on
    this path.

    Raises:
        ValueError: ``tau <= 0``, ``eps`` outside ``(0, 1/2)``, or s == t.
        SolverExhausted: the saddle budget expired and no salvage potential
            produced a valid cut (the caller may raise the budget or switch
            the cut matrix).
    """
    if tau <= 0:
        raise ValueError(f"threshold must be positive, got {tau}")
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    if s == t:
        raise ValueError("source and sink must differ")
    if residual.graph is not graph:
        raise ValueError("residual view does not belong to the base graph")

    maxflow, warm, mincut = max_flow_exact(residual, s, t)
    if maxflow == 0:
        # t is unreachable; the min cut is s's positive-capacity reachable set.
        value = directed_cut_value(residual, mincut)
        if value >= tau:
            raise ValueError("threshold not positive enough to separate a saturated instance")
        return CutResult(cut=mincut, value=value, iterations=0, via="reachability")

    caps = residual.arc_caps
    with np.errstate(divide="ignore", invalid="ignore"):
        base_x = np.where(caps > 0, warm.values / np.maximum(caps, 1e-300), 0.0)
    routes_tau = maxflow >= tau * (1.0 - 1e-12)
    if routes_tau:
        x0 = np.clip(base_x * (tau / maxflow), 0.0, 1.0)
    else:
        x0 = np.clip(base_x, 0.0, 1.0)

    demand = st_demand(graph.n, s, t, tau)
    if routes_tau and budget >= 1:
        # A zero budget keeps its meaning: the warm start is only examined
        # inside the first saddle round, so it exhausts below.
        flow = FlowAssignment(graph, x0 * caps)
        return FlowResult(flow=flow, primal_gap=0.0, iterations=0, residual_demand=demand - divergence(flow))

    if not isinstance(cuts, CutMatrix):
        cuts = cuts()
    problem = reduce_problem(graph, residual, demand, cuts, alpha=alpha)
    slack = (eps / EPSILON_SHRINK) / problem.alpha
    outcome = saddle_solve(problem, slack, budget, x0=x0, trace=trace)

    if isinstance(outcome, PrimalCertificate):
        flow = FlowAssignment(graph, outcome.x * caps)
        leftover = demand - divergence(flow)
        return FlowResult(
            flow=flow,
            primal_gap=outcome.gap,
            iterations=outcome.iterations,
            residual_demand=leftover,
        )

    if isinstance(outcome, DualWitness):
        cut = threshold_cut(residual, outcome.potential, demand, source=s, sink=t)
        value = directed_cut_value(residual, cut)
        if value >= tau:
            raise RuntimeError("threshold sweep returned a cut at or above tau; dual was invalid")
        return CutResult(cut=cut, value=value, iterations=outcome.iterations, via="threshold-cut", witness=outcome)

    # Budget expired: test the averaged weight pullbacks, then the warm
    # flow's min-cut side, as salvage potentials.
    candidates: list[np.ndarray] = []
    candidates.append(problem.scaled_pullback(outcome.w2 - outcome.w1))
    candidates.append(problem.scaled_pullback(outcome.z1 - outcome.z2))
    if maxflow < tau:
        phi_ws = np.zeros(graph.n, dtype=np.float64)
        phi_ws[list(mincut.side)] = 1.0
        candidates.append(phi_ws)
    for phi in candidates:
        if not _margin_ok(problem, phi):
            continue
        try:
            cut = threshold_cut(residual, phi, demand, source=s, sink=t)
        except ThresholdCutError:
            continue
        value = directed_cut_value(residual, cut)
        if value < tau:
            return CutResult(cut=cut, value=value, iterations=outcome.iterations, via="salvage")
    raise SolverExhausted(
        f"saddle budget {budget} expired with primal gap {outcome.best_gap:.3g} above {slack:.3g}",
        iterations=outcome.iterations,
        best_gap=outcome.best_gap,
    )
