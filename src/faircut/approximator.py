"""Congestion estimators as explicit matrices of normalized cut rows.

A :class:`CutMatrix` holds rows ``(S_r, 1 / c(dS_r))``.  Applying it to a
demand gives, per row, the demand crossing the cut divided by the cut's
capacity; the max absolute entry is a lower bound on the congestion any
routing of that demand must incur.  How tight the upper side is depends on
the builder:

* ``build_exhaustive`` enumerates every cut through an anchor vertex, so
  the estimate is exact (factor 1) at small n.
* ``build_tree`` uses the fundamental cuts of a maximum-capacity spanning
  tree.  Routing along the tree certifies a computable upper-bound factor
  (``alpha_bound``): the worst ratio of fundamental-cut capacity to tree
  edge capacity.
* ``build_multi_tree`` unions several randomized trees, which can only
  shrink both the measured and the certified factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .graph import CapacitatedGraph
from .oracles import min_congestion_routing

__all__ = [
    "CutMatrix",
    "build_exhaustive",
    "build_multi_tree",
    "build_tree",
    "measure_alpha",
    "row_boundary_values",
]

EXHAUSTIVE_VERTEX_LIMIT = 20


@dataclass
class CutMatrix:
    """Rows of normalized cuts on a fixed graph.

    Immutable after build; :meth:`apply` and :meth:`pullback` are pure and
    safe to call concurrently.

    Attributes:
        n: vertex count of the underlying graph.
        rows: per row, the sorted vertex ids of the cut side.
        weights: per row, the exact reciprocal of the undirected cut value.
        kind: builder descriptor, e.g. ``"exhaustive"`` or ``"multitree:8"``.
        alpha_bound: certified upper-bound factor (estimate * alpha_bound
            >= true optimal congestion); ``inf`` when no bound is known.
    """

    n: int
    rows: list[np.ndarray]
    weights: np.ndarray
    kind: str = "custom"
    alpha_bound: float = float("inf")
    _indicator: Optional[sp.csr_matrix] = field(default=None, repr=False, compare=False)
    _indicator_t: Optional[sp.csc_matrix] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.rows) != len(self.weights):
            raise ValueError("row/weight count mismatch")
        if self.weights.size and (not np.all(np.isfinite(self.weights)) or self.weights.min() <= 0):
            raise ValueError("every row weight must be a finite positive reciprocal")

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def indicator(self) -> sp.csr_matrix:
        """Sparse 0/1 membership matrix (rows x vertices)."""
        if self._indicator is None:
            if self.rows:
                indices = np.concatenate(self.rows)
                indptr = np.zeros(len(self.rows) + 1, dtype=np.int64)
                indptr[1:] = np.cumsum([len(r) for r in self.rows])
                data = np.ones(len(indices), dtype=np.float64)
                self._indicator = sp.csr_matrix((data, indices, indptr), shape=(len(self.rows), self.n))
            else:
                self._indicator = sp.csr_matrix((0, self.n), dtype=np.float64)
        return self._indicator

    def apply(self, d: np.ndarray) -> np.ndarray:
        """Per row: weight * (demand inside the cut side)."""
        d = np.asarray(d, dtype=np.float64)
        return self.weights * (self.indicator @ d)

    def estimate(self, d: np.ndarray) -> float:
        """Max-norm of :meth:`apply`: the congestion lower bound for d."""
        if not self.rows:
            return 0.0
        return float(np.max(np.abs(self.apply(d))))

    def pullback(self, y: np.ndarray) -> np.ndarray:
        """Transpose action: vertex vector ``sum_r y_r * w_r * 1[v in S_r]``."""
        y = np.asarray(y, dtype=np.float64)
        if self._indicator_t is None:
            # Transposing builds and validates a new sparse object; the saddle
            # loop pulls back several times per iteration, so keep one.
            self._indicator_t = self.indicator.T
        return self._indicator_t @ (self.weights * y)


def row_boundary_values(cuts: CutMatrix, view) -> tuple[np.ndarray, np.ndarray]:
    """Per row, total arc capacity leaving and entering the cut side.

    ``view`` is anything with ``tails``/``heads``/``arc_caps`` arrays (a
    graph's bidirected arcs or a residual view).  Used for operator-norm checks and for
    scanning rows whose residual boundary certifies infeasibility.
    """
    tails, heads, caps = view.tails, view.heads, np.asarray(view.arc_caps, dtype=np.float64)
    num_arcs = len(tails)
    M = cuts.indicator
    ones = np.ones(num_arcs, dtype=np.float64)
    sel_t = sp.csr_matrix((ones, (tails, np.arange(num_arcs))), shape=(cuts.n, num_arcs))
    sel_h = sp.csr_matrix((ones, (heads, np.arange(num_arcs))), shape=(cuts.n, num_arcs))
    tail_in = M @ sel_t
    head_in = M @ sel_h
    both_in = tail_in.multiply(head_in)
    tail_total = tail_in @ caps
    head_total = head_in @ caps
    internal = both_in @ caps
    out_bound = np.asarray(tail_total - internal).ravel()
    in_bound = np.asarray(head_total - internal).ravel()
    return out_bound, in_bound


def operator_row_norms(cuts: CutMatrix, view) -> np.ndarray:
    """l1 norm of each row of (weights * indicator) applied to the arc operator.

    Row r of the composite map (cut matrix times divergence-times-capacity)
    has entry ``w_r * cap_a * (1[tail in S_r] - 1[head in S_r])`` for arc a,
    so its l1 norm is ``w_r`` times the capacity crossing S_r in either
    direction.
    """
    out_bound, in_bound = row_boundary_values(cuts, view)
    return cuts.weights * (out_bound + in_bound)


def build_exhaustive(g: CapacitatedGraph) -> CutMatrix:
    """One row per proper vertex subset containing vertex 0 (exact, small n)."""
    n = g.n
    if n > EXHAUSTIVE_VERTEX_LIMIT:
        raise ValueError(f"exhaustive builder limited to n <= {EXHAUSTIVE_VERTEX_LIMIT}, got {n}")
    if n < 2:
        raise ValueError("need at least two vertices")
    count = (1 << (n - 1)) - 1
    # Subsets containing vertex 0: masks 1 | (k << 1) for k in [0, 2^(n-1)-1),
    # excluding the full vertex set.
    ks = np.arange(count, dtype=np.int64)
    masks = 1 | (ks << 1)
    caps = np.zeros(count, dtype=np.float64)
    for u, v, c in zip(g.us, g.vs, g.caps):
        crossing = ((masks >> int(u)) & 1) != ((masks >> int(v)) & 1)
        caps[crossing] += float(c)
    if caps.size and caps.min() <= 0:
        raise ValueError("graph is disconnected; some enumerated cut has zero capacity")
    rows = []
    for mask in masks:
        members = [v for v in range(n) if (int(mask) >> v) & 1]
        rows.append(np.asarray(members, dtype=np.int64))
    return CutMatrix(n=n, rows=rows, weights=1.0 / caps, kind="exhaustive", alpha_bound=1.0)


def _spanning_tree(g: CapacitatedGraph, seed: Optional[int]) -> np.ndarray:
    """Edge ids of a maximum-capacity spanning tree (ties by edge id).

    With a seed, capacities are multiplicatively perturbed before ordering,
    which randomizes tie regions and near-ties across members of a forest.
    """
    keys = g.caps.astype(np.float64)
    if seed is not None:
        rng = np.random.default_rng(seed)
        keys = keys * rng.uniform(0.5, 1.5, g.m)
    order = np.lexsort((np.arange(g.m), -keys))
    chosen, labels = g.spanning_forest(order)
    if len(chosen) != g.n - 1:
        stranded = sorted(int(v) for v in np.nonzero(labels != labels[0])[0])
        raise ValueError(f"graph is disconnected; stranded vertices include {stranded[:6]}")
    return np.asarray(sorted(chosen), dtype=np.int64)


def _tree_rows(g: CapacitatedGraph, tree_edges: np.ndarray):
    """Fundamental-cut rows of a spanning tree, with exact crossing capacities.

    Roots the tree at vertex 0.  For each non-root vertex v the row is the
    vertex set of v's subtree; its crossing capacity is computed for all
    rows at once with a subtree-sum identity:

        crossing(S_v) = sum over x in S_v of weighted_degree(x)
                        - 2 * sum of capacities of edges whose deepest
                          common ancestor lies in S_v.
    """
    n = g.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in tree_edges:
        u, v = int(g.us[e]), int(g.vs[e])
        adj[u].append((v, int(e)))
        adj[v].append((u, int(e)))

    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    preorder = np.zeros(n, dtype=np.int64)
    tin = np.zeros(n, dtype=np.int64)
    tout = np.zeros(n, dtype=np.int64)
    timer = 0
    stack = [(0, -1, False)]
    while stack:
        v, p, done = stack.pop()
        if done:
            tout[v] = timer
            continue
        parent[v] = p
        tin[v] = timer
        preorder[timer] = v
        timer += 1
        stack.append((v, p, True))
        for w, e in adj[v]:
            if w != p:
                depth[w] = depth[v] + 1
                parent_edge[w] = e
                stack.append((w, v, False))

    # Deepest common ancestor of each graph edge's endpoints, by walking the
    # deeper endpoint up.  Paths are short at desk scale; memoization via
    # jump pointers is unnecessary here.
    weighted_degree = np.zeros(n, dtype=np.float64)
    np.add.at(weighted_degree, g.us, g.caps.astype(np.float64))
    np.add.at(weighted_degree, g.vs, g.caps.astype(np.float64))
    load = weighted_degree.copy()
    for e in range(g.m):
        a, b = int(g.us[e]), int(g.vs[e])
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            a = int(parent[a])
        load[a] -= 2.0 * float(g.caps[e])

    subtree_sum = load.copy()
    for i in range(n - 1, 0, -1):
        v = int(preorder[i])
        subtree_sum[parent[v]] += subtree_sum[v]

    rows, caps, stretch = [], [], 0.0
    for v in range(1, n):
        members = np.sort(preorder[tin[v] : tout[v]])
        crossing = float(subtree_sum[v])
        rows.append(members)
        caps.append(crossing)
        stretch = max(stretch, crossing / float(g.caps[parent_edge[v]]))
    order = np.argsort(tin[1:], kind="stable")  # deterministic row order by subtree root
    rows = [rows[i] for i in order]
    caps = np.asarray(caps, dtype=np.float64)[order]
    return rows, caps, stretch


def build_tree(g: CapacitatedGraph, seed: Optional[int] = None) -> CutMatrix:
    """Fundamental cuts of a maximum-capacity spanning tree.

    The certified ``alpha_bound`` is the tree's worst fundamental-cut to
    tree-edge capacity ratio: routing any demand along the tree shows the
    optimal congestion is at most that factor above the matrix estimate.

    Raises:
        ValueError: when the graph is disconnected (names stranded vertices).
    """
    tree_edges = _spanning_tree(g, seed)
    rows, caps, stretch = _tree_rows(g, tree_edges)
    if caps.size and caps.min() <= 0:
        raise ValueError("fundamental cut with zero capacity; graph must be connected")
    return CutMatrix(
        n=g.n,
        rows=rows,
        weights=1.0 / caps,
        kind="tree" if seed is None else f"tree@{seed}",
        alpha_bound=max(1.0, stretch),
    )


def build_multi_tree(g: CapacitatedGraph, k: int, seed: int = 0) -> CutMatrix:
    """Union of k randomized tree matrices with duplicate rows removed."""
    if k < 1:
        raise ValueError(f"member count must be at least 1, got {k}")
    rows: list[np.ndarray] = []
    weights: list[float] = []
    seen: set[tuple[int, ...]] = set()
    bound = float("inf")
    for j in range(k):
        member = build_tree(g, seed + j)
        bound = min(bound, member.alpha_bound)
        for row, w in zip(member.rows, member.weights):
            key = tuple(int(v) for v in row)
            if key in seen:
                continue
            seen.add(key)
            rows.append(row)
            weights.append(float(w))
    return CutMatrix(
        n=g.n,
        rows=rows,
        weights=np.asarray(weights, dtype=np.float64),
        kind=f"multitree:{k}",
        alpha_bound=bound,
    )


def measure_alpha(
    cuts: CutMatrix,
    g: CapacitatedGraph,
    trials: int,
    seed: int = 0,
) -> float:
    """Empirical upper-bound factor: worst OPT(d) / estimate(d) over samples.

    Samples alternate between (s,t) demands and sparse random demands; the
    exact min-congestion oracle supplies OPT.  Returns 1.0 when the estimate
    is never beaten.

    Raises:
        RuntimeError: if some sampled demand has a positive OPT but a zero
            estimate (the matrix cannot see it at all).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    worst = 1.0
    for trial in range(trials):
        if trial % 2 == 0:
            s, t = rng.choice(g.n, size=2, replace=False)
            tau = float(rng.integers(1, g.max_capacity + 1))
            d = np.zeros(g.n)
            d[s], d[t] = tau, -tau
        else:
            k = int(rng.integers(2, min(g.n, 6) + 1))
            verts = rng.choice(g.n, size=k, replace=False)
            vals = rng.normal(size=k) * g.max_capacity
            vals -= vals.mean()
            d = np.zeros(g.n)
            d[verts] = vals
        if np.abs(d).sum() <= 1e-12:
            continue
        opt, _ = min_congestion_routing(g, d)
        est = cuts.estimate(d)
        if est <= 1e-14:
            if opt > 1e-9:
                raise RuntimeError("estimator blind to a routable demand (estimate 0, OPT > 0)")
            continue
        worst = max(worst, opt / est)
    return worst


BuilderFn = Callable[[CapacitatedGraph, Optional[int]], CutMatrix]


def resolve_builder(descriptor: str) -> BuilderFn:
    """Map a descriptor like ``multitree:8`` to a builder callable.

    The descriptor is checked here, before any matrix is built, because a
    run may finish without calling the builder at all.

    Raises:
        ValueError: unknown descriptor, or a ``multitree`` count that is not
            an integer of at least 1.
    """
    if descriptor == "exhaustive":
        return lambda g, seed: build_exhaustive(g)
    if descriptor == "tree":
        return lambda g, seed: build_tree(g, seed)
    if descriptor.startswith("multitree:"):
        try:
            k = int(descriptor.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad multitree count in {descriptor!r}") from exc
        if k < 1:
            raise ValueError(f"member count must be at least 1, got {k}")
        return lambda g, seed: build_multi_tree(g, k, seed if seed is not None else 0)
    raise ValueError(f"unknown approximator descriptor {descriptor!r}")
