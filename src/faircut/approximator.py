"""Congestion estimators as explicit matrices of normalized cut rows.

A :class:`CutMatrix` holds rows ``(S_r, 1 / c(dS_r))`` as one sparse 0/1
indicator (rows x vertices, CSR, each row's vertex ids ascending) and a
weight per row.  Applying it to a demand gives, per row, the demand
crossing the cut divided by the cut's capacity; the max absolute entry is a
lower bound on the congestion any routing of that demand must incur.  How
tight the upper side is depends on the builder:

* ``build_exhaustive`` enumerates every cut through an anchor vertex, so
  the estimate is exact (factor 1) at small n.
* ``build_tree`` uses the fundamental cuts of a maximum-capacity spanning
  tree.  Routing along the tree certifies a computable upper-bound factor
  (``alpha_bound``): the worst ratio of fundamental-cut capacity to tree
  edge capacity.  Each subtree is a contiguous preorder interval, so all
  rows are gathered with one index.
* ``build_multi_tree`` unions several randomized trees, which can only
  shrink both the measured and the certified factor.

A run names its builder by descriptor, ``exhaustive`` or ``multitree:K``;
:func:`resolve_builder` maps it to a ``(graph, seed)`` callable, and the
descriptor itself is what the result records.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

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
]

EXHAUSTIVE_VERTEX_LIMIT = 20


def _csr(indices: np.ndarray, indptr: np.ndarray, n: int) -> sp.csr_matrix:
    """0/1 indicator with the given member lists (rows x n)."""
    data = np.ones(len(indices), dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, n))


class CutMatrix:
    """Rows of normalized cuts on a fixed graph.

    Immutable after build; :meth:`apply` and :meth:`pullback` are pure and
    safe to call concurrently.

    Attributes:
        n: vertex count of the underlying graph.
        indicator: sparse 0/1 membership matrix (rows x vertices, CSR), the
            only stored form of the rows.
        weights: per row, the exact reciprocal of the undirected cut value.
        alpha_bound: certified upper-bound factor (estimate * alpha_bound
            >= true optimal congestion); ``inf`` when no bound is known.
    """

    def __init__(
        self,
        n: int,
        rows: Union[sp.csr_matrix, Sequence[np.ndarray]],
        weights: np.ndarray,
        alpha_bound: float = float("inf"),
    ) -> None:
        """``rows`` is the indicator itself or one vertex-id array per row."""
        if not sp.issparse(rows):
            indptr = np.cumsum([0] + [len(r) for r in rows])
            rows = _csr(np.concatenate([np.zeros(0, dtype=np.int64), *rows]), indptr, n)
        self.n = n
        self.indicator = rows
        self.weights = np.asarray(weights, dtype=np.float64)
        self.alpha_bound = alpha_bound
        self._indicator_t: Optional[sp.csc_matrix] = None
        if rows.shape[0] != len(self.weights):
            raise ValueError("row/weight count mismatch")
        if self.weights.size and (not np.all(np.isfinite(self.weights)) or self.weights.min() <= 0):
            raise ValueError("every row weight must be a finite positive reciprocal")

    @property
    def row_count(self) -> int:
        return self.indicator.shape[0]

    @property
    def rows(self) -> list[np.ndarray]:
        """Per row, the vertex ids of the cut side (derived on each call)."""
        members, ptr = self.indicator.indices.astype(np.int64), self.indicator.indptr.tolist()
        return [members[a:b] for a, b in zip(ptr, ptr[1:])]

    def apply(self, d: np.ndarray) -> np.ndarray:
        """Per row: weight * (demand inside the cut side)."""
        d = np.asarray(d, dtype=np.float64)
        return self.weights * (self.indicator @ d)

    def estimate(self, d: np.ndarray) -> float:
        """Max-norm of :meth:`apply`: the congestion lower bound for d."""
        if not self.row_count:
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


def build_exhaustive(g: CapacitatedGraph) -> CutMatrix:
    """One row per proper vertex subset containing vertex 0 (exact, small n)."""
    n = g.n
    if n > EXHAUSTIVE_VERTEX_LIMIT:
        raise ValueError(f"exhaustive builder limited to n <= {EXHAUSTIVE_VERTEX_LIMIT}, got {n}")
    if n < 2:
        raise ValueError("need at least two vertices")
    count = (1 << (n - 1)) - 1
    # Subsets containing vertex 0: masks 1 | (k << 1) for k in [0, 2^(n-1)-1),
    # excluding the full vertex set.  Row r's members are the set bits of
    # mask r, so the nonzeros of the bit matrix are the sorted rows in order.
    masks = 1 | (np.arange(count, dtype=np.int64) << 1)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    caps = np.zeros(count, dtype=np.float64)
    for u, v, c in zip(g.us, g.vs, g.caps):
        caps[bits[:, u] != bits[:, v]] += float(c)
    if caps.size and caps.min() <= 0:
        raise ValueError("graph is disconnected; some enumerated cut has zero capacity")
    indptr = np.concatenate(([0], np.cumsum(bits.sum(axis=1))))
    indicator = _csr(np.nonzero(bits)[1], indptr, n)
    return CutMatrix(n, indicator, 1.0 / caps, alpha_bound=1.0)


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


def _common_ancestors(parent: np.ndarray, depth: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per pair ``(a[i], b[i])``, the deepest common ancestor, by binary lifting.

    ``parent`` maps the root to itself.
    """
    jumps = [parent]
    for _ in range(1, max(1, int(depth.max()).bit_length())):
        jumps.append(jumps[-1][jumps[-1]])
    deeper = depth[a] >= depth[b]
    a, b = np.where(deeper, a, b), np.where(deeper, b, a)
    rise = depth[a] - depth[b]
    for j, up in enumerate(jumps):
        a = np.where((rise >> j) & 1, up[a], a)
    for up in reversed(jumps):
        ua, ub = up[a], up[b]
        split = ua != ub
        a, b = np.where(split, ua, a), np.where(split, ub, b)
    return np.where(a == b, a, parent[a])


def _tree_rows(g: CapacitatedGraph, tree_edges: np.ndarray):
    """Fundamental-cut rows of a spanning tree, with exact crossing capacities.

    Roots the tree at vertex 0.  For each non-root vertex v the row is the
    vertex set of v's subtree: the preorder slice from v to ``tout[v]``.
    Rows come in preorder of v.  Crossing capacities are computed for all
    rows at once with a subtree-sum identity:

        crossing(S_v) = sum over x in S_v of weighted_degree(x)
                        - 2 * sum of capacities of edges whose deepest
                          common ancestor lies in S_v.

    Returns the sorted CSR indicator of the rows, their crossing
    capacities, and the worst crossing to tree-edge capacity ratio.
    """
    n = g.n
    us, vs = g.us.tolist(), g.vs.tolist()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in tree_edges.tolist():
        adj[us[e]].append((vs[e], e))
        adj[vs[e]].append((us[e], e))

    parent, parent_edge, depth = [0] * n, [-1] * n, [0] * n
    preorder: list[int] = []
    tout = [0] * n
    stack = [(0, -1, False)]
    while stack:
        v, p, done = stack.pop()
        if done:
            tout[v] = len(preorder)
            continue
        preorder.append(v)
        stack.append((v, p, True))
        for w, e in adj[v]:
            if w != p:
                parent[w], parent_edge[w], depth[w] = v, e, depth[v] + 1
                stack.append((w, v, False))

    # Per vertex: weighted degree, less twice each edge whose endpoints'
    # deepest common ancestor it is.  Float sums would cancel a small cut
    # edge against a large one, so the identity is summed exactly: in int64
    # over the high and the low 31 bits of each capacity, then as Python
    # integers, which cannot overflow.
    ancestors = _common_ancestors(np.asarray(parent), np.asarray(depth), g.us, g.vs)
    halves = []
    for part in (g.caps >> 31, g.caps & (2**31 - 1)):
        load = np.zeros(n, dtype=np.int64)
        np.add.at(load, g.us, part)
        np.add.at(load, g.vs, part)
        np.subtract.at(load, ancestors, 2 * part)
        halves.append(load.tolist())
    subtree_sum = [(high << 31) + low for high, low in zip(*halves)]
    for v in reversed(preorder[1:]):
        subtree_sum[parent[v]] += subtree_sum[v]

    order = np.asarray(preorder, dtype=np.int64)
    row_roots = order[1:]
    crossing = np.asarray(subtree_sum, dtype=np.float64)[row_roots]
    caps = g.caps.astype(np.float64)
    stretch = float(np.max(crossing / caps[np.asarray(parent_edge)[row_roots]], initial=0.0))
    # Row i is the preorder slice [i + 1, tout[row_roots[i]]).
    sizes = np.asarray(tout, dtype=np.int64)[row_roots] - np.arange(1, n)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    slots = np.arange(indptr[-1]) - np.repeat(indptr[:-1] - np.arange(1, n), sizes)
    indicator = _csr(order[slots], indptr, n)
    indicator.sort_indices()
    return indicator, crossing, stretch


def build_tree(g: CapacitatedGraph, seed: Optional[int] = None) -> CutMatrix:
    """Fundamental cuts of a maximum-capacity spanning tree.

    The certified ``alpha_bound`` is the tree's worst fundamental-cut to
    tree-edge capacity ratio: routing any demand along the tree shows the
    optimal congestion is at most that factor above the matrix estimate.

    Raises:
        ValueError: when the graph is disconnected (names stranded vertices).
    """
    tree_edges = _spanning_tree(g, seed)
    indicator, caps, stretch = _tree_rows(g, tree_edges)
    if caps.size and caps.min() <= 0:
        raise ValueError("fundamental cut with zero capacity; graph must be connected")
    return CutMatrix(g.n, indicator, 1.0 / caps, alpha_bound=max(1.0, stretch))


def build_multi_tree(g: CapacitatedGraph, k: int, seed: int = 0) -> CutMatrix:
    """Union of k randomized tree matrices with duplicate rows removed.

    Rows keep member order; of equal vertex sets only the first is kept.
    """
    if k < 1:
        raise ValueError(f"member count must be at least 1, got {k}")
    members = [build_tree(g, seed + j) for j in range(k)]
    indices = np.concatenate([m.indicator.indices for m in members])
    lengths = np.concatenate([np.diff(m.indicator.indptr) for m in members])
    weights = np.concatenate([m.weights for m in members])
    # Member rows are sorted, so equal vertex sets have equal bytes.  Filling
    # the dict from the last row back leaves each key at its first row.
    raw, bounds = indices.tobytes(), (np.cumsum(lengths) * indices.itemsize).tolist()
    keys = [raw[a:b] for a, b in zip([0] + bounds[:-1], bounds)]
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    keep = np.zeros(len(keys), dtype=bool)
    keep[list(first.values())] = True
    return CutMatrix(
        g.n,
        _csr(indices[np.repeat(keep, lengths)], np.concatenate(([0], np.cumsum(lengths[keep]))), g.n),
        weights[keep],
        alpha_bound=min(m.alpha_bound for m in members),
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


BuilderFn = Callable[[CapacitatedGraph, int], CutMatrix]


def resolve_builder(descriptor: str) -> BuilderFn:
    """Map a descriptor like ``multitree:8`` to a builder callable.

    The descriptor is checked here, before any matrix is built, because a
    run may finish without calling the builder at all.

    Raises:
        ValueError: anything but ``exhaustive`` or ``multitree:K`` with an
            integer ``K`` of at least 1.
    """
    if not isinstance(descriptor, str):
        raise ValueError(f"approximator must be a descriptor string, got {descriptor!r}")
    if descriptor == "exhaustive":
        return lambda g, seed: build_exhaustive(g)
    if descriptor.startswith("multitree:"):
        try:
            k = int(descriptor.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad multitree count in {descriptor!r}") from exc
        if k < 1:
            raise ValueError(f"member count must be at least 1, got {k}")
        return lambda g, seed: build_multi_tree(g, k, seed)
    raise ValueError(f"unknown approximator descriptor {descriptor!r}")
