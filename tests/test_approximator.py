import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircut.approximator import (
    CutMatrix,
    _spanning_tree,
    build_exhaustive,
    build_multi_tree,
    build_tree,
    measure_alpha,
    resolve_builder,
)
from faircut.graph import (
    CapacitatedGraph,
    FlowAssignment,
    ResidualView,
    st_demand,
)
from faircut.generators import random_connected_graph, random_feasible_flow
from faircut.oracles import min_congestion_routing

from conftest import (
    assert_same_matrix,
    bfs_components,
    brute_opt_congestion,
    operator_row_norms,
    reference_kruskal,
    reference_tree_rows,
    small_graph,
)


class TestApply:
    def test_zero_demand(self):
        g = CapacitatedGraph(2, [(0, 1, 4)])
        cuts = build_exhaustive(g)
        assert np.all(cuts.apply(np.zeros(2)) == 0.0)

    def test_single_edge_entry(self):
        g = CapacitatedGraph(2, [(0, 1, 4)])
        cuts = build_exhaustive(g)
        out = cuts.apply(st_demand(2, 0, 1, 2.0))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(0.5)  # 2 units / capacity 4

    def test_exhaustive_matches_oracle(self, rng):
        for _ in range(6):
            g = small_graph(rng, n_lo=3, n_hi=9)
            cuts = build_exhaustive(g)
            for _ in range(8):
                verts = rng.choice(g.n, size=min(g.n, 4), replace=False)
                vals = rng.normal(size=len(verts))
                vals -= vals.mean()
                d = np.zeros(g.n)
                d[verts] = vals
                if np.abs(d).sum() < 1e-9:
                    continue
                opt, _ = min_congestion_routing(g, d)
                assert cuts.estimate(d) == pytest.approx(opt, rel=1e-8, abs=1e-12)


    def test_pullback_is_the_transposed_action(self, rng):
        g = small_graph(rng, n_lo=5, n_hi=9)
        cuts = build_multi_tree(g, 3, seed=1)
        d = rng.normal(size=g.n)
        y = rng.normal(size=cuts.row_count)
        first = cuts.pullback(y)
        # The transposed indicator is kept after the first call; later calls
        # give bit-identical results and stay the adjoint of apply.
        assert np.array_equal(cuts.pullback(y), first)
        assert np.array_equal(first, cuts.indicator.T @ (cuts.weights * y))
        assert float(y @ cuts.apply(d)) == pytest.approx(float(first @ d), rel=1e-12, abs=1e-12)


class TestCutMatrix:
    def test_hand_built_rows(self):
        cuts = CutMatrix(3, [np.array([0]), np.array([0, 2])], np.array([0.5, 0.25]))
        assert cuts.row_count == 2
        assert [r.tolist() for r in cuts.rows] == [[0], [0, 2]]
        assert cuts.indicator.toarray().tolist() == [[1, 0, 0], [1, 0, 1]]
        again = CutMatrix(3, cuts.indicator, cuts.weights)
        assert [r.tolist() for r in again.rows] == [[0], [0, 2]]
        assert np.array_equal(again.apply(np.array([1.0, 2.0, 3.0])), [0.5, 1.0])

    def test_no_rows(self):
        cuts = CutMatrix(3, [], np.zeros(0))
        assert cuts.row_count == 0 and cuts.rows == [] and cuts.indicator.shape == (0, 3)
        assert cuts.estimate(np.array([1.0, 0.0, -1.0])) == 0.0

    def test_row_weight_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            CutMatrix(3, [np.array([0])], np.array([0.5, 0.5]))


class TestBuildExhaustive:
    def test_row_counts(self):
        assert build_exhaustive(CapacitatedGraph(2, [(0, 1, 1)])).row_count == 1
        g4 = CapacitatedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        assert build_exhaustive(g4).row_count == 7

    def test_triangle_unit_demand(self):
        g = CapacitatedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        cuts = build_exhaustive(g)
        # max-flow 2 means the best routing has congestion 1/2
        assert cuts.estimate(st_demand(3, 0, 2, 1.0)) == pytest.approx(0.5)

    def test_size_limit(self):
        g = random_connected_graph(25, 40, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n <= 20"):
            build_exhaustive(g)

    def test_weights_are_exact_reciprocals(self, rng):
        g = small_graph(rng, n_lo=3, n_hi=7)
        cuts = build_exhaustive(g)
        from faircut.graph import VertexCut, undirected_cut_value

        for row, w in zip(cuts.rows, cuts.weights):
            value = undirected_cut_value(g, VertexCut(frozenset(int(v) for v in row)))
            assert w == 1.0 / value


class TestBuildTree:
    def test_path_gives_prefix_cuts(self):
        g = CapacitatedGraph(4, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        cuts = build_tree(g)
        sides = {tuple(sorted(int(v) for v in r)) for r in cuts.rows}
        assert sides == {(1, 2, 3), (2, 3), (3,)}
        assert cuts.alpha_bound == 1.0  # tree is the whole graph

    def test_star_gives_leaf_cuts(self):
        g = CapacitatedGraph(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)])
        cuts = build_tree(g)
        sides = {tuple(sorted(int(v) for v in r)) for r in cuts.rows}
        assert sides == {(1,), (2,), (3,)}

    def test_disconnected_names_stranded(self):
        g = CapacitatedGraph(4, [(0, 1, 3), (2, 3, 3)])
        with pytest.raises(ValueError, match="stranded"):
            build_tree(g)

    def test_lower_bound_fuzz(self, rng):
        for i in range(6):
            g = small_graph(rng, n_lo=4, n_hi=10)
            cuts = build_tree(g, seed=i)
            for _ in range(10):
                verts = rng.choice(g.n, size=min(g.n, 5), replace=False)
                vals = rng.normal(size=len(verts))
                vals -= vals.mean()
                d = np.zeros(g.n)
                d[verts] = vals
                if np.abs(d).sum() < 1e-9:
                    continue
                opt = brute_opt_congestion(g, d)
                assert cuts.estimate(d) <= opt * (1 + 1e-9) + 1e-12

    def test_certified_bound_holds(self, rng):
        # alpha_bound * estimate must dominate the true optimum.
        for i in range(6):
            g = small_graph(rng, n_lo=4, n_hi=9)
            cuts = build_tree(g, seed=i)
            for _ in range(6):
                s, t = rng.choice(g.n, size=2, replace=False)
                d = st_demand(g.n, int(s), int(t), float(rng.integers(1, 5)))
                opt = brute_opt_congestion(g, d)
                assert opt <= cuts.alpha_bound * cuts.estimate(d) * (1 + 1e-9)


class TestBuildMultiTree:
    def test_k_one_identical_to_tree(self, rng):
        g = small_graph(rng, n_lo=4, n_hi=9)
        single = build_tree(g, seed=7)
        multi = build_multi_tree(g, 1, seed=7)
        assert [tuple(r) for r in multi.rows] == [tuple(r) for r in single.rows]
        assert np.array_equal(multi.weights, single.weights)

    def test_row_count_bound(self, rng):
        g = small_graph(rng, n_lo=5, n_hi=10)
        cuts = build_multi_tree(g, 5, seed=1)
        assert cuts.row_count <= 5 * (g.n - 1)

    def test_more_trees_never_hurt_measured_alpha(self, rng):
        g = random_connected_graph(10, 20, rng, max_cap=20)
        a1 = measure_alpha(build_multi_tree(g, 1, seed=3), g, trials=12, seed=5)
        a8 = measure_alpha(build_multi_tree(g, 8, seed=3), g, trials=12, seed=5)
        assert a8 <= a1 + 1e-9

    def test_bad_count_rejected(self, rng):
        with pytest.raises(ValueError):
            build_multi_tree(small_graph(rng), 0)


class TestMeasureAlpha:
    def test_exhaustive_is_one(self, rng):
        g = small_graph(rng, n_lo=3, n_hi=8)
        assert measure_alpha(build_exhaustive(g), g, trials=8, seed=2) == pytest.approx(1.0, abs=1e-6)

    def test_tree_on_chorded_cycle_exceeds_one(self):
        # Cycle with one heavy chord: the max-capacity tree keeps the chord,
        # and demands across the light cycle edges beat the tree estimate.
        n = 6
        edges = [(i, (i + 1) % n, 1) for i in range(n)] + [(0, 3, 50)]
        g = CapacitatedGraph(n, edges)
        cuts = build_tree(g)
        alpha = measure_alpha(cuts, g, trials=30, seed=0)
        assert alpha > 1.0 + 1e-6

    def test_requires_a_trial(self, rng):
        with pytest.raises(ValueError):
            measure_alpha(build_exhaustive(small_graph(rng, n_hi=6)), small_graph(rng, n_hi=6), trials=0)


class TestOperatorNorms:
    def test_bidirected_rows_exactly_two(self, rng):
        for builder in (build_exhaustive, lambda g: build_tree(g, seed=0)):
            g = small_graph(rng, n_lo=4, n_hi=10)
            norms = operator_row_norms(builder(g), g)
            assert np.all(np.abs(norms - 2.0) < 1e-12)

    def test_subgraph_rows_at_most_two(self, rng):
        g = small_graph(rng, n_lo=5, n_hi=10)
        cuts = build_exhaustive(g)
        active = np.ones(g.m, dtype=bool)
        active[rng.choice(g.m, size=g.m // 3, replace=False)] = False
        view = ResidualView(g, FlowAssignment(g), active)
        assert np.all(operator_row_norms(cuts, view) <= 2.0 + 1e-9)

    def test_residual_rows_at_most_four(self, rng):
        for _ in range(10):
            g = small_graph(rng, n_lo=4, n_hi=10)
            cuts = build_multi_tree(g, 3, seed=0)
            view = ResidualView(g, random_feasible_flow(g, rng))
            assert np.all(operator_row_norms(cuts, view) <= 4.0 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.one_of(st.none(), st.integers(0, 2**31)))
def test_spanning_tree_matches_reference_kruskal(state, seed):
    gen = np.random.default_rng(state)
    g = small_graph(gen, n_lo=2, n_hi=10, max_cap=3)  # small capacities: many ties
    if gen.random() < 0.3:  # drop some edges; the graph may come apart
        keep = gen.random(g.m) < 0.7
        g = CapacitatedGraph(g.n, [e for e, k in zip(g.edge_list(), keep) if k])
    keys = g.caps.astype(np.float64)
    if seed is not None:
        keys = keys * np.random.default_rng(seed).uniform(0.5, 1.5, g.m)
    parts = bfs_components(g.n, g.us, g.vs)
    if len(parts) > 1:
        stranded = sorted(set(range(g.n)) - parts[0])
        with pytest.raises(ValueError, match=re.escape(f"stranded vertices include {stranded[:6]}")):
            _spanning_tree(g, seed)
    else:
        assert set(_spanning_tree(g, seed).tolist()) == reference_kruskal(g.n, g.us, g.vs, keys)


def _deep_graph(gen: np.random.Generator) -> CapacitatedGraph:
    """A path, a grid or a sparse random graph, plus a few chords, capacities 1 or 2.

    Paths and narrow grids give deep spanning trees; the two capacities give
    many ties.  Vertex labels are shuffled so the root sits anywhere.
    """
    n = int(gen.integers(2, 41))
    shape = int(gen.integers(3))
    if shape == 2:
        g = random_connected_graph(n, int(gen.integers(n - 1, 2 * n)), gen, max_cap=2)
        edges = [(u, v) for u, v, _ in g.edge_list()]
    else:
        width = n if shape == 0 else int(gen.integers(1, 7))
        edges = [(v, v + 1) for v in range(n - 1) if (v + 1) % width]
        edges += [(v, v + width) for v in range(n - width)]
    for _ in range(int(gen.integers(0, 4))):
        u, v = gen.choice(n, size=2, replace=False)
        edges.append((int(u), int(v)))
    label = gen.permutation(n)
    return CapacitatedGraph(n, [(int(label[u]), int(label[v]), int(gen.integers(1, 3))) for u, v in edges])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 2**31))
def test_tree_rows_match_reference(state, k, seed):
    g = _deep_graph(np.random.default_rng(state))
    unseeded = build_tree(g)
    rows, crossings, stretch = reference_tree_rows(g, _spanning_tree(g, None))
    assert [tuple(r) for r in unseeded.rows] == rows
    np.testing.assert_allclose(unseeded.weights, 1.0 / np.asarray(crossings), rtol=1e-12, atol=0)
    assert unseeded.alpha_bound == pytest.approx(max(1.0, stretch), rel=1e-12)

    first: dict[tuple, float] = {}  # every distinct row, at its first occurrence over the members
    bound = float("inf")
    for j in range(k):
        member = build_tree(g, seed + j)
        rows, crossings, stretch = reference_tree_rows(g, _spanning_tree(g, seed + j))
        assert [tuple(r) for r in member.rows] == rows
        np.testing.assert_allclose(member.weights, 1.0 / np.asarray(crossings), rtol=1e-12, atol=0)
        assert member.alpha_bound == pytest.approx(max(1.0, stretch), rel=1e-12)
        assert_same_matrix(member, build_multi_tree(g, 1, seed + j))
        bound = min(bound, max(1.0, stretch))
        for row, crossing in zip(rows, crossings):
            first.setdefault(row, 1.0 / crossing)
    multi = build_multi_tree(g, k, seed)
    assert [tuple(r) for r in multi.rows] == list(first)
    np.testing.assert_allclose(multi.weights, list(first.values()), rtol=1e-12, atol=0)
    assert multi.alpha_bound == pytest.approx(bound, rel=1e-12)
    assert_same_matrix(multi, resolve_builder(f"multitree:{k}")(g, seed))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_exhaustive_rows_are_every_subset_through_zero(state, n):
    gen = np.random.default_rng(state)
    g = random_connected_graph(n, int(gen.integers(n - 1, n * (n - 1) // 2 + 1)), gen, max_cap=3)
    cuts = build_exhaustive(g)
    # Odd masks in increasing order, without the full vertex set.
    sides = [[v for v in range(n) if (mask >> v) & 1] for mask in range(1, (1 << n) - 1, 2)]
    indicator = cuts.indicator
    assert indicator.shape == (len(sides), n)
    assert indicator.indptr.tolist() == np.cumsum([0] + [len(side) for side in sides]).tolist()
    assert indicator.indices.tolist() == [v for side in sides for v in side]
    assert np.all(indicator.data == 1.0)
    crossings = [
        sum(float(c) for a, b, c in zip(g.us, g.vs, g.caps) if (int(a) in side) != (int(b) in side))
        for side in map(set, sides)
    ]
    np.testing.assert_allclose(cuts.weights, 1.0 / np.asarray(crossings), rtol=1e-12, atol=0)


def test_resolve_builder_descriptors(rng):
    g = small_graph(rng, n_lo=4, n_hi=8)
    assert_same_matrix(resolve_builder("exhaustive")(g, 0), build_exhaustive(g))
    assert_same_matrix(resolve_builder("multitree:4")(g, 0), build_multi_tree(g, 4, 0))
    for descriptor in ("numerology", "tree", lambda g, seed: build_exhaustive(g)):
        with pytest.raises(ValueError):
            resolve_builder(descriptor)
    with pytest.raises(ValueError):
        resolve_builder("multitree:x")
