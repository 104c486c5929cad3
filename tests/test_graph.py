import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircut.graph import (
    CapacitatedGraph,
    FlowAssignment,
    ResidualView,
    VertexCut,
    add_flows,
    directed_cut_value,
    divergence,
    st_demand,
    undirected_cut_value,
)
from faircut.generators import random_connected_graph, random_feasible_flow

from conftest import bfs_components, from_arc_dict, net_flow_across, small_graph


def path_2_1():
    # s(0) - a(1) cap 2, a - t(2) cap 1
    return CapacitatedGraph(3, [(0, 1, 2), (1, 2, 1)])


class TestCapacitatedGraph:
    def test_parallel_edges_merge_by_sum(self):
        g = CapacitatedGraph(2, [(0, 1, 5), (1, 0, 3)])
        assert g.m == 1
        assert g.edge_list() == [(0, 1, 8)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            CapacitatedGraph(2, [(0, 0, 1)])

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            CapacitatedGraph(2, [(0, 1, 0)])

    @pytest.mark.parametrize("edges", [[(0, 1, 2**63)], [(0, 1, 2**62), (1, 0, 2**62)]])
    def test_capacity_above_int64_names_the_limit(self, edges):
        with pytest.raises(ValueError, match=re.escape("2**63 - 1")):
            CapacitatedGraph(2, edges)
        CapacitatedGraph(2, [(0, 1, 2**63 - 1)])

    def test_arc_layout(self):
        g = path_2_1()
        assert g.num_arcs == 4
        a = g.arc_index(0, 1)
        assert g.tails[a] == 0 and g.heads[a] == 1
        rev = (a + g.m) % g.num_arcs
        assert g.tails[rev] == 1 and g.heads[rev] == 0
        assert g.arc_caps[a] == g.arc_caps[rev] == 2

    def test_induced_subgraph_maps_back(self):
        g = CapacitatedGraph(4, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 5)])
        sub, vkeep, ekeep = g.induced([0, 1, 2])
        assert list(vkeep) == [0, 1, 2]
        assert sub.m == 2
        for j, e in enumerate(ekeep):
            u, v, c = sub.edge_list()[j]
            assert int(g.caps[e]) == c


class TestResidualView:
    def test_formula(self):
        g = CapacitatedGraph(2, [(0, 1, 2)])
        f = from_arc_dict(g, {(0, 1): 1.5})
        r = ResidualView(g, f)
        assert r.arc_caps[g.arc_index(0, 1)] == pytest.approx(0.5)
        assert r.arc_caps[g.arc_index(1, 0)] == pytest.approx(3.5)

    def test_empty_flow_is_identity(self):
        g = path_2_1()
        r = ResidualView(g, FlowAssignment(g))
        assert np.array_equal(r.arc_caps, g.arc_caps)

    def test_saturation(self):
        g = CapacitatedGraph(2, [(0, 1, 3)])
        f = from_arc_dict(g, {(0, 1): 3})
        r = ResidualView(g, f)
        assert r.arc_caps[g.arc_index(0, 1)] == 0.0
        assert r.arc_caps[g.arc_index(1, 0)] == 6.0

    def test_mask_drops_flow_silently(self):
        g = path_2_1()
        f = from_arc_dict(g, {(0, 1): 1.0})
        r = ResidualView(g, f, np.array([False, True]))
        assert r.arc_caps[g.arc_index(0, 1)] == 0.0  # masked edge exposes no capacity
        assert r.arc_caps[g.arc_index(1, 0)] == 0.0  # and its flow is dropped, not credited back

    def test_active_edges_must_be_one_bool_per_edge(self):
        g = path_2_1()
        f = FlowAssignment(g)
        with pytest.raises(ValueError, match="active_edges"):
            ResidualView(g, f, np.array([True, True, False]))
        with pytest.raises(ValueError, match="active_edges"):
            ResidualView(g, f, np.array([1, 0]))

    def test_infeasible_flow_rejected(self):
        # The second overrun is tiny beside the largest capacity, 2**62, but
        # each arc is judged against its own capacity.
        for g, arc, value in [
            (CapacitatedGraph(2, [(0, 1, 2)]), (0, 1), 5.0),
            (CapacitatedGraph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (0, 3, 2**62)]), (1, 2), 1000.0),
        ]:
            f = from_arc_dict(g, {arc: value})
            with pytest.raises(ValueError, match="negative residual"):
                ResidualView(g, f)

    def test_antisymmetry(self, rng):
        for _ in range(20):
            g = small_graph(rng)
            f = random_feasible_flow(g, rng)
            r = ResidualView(g, f)
            m = g.m
            pair_sum = r.arc_caps[:m] + r.arc_caps[m:]
            assert np.allclose(pair_sum, 2.0 * g.caps, atol=1e-9)


class TestCutValues:
    def test_triangle_two_boundary_arcs(self):
        g = CapacitatedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        cut = VertexCut(frozenset({0}), source=0, sink=2)
        assert directed_cut_value(g, cut) == 2.0

    def test_improper_cut_rejected(self):
        g = path_2_1()
        with pytest.raises(ValueError, match="improper"):
            directed_cut_value(g, VertexCut(frozenset({0, 1, 2})))
        with pytest.raises(ValueError):
            VertexCut(frozenset())

    def test_path_prefix(self):
        g = path_2_1()
        cut = VertexCut(frozenset({0, 1}), source=0, sink=2)
        r = ResidualView(g, FlowAssignment(g))
        assert directed_cut_value(r, cut) == 1.0
        assert undirected_cut_value(g, cut) == 1.0

    def test_submodularity_fuzz(self, rng):
        for _ in range(60):
            g = small_graph(rng, n_lo=4, n_hi=12)
            f = random_feasible_flow(g, rng)
            view = ResidualView(g, f)
            n = g.n
            a_bits = int(rng.integers(1, (1 << n) - 1))
            b_bits = int(rng.integers(1, (1 << n) - 1))
            sets = []
            for bits in (a_bits, b_bits, a_bits | b_bits, a_bits & b_bits):
                if bits == 0 or bits == (1 << n) - 1:
                    sets = None
                    break
                sets.append(VertexCut(frozenset(v for v in range(n) if (bits >> v) & 1)))
            if sets is None:
                continue
            va, vb, vu, vi = (directed_cut_value(view, c) for c in sets)
            assert va + vb >= vu + vi - 1e-9


class TestFlows:
    def test_negative_value_judged_on_its_own_arc(self):
        # -1 is far inside 1e-9 * 2**62 but a whole unit arc's capacity.
        g = CapacitatedGraph(3, [(0, 1, 1), (1, 2, 2**62)])
        assert from_arc_dict(g, {(0, 1): -1e-10}).flow(0, 1) == 0.0
        with pytest.raises(ValueError, match="nonnegative"):
            from_arc_dict(g, {(0, 1): -1.0})

    def test_divergence_single_arc(self):
        g = CapacitatedGraph(2, [(0, 1, 5)])
        f = from_arc_dict(g, {(0, 1): 3})
        assert np.array_equal(divergence(f), [3.0, -3.0])

    def test_divergence_zero_flow(self):
        g = path_2_1()
        assert np.array_equal(divergence(FlowAssignment(g)), np.zeros(3))

    def test_divergence_circulation(self):
        g = CapacitatedGraph(3, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
        f = from_arc_dict(g, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
        assert np.allclose(divergence(f), 0.0)

    def test_net_flow_equals_value_for_st_flow(self, rng):
        from faircut.oracles import max_flow_exact

        for _ in range(10):
            g = small_graph(rng)
            value, flow, _ = max_flow_exact(g, 0, g.n - 1)
            for _ in range(5):
                bits = int(rng.integers(1, (1 << g.n) - 1))
                side = {v for v in range(g.n) if (bits >> v) & 1} | {0}
                side.discard(g.n - 1)
                if len(side) == g.n:
                    continue
                cut = VertexCut(frozenset(side), source=0, sink=g.n - 1)
                assert net_flow_across(flow, cut) == pytest.approx(value, abs=1e-9)

    def test_net_flow_circulation_is_zero(self):
        g = CapacitatedGraph(3, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
        f = from_arc_dict(g, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
        assert net_flow_across(f, VertexCut(frozenset({0}))) == pytest.approx(0.0)

    def test_net_flow_direct_sum(self):
        g = CapacitatedGraph(2, [(0, 1, 5)])
        f = from_arc_dict(g, {(0, 1): 2, (1, 0): 0.5})
        assert net_flow_across(f, VertexCut(frozenset({0}))) == pytest.approx(1.5)

    def test_add_identity(self):
        g = path_2_1()
        f = from_arc_dict(g, {(0, 1): 1})
        out = add_flows(f, FlowAssignment(g))
        assert np.array_equal(out.values, f.values)

    def test_add_never_cancels(self):
        g = CapacitatedGraph(2, [(0, 1, 5)])
        f = from_arc_dict(g, {(0, 1): 1})
        h = from_arc_dict(g, {(1, 0): 1})
        out = add_flows(f, h)
        assert out.flow(0, 1) == 1.0 and out.flow(1, 0) == 1.0

    def test_add_divergence_linear(self, rng):
        for _ in range(10):
            g = small_graph(rng)
            f = FlowAssignment(g, random_feasible_flow(g, rng).values * 0.5)
            h = FlowAssignment(g, random_feasible_flow(g, rng).values * 0.5)
            lhs = divergence(add_flows(f, h))
            assert np.allclose(lhs, divergence(f) + divergence(h), atol=1e-9)

    def test_congestion_and_feasibility(self):
        g = CapacitatedGraph(2, [(0, 1, 4)])
        f = from_arc_dict(g, {(0, 1): 3})
        assert f.congestion() == pytest.approx(0.75)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cancellation_preserves_divergence(state):
    gen = np.random.default_rng(state)
    g = small_graph(gen)
    f = random_feasible_flow(g, gen)
    extra = gen.uniform(0, 1, g.num_arcs) * (g.arc_caps - f.values)
    noisy = FlowAssignment(g, f.values + np.minimum(extra, g.arc_caps - f.values))
    cancelled = noisy.cancel_antiparallel()
    assert np.allclose(divergence(cancelled), divergence(noisy), atol=1e-9)
    m = g.m
    assert np.all(np.minimum(cancelled.values[:m], cancelled.values[m:]) == 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_components_match_bfs(state):
    gen = np.random.default_rng(state)
    n = int(gen.integers(1, 13))
    pairs = gen.integers(0, n, size=(int(gen.integers(0, 2 * n + 1)), 2))
    g = CapacitatedGraph(n, [(int(u), int(v), 1) for u, v in pairs if u != v])
    for active in (None, gen.random(g.m) < 0.6):
        labels = g.connected_components(active_edges=active)
        parts = bfs_components(g.n, g.us, g.vs, active)
        # Same partition, and each label is the smallest id in its part.
        for part in parts:
            assert {int(labels[v]) for v in part} == {min(part)}
        assert len(set(labels.tolist())) == len(parts)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_spanning_forest_labels_match_bfs(parts_wanted, state):
    # One part takes the spanning-tree exit; two to four take the labels pass.
    gen = np.random.default_rng(state)
    sizes = gen.integers(1, 7, size=parts_wanted)
    perm = gen.permutation(int(sizes.sum()))
    edges, base = [], 0
    for size in sizes.tolist():
        if size > 1:
            part = random_connected_graph(size, int(gen.integers(size - 1, size * (size - 1) // 2 + 1)), gen)
            edges += [(perm[base + u], perm[base + v], c) for u, v, c in part.edge_list()]
        base += size
    g = CapacitatedGraph(len(perm), edges)
    chosen, labels = g.spanning_forest(gen.permutation(g.m))
    parts = bfs_components(g.n, g.us, g.vs)
    assert len(parts) == parts_wanted and len(chosen) == g.n - parts_wanted
    for part in parts:
        assert {int(labels[v]) for v in part} == {min(part)}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_induced_edges_map_back(state):
    gen = np.random.default_rng(state)
    n = int(gen.integers(2, 13))
    pairs = gen.integers(0, n, size=(int(gen.integers(0, 3 * n + 1)), 2))
    g = CapacitatedGraph(n, [(int(u), int(v), int(gen.integers(1, 10))) for u, v in pairs if u != v])
    vertices = [int(v) for v in np.flatnonzero(gen.random(n) < 0.7)] or [0]
    for active in (None, gen.random(g.m) < 0.6):
        sub, keep, kept_edges = g.induced(vertices, active_edges=active)
        assert keep.tolist() == sorted(set(vertices))
        # Each subgraph edge is its parent edge: same endpoints, same capacity.
        for j, e in enumerate(kept_edges.tolist()):
            assert (int(keep[sub.us[j]]), int(keep[sub.vs[j]])) == (int(g.us[e]), int(g.vs[e]))
            assert int(sub.caps[j]) == int(g.caps[e])
        # The kept edges are exactly the active edges with both ends kept.
        inside = set(keep.tolist())
        expected = [e for e in range(g.m) if (active is None or active[e])
                    and int(g.us[e]) in inside and int(g.vs[e]) in inside]
        assert kept_edges.tolist() == expected


def test_st_demand_sums_to_zero():
    d = st_demand(5, 0, 4, 2.5)
    assert d.sum() == 0.0 and d[0] == 2.5 and d[4] == -2.5
