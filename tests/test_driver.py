import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircut import driver
from faircut.approximator import build_exhaustive, resolve_builder
from faircut.driver import (
    CONTRACTION,
    default_round_limit,
    fair_cut,
    iterate_once,
    unsaturated_arcs,
)
from faircut.driver import _make_state
from faircut.flowcut import flow_or_cut
from faircut.graph import (
    CapacitatedGraph,
    FlowAssignment,
    VertexCut,
    undirected_cut_value,
)
from faircut.generators import random_connected_graph
from faircut.oracles import FairnessCertificate, min_fair_alpha, verify_fairness

from conftest import (
    brute_min_cut_value,
    fairness_bound,
    from_arc_dict,
    int64_spread_instance,
    reference_round,
    small_graph,
)


def path_2_1():
    return CapacitatedGraph(3, [(0, 1, 2), (1, 2, 1)])


class TestUnsaturatedArcs:
    def test_empty_flow_keeps_everything(self):
        g = path_2_1()
        cut = VertexCut(frozenset({0, 1}), 0, 2)
        arcs = unsaturated_arcs(g, FlowAssignment(g), cut, eps=0.05)
        assert list(arcs) == [g.arc_index(1, 2)]

    def test_full_saturation_empties_the_set(self):
        g = path_2_1()
        cut = VertexCut(frozenset({0, 1}), 0, 2)
        f = from_arc_dict(g, {(1, 2): 1.0})
        assert unsaturated_arcs(g, f, cut, eps=0.05).size == 0

    def test_boundary_is_inclusive(self):
        g = CapacitatedGraph(2, [(0, 1, 10)])
        cut = VertexCut(frozenset({0}), 0, 1)
        eps = 0.05
        f = from_arc_dict(g, {(0, 1): (1 - 4 * eps) * 10})
        assert unsaturated_arcs(g, f, cut, eps).size == 1
        f2 = from_arc_dict(g, {(0, 1): (1 - 4 * eps) * 10 + 1e-3})
        assert unsaturated_arcs(g, f2, cut, eps).size == 0


@settings(max_examples=200, deadline=None)
@given(int64_spread_instance(), st.data())
def test_saturation_judged_per_arc(instance, data):
    # Capacities span [1, 2**63 - 1]: a small arc at full capacity must count
    # as saturated however large the other capacities are.
    g, s, t = instance
    inside = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    cut = VertexCut(frozenset(v for v in range(g.n) if v == s or (inside[v] and v != t)), s, t)
    mask = cut.member_mask(g.n)
    outgoing = np.flatnonzero(mask[g.tails] & ~mask[g.heads])
    full = np.asarray(data.draw(st.lists(st.booleans(), min_size=outgoing.size, max_size=outgoing.size)), dtype=bool)
    values = np.zeros(g.num_arcs)
    values[outgoing[full]] = g.arc_caps[outgoing[full]]
    arcs = unsaturated_arcs(g, FlowAssignment(g, values), cut, eps=0.05)
    assert arcs.tolist() == outgoing[~full].tolist()


class TestIterateOnce:
    def test_single_edge_flow_round(self):
        g = CapacitatedGraph(2, [(0, 1, 1)])
        state = _make_state(g, VertexCut(frozenset({0}), 0, 1), FlowAssignment(g), 0.05, 1)
        assert state.potential_value == 1.0
        builder = lambda sub, seed: build_exhaustive(sub)
        new_state, record = iterate_once(state, 0.05, builder, seed=0)
        assert record.branch == "flow"
        # tau = 0.5, the round routes it fully: potential halves
        assert new_state.potential_value == pytest.approx(0.5)
        assert new_state.flow.flow(0, 1) == pytest.approx(0.5)

    def test_uncross_with_self_is_identity(self):
        g = path_2_1()
        state = _make_state(g, VertexCut(frozenset({0}), 0, 2), FlowAssignment(g), 0.05, 1)
        from faircut.driver import _uncross

        same = _uncross(state, VertexCut(frozenset({0}), 0, 2))
        assert same.side == state.cut.side

    def test_saturated_separator_takes_component_cut(self):
        # s-t saturated, s-a not: the masked graph strands t, and the round
        # must move the cut to the endpoint's component without a solve.
        g = CapacitatedGraph(3, [(0, 1, 1), (0, 2, 1)])  # 0=s, 1=a, 2=t
        flow = from_arc_dict(g, {(0, 2): 1.0})
        state = _make_state(g, VertexCut(frozenset({0}), 0, 2), flow, 0.05, 1)
        assert np.flatnonzero(~state.residual.active_edges).tolist() == [g.edge_of_arc(g.arc_index(0, 2))]
        assert state.potential_value == pytest.approx(1.0)  # only (0,1) remains
        new_state, record = iterate_once(state, 0.05, lambda sub, seed: build_exhaustive(sub))
        assert record.branch == "cut"
        assert new_state.cut.side == frozenset({0, 1})
        assert new_state.potential_value == pytest.approx(0.0)

    def test_stranded_component_is_excluded_from_the_solve(self, monkeypatch):
        # the pendant x (with its neighbour y) hangs off a saturated edge; the
        # solve must see no capacity at either and the flow branch must leave
        # their arcs unchanged
        g = CapacitatedGraph(4, [(0, 1, 4), (0, 2, 1), (2, 3, 1)])  # 0=s, 1=t, 2=x, 3=y
        flow = from_arc_dict(g, {(0, 2): 1.0})
        state = _make_state(g, VertexCut(frozenset({0}), 0, 1), flow, 0.05, 1)
        seen = {}

        def builder(sub, seed):
            seen["builder"] = True
            return build_exhaustive(sub)

        def recording_flow_or_cut(residual, *args, **kwargs):
            seen["residual"] = residual
            return flow_or_cut(residual, *args, **kwargs)

        monkeypatch.setattr(driver, "flow_or_cut", recording_flow_or_cut)
        new_state, record = iterate_once(state, 0.05, builder)
        pendant_arcs = np.flatnonzero((g.tails == 2) | (g.heads == 2) | (g.tails == 3))
        assert np.all(seen["residual"].arc_caps[pendant_arcs] == 0.0)  # no capacity in the solve
        assert "builder" not in seen  # a flow round needs no cut matrix
        assert record.branch == "flow"
        pendant_arc = g.arc_index(0, 2)
        assert new_state.flow.values[pendant_arc] == flow.values[pendant_arc]
        assert new_state.flow.values[(pendant_arc + g.m) % g.num_arcs] == 0.0
        assert new_state.potential_value == pytest.approx(2.0)  # half of c'(0,1)=4

    def test_contraction_over_random_instances(self, rng):
        builder = lambda sub, seed: build_exhaustive(sub)
        for i in range(15):
            g = small_graph(rng, n_lo=4, n_hi=10, max_cap=20)
            state = _make_state(g, VertexCut(frozenset({0}), 0, g.n - 1), FlowAssignment(g), 0.05, 1)
            rounds = 0
            while state.potential_value >= 4 * 0.05 and rounds < 60:
                prev = state.potential_value
                state, _ = iterate_once(state, 0.05, builder, seed=i * 100 + rounds)
                assert state.potential_value <= CONTRACTION * prev + 1e-9 * g.max_capacity
                rounds += 1
            assert state.potential_value < 4 * 0.05


def pendant_state(core_n, pendant_n, cap_max, seed):
    """Round-1 state whose pendant block hangs off s by a saturated edge.

    A random connected core holds s and t; a random connected block of
    ``pendant_n`` vertices is joined to s by one edge that the flow
    saturates, so every round strands the block.  Vertex ids are shuffled so
    that stranded ids interleave with the component's.
    """
    rng = np.random.default_rng(seed)
    core = random_connected_graph(core_n, min(2 * core_n, core_n * (core_n - 1) // 2), rng, max_cap=cap_max)
    n = core_n + pendant_n
    perm = rng.permutation(n)
    edges = [(perm[u], perm[v], c) for u, v, c in core.edge_list()]
    for i in range(1, pendant_n):
        edges.append((perm[core_n + i], perm[core_n + int(rng.integers(i))], int(rng.integers(1, cap_max + 1))))
    attach = int(rng.integers(1, cap_max + 1))
    s, t, x = int(perm[0]), int(perm[core_n - 1]), int(perm[core_n])
    edges.append((s, x, attach))
    g = CapacitatedGraph(n, edges)
    flow = from_arc_dict(g, {(s, x): attach})
    return _make_state(g, VertexCut(frozenset({s}), s, t), flow, 0.05, 1)


class TestStrandedRounds:
    @settings(max_examples=40, deadline=None)
    @given(
        core_n=st.integers(3, 9),
        pendant_n=st.integers(1, 4),
        cap_max=st.sampled_from([1, 2, 3, 50]),
        descriptor=st.sampled_from(["exhaustive", "multitree:3"]),
        seed=st.integers(0, 2**31),
    )
    def test_rounds_match_the_induced_copy(self, core_n, pendant_n, cap_max, descriptor, seed):
        builder = resolve_builder(descriptor)
        ours = theirs = pendant_state(core_n, pendant_n, cap_max, seed)
        stranded = theirs.graph.n - core_n
        for r in range(8):
            if ours.potential_value < 4 * 0.05:
                break
            labels = ours.graph.connected_components(active_edges=ours.residual.active_edges)
            assert int(np.count_nonzero(labels != labels[ours.cut.source])) >= stranded
            ours, rec = iterate_once(ours, 0.05, builder, seed=r)
            theirs, ref = reference_round(theirs, 0.05, builder, seed=r)
            assert (rec.branch, repr(rec.primal_gap), rec.potential) == (ref.branch, repr(ref.primal_gap), ref.potential)
            assert ours.cut.side == theirs.cut.side
            assert ours.potential_value == theirs.potential_value
            assert ours.flow.values.tobytes() == theirs.flow.values.tobytes()

    def test_induced_copies_only_for_a_matrix(self, monkeypatch):
        calls = []
        induced = CapacitatedGraph.induced

        def counting(self, *args, **kwargs):
            calls.append(self.n)
            return induced(self, *args, **kwargs)

        monkeypatch.setattr(CapacitatedGraph, "induced", counting)
        builder = lambda sub, seed: build_exhaustive(sub)
        g = CapacitatedGraph(2, [(0, 1, 1)])
        state = _make_state(g, VertexCut(frozenset({0}), 0, 1), FlowAssignment(g), 0.05, 1)
        _, record = iterate_once(state, 0.05, builder)
        assert (record.branch, calls) == ("flow", [])
        # max-flow 1 below tau = 2: the round builds a matrix and cuts
        g = CapacitatedGraph(3, [(0, 1, 4), (1, 2, 1)])
        state = _make_state(g, VertexCut(frozenset({0}), 0, 2), FlowAssignment(g), 0.05, 1)
        _, record = iterate_once(state, 0.05, builder)
        assert (record.branch, calls) == ("cut", [3])


class TestFairCut:
    def test_single_edge(self):
        g = CapacitatedGraph(2, [(0, 1, 10)])
        result = fair_cut(g, 0, 1, eps=0.05, approximator="exhaustive")
        assert result.cut.side == frozenset({0})
        assert result.achieved_alpha == pytest.approx(1.0, abs=1e-6)

    def test_path_finds_the_fair_prefix(self):
        # {s,a} is the only 1-fair cut of the 2-1 path.
        result = fair_cut(path_2_1(), 0, 2, eps=0.05, approximator="exhaustive")
        assert result.cut.side == frozenset({0, 1})
        assert result.achieved_alpha <= 1.3

    def test_output_is_approximate_min_cut(self, rng):
        for i in range(8):
            g = small_graph(rng, n_lo=4, n_hi=10, max_cap=15)
            result = fair_cut(g, 0, g.n - 1, eps=0.05, approximator="exhaustive", seed=i)
            exact = brute_min_cut_value(g, 0, g.n - 1)
            value = undirected_cut_value(g, result.cut)
            assert value <= result.achieved_alpha * exact * (1 + 1e-6)

    def test_trace_potentials_contract(self, rng):
        g = random_connected_graph(30, 90, rng, max_cap=50)
        result = fair_cut(g, 0, 29, eps=0.05, approximator="multitree:4", seed=2)
        pots = [rec.potential for rec in result.iterations] + [result.final_potential]
        for prev, nxt in zip(pots, pots[1:]):
            assert nxt <= CONTRACTION * prev + 1e-9 * g.max_capacity
        assert result.final_potential < 4 * 0.05

    def test_flow_branch_keeps_saturation_monotone(self, rng):
        # removed boundary edges stay removed while the cut is unchanged
        g = random_connected_graph(20, 60, rng, max_cap=10)
        builder = lambda sub, seed: build_exhaustive(sub) if sub.n <= 16 else None
        from faircut.approximator import build_multi_tree

        builder = lambda sub, seed: build_multi_tree(sub, 4, seed or 0)
        state = _make_state(g, VertexCut(frozenset({0}), 0, 19), FlowAssignment(g), 0.05, 1)
        prev_removed, prev_cut = ~state.residual.active_edges, state.cut.side
        for r in range(25):
            if state.potential_value < 4 * 0.05:
                break
            state, rec = iterate_once(state, 0.05, builder, seed=r)
            removed = ~state.residual.active_edges
            if rec.branch == "flow" and state.cut.side == prev_cut:
                assert np.all(removed[prev_removed])
            prev_removed, prev_cut = removed, state.cut.side

    def test_eps_validation(self):
        g = path_2_1()
        with pytest.raises(ValueError, match="eps"):
            fair_cut(g, 0, 2, eps=0.0)
        with pytest.raises(ValueError, match="eps"):
            fair_cut(g, 0, 2, eps=0.2)
        with pytest.raises(ValueError, match="eps"):
            fair_cut(g, 0, 2, eps=0.125)

    def test_eps_just_below_one_eighth_solves(self):
        result = fair_cut(path_2_1(), 0, 2, eps=0.1249, approximator="exhaustive")
        assert result.cut.side == frozenset({0, 1})
        assert result.final_potential < 4 * 0.1249

    def test_zero_member_multitree_rejected_before_any_round(self):
        # every round on the single edge is a flow round, so the builder is
        # never called; the descriptor must still be refused
        g = CapacitatedGraph(2, [(0, 1, 5)])
        assert [r.branch for r in fair_cut(g, 0, 1, 0.05, approximator="multitree:1").iterations] == ["flow"] * 3
        with pytest.raises(ValueError, match="member count"):
            fair_cut(g, 0, 1, 0.05, approximator="multitree:0")

    def test_terminal_validation(self):
        g = path_2_1()
        with pytest.raises(ValueError):
            fair_cut(g, 1, 1, eps=0.05)

    def test_disconnected_rejected(self):
        g = CapacitatedGraph(4, [(0, 1, 3), (2, 3, 3)])
        with pytest.raises(ValueError, match="connected"):
            fair_cut(g, 0, 3, eps=0.05)

    def test_round_limit_formula(self):
        limit = default_round_limit(10, 100, 0.05)
        assert limit == math.ceil(math.log(100 * 100 * 16 / 0.05) / math.log(4 / 3))
        # enough rounds to take n^2 W below 4 eps
        assert 0.75**limit * 100 * 100 < 4 * 0.05

    def test_certify_flag(self, rng):
        g = small_graph(rng, n_lo=4, n_hi=8)
        result = fair_cut(g, 0, g.n - 1, eps=0.05, approximator="exhaustive", certify=False)
        assert result.achieved_alpha is None

    def test_seeded_determinism(self, rng):
        g = random_connected_graph(25, 70, rng, max_cap=30)
        a = fair_cut(g, 0, 24, eps=0.05, approximator="multitree:8", seed=4)
        b = fair_cut(g, 0, 24, eps=0.05, approximator="multitree:8", seed=4)
        assert a.cut.side == b.cut.side
        assert a.achieved_alpha == b.achieved_alpha
        assert np.array_equal(a.final_flow.values, b.final_flow.values)
        assert [(r.index, r.potential, r.branch) for r in a.iterations] == [
            (r.index, r.potential, r.branch) for r in b.iterations
        ]

    def test_fairness_of_output_matches_oracle_floor(self, rng):
        # achieved_alpha is exactly the oracle's measurement of the cut
        g = small_graph(rng, n_lo=4, n_hi=9)
        result = fair_cut(g, 0, g.n - 1, eps=0.05, approximator="exhaustive", seed=1)
        assert result.achieved_alpha == pytest.approx(min_fair_alpha(g, result.cut))


@pytest.mark.parametrize("w", [10**6, 10**10, 10**15, 2**62])
def test_capacity_spread_solves(w):
    # Unit arcs beside one of capacity W: every residual max-flow must count
    # each positive arc, and saturation is judged per arc, whatever W is.
    g = CapacitatedGraph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (0, 3, w)])
    result = fair_cut(g, 0, 2, eps=0.05)
    assert result.cut.side == frozenset({0, 1, 3})
    assert result.achieved_alpha == 1.0
    assert len(result.iterations) == 5


@settings(max_examples=200, deadline=None)
@given(int64_spread_instance())
def test_int64_capacities_solve_and_certify(instance):
    g, s, t = instance
    result = fair_cut(g, s, t, eps=0.05)
    assert isinstance(verify_fairness(g, result.cut, result.achieved_alpha), FairnessCertificate)
    assert result.achieved_alpha <= fairness_bound(g.n, 0.05)
