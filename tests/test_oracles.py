import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faircut import approximator, oracles
from faircut.approximator import build_multi_tree, measure_alpha
from faircut.graph import (
    CapacitatedGraph,
    ResidualView,
    VertexCut,
    divergence,
    st_demand,
    undirected_cut_value,
)
from faircut.generators import random_connected_graph, random_feasible_flow
from faircut.oracles import (
    ALPHA_INTERVAL_REL,
    FairnessCertificate,
    FairnessRefusal,
    _FairnessNetwork,
    max_flow_exact,
    min_congestion_routing,
    min_fair_alpha,
    verify_fairness,
)

from conftest import brute_min_cut_value, brute_opt_congestion, net_flow_across, reference_routing, small_graph


def path_2_1():
    return CapacitatedGraph(3, [(0, 1, 2), (1, 2, 1)])


def bisect_every_step(g, cut):
    """min_fair_alpha's bisection with every step decided by verify_fairness."""
    if isinstance(verify_fairness(g, cut, 1.0), FairnessCertificate):
        return 1.0
    mask = cut.member_mask(g.n)
    arcs = int(np.count_nonzero(mask[g.us] != mask[g.vs]))
    hi = max(2.0, undirected_cut_value(g, cut) * max(arcs, 1))
    while not isinstance(verify_fairness(g, cut, hi), FairnessCertificate):
        hi *= 4.0
        if hi > 1e15:
            raise RuntimeError("unreachable")
    lo = 1.0
    while hi - lo > ALPHA_INTERVAL_REL * lo:
        mid = 0.5 * (lo + hi)
        if isinstance(verify_fairness(g, cut, mid), FairnessCertificate):
            hi = mid
        else:
            lo = mid
    return float(hi)


def near_min_cut(g, s, t, rng):
    """The exact minimum cut with a random non-terminal vertex moved across."""
    _, _, mincut = max_flow_exact(g, s, t)
    movable = [v for v in range(g.n) if v not in (s, t)]
    if not movable:
        return mincut
    return VertexCut(mincut.side ^ {int(rng.choice(movable))}, s, t)


class TestDinic:
    # Arcs listed out of vertex order, with an antiparallel pair between 0 and 1.
    TAILS, HEADS = np.array([2, 0, 1, 0, 1]), np.array([3, 1, 2, 2, 0])

    @pytest.mark.parametrize("caps", [np.array([3, 2, 2, 1, 4]), np.array([3.0, 2.5, 2.0, 1.0, 4.0])])
    def test_layout_and_flow(self, caps):
        tails, heads = self.TAILS, self.HEADS
        solver = oracles._Dinic(4, tails, heads, caps)
        # Residual arc 2k is arc k, leaving tails[k]; 2k + 1 is its reverse, leaving heads[k].
        owner = [int(v) for pair in zip(tails, heads) for v in pair]
        for v in range(4):
            assert solver.adj[v] == [a for a in range(2 * len(caps)) if owner[a] == v]
        assert solver.to == [int(v) for pair in zip(heads, tails) for v in pair]
        zero = caps.dtype.type(0).item()
        assert solver.cap == [c for cap in caps.tolist() for c in (cap, zero)]
        assert {type(c) for c in solver.cap} == {type(zero)}

        assert solver.solve(0, 3) == 3
        flow = solver.flow()
        assert flow.dtype == caps.dtype
        # Arc k is left with its capacity minus its flow, and its reverse with the flow.
        assert solver.cap == [c for cap, f in zip(caps.tolist(), flow.tolist()) for c in (cap - f, f)]
        net = np.zeros(4, dtype=caps.dtype)
        np.add.at(net, tails, flow)
        np.add.at(net, heads, -flow)
        assert net.tolist() == [3, 0, 0, -3]


class TestMaxFlow:
    def test_path_value_and_mincut(self):
        # Hand augmenting: one unit along s-a-t, bottleneck at (a,t).
        value, flow, cut = max_flow_exact(path_2_1(), 0, 2)
        assert value == 1
        assert cut.side == frozenset({0, 1})
        assert divergence(flow)[0] == pytest.approx(1.0)

    def test_single_edge(self):
        value, _, _ = max_flow_exact(CapacitatedGraph(2, [(0, 1, 10)]), 0, 1)
        assert value == 10

    def test_triangle(self):
        # Enumerating the two nontrivial cuts around s gives 2 each.
        g = CapacitatedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        value, _, _ = max_flow_exact(g, 0, 2)
        assert value == 2

    def test_disconnected_returns_reachable_set(self):
        g = CapacitatedGraph(4, [(0, 1, 3), (2, 3, 3)])
        value, flow, cut = max_flow_exact(g, 0, 3)
        assert value == 0
        assert cut.side == frozenset({0, 1})
        assert np.all(flow.values == 0)

    def test_same_terminal_rejected(self):
        with pytest.raises(ValueError):
            max_flow_exact(path_2_1(), 1, 1)

    def test_matches_brute_force_min_cut(self, rng):
        for _ in range(25):
            g = small_graph(rng, n_lo=3, n_hi=9)
            s, t = 0, g.n - 1
            value, flow, cut = max_flow_exact(g, s, t)
            expected = brute_min_cut_value(g, s, t)
            assert value == pytest.approx(expected)
            # flow attains the value and is feasible
            assert flow.congestion() <= 1 + 1e-12
            assert net_flow_across(flow, cut) == pytest.approx(value)
            assert undirected_cut_value(g, cut) == pytest.approx(value)

    @pytest.mark.parametrize(
        "edges, t, expected",
        [
            ([(0, 1, 2**60 + 1), (1, 2, 2**60 + 3)], 2, 2**60 + 1),
            ([(0, 1, 2**53 + 1), (0, 2, 1), (1, 3, 2**53 + 1), (2, 3, 1)], 3, 2**53 + 2),
        ],
    )
    def test_exact_above_float_precision(self, edges, t, expected):
        # float64 rounds these capacities, and with them the flow value.
        g = CapacitatedGraph(t + 1, edges)
        value, _, _ = max_flow_exact(g, 0, t)
        assert value == expected
        assert oracles.maxflow_value(g, 0, t) == expected

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exact_over_int64(self, data):
        n = data.draw(st.integers(2, 7))
        pairs = data.draw(st.lists(st.sampled_from([(u, v) for u in range(n) for v in range(u + 1, n)]), unique=True))
        # Odd capacities above 2**53 have no exact float64; Hypothesis rarely draws them alone.
        cap = st.one_of(st.integers(1, 2**62), st.integers(2**52, 2**61 - 1).map(lambda h: 2 * h + 1))
        caps = data.draw(st.lists(cap, min_size=len(pairs), max_size=len(pairs)))
        s, t = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        g = CapacitatedGraph(n, [(u, v, c) for (u, v), c in zip(pairs, caps)])
        value, _, cut = max_flow_exact(g, s, t)
        assert value == brute_min_cut_value(g, s, t)
        assert s in cut.side and t not in cut.side
        assert sum(c for u, v, c in g.edge_list() if (u in cut.side) != (v in cut.side)) == value

    def test_on_residual_view(self, rng):
        g = small_graph(rng)
        f = random_feasible_flow(g, rng)
        res = ResidualView(g, f)
        value, flow, cut = max_flow_exact(res, 0, g.n - 1)
        assert value >= -1e-12
        assert np.all(flow.values <= res.arc_caps + 1e-9 * g.arc_caps)


class TestMinCongestionRouting:
    def test_path_unit_demand(self):
        # Worst cut is {s,a}: one unit across capacity 1.
        opt, flow = min_congestion_routing(path_2_1(), st_demand(3, 0, 2, 1.0))
        assert opt == pytest.approx(1.0, rel=1e-8)
        assert np.allclose(divergence(flow), [1, 0, -1], atol=1e-7)

    def test_zero_demand(self):
        opt, flow = min_congestion_routing(path_2_1(), np.zeros(3))
        assert opt == 0.0 and np.all(flow.values == 0)

    def test_single_edge_half(self):
        g = CapacitatedGraph(2, [(0, 1, 4)])
        opt, _ = min_congestion_routing(g, st_demand(2, 0, 1, 2.0))
        assert opt == pytest.approx(0.5, rel=1e-8)

    def test_unbalanced_demand_rejected(self):
        with pytest.raises(ValueError, match="sum to zero"):
            min_congestion_routing(path_2_1(), np.array([1.0, 0.0, 0.0]))

    def test_cross_component_demand_rejected(self):
        g = CapacitatedGraph(4, [(0, 1, 3), (2, 3, 3)])
        with pytest.raises(ValueError, match="disconnected"):
            min_congestion_routing(g, st_demand(4, 0, 3, 1.0))

    def test_cut_condition_tightness(self, rng):
        for _ in range(12):
            g = small_graph(rng, n_lo=3, n_hi=8)
            k = int(rng.integers(2, g.n + 1))
            verts = rng.choice(g.n, size=k, replace=False)
            vals = rng.normal(size=k)
            vals -= vals.mean()
            d = np.zeros(g.n)
            d[verts] = vals
            if np.abs(d).sum() < 1e-9:
                continue
            opt, flow = min_congestion_routing(g, d)
            assert opt == pytest.approx(brute_opt_congestion(g, d), rel=1e-7, abs=1e-10)
            assert np.allclose(divergence(flow), d, atol=1e-7 * max(1, np.abs(d).sum()))
            assert flow.congestion() <= opt * (1 + 1e-9) + 1e-12

    def test_tiny_optimum_is_exact(self):
        # A bisection with an absolute 1e-18 stop answered 2**-60 here.
        g = CapacitatedGraph(2, [(0, 1, 2**40)])
        d = np.array([1e-8, -1e-8])
        opt, flow = min_congestion_routing(g, d)
        assert opt == pytest.approx(1e-8 / 2**40, rel=1e-12, abs=0)
        assert np.allclose(divergence(flow), d, rtol=0, atol=1e-9 * 2e-8)
        assert flow.congestion() <= opt * (1 + 1e-9)

    def test_trapped_demand_rejected(self):
        # Each component balances within the 1e-9 tolerance, yet vertices 0
        # and 1 hold demand with no edge to send it along.
        g = CapacitatedGraph(5, [(3, 4, 1)])
        d = np.array([0.9e-9, 0.9e-9, -0.9e-9, -0.9e-9, 0.0])
        with pytest.raises(ValueError, match="no routing exists"):
            min_congestion_routing(g, d)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 10),
        density=st.floats(1.0, 4.5),
        max_cap=st.sampled_from([1, 9, 2**20, 2**40]),
        kind=st.sampled_from(["st", "sparse", "dense"]),
        scale=st.sampled_from([1e-6, 1.0, 1e3, 2.0**40]),
        seed=st.integers(0, 2**31),
    )
    # Two near-equal normals cancel, so the demand balances only to 9e-12 relative.
    @example(n=2, density=1.0, max_cap=1, kind="sparse", scale=1e-6, seed=788517)
    def test_matches_references(self, n, density, max_cap, kind, scale, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(n, int(min(n * (n - 1) // 2, round(density * n))), rng, max_cap=max_cap)
        d = np.zeros(n)
        if kind == "st":
            s, t = rng.choice(n, size=2, replace=False)
            d[s], d[t] = scale, -scale
        else:
            verts = rng.choice(n, size=n if kind == "dense" else int(rng.integers(2, min(n, 4) + 1)), replace=False)
            vals = rng.normal(size=len(verts))
            vals -= vals.mean()
            d[verts] = vals * (2 * scale / np.abs(vals).sum())  # supply = scale
        opt, flow = min_congestion_routing(g, d)
        ref, _ = reference_routing(g, d)
        if ref >= 1e-15:
            assert opt == ref
        assert opt == pytest.approx(brute_opt_congestion(g, d), rel=1e-12, abs=0)
        assert np.allclose(divergence(flow), d, rtol=0, atol=1e-9 * np.abs(d).sum())
        assert flow.congestion() <= opt * (1 + 1e-9)

    def test_stalled_step_nudges_kappa(self, monkeypatch):
        # The first solve reports nothing routed, so every vertex stays on the
        # source side and the step finds no set beating kappa = 1/2, which is
        # the optimum: the nudged attempt routes and kappa is returned.
        real_solve = oracles._Dinic.solve
        solves = []

        def first_solve_fails(self, s, t):
            solves.append(s)
            return 0.0 if len(solves) == 1 else real_solve(self, s, t)

        monkeypatch.setattr(oracles._Dinic, "solve", first_solve_fails)
        g = CapacitatedGraph(2, [(0, 1, 4)])
        opt, flow = min_congestion_routing(g, st_demand(2, 0, 1, 2.0))
        assert len(solves) == 2
        assert opt == 0.5
        assert np.allclose(divergence(flow), [2.0, -2.0])

    def test_stalled_step_raises_when_nudge_refused(self, monkeypatch):
        # The violated set handed back is the positive-demand set itself,
        # whose ratio 1/2 is kappa; the optimum is 1, so the nudge fails too.
        monkeypatch.setattr(oracles._Dinic, "reachable", lambda self, s, zero=0: {s, 0})
        with pytest.raises(RuntimeError, match=r"stalled at kappa=0\.5"):
            min_congestion_routing(path_2_1(), st_demand(3, 0, 2, 1.0))

    def test_max_flows_per_call_in_single_digits(self, monkeypatch):
        g = random_connected_graph(100, 300, np.random.default_rng(7))
        cuts = build_multi_tree(g, 8, seed=0)
        real_solve, real_routing = oracles._Dinic.solve, approximator.min_congestion_routing
        solves, per_call = [0], []

        def counting_solve(self, s, t):
            solves[0] += 1
            return real_solve(self, s, t)

        def counted_routing(g, d):
            solves[0] = 0
            out = real_routing(g, d)
            per_call.append(solves[0])
            return out

        monkeypatch.setattr(oracles._Dinic, "solve", counting_solve)
        monkeypatch.setattr(approximator, "min_congestion_routing", counted_routing)
        measure_alpha(cuts, g, trials=8, seed=0)
        assert len(per_call) == 8
        assert max(per_call) <= 6, per_call


class TestVerifyFairness:
    def test_single_edge_saturating(self):
        g = CapacitatedGraph(2, [(0, 1, 10)])
        out = verify_fairness(g, VertexCut(frozenset({0}), 0, 1), 1.0)
        assert isinstance(out, FairnessCertificate)
        assert out.witness_flow.flow(0, 1) == pytest.approx(10.0)

    def test_path_prefix_refused(self):
        # Needs 2/1.5 > 1 through the (a,t) edge: impossible.
        out = verify_fairness(path_2_1(), VertexCut(frozenset({0}), 0, 2), 1.5)
        assert isinstance(out, FairnessRefusal)
        assert out.deficit > 0

    def test_path_full_prefix_certified(self):
        # Explicit witness: one unit along s-a-t saturates the (a,t) arc.
        out = verify_fairness(path_2_1(), VertexCut(frozenset({0, 1}), 0, 2), 1.0)
        assert isinstance(out, FairnessCertificate)
        assert out.witness_flow.flow(1, 2) >= 1.0 - 1e-9

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            verify_fairness(path_2_1(), VertexCut(frozenset({0}), 0, 2), 0.5)

    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError, match="at least 1, got nan"):
            verify_fairness(path_2_1(), VertexCut(frozenset({0, 1}), 0, 2), float("nan"))

    def test_certificate_invariants(self, rng):
        for _ in range(15):
            g = small_graph(rng, n_lo=3, n_hi=8)
            s, t = 0, g.n - 1
            side = {s} | {int(v) for v in rng.choice(g.n, size=g.n // 2)} - {t}
            cut = VertexCut(frozenset(side), s, t)
            alpha = float(rng.uniform(1.0, 6.0))
            out = verify_fairness(g, cut, alpha)
            if not isinstance(out, FairnessCertificate):
                continue
            w = out.witness_flow
            assert w.congestion() <= 1 + 1e-9
            d = divergence(w)
            assert out.value >= -1e-9
            assert np.allclose(d, st_demand(g.n, s, t, out.value), atol=1e-7)
            mask = cut.member_mask(g.n)
            for a in np.nonzero(mask[g.tails] & ~mask[g.heads])[0]:
                assert w.values[a] >= g.arc_caps[a] / alpha - 1e-9 * g.arc_caps[a]

    def test_monotone_in_alpha(self, rng):
        for _ in range(10):
            g = small_graph(rng, n_lo=3, n_hi=7)
            s, t = 0, g.n - 1
            cut = VertexCut(frozenset({s}), s, t)
            alphas = sorted(rng.uniform(1.0, 8.0, size=4))
            accepted = [isinstance(verify_fairness(g, cut, a), FairnessCertificate) for a in alphas]
            # once accepted, stays accepted
            for earlier, later in zip(accepted, accepted[1:]):
                assert later or not earlier

    def test_accepted_cut_bounds_min_cut(self, rng):
        from faircut.oracles import maxflow_value

        for _ in range(10):
            g = small_graph(rng, n_lo=3, n_hi=8)
            s, t = 0, g.n - 1
            cut = VertexCut(frozenset({s}), s, t)
            alpha = min_fair_alpha(g, cut)
            assert undirected_cut_value(g, cut) <= alpha * maxflow_value(g, s, t) * (1 + 1e-6)


class TestFairnessNetwork:
    def test_shared_network_matches_fresh_checks(self, rng):
        # One network checked at many alphas answers exactly as a network
        # built for each alpha alone: same verdict, same witness, same deficit.
        for _ in range(8):
            g = small_graph(rng, n_lo=4, n_hi=9, max_cap=20)
            s, t = 0, g.n - 1
            cut = near_min_cut(g, s, t, rng)
            network = _FairnessNetwork(g, cut)
            for alpha in rng.uniform(1.0, 4.0, size=5):
                shared, fresh = network.check(float(alpha)), verify_fairness(g, cut, float(alpha))
                assert type(shared) is type(fresh)
                if isinstance(fresh, FairnessCertificate):
                    assert np.array_equal(shared.witness_flow.values, fresh.witness_flow.values)
                    assert shared.value == fresh.value
                else:
                    assert shared.blocking_set == fresh.blocking_set
                    assert shared.deficit == fresh.deficit


class TestMinFairAlpha:
    def test_matches_checking_every_step(self, rng):
        # Checking one shared network gives the result of a fresh
        # verify_fairness per step, bit for bit, including cuts that are not
        # fair at any finite factor.
        for trial in range(30):
            g = small_graph(rng, n_lo=4, n_hi=10, max_cap=int(rng.choice([1, 9, 100])))
            s, t = 0, g.n - 1
            if trial % 2:
                cut = near_min_cut(g, s, t, rng)
            else:
                side = {s} | {int(v) for v in rng.choice(g.n, size=g.n // 2)} - {t}
                cut = VertexCut(frozenset(side), s, t)
            try:
                expected = bisect_every_step(g, cut)
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    min_fair_alpha(g, cut)
                continue
            assert min_fair_alpha(g, cut) == expected

    def test_network_is_laid_out_once(self, monkeypatch):
        g = CapacitatedGraph(4, [(0, 1, 2), (1, 2, 1), (1, 3, 1)])
        cut = VertexCut(frozenset({0}), 0, 2)
        built, checked = [], []
        init, check = _FairnessNetwork.__init__, _FairnessNetwork.check
        monkeypatch.setattr(_FairnessNetwork, "__init__", lambda self, *a: built.append(1) or init(self, *a))
        monkeypatch.setattr(_FairnessNetwork, "check", lambda self, alpha: checked.append(alpha) or check(self, alpha))
        assert min_fair_alpha(g, cut) == pytest.approx(2.0, rel=1e-5)
        assert len(built) == 1 and len(checked) > 10

    def test_single_edge(self):
        g = CapacitatedGraph(2, [(0, 1, 10)])
        assert min_fair_alpha(g, VertexCut(frozenset({0}), 0, 1)) == 1.0

    def test_path_min_cut_is_one_fair(self):
        assert min_fair_alpha(path_2_1(), VertexCut(frozenset({0, 1}), 0, 2)) == 1.0

    def test_star_needs_factor_two(self):
        # Only one unit can leave the hub toward t, but the (s,hub) arc has
        # capacity 2: brute-force flow check gives exactly 2.
        g = CapacitatedGraph(4, [(0, 1, 2), (1, 2, 1), (1, 3, 1)])
        alpha = min_fair_alpha(g, VertexCut(frozenset({0}), 0, 2))
        assert alpha == pytest.approx(2.0, rel=1e-5)
