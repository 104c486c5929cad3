import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from faircut import flowcut
from faircut.approximator import CutMatrix, build_exhaustive, build_multi_tree, build_tree
from faircut.driver import _make_state, iterate_once
from faircut.flowcut import (
    CutResult,
    DualWitness,
    ExhaustedOutcome,
    FlowResult,
    PrimalCertificate,
    ThresholdCutError,
    flow_or_cut,
    reduce_problem,
    saddle_solve,
    threshold_cut,
)
from faircut.graph import (
    CapacitatedGraph,
    FlowAssignment,
    ResidualView,
    VertexCut,
    directed_cut_value,
    divergence,
    st_demand,
)
from faircut.generators import random_connected_graph, random_feasible_flow
from faircut.oracles import max_flow_exact, min_congestion_routing

from conftest import brute_directed_cut, from_arc_dict, operator_row_norms, reference_sweep, small_graph


def single_edge(cap=1):
    return CapacitatedGraph(2, [(0, 1, cap)])


def empty_residual(g):
    return ResidualView(g, FlowAssignment(g))


class TestReduce:
    def test_single_edge_operator_column(self):
        g = single_edge(1)
        res = empty_residual(g)
        problem = reduce_problem(res, st_demand(2, 0, 1, 1.0), build_exhaustive(g))
        x = np.zeros(g.num_arcs)
        x[g.arc_index(0, 1)] = 1.0
        assert np.allclose(problem.operator(x), [1.0, -1.0])

    def test_scaled_row_norms_at_most_one(self, rng):
        for _ in range(8):
            g = small_graph(rng, n_lo=4, n_hi=10)
            res = ResidualView(g, random_feasible_flow(g, rng))
            cuts = build_multi_tree(g, 3, seed=1)
            assert np.all(0.25 * operator_row_norms(cuts, res) <= 1.0 + 1e-9)

    def test_zero_capacity_row_rejected(self):
        g = single_edge(2)
        res = empty_residual(g)
        with pytest.raises(ValueError):
            bad = CutMatrix(n=2, rows=[np.array([0])], weights=np.array([np.inf]))
            reduce_problem(res, np.zeros(2), bad)

    def test_matrix_without_bound_rejected(self):
        # A custom builder may leave alpha_bound at its default, inf.
        g = single_edge(2)
        unbounded = CutMatrix(n=2, rows=[np.array([0])], weights=np.array([0.5]))
        assert unbounded.alpha_bound == float("inf")
        with pytest.raises(ValueError, match="certified bound"):
            reduce_problem(empty_residual(g), np.zeros(2), unbounded)


class TestSaddleSolve:
    def test_feasible_instance_returns_primal(self):
        g = single_edge(4)
        res = empty_residual(g)
        value, _, _ = max_flow_exact(g, 0, 1)
        d = st_demand(2, 0, 1, value / 2.0)
        problem = reduce_problem(res, d, build_exhaustive(g))
        out = saddle_solve(problem, 0.05, budget=50)
        assert isinstance(out, PrimalCertificate)
        assert out.gap <= 0.05

    def test_infeasible_instance_returns_dual(self):
        g = single_edge(1)
        res = empty_residual(g)
        problem = reduce_problem(res, st_demand(2, 0, 1, 2.0), build_exhaustive(g))
        out = saddle_solve(problem, 0.05, budget=200)
        assert isinstance(out, DualWitness)
        side = set(out.side)
        boundary = brute_directed_cut(g.tails, g.heads, res.arc_caps, side, g.n)
        assert float(problem.demand[sorted(side)].sum()) > boundary

    def test_budget_zero_is_exhausted(self):
        g = single_edge(1)
        res = empty_residual(g)
        problem = reduce_problem(res, st_demand(2, 0, 1, 2.0), build_exhaustive(g))
        out = saddle_solve(problem, 0.05, budget=0)
        assert isinstance(out, ExhaustedOutcome)

    def test_gap_met_in_the_last_round_is_primal(self):
        # Cold start on routable demands (tau <= max-flow): an average that
        # meets the slack in the budget's last round must not be reported
        # as exhausted.  Calls 36, 44 and 60 hit that round at budget 30.
        at_budget = 0
        for i in range(64):
            rng = np.random.default_rng(i)
            n = int(rng.integers(5, 40))
            g = random_connected_graph(n, int(rng.integers(n, 3 * n)), rng, max_cap=20)
            res = ResidualView(g, random_feasible_flow(g, rng))
            mf, _, _ = max_flow_exact(res, 0, n - 1)
            if mf <= 0:
                continue
            tau = float(mf) * float(rng.uniform(0.3, 1.0))
            cuts = build_exhaustive(g) if n <= 10 else build_multi_tree(g, 4, seed=i)
            problem = reduce_problem(res, st_demand(n, 0, n - 1, tau), cuts)
            slack = (0.1 / 4.0) / problem.alpha
            for budget in (1, 3, 30):
                out = saddle_solve(problem, slack, budget)
                if isinstance(out, ExhaustedOutcome):
                    assert out.best_gap > slack, (i, budget)
                if isinstance(out, PrimalCertificate):
                    assert out.gap <= slack and out.gap == problem.primal_gap(out.x)
                    at_budget += out.iterations == budget
        assert at_budget >= 3

    def test_cold_start_duals_certify(self, rng):
        # Cold start (no warm flow), so the loop decides alone.
        duals = 0
        for i in range(80):
            n = int(rng.integers(5, 21))
            g = random_connected_graph(n, int(rng.integers(n, 3 * n)), rng, max_cap=20)
            res = ResidualView(g, random_feasible_flow(g, rng))
            s, t = 0, n - 1
            mf, _, _ = max_flow_exact(res, s, t)
            tau = max(float(mf) * float(rng.uniform(0.5, 1.5)), 0.05)
            cuts = build_exhaustive(g) if n <= 10 and i % 2 == 0 else build_multi_tree(g, 4, seed=i)
            d = st_demand(n, s, t, tau)
            problem = reduce_problem(res, d, cuts)
            eps = (0.2, 0.1, 0.05)[i % 3]
            out = saddle_solve(problem, (eps / 4.0) / problem.alpha, budget=(1, 3, 30, 400)[i % 4])
            if not isinstance(out, DualWitness):
                continue
            duals += 1
            assert np.array_equal(out.potential, problem.scaled_pullback(out.y))
            assert out.iterations >= 1
            assert s in out.side and t not in out.side
            assert brute_directed_cut(g.tails, g.heads, res.arc_caps, set(out.side), n) < tau
        assert duals >= 39  # a margin-gated loop found 39: sweeping every round loses none

    def test_bad_slack_rejected(self):
        g = single_edge(1)
        problem = reduce_problem(empty_residual(g), np.zeros(2), build_exhaustive(g))
        with pytest.raises(ValueError):
            saddle_solve(problem, 1.5, budget=10)


class TestWitnessPotential:
    """A witness's potential is ``scaled_pullback(y)``, and its sweep gives the witness side."""

    def _problem(self):
        g = single_edge(1)
        res = empty_residual(g)
        return reduce_problem(res, st_demand(2, 0, 1, 2.0), build_exhaustive(g))

    def test_hand_instance(self):
        problem = self._problem()
        out = saddle_solve(problem, 0.05, budget=10)
        assert isinstance(out, DualWitness)
        assert out.side == frozenset({0})
        assert np.array_equal(out.potential, problem.scaled_pullback(out.y))

    def test_positive_scaling_invariance(self):
        problem = self._problem()
        for scale in (0.25, 1.0, 17.0):
            phi = problem.scaled_pullback(np.array([scale]))
            cut = threshold_cut(problem.residual, phi, problem.demand)
            assert cut.side == frozenset({0})


class TestThresholdCut:
    def test_single_arc_hand_case(self):
        g = single_edge(1)
        res = empty_residual(g)
        d = st_demand(2, 0, 1, 2.0)
        cut = threshold_cut(res, np.array([1.0, 0.0]), d)
        assert cut.side == frozenset({0})
        # recompute: demand inside 2 > boundary 1
        assert directed_cut_value(res, cut) == 1.0

    def test_constant_potential_fails_precondition(self):
        g = single_edge(1)
        res = empty_residual(g)
        with pytest.raises(ThresholdCutError):
            threshold_cut(res, np.zeros(2), st_demand(2, 0, 1, 1.0))

    def test_cancelled_boundary_never_lets_zero_demand_violate(self):
        # Prefix {0, 1, 2} holds s and t, and nothing leaves it, but its
        # running boundary sum cancels to -2.2e-16 instead of 0.
        g = CapacitatedGraph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1)])
        flow = from_arc_dict(g, {(0, 1): 0.2, (0, 2): 0.4, (1, 2): 0.4})
        res = ResidualView(g, flow, active_edges=np.array([True, True, True, False]))
        with pytest.raises(ThresholdCutError):
            threshold_cut(res, np.array([3.0, 2.0, 1.0, 0.0]), st_demand(4, 0, 2, 0.05))

    def test_fuzz_violating_prefix(self, rng):
        found = 0
        while found < 120:
            g = small_graph(rng, n_lo=3, n_hi=10)
            res = ResidualView(g, random_feasible_flow(g, rng))
            phi = rng.normal(size=g.n)
            if rng.uniform() < 0.3:
                phi = np.round(phi)  # force ties
            drops = res.arc_caps * np.maximum(phi[g.tails] - phi[g.heads], 0.0)
            saturated = float(drops.sum())
            d0 = rng.normal(size=g.n)
            d0 -= d0.mean()
            denom = float(phi @ d0)
            if abs(denom) < 1e-9:
                continue
            scale = (saturated + float(rng.uniform(0.1, 2.0))) / denom
            d = d0 * scale
            found += 1
            cut = threshold_cut(res, phi, d)
            side = set(cut.side)
            boundary = brute_directed_cut(g.tails, g.heads, res.arc_caps, side, g.n)
            assert float(d[sorted(side)].sum()) > boundary - 1e-9

    def test_st_demand_cut_below_threshold(self, rng):
        for _ in range(40):
            g = small_graph(rng, n_lo=3, n_hi=10)
            res = ResidualView(g, random_feasible_flow(g, rng))
            s, t = 0, g.n - 1
            bits = int(rng.integers(1, 1 << (g.n - 1)))
            side = {v for v in range(g.n - 1) if (bits >> v) & 1} | {s}
            side.discard(t)
            boundary = brute_directed_cut(g.tails, g.heads, res.arc_caps, side, g.n)
            tau = boundary * float(rng.uniform(1.01, 2.0)) + 0.01
            phi = np.zeros(g.n)
            phi[sorted(side)] = 1.0
            cut = threshold_cut(res, phi, st_demand(g.n, s, t, tau))
            assert s in cut.side and t not in cut.side
            value = brute_directed_cut(g.tails, g.heads, res.arc_caps, set(cut.side), g.n)
            assert value < tau


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_threshold_cut_matches_reference_sweep(state, integral, st_pair):
    # Integral residuals and demands sum exactly, so the sweep must equal the
    # reference; on floats the two may part only at a near tie.
    gen = np.random.default_rng(state)
    g = small_graph(gen, n_lo=2, n_hi=12)
    flow = random_feasible_flow(g, gen)
    if integral:
        flow = FlowAssignment(g, np.floor(flow.values))
    res = ResidualView(g, flow, active_edges=gen.random(g.m) < 0.8)
    phi = gen.integers(-2, 3, size=g.n).astype(float) if gen.random() < 0.7 else gen.normal(size=g.n)
    if st_pair:
        s, t = (int(v) for v in gen.choice(g.n, size=2, replace=False))
        d = st_demand(g.n, s, t, float(gen.integers(1, 30)) if integral else float(gen.uniform(0.1, 30)))
    else:
        d = gen.integers(-15, 16, size=g.n).astype(float) if integral else gen.normal(scale=8.0, size=g.n)
    tie = 1e-9 * (float(np.abs(d).sum()) + float(res.arc_caps.sum()))

    ref_side, trail = reference_sweep(res, phi, d)
    try:
        side = threshold_cut(res, phi, d).side
    except ThresholdCutError:
        side = None
    if side != ref_side:
        assert not integral
        k = min(len(x) - 1 if x is not None else g.n - 1 for x in (side, ref_side))
        delta, boundary = trail[k]
        assert abs(delta - boundary) <= tie
        event("differs from the reference at a near tie")
    if side is not None:
        boundary = brute_directed_cut(g.tails, g.heads, res.arc_caps, set(side), g.n)
        assert float(d[sorted(side)].sum()) > boundary - (0.0 if integral else tie)
        if st_pair:
            assert s in side and t not in side


class TestFlowOrCut:
    def test_single_edge_flow_side(self):
        g = single_edge(5)
        res = empty_residual(g)
        out = flow_or_cut(res, 0, 1, tau=3.0, eps=0.1, cuts=lambda: build_exhaustive(g))
        assert isinstance(out, FlowResult)
        opt, _ = min_congestion_routing(g, st_demand(2, 0, 1, 3.0) - divergence(out.flow))
        assert opt <= 0.1 + 1e-9

    def test_single_edge_cut_side(self):
        g = single_edge(5)
        res = empty_residual(g)
        out = flow_or_cut(res, 0, 1, tau=7.0, eps=0.1, cuts=lambda: build_exhaustive(g))
        assert isinstance(out, CutResult)
        assert out.cut.side == frozenset({0})
        assert out.value == pytest.approx(5.0)

    def test_zero_tau_rejected(self):
        g = single_edge(1)
        with pytest.raises(ValueError, match="threshold"):
            flow_or_cut(empty_residual(g), 0, 1, tau=0.0, eps=0.1, cuts=lambda: build_exhaustive(g))

    def test_bad_eps_rejected(self):
        g = single_edge(1)
        with pytest.raises(ValueError, match="eps"):
            flow_or_cut(empty_residual(g), 0, 1, tau=1.0, eps=0.7, cuts=lambda: build_exhaustive(g))

    @pytest.mark.parametrize("tau", [3.0, 7.0])
    def test_negative_budget_rejected_before_the_max_flow(self, monkeypatch, tau):
        # tau = 3 is decided by the warm flow, which never reads the budget;
        # tau = 7 would enter the saddle loop.
        monkeypatch.setattr(flowcut, "max_flow_exact", lambda *args: pytest.fail("max-flow ran first"))
        with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
            flow_or_cut(empty_residual(single_edge(5)), 0, 1, tau, 0.1, refusing_builder, budget=-1)

    def test_saturated_residual_takes_reachability_cut(self):
        g = CapacitatedGraph(3, [(0, 1, 2), (1, 2, 1)])
        f = from_arc_dict(g, {(1, 2): 1.0})
        res = ResidualView(g, f)
        out = flow_or_cut(res, 0, 2, tau=0.5, eps=0.1, cuts=lambda: build_exhaustive(g))
        assert isinstance(out, CutResult)
        assert out.via == "reachability"
        assert out.value == 0.0 and out.cut.side == frozenset({0, 1})

    def test_contract_fuzz(self, rng):
        flows = cutscount = 0
        for i in range(50):
            n = int(rng.integers(4, 30))
            g = random_connected_graph(n, 2 * n, rng, max_cap=20)
            f = random_feasible_flow(g, rng)
            res = ResidualView(g, f)
            s, t = 0, n - 1
            mf, _, _ = max_flow_exact(res, s, t)
            tau = max(float(mf) * float(rng.uniform(0.3, 1.8)), 0.05)
            cuts = build_exhaustive(g) if n <= 12 else build_multi_tree(g, 8, seed=i)
            out = flow_or_cut(res, s, t, tau, eps=0.1, cuts=lambda: cuts, budget=300)
            if isinstance(out, CutResult):
                cutscount += 1
                value = brute_directed_cut(g.tails, g.heads, res.arc_caps, set(out.cut.side), n)
                assert value < tau
                assert s in out.cut.side and t not in out.cut.side
            else:
                flows += 1
                assert np.all(out.flow.values <= res.arc_caps * (1 + 1e-9) + 1e-9 * g.arc_caps)
                opt, _ = min_congestion_routing(g, st_demand(n, s, t, tau) - divergence(out.flow))
                assert opt <= 0.1 + 1e-6
                # the stated primal bound in matrix terms: gap within the slack
                prob = reduce_problem(res, st_demand(n, s, t, tau), cuts)
                assert out.primal_gap <= (0.1 / 4.0) / prob.alpha + 1e-12
        assert flows > 5 and cutscount > 5

    def test_determinism(self, rng):
        g = random_connected_graph(15, 30, rng, max_cap=10)
        res = empty_residual(g)
        cuts = build_multi_tree(g, 4, seed=9)
        a = flow_or_cut(res, 0, 14, 3.0, 0.05, lambda: cuts, budget=200)
        b = flow_or_cut(res, 0, 14, 3.0, 0.05, lambda: cuts, budget=200)
        assert type(a) is type(b)
        if isinstance(a, FlowResult):
            assert np.array_equal(a.flow.values, b.flow.values)
        else:
            assert a.cut.side == b.cut.side


class TestSalvage:
    def test_zero_budget_salvages_the_warm_start_min_cut(self, rng):
        # With no saddle round at all, a tau above the max-flow leaves the
        # warm start's min-cut side as the only way to a cut.
        for i in range(60):
            g = small_graph(rng, n_lo=6, n_hi=13)
            s, t = 0, g.n - 1
            res = empty_residual(g)
            maxflow, _, _ = max_flow_exact(res, s, t)
            tau = float(rng.uniform(1.01, 1.3)) * maxflow
            out = flow_or_cut(res, s, t, tau, eps=0.1, cuts=lambda: build_tree(g, seed=i), budget=0)
            assert isinstance(out, CutResult) and out.via == "salvage"
            assert s in out.cut.side and t not in out.cut.side
            value = brute_directed_cut(g.tails, g.heads, res.arc_caps, out.cut.side, g.n)
            assert out.value == value < tau


def refusing_builder():
    raise AssertionError("cut matrix built on a round the warm start decides")


class TestExits:
    """Each way out of ``flow_or_cut``, forced through the public call."""

    def test_warm_flow_at_zero_budget(self):
        out = flow_or_cut(empty_residual(single_edge(5)), 0, 1, 3.0, 0.1, refusing_builder, budget=0)
        assert isinstance(out, FlowResult)
        assert (out.iterations, out.primal_gap) == (0, 0.0)
        assert np.allclose(st_demand(2, 0, 1, 3.0) - divergence(out.flow), 0.0)

    def test_saddle_primal_at_iteration_zero(self):
        # tau a hair above the max-flow: the warm flow is not scaled, and the
        # loop's first check finds it within the slack.
        g = single_edge(5)
        out = flow_or_cut(empty_residual(g), 0, 1, 5.0 * (1 + 1e-6), 0.1, lambda: build_exhaustive(g))
        assert isinstance(out, FlowResult) and out.iterations == 0
        assert 0.0 < out.primal_gap <= 0.1 / 4.0

    def test_threshold_cut(self):
        g = single_edge(5)
        out = flow_or_cut(empty_residual(g), 0, 1, 7.0, 0.1, lambda: build_exhaustive(g))
        assert isinstance(out, CutResult) and out.via == "threshold-cut"
        assert (out.cut.side, out.value, out.iterations) == (frozenset({0}), 5.0, 1)

    def test_min_cut_after_exhaustion(self):
        g = CapacitatedGraph(3, [(0, 1, 4), (1, 2, 1)])
        res = empty_residual(g)
        out = flow_or_cut(res, 0, 2, 3.0, 0.1, lambda: build_exhaustive(g), budget=0)
        assert isinstance(out, CutResult) and out.via == "salvage"
        assert out.cut.side == max_flow_exact(res, 0, 2)[2].side == frozenset({0, 1})
        assert (out.value, out.iterations) == (1.0, 0)

    def test_min_cut_after_the_swept_side_fails_the_exact_check(self):
        # At W = 2**62 the sweep's float boundary sums cancel W against 5 + W,
        # so a side of true value at least tau looks violated.
        g = CapacitatedGraph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (0, 3, 2**62)])
        out = flow_or_cut(empty_residual(g), 0, 2, 3.0, 0.05, lambda: build_exhaustive(g), budget=1000)
        assert isinstance(out, CutResult) and out.via == "salvage"
        assert out.iterations == 1  # a witness in round 1, not an expired budget
        assert out.cut.side == frozenset({0, 1, 3}) and out.value == 2.0

    def test_reachability(self):
        g = CapacitatedGraph(3, [(0, 1, 4), (1, 2, 1)])
        res = ResidualView(g, FlowAssignment(g), active_edges=np.array([True, False]))
        out = flow_or_cut(res, 0, 2, 3.0, 0.1, refusing_builder, budget=0)
        assert isinstance(out, CutResult) and out.via == "reachability"
        assert (out.cut.side, out.value, out.iterations) == (frozenset({0, 1}), 0.0, 0)


class TestLazyCutMatrix:
    def test_warm_start_flow_never_builds(self, rng):
        g = single_edge(5)
        out = flow_or_cut(empty_residual(g), 0, 1, tau=5.0, eps=0.1, cuts=refusing_builder)
        assert isinstance(out, FlowResult)
        assert out.iterations == 0 and out.primal_gap == 0.0
        assert np.allclose(st_demand(2, 0, 1, 5.0) - divergence(out.flow), 0.0)
        for _ in range(10):
            n = int(rng.integers(4, 30))
            g = random_connected_graph(n, 2 * n, rng, max_cap=20)
            res = ResidualView(g, random_feasible_flow(g, rng))
            mf, _, _ = max_flow_exact(res, 0, n - 1)
            if mf <= 0:
                continue
            tau = float(mf) * float(rng.uniform(0.3, 1.0))
            out = flow_or_cut(res, 0, n - 1, tau, eps=0.1, cuts=refusing_builder)
            assert isinstance(out, FlowResult) and out.iterations == 0
            assert np.abs(st_demand(n, 0, n - 1, tau) - divergence(out.flow)).max() <= 1e-9 * tau

    def test_cut_round_builds_once(self):
        g = CapacitatedGraph(3, [(0, 1, 4), (1, 2, 1)])
        state = _make_state(g, VertexCut(frozenset({0}), 0, 2), FlowAssignment(g), 0.05, 1)
        built = []

        def builder(sub, seed):
            built.append(seed)
            return build_exhaustive(sub)

        _, record = iterate_once(state, 0.05, builder, seed=3)
        assert record.branch == "cut"
        assert built == [3]


class TestFirstRoundSweep:
    """Hand instances where every cut-matrix row is a violated cut; round 1's sweep must certify."""

    def _witness(self, d):
        g = CapacitatedGraph(3, [(0, 1, 2), (1, 2, 1)])
        res = empty_residual(g)
        cuts = build_exhaustive(g)
        out = saddle_solve(reduce_problem(res, d, cuts), 0.05, budget=50)
        assert isinstance(out, DualWitness) and out.iterations == 1
        side = set(out.side)
        assert brute_directed_cut(g.tails, g.heads, res.arc_caps, side, g.n) < 5.0
        rows = {frozenset(int(v) for v in r) for r in cuts.rows}
        return out.side, rows

    def test_forward_branch_single_row_witness(self):
        side, rows = self._witness(st_demand(3, 0, 2, 5.0))  # above every cut
        assert 0 in side and 2 not in side
        assert side in rows

    def test_backward_branch_uses_negated_row(self):
        side, rows = self._witness(st_demand(3, 2, 0, 5.0))  # reversed terminals; rows anchor vertex 0
        assert 2 in side and 0 not in side
        assert frozenset({0, 1, 2}) - side in rows
