import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from faircut import approximator
from faircut.cli import main
from faircut.dimacs import serialize_dimacs
from faircut.generators import random_connected_graph
from faircut.graph import CapacitatedGraph, VertexCut
from faircut.oracles import FairnessCertificate, verify_fairness

from conftest import fairness_bound, int64_spread_instance

PATH_INSTANCE = "p max 3 2\nn 1 s\nn 3 t\na 1 2 2\na 2 3 1\n"
SINGLE_EDGE = "p max 2 1\nn 1 s\nn 2 t\na 1 2 10\n"


@pytest.fixture
def instance_file(tmp_path):
    def write(text, name="g.dimacs"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_single_edge_verified(self, instance_file, capsys):
        path = instance_file(SINGLE_EDGE)
        code, out, _ = run(capsys, ["solve", "--input", path, "--verify", "--approximator", "exhaustive"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["cut_side"] == [0]
        assert doc["achieved_alpha"] == pytest.approx(1.0, abs=1e-6)
        assert doc["instance"] == {"vertices": 2, "edges": 1, "capacity_checksum": doc["instance"]["capacity_checksum"]}

    def test_zero_epsilon_is_argument_error(self, instance_file, capsys):
        path = instance_file(SINGLE_EDGE)
        code, _, err = run(capsys, ["solve", "--input", path, "--epsilon", "0"])
        assert code == 1
        assert "epsilon" in err

    def test_zero_member_multitree_exits_one(self, instance_file, capsys):
        path = instance_file(SINGLE_EDGE)
        code, out, err = run(capsys, ["solve", "--input", path, "--approximator", "multitree:0"])
        assert code == 1 and out == ""
        assert "member count" in err

    def test_parse_error_exits_one(self, instance_file, capsys):
        path = instance_file("p max 2 1\nn 1 s\na 1 2 0\n")
        code, _, err = run(capsys, ["solve", "--input", path])
        assert code == 1 and "line" in err

    @pytest.mark.parametrize(
        "arcs", [["a 1 2 9223372036854775808"], ["a 1 2 4611686018427387904", "a 2 1 4611686018427387904"]]
    )
    def test_capacity_above_int64_exits_one(self, instance_file, capsys, arcs):
        path = instance_file("\n".join([f"p max 2 {len(arcs)}", "n 1 s", "n 2 t", *arcs, ""]))
        code, out, err = run(capsys, ["solve", "--input", path])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "2**63 - 1" in err

    def test_same_seed_same_document(self, instance_file, capsys, rng):
        g = random_connected_graph(20, 50, rng, max_cap=30)
        path = instance_file(serialize_dimacs(g, 0, 19))
        argv = ["solve", "--input", path, "--seed", "7", "--verify"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        strip = lambda text: re.sub(r'"wall_clock_ms": [^,\n]+', '"wall_clock_ms": X', text)
        assert strip(out1) == strip(out2)

    def test_trace_file(self, instance_file, capsys, tmp_path):
        path = instance_file(PATH_INSTANCE)
        trace = tmp_path / "trace.csv"
        code, _, _ = run(capsys, ["solve", "--input", path, "--trace", str(trace), "--approximator", "exhaustive"])
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iter,potential,branch,primal_gap"
        assert len(lines) >= 2

    @pytest.mark.parametrize("w", [10**6, 10**10, 10**15, 2**62])
    def test_capacity_spread_solves(self, instance_file, capsys, w):
        g = CapacitatedGraph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (0, 3, w)])
        code, out, _ = run(capsys, ["solve", "--input", instance_file(serialize_dimacs(g, 0, 2)), "--verify"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["cut_side"], doc["achieved_alpha"]) == ([0, 1, 3], 1.0)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(instance=int64_spread_instance())
    def test_int64_capacities_solve_and_certify(self, instance_file, capsys, instance):
        g, s, t = instance
        code, out, _ = run(capsys, ["solve", "--input", instance_file(serialize_dimacs(g, s, t)), "--verify"])
        assert code == 0
        doc = json.loads(out)
        cut = VertexCut(frozenset(doc["cut_side"]), s, t)
        assert isinstance(verify_fairness(g, cut, doc["achieved_alpha"]), FairnessCertificate)
        assert doc["achieved_alpha"] <= fairness_bound(g.n, 0.05)


class TestVerify:
    def test_fair_cut_accepted(self, instance_file, tmp_path, capsys):
        path = instance_file(PATH_INSTANCE)
        cut = tmp_path / "cut.json"
        cut.write_text("[0, 1]")
        code, out, _ = run(capsys, ["verify", "--input", path, "--cut", str(cut), "--alpha", "1.0"])
        assert code == 0
        assert "fair at alpha" in out

    def test_unfair_cut_exits_three(self, instance_file, tmp_path, capsys):
        path = instance_file(PATH_INSTANCE)
        cut = tmp_path / "cut.json"
        cut.write_text("[0]")
        code, _, err = run(capsys, ["verify", "--input", path, "--cut", str(cut), "--alpha", "1.2"])
        assert code == 3
        assert "not fair" in err

    def test_cut_containing_sink_exits_one(self, instance_file, tmp_path, capsys):
        path = instance_file(PATH_INSTANCE)
        cut = tmp_path / "cut.json"
        cut.write_text("[0, 2]")
        code, _, err = run(capsys, ["verify", "--input", path, "--cut", str(cut), "--alpha", "1.0"])
        assert code == 1
        assert "separate" in err

    @pytest.mark.parametrize("side", ["[0, 99]", "[0, -1]", "[0, 1.7]", "[0, true]"])
    def test_cut_ids_must_be_vertex_ids(self, instance_file, tmp_path, capsys, side):
        path = instance_file(PATH_INSTANCE)
        cut = tmp_path / "cut.json"
        cut.write_text(side)
        code, out, err = run(capsys, ["verify", "--input", path, "--cut", str(cut), "--alpha", "1.5"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "not a vertex id in 0..2" in err

    def test_nan_alpha_exits_one(self, instance_file, tmp_path, capsys):
        path = instance_file(PATH_INSTANCE)
        cut = tmp_path / "cut.json"
        cut.write_text("[0, 1]")
        code, out, err = run(capsys, ["verify", "--input", path, "--cut", str(cut), "--alpha", "nan"])
        assert code == 1 and out.strip() == ""
        assert err.startswith("error: ") and "at least 1" in err


class TestBench:
    def test_path_family_schema(self, capsys):
        code, out, _ = run(capsys, ["bench", "--family", "path", "--n", "10", "--trials", "1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,eps,iterations,final_potential,achieved_alpha,mincut_ratio,ms"
        fields = lines[1].split(",")
        assert int(fields[0]) == 10
        assert float(fields[5]) >= 1.0  # achieved_alpha

    def test_zero_trials_header_only(self, capsys):
        code, out, _ = run(capsys, ["bench", "--family", "cycle", "--n", "8", "--trials", "0"])
        assert code == 0
        assert out.strip().splitlines() == ["n,m,eps,iterations,final_potential,achieved_alpha,mincut_ratio,ms"]

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, ["bench", "--family", "moebius", "--n", "8"])
        assert code == 1 and "unknown family" in err

    @pytest.mark.parametrize(
        "args, message",
        [(["--n", "1"], "source and sink must differ"), (["--n", "8", "--epsilon", "0.2"], "eps must lie in")],
    )
    def test_bad_arguments_exit_one(self, capsys, args, message):
        code, _, err = run(capsys, ["bench", "--family", "path", *args])
        assert code == 1
        assert err.startswith("error: ") and message in err

    def test_random_family_rows_valid(self, capsys):
        code, out, _ = run(capsys, ["bench", "--family", "random", "--n", "20", "--trials", "3", "--seed", "5"])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            fields = row.split(",")
            assert float(fields[6]) >= 1.0 - 1e-9  # cut value at least the min cut

    def test_random_family_round_counts_within_limit(self, capsys):
        from faircut.driver import default_round_limit

        code, out, _ = run(capsys, ["bench", "--family", "random", "--n", "50", "--trials", "20", "--seed", "2"])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 20
        for row in rows:
            fields = row.split(",")
            n, m, eps, iters = int(fields[0]), int(fields[1]), float(fields[2]), int(fields[3])
            assert iters <= default_round_limit(n, 100, eps)

    def test_bench_deterministic_given_seed(self, capsys):
        argv = ["bench", "--family", "random", "--n", "15", "--trials", "2", "--seed", "9"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        strip_ms = lambda text: [row.rsplit(",", 1)[0] for row in text.strip().splitlines()]
        assert strip_ms(out1) == strip_ms(out2)


class TestMeasureAlpha:
    def test_reports_alpha(self, instance_file, capsys):
        path = instance_file(PATH_INSTANCE)
        code, out, _ = run(
            capsys,
            ["measure-alpha", "--input", path, "--approximator", "exhaustive", "--trials", "6"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha_measured"] == pytest.approx(1.0, abs=1e-6)
        assert doc["rows"] == 3

    def test_unroutable_demand_exits_one(self, instance_file, capsys, monkeypatch):
        # The matrix builders refuse disconnected graphs, so the routing call
        # is handed one: each component balances within tolerance, but
        # vertices 0 and 1 hold demand with no edge to send it along.
        trapped = CapacitatedGraph(5, [(3, 4, 1)]), np.array([0.9e-9, 0.9e-9, -0.9e-9, -0.9e-9, 0.0])
        routing = approximator.min_congestion_routing
        monkeypatch.setattr(approximator, "min_congestion_routing", lambda g, d: routing(*trapped))
        path = instance_file(PATH_INSTANCE)
        code, out, err = run(capsys, ["measure-alpha", "--input", path, "--approximator", "exhaustive", "--trials", "2"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "no routing exists" in err


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1
