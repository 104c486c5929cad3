import pytest

from faircut.dimacs import DimacsError, parse_dimacs, serialize_dimacs

SINGLE_EDGE = """c tiny instance
p max 2 1
n 1 s
n 2 t
a 1 2 10
"""


class TestParse:
    def test_single_edge(self):
        inst = parse_dimacs(SINGLE_EDGE)
        graph, s, t = inst.to_graph()
        assert (graph.n, graph.m) == (2, 1)
        assert (s, t) == (0, 1)
        assert graph.edge_list() == [(0, 1, 10)]

    def test_antiparallel_arcs_merge(self):
        text = "p max 2 2\nn 1 s\nn 2 t\na 1 2 5\na 2 1 3\n"
        graph, _, _ = parse_dimacs(text).to_graph()
        assert graph.edge_list() == [(0, 1, 8)]

    def test_out_of_range_id(self):
        text = "p max 2 1\nn 1 s\nn 2 t\na 1 3 4\n"
        with pytest.raises(DimacsError, match="line 4.*out of range"):
            parse_dimacs(text)

    def test_problem_arc_count_must_be_an_integer(self):
        with pytest.raises(DimacsError, match="line 1.*non-integer problem sizes"):
            parse_dimacs("p max 2 x\nn 1 s\nn 2 t\na 1 2 3\n")

    def test_missing_problem_line(self):
        with pytest.raises(DimacsError, match="problem line"):
            parse_dimacs("n 1 s\nn 2 t\na 1 2 3\n")

    def test_duplicate_source(self):
        text = "p max 3 1\nn 1 s\nn 2 s\nn 3 t\na 1 3 1\n"
        with pytest.raises(DimacsError, match="line 3.*duplicate source"):
            parse_dimacs(text)

    def test_missing_sink(self):
        with pytest.raises(DimacsError, match="missing sink"):
            parse_dimacs("p max 2 1\nn 1 s\na 1 2 3\n")

    def test_nonpositive_capacity(self):
        text = "p max 2 1\nn 1 s\nn 2 t\na 1 2 0\n"
        with pytest.raises(DimacsError, match="line 4.*capacity"):
            parse_dimacs(text)

    def test_self_loop(self):
        text = "p max 2 1\nn 1 s\nn 2 t\na 1 1 2\n"
        with pytest.raises(DimacsError, match="line 4.*self-loop"):
            parse_dimacs(text)

    def test_unknown_line_type(self):
        with pytest.raises(DimacsError, match="line 1.*unrecognized"):
            parse_dimacs("x nonsense\n")

    def test_comments_and_blanks_skipped(self):
        text = "c header\n\np max 2 1\nc mid\nn 1 s\nn 2 t\na 1 2 7\n"
        inst = parse_dimacs(text)
        assert inst.arcs == ((0, 1, 7),)


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        text = "p max 4 5\nn 1 s\nn 4 t\na 1 2 5\na 2 1 3\na 2 3 2\na 3 4 9\na 1 4 1\n"
        g1, s1, t1 = parse_dimacs(text).to_graph()
        emitted = serialize_dimacs(g1, s1, t1)
        g2, s2, t2 = parse_dimacs(emitted).to_graph()
        assert g1 == g2 and (s1, t1) == (s2, t2)
        assert serialize_dimacs(g2, s2, t2) == emitted
