"""DIMACS max-flow format ingestion and serialization.

Grammar accepted::

    c <comment>
    p max <n> <m>
    n <id> s        (exactly one)
    n <id> t        (exactly one)
    a <u> <v> <cap> (1-based ids, integer cap >= 1)

The problem line must precede every node and arc line.  Directed arc pairs
``(u,v)``/``(v,u)`` and parallel repeats are merged into one undirected
edge by summing capacities: the solver's ground truth is undirected, so
the merge preserves every cut and flow quantity.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import TextIO, Union

from .graph import CapacitatedGraph

__all__ = ["DimacsError", "DimacsInstance", "parse_dimacs", "serialize_dimacs"]


class DimacsError(ValueError):
    """Parse failure; carries the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class DimacsInstance:
    """Parsed instance prior to graph construction."""

    vertex_count: int
    source: int
    sink: int
    arcs: tuple[tuple[int, int, int], ...]

    def to_graph(self) -> tuple[CapacitatedGraph, int, int]:
        graph = CapacitatedGraph(self.vertex_count, self.arcs)
        return graph, self.source, self.sink


def parse_dimacs(stream: Union[str, TextIO]) -> DimacsInstance:
    """Parse DIMACS text into a validated instance.

    Raises:
        DimacsError: missing/duplicate problem line, duplicate or missing
            source/sink, out-of-range ids, non-positive capacities,
            self-loops, or unrecognized line types; each names its line.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)

    n = None
    source = None
    sink = None
    arcs: list[tuple[int, int, int]] = []

    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if n is not None:
                raise DimacsError(lineno, "duplicate problem line")
            if len(parts) != 4 or parts[1] != "max":
                raise DimacsError(lineno, f"malformed problem line {line!r}")
            try:
                n, _ = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(lineno, f"non-integer problem sizes in {line!r}") from None
            if n < 2:
                raise DimacsError(lineno, f"need at least two vertices, got {n}")
        elif tag == "n":
            if n is None:
                raise DimacsError(lineno, "node line before problem line")
            if len(parts) != 3:
                raise DimacsError(lineno, f"malformed node line {line!r}")
            try:
                vid = int(parts[1])
            except ValueError:
                raise DimacsError(lineno, f"non-integer node id in {line!r}") from None
            if not (1 <= vid <= n):
                raise DimacsError(lineno, f"node id {vid} out of range 1..{n}")
            role = parts[2]
            if role == "s":
                if source is not None:
                    raise DimacsError(lineno, "duplicate source line")
                source = vid - 1
            elif role == "t":
                if sink is not None:
                    raise DimacsError(lineno, "duplicate sink line")
                sink = vid - 1
            else:
                raise DimacsError(lineno, f"unknown node role {role!r}")
        elif tag == "a":
            if n is None:
                raise DimacsError(lineno, "arc line before problem line")
            if len(parts) != 4:
                raise DimacsError(lineno, f"malformed arc line {line!r}")
            try:
                u, v, cap = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(lineno, f"non-integer arc fields in {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(lineno, f"arc ({u},{v}) out of range 1..{n}")
            if u == v:
                raise DimacsError(lineno, f"self-loop at vertex {u}")
            if cap < 1:
                raise DimacsError(lineno, f"non-positive capacity {cap}")
            arcs.append((u - 1, v - 1, cap))
        else:
            raise DimacsError(lineno, f"unrecognized line type {tag!r}")

    if n is None:
        raise DimacsError(0, "missing problem line")
    if source is None:
        raise DimacsError(0, "missing source designation")
    if sink is None:
        raise DimacsError(0, "missing sink designation")
    if source == sink:
        raise DimacsError(0, "source and sink coincide")
    return DimacsInstance(vertex_count=n, source=source, sink=sink, arcs=tuple(arcs))


def serialize_dimacs(graph: CapacitatedGraph, s: int, t: int) -> str:
    """Canonical DIMACS text: merged undirected edges, sorted, 1-based."""
    lines = [f"p max {graph.n} {graph.m}"]
    lines.append(f"n {s + 1} s")
    lines.append(f"n {t + 1} t")
    for u, v, c in graph.edge_list():
        lines.append(f"a {u + 1} {v + 1} {c}")
    return "\n".join(lines) + "\n"
