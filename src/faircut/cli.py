"""Command-line surface: solve / verify / bench / measure-alpha.

Exit codes: 0 success, 1 parse/argument errors (a capacity above int64, an
unknown approximator), 3 fairness verification refused.  Diagnostics go to
stderr; results go to stdout as JSON (solve, measure-alpha), plain text
(verify), or CSV (bench).
Set ``FAIRCUT_LOG`` to ``error``/``info``/``debug`` to control logging.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from typing import Optional

import numpy as np

from .approximator import measure_alpha, resolve_builder
from .dimacs import DimacsError, parse_dimacs
from .driver import FairCutResult, fair_cut
from .generators import bench_instance
from .graph import CapacitatedGraph, VertexCut, undirected_cut_value
from .oracles import FairnessCertificate, maxflow_value, verify_fairness

log = logging.getLogger("faircut")

RESULT_SCHEMA = 1
TRACE_HEADER = "iter,potential,branch,primal_gap"


def _instance_digest(graph: CapacitatedGraph) -> dict:
    hasher = hashlib.sha256()
    for u, v, c in graph.edge_list():
        hasher.update(f"{u},{v},{c};".encode())
    return {
        "vertices": graph.n,
        "edges": graph.m,
        "capacity_checksum": hasher.hexdigest()[:16],
    }


def result_document(
    graph: CapacitatedGraph, result: FairCutResult, wall_ms: Optional[float]
) -> dict:
    """JSON-ready document; byte-stable across runs except wall_clock_ms."""
    doc = {
        "schema": RESULT_SCHEMA,
        "instance": _instance_digest(graph),
        "cut_side": result.cut.sorted_ids(),
        "cut_value": undirected_cut_value(graph, result.cut),
        "achieved_alpha": result.achieved_alpha,
        "epsilon": result.eps,
        "seed": result.seed,
        "approximator": result.approximator,
        "max_rounds": result.max_rounds,
        "final_potential": result.final_potential,
        "trace": [
            {
                "iter": rec.index,
                "potential": rec.potential,
                "branch": rec.branch,
                "primal_gap": None if math.isnan(rec.primal_gap) else rec.primal_gap,
            }
            for rec in result.iterations
        ],
        "wall_clock_ms": wall_ms,
    }
    return doc


def _write_trace(path: str, result: FairCutResult) -> None:
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in result.iterations:
            gap = "" if math.isnan(rec.primal_gap) else repr(rec.primal_gap)
            fh.write(f"{rec.index},{rec.potential!r},{rec.branch},{gap}\n")


def _load_graph(path: str) -> tuple[CapacitatedGraph, int, int]:
    with open(path) as fh:
        instance = parse_dimacs(fh)
    return instance.to_graph()


def _cmd_solve(args: argparse.Namespace) -> int:
    if not (0.0 < args.epsilon < 1.0 / 8.0):
        print(f"error: --epsilon must lie in (0, 1/8), got {args.epsilon}", file=sys.stderr)
        return 1
    try:
        graph, s, t = _load_graph(args.input)
    except (OSError, DimacsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    log.info("solving n=%d m=%d eps=%g approximator=%s", graph.n, graph.m, args.epsilon, args.approximator)
    start = time.perf_counter()
    try:
        result = fair_cut(
            graph,
            s,
            t,
            eps=args.epsilon,
            approximator=args.approximator,
            seed=args.seed,
            certify=args.verify,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall_ms = (time.perf_counter() - start) * 1000.0
    log.info("done in %.1fms: %d rounds, final potential %g", wall_ms, len(result.iterations), result.final_potential)

    if args.trace:
        _write_trace(args.trace, result)
    doc = result_document(graph, result, wall_ms)
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        graph, s, t = _load_graph(args.input)
        with open(args.cut) as fh:
            side_ids = json.load(fh)
        if not isinstance(side_ids, list):
            raise ValueError("cut file must hold a JSON list of vertex ids")
        for v in side_ids:
            if type(v) is not int or not 0 <= v < graph.n:
                raise ValueError(f"cut file holds {json.dumps(v)}, not a vertex id in 0..{graph.n - 1}")
        side = frozenset(side_ids)
    except (OSError, DimacsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if s not in side or t in side or not (0 < len(side) < graph.n):
        print("error: cut does not separate source from sink", file=sys.stderr)
        return 1
    try:
        cut = VertexCut(side, source=s, sink=t)
        outcome = verify_fairness(graph, cut, args.alpha)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(outcome, FairnessCertificate):
        witness = outcome.witness_flow
        print(
            f"fair at alpha={args.alpha}: witness routes {outcome.value:.6g} units, "
            f"congestion {witness.congestion():.6g}"
        )
        return 0
    blocking = sorted(outcome.blocking_set)
    shown = blocking if len(blocking) <= 10 else blocking[:10]
    print(
        f"not fair at alpha={args.alpha}: lower bounds exceed capacity by {outcome.deficit:.6g} "
        f"around vertex set {shown}",
        file=sys.stderr,
    )
    return 3


def _cmd_bench(args: argparse.Namespace) -> int:
    families = {"path", "cycle", "grid", "random"}
    if args.family not in families:
        print(f"error: unknown family {args.family!r} (choose from {sorted(families)})", file=sys.stderr)
        return 1
    print("n,m,eps,iterations,final_potential,achieved_alpha,mincut_ratio,ms")
    for trial in range(args.trials):
        rng = np.random.default_rng(np.random.SeedSequence((args.seed, trial)))
        try:
            graph, s, t = bench_instance(args.family, args.n, rng)
            start = time.perf_counter()
            result = fair_cut(
                graph, s, t, eps=args.epsilon, approximator=args.approximator,
                seed=args.seed + trial, certify=True,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        ms = (time.perf_counter() - start) * 1000.0
        exact = maxflow_value(graph, s, t)
        cut_value = undirected_cut_value(graph, result.cut)
        ratio = cut_value / exact if exact > 0 else float("inf")
        print(
            f"{graph.n},{graph.m},{args.epsilon},{len(result.iterations)},"
            f"{result.final_potential!r},{result.achieved_alpha!r},{ratio!r},{ms:.3f}"
        )
    return 0


def _cmd_measure_alpha(args: argparse.Namespace) -> int:
    try:
        graph, _, _ = _load_graph(args.input)
        builder = resolve_builder(args.approximator)
        cuts = builder(graph, args.seed)
        alpha = measure_alpha(cuts, graph, trials=args.trials, seed=args.seed)
    except (OSError, DimacsError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = {
        "approximator": args.approximator,
        "rows": cuts.row_count,
        "alpha_measured": alpha,
        "alpha_bound": None if math.isinf(cuts.alpha_bound) else cuts.alpha_bound,
        "trials": args.trials,
        "seed": args.seed,
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="faircut", description="Fair (s,t)-cut solver and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a fair cut for a DIMACS instance")
    solve.add_argument("--input", required=True, help="DIMACS max-flow file")
    solve.add_argument("--epsilon", type=float, default=0.05)
    solve.add_argument("--approximator", default="multitree:8",
                       help="exhaustive | multitree:K")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--trace", default=None, help="write per-round CSV trace here")
    solve.add_argument("--verify", action="store_true",
                       help="measure achieved fairness with the exact oracle")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="check that a cut is alpha-fair")
    verify.add_argument("--input", required=True)
    verify.add_argument("--cut", required=True, help="JSON list of cut-side vertex ids")
    verify.add_argument("--alpha", type=float, required=True)
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="run a family of instances, CSV on stdout")
    bench.add_argument("--family", required=True, help="path | cycle | grid | random")
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--trials", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--epsilon", type=float, default=0.05)
    bench.add_argument("--approximator", default="multitree:8")
    bench.set_defaults(func=_cmd_bench)

    measure = sub.add_parser("measure-alpha", help="empirical estimator quality on an instance")
    measure.add_argument("--input", required=True)
    measure.add_argument("--approximator", default="multitree:8")
    measure.add_argument("--trials", type=int, default=20)
    measure.add_argument("--seed", type=int, default=0)
    measure.set_defaults(func=_cmd_measure_alpha)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(os.environ.get("FAIRCUT_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
