"""Spans around the public calls into each faircut layer, recorded from outside.

The package imports functions by name (``from .flowcut import flow_or_cut``),
so each boundary is wrapped in the namespace of the module that calls it:
``faircut.driver.flow_or_cut`` rather than ``faircut.flowcut.flow_or_cut``.
Methods are wrapped on their class.  Spans are kept in memory, tagged with
the item that caused them, and written out once when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from faircut import approximator, dimacs, driver, flowcut, graph, oracles


@dataclass
class Span:
    name: str
    item: Any
    parent: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _build_attrs(result) -> dict:
    return {"rows": result.row_count, "nnz": int(sum(len(r) for r in result.rows))}


def _flow_or_cut_attrs(result) -> dict:
    return {"exit": getattr(result, "via", "flow"), "iterations": int(result.iterations)}


def _saddle_attrs(result) -> dict:
    return {"iterations": int(result.iterations)}


def _round_attrs(result) -> dict:
    return {"branch": result[1].branch}


# (owner, attribute, span name, attributes taken from the return value)
BOUNDARIES: list[tuple[Any, str, str, Optional[Callable[[Any], dict]]]] = [
    (driver, "iterate_once", "driver.round", _round_attrs),
    (driver, "flow_or_cut", "flowcut.flow_or_cut", _flow_or_cut_attrs),
    (driver, "min_fair_alpha", "oracles.min_fair_alpha", None),
    (flowcut, "saddle_solve", "flowcut.saddle", _saddle_attrs),
    (flowcut, "threshold_cut", "flowcut.threshold", None),
    (approximator, "build_multi_tree", "approximator.build", _build_attrs),
    (approximator, "build_tree", "approximator.build", _build_attrs),
    (approximator, "build_exhaustive", "approximator.build", _build_attrs),
    (approximator, "min_congestion_routing", "oracles.routing", None),
    (oracles, "min_fair_alpha", "oracles.min_fair_alpha", None),
    (oracles, "verify_fairness", "oracles.verify", None),
    (graph.CapacitatedGraph, "induced", "graph.induced", None),
    (graph.CapacitatedGraph, "connected_components", "graph.components", None),
    (dimacs, "parse_dimacs", "dimacs.parse", None),
]


class Tracer:
    """Records a span per wrapped call while an item (or set-up) is current."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item: Any = None
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _begin(self, name: str) -> Span:
        span = Span(name, self.item, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def run_item(self, item: Any, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` under a root span named ``item``."""
        self.item = item
        span = self._begin("item")
        try:
            return fn()
        finally:
            self._finish(span)
            self.item = None

    def _wrap(self, owner: Any, attr: str, name: str, annotate) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.item is None:
                return original(*args, **kwargs)
            span = tracer._begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs = {"error": type(exc).__name__}
                raise
            finally:
                tracer._finish(span)
            if annotate is not None:
                span.attrs = annotate(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        for owner, attr, name, annotate in BOUNDARIES:
            self._wrap(owner, attr, name, annotate)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def write(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                doc = {"id": i, "name": s.name, "item": s.item, "parent": s.parent,
                       "start": s.start, "end": s.end, "self": own[i], **s.attrs}
                fh.write(json.dumps(doc) + "\n")


def layer_metrics(tracer: Tracer, items: int) -> dict[str, tuple[float, str]]:
    """Per-layer totals over the spans of timed items, divided by ``items``.

    ``dimacs.parse_s`` is the median over set-up repeats of the parse time of
    one set-up.  Ratios whose base is empty read 0.
    """
    spans = tracer.spans
    own = tracer.self_times()
    timed = [i for i, s in enumerate(spans) if isinstance(s.item, int)]

    def named(name: str) -> list[int]:
        return [i for i in timed if spans[i].name == name]

    def total(idx: list[int], key=lambda i: spans[i].duration) -> float:
        return float(sum(key(i) for i in idx))

    def per_item(value: float) -> float:
        return value / items

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    builds = named("approximator.build")
    top_builds = [i for i in builds if spans[i].parent < 0 or spans[spans[i].parent].name != "approximator.build"]
    generated = 0
    for i in top_builds:
        members = [j for j in builds if spans[j].parent == i]
        generated += sum(spans[j].attrs["rows"] for j in members) if members else spans[i].attrs["rows"]
    kept = sum(spans[i].attrs["rows"] for i in top_builds)

    foc = [i for i in named("flowcut.flow_or_cut") if "exit" in spans[i].attrs]
    exits = [spans[i].attrs["exit"] for i in foc]
    rounds = named("driver.round")
    saddle = named("flowcut.saddle")
    threshold = named("flowcut.threshold")
    induced = named("graph.induced")
    components = named("graph.components")
    mfa = named("oracles.min_fair_alpha")
    routing = named("oracles.routing")

    parse_by_setup: dict[Any, float] = {}
    for s in spans:
        if s.name == "dimacs.parse" and isinstance(s.item, str):
            parse_by_setup[s.item] = parse_by_setup.get(s.item, 0.0) + s.duration

    sec, cnt = "s/item", "count/item"
    return {
        "approximator.build_s": (per_item(total(top_builds)), sec),
        "approximator.build_calls": (per_item(len(top_builds)), cnt),
        "approximator.rows": (per_item(kept), cnt),
        "approximator.row_nnz": (per_item(sum(spans[i].attrs["nnz"] for i in top_builds)), cnt),
        "approximator.keep_ratio": (ratio(kept, generated), "ratio"),
        "flowcut.flow_or_cut_s": (per_item(total(named("flowcut.flow_or_cut"))), sec),
        "flowcut.calls": (per_item(len(named("flowcut.flow_or_cut"))), cnt),
        "flowcut.self_s": (per_item(total(named("flowcut.flow_or_cut"), lambda i: own[i])), sec),
        "flowcut.saddle_s": (per_item(total(saddle)), sec),
        "flowcut.saddle_iters": (per_item(sum(spans[i].attrs.get("iterations", 0) for i in saddle)), cnt),
        "flowcut.threshold_s": (per_item(total(threshold)), sec),
        "flowcut.threshold_calls": (per_item(len(threshold)), cnt),
        "flowcut.exit.flow": (per_item(exits.count("flow")), cnt),
        "flowcut.exit.threshold-cut": (per_item(exits.count("threshold-cut")), cnt),
        "flowcut.exit.salvage": (per_item(exits.count("salvage")), cnt),
        "flowcut.exit.reachability": (per_item(exits.count("reachability")), cnt),
        "flowcut.iter0_frac": (
            ratio(sum(1 for i in foc if spans[i].attrs["iterations"] == 0), len(foc)), "ratio"),
        "graph.induced_s": (per_item(total(induced)), sec),
        "graph.induced_calls": (per_item(len(induced)), cnt),
        "graph.components_s": (per_item(total(components)), sec),
        "graph.components_calls": (per_item(len(components)), cnt),
        "driver.rounds": (per_item(len(rounds)), cnt),
        "driver.round_s": (per_item(total(rounds)), sec),
        "driver.self_s": (per_item(total(rounds, lambda i: own[i])), sec),
        "driver.branch.cut": (
            per_item(sum(1 for i in rounds if spans[i].attrs.get("branch") == "cut")), cnt),
        "oracles.min_fair_alpha_s": (per_item(total(mfa)), sec),
        "oracles.min_fair_alpha_calls": (per_item(len(mfa)), cnt),
        "oracles.verify_calls": (per_item(len(named("oracles.verify"))), cnt),
        "oracles.routing_s": (per_item(total(routing)), sec),
        "oracles.routing_calls": (per_item(len(routing)), cnt),
        "dimacs.parse_s": (statistics.median(parse_by_setup.values()) if parse_by_setup else 0.0, "s"),
    }
