"""Measure one workload in this process and print the result line.

Started by ``run.py``, which pins the numeric libraries to one thread.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench_spans"
SETUP_REPEATS = 3


@dataclass
class Measured:
    """Item times of one timed loop, with the failures and quality figures of its checks."""

    times: list[float] = field(default_factory=list)
    failed: int = 0
    alphas: list[float] = field(default_factory=list)
    cut_ratios: list[float] = field(default_factory=list)

    @property
    def items_per_s(self) -> float:
        return (len(self.times) - self.failed) / sum(self.times)


def measure(workload, pool, seconds: float = math.inf, count: int = -1, tracer=None) -> Measured:
    """Solve the pool in order, cycling, until ``seconds`` of item time, or ``count`` items.

    Each output is checked right after its item, outside the item's timing.
    """
    result = Measured()
    i = 0
    while i < count if count >= 0 else sum(result.times) < seconds:
        inst = pool[i % len(pool)]
        failures = []
        start = time.perf_counter()
        try:
            output = tracer.run_item(i, lambda: workload.run(inst)) if tracer else workload.run(inst)
        except Exception:  # a raising item counts as failed; the run goes on
            failures.append(traceback.format_exc())
        result.times.append(time.perf_counter() - start)
        if not failures:
            try:
                checked = workload.check(inst, output)
            except Exception:  # a check that cannot complete fails the item too
                failures.append(traceback.format_exc())
            else:
                failures = checked.failures
        if failures:
            result.failed += 1
            print(f"item {i} failed: " + "; ".join(failures), file=sys.stderr)
        else:
            result.alphas.append(checked.alpha)
            result.cut_ratios.append(checked.cut_ratio)
        i += 1
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every instance (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "faircut").is_dir():
        print(f"error: no faircut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy, scipy and faircut
    from tracer import Tracer, layer_metrics

    import_s = time.perf_counter() - STARTED
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, tiny=args.tiny)
    tracer = Tracer() if args.trace else None

    setups = []
    for r in range(1 if args.tiny else SETUP_REPEATS):
        start = time.perf_counter()
        if tracer:
            tracer.install()
            pool = tracer.run_item(f"setup{r}", lambda: workload.setup(args.seed))
            tracer.uninstall()
        else:
            pool = workload.setup(args.seed)
        setups.append(time.perf_counter() - start)
    workloads.warmup(workload)

    if tracer:
        # Untraced first, then the same items traced: the difference is the
        # tracing overhead, and the traced pass gives the per-layer numbers.
        plain = measure(workload, pool, seconds=args.seconds / 2)
        tracer.install()
        traced = measure(workload, pool, count=len(plain.times), tracer=tracer)
        tracer.uninstall()
        loops = [plain, traced]
        metrics = layer_metrics(tracer, len(traced.times))
        metrics["trace.overhead_items_per_s"] = (traced.items_per_s - plain.items_per_s, "1/s")
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        run = measure(workload, pool, seconds=args.seconds)
        loops = [run]
        alpha, cut_ratio = workload.summarize(run.alphas, run.cut_ratios) if run.alphas else (0.0, 0.0)
        metrics = {
            "items_per_s": (run.items_per_s, "1/s"),
            "item_s.p50": (statistics.median(run.times), "s"),
            "setup_s": (import_s + statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "passed_frac": ((len(run.times) - run.failed) / len(run.times), "ratio"),
            "alpha_max": (alpha, "ratio"),
            "cut_ratio_max": (cut_ratio, "ratio"),
        }

    attempted = sum(len(p.times) for p in loops)
    failed = sum(p.failed for p in loops)
    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
