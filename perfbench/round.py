"""One round of a workload, in a fresh process.

``run.py`` starts one of these per round so that every cold pass begins
from the same interpreter state.  A round sets the workload up, runs the
cold pass into an empty store, checks it, and runs three warm passes,
each checked.  It prints one JSON object as its last line of output.

    python3 perfbench/round.py --workload csa16 --seed 1 --dir <work dir> \\
        --spawned-at <time.perf_counter() of the parent at spawn>

``--spawned-at`` lets the set-up time include interpreter start and
imports (``time.perf_counter`` is system-wide on Linux).  With
``--setup-only`` the round stops after set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

WARM_PASSES = 3


def _dir_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file())


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process and its waited-for descendants."""
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    trace_dir = None
    if args.trace:
        import spans
        trace_dir = args.dir / "spans"
        os.environ[spans.TRACE_ENV] = str(trace_dir)
        tracer = spans.install(trace_dir)

    def record_spans(label):
        """Label the spans of the pass that starts (``None``: stop)."""
        if tracer is not None:
            tracer.label = label

    record_spans(None)
    workload = workloads.WORKLOADS[args.workload](args.dir, args.seed,
                                                  trace_dir)
    outcome = workloads.Outcome()
    report = {}
    try:
        workload.setup()
        report["setup_s"] = time.perf_counter() - args.spawned_at
        if args.setup_only:
            print(json.dumps(report))
            return 0

        gc.collect()
        record_spans("cold")
        started = time.perf_counter()
        workload.cold()
        report["cold_s"] = time.perf_counter() - started
        record_spans(None)
        report["exact_fas"] = workload.check_cold(outcome)
        report["store_mb"] = _dir_bytes(workload.store_root) / 2.0 ** 20

        warm = []
        for index in range(WARM_PASSES):
            # Results of earlier passes were released by the checks.
            gc.collect()
            record_spans(f"warm{index + 1}")
            started = time.perf_counter()
            workload.warm()
            warm.append(time.perf_counter() - started)
            record_spans(None)
            workload.check_warm(outcome)
        report["warm_s"] = statistics.median(warm)
        report["warm_passes_s"] = warm
    finally:
        workload.teardown()
    report["peak_rss_mb"] = _peak_rss_mb()
    report["operations"] = outcome.counts
    report["problems"] = outcome.problems
    if tracer is not None:
        tracer.dump()
        layers = spans.summarize(trace_dir, ("cold", "warm1"))
        layers.update(workload.layer_extras)
        report["layers"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
