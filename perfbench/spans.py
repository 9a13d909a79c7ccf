"""Span recorder for the traced run, installed from the benchmark's files.

``install(trace_dir)`` wraps public callables of ``repro`` where their
callers look them up (module globals of ``repro.core.phases`` and friends,
or class attributes for methods) so that each call records a span:
name, process, thread, parent span, start, duration, the collector pause
charged to it, and a few counts.  A ``gc.callbacks`` hook charges every
collector pause to the innermost span open on the collecting thread.

Spans stay in memory; ``dump()`` writes this process's spans as JSON lines
to ``<trace_dir>/spans-<pid>.jsonl``.  ``summarize(trace_dir)`` folds the
files of every process of a round into the per-layer metrics.

The untraced runs never import this module, so end-to-end figures carry
no tracing cost.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: Environment variable naming the span directory; worker processes that
#: see it install the wrappers themselves (see ``trace_hook.py``).
TRACE_ENV = "PERFBENCH_TRACE_DIR"

#: Per-layer metrics: name -> (unit, span name, how the value is folded).
#: ``time`` sums outermost span durations, ``calls`` counts them, any
#: other word sums that span attribute.
LAYER_METRICS: Dict[str, tuple] = {
    "core.construct.s": ("s", "core.construct", "time"),
    "egraph.r1.s": ("s", "egraph.r1", "time"),
    "egraph.r2.s": ("s", "egraph.r2", "time"),
    "egraph.r2.ematch_ops": ("count", "egraph.r2", "ematch_ops"),
    "egraph.nodes": ("count", "egraph.r2", "nodes"),
    "egraph.classes": ("count", "egraph.r2", "classes"),
    "core.fa_structure.prune.s": ("s", "core.fa_structure.prune", "time"),
    "core.fa_structure.pair.s": ("s", "core.fa_structure.pair", "time"),
    "core.fa_structure.npn.s": ("s", "core.fa_structure.npn", "time"),
    "core.fa_structure.paired_fas": ("count", "core.fa_structure.pair",
                                     "paired_fas"),
    "core.extraction.extract.s": ("s", "core.extraction.extract", "time"),
    "core.extraction.reconstruct.s": ("s", "core.extraction.reconstruct",
                                      "time"),
    "core.extraction.fa_blocks": ("count", "core.extraction.reconstruct",
                                  "fa_blocks"),
    "store.codec.to_wire.s": ("s", "store.codec.to_wire", "time"),
    "store.put.s": ("s", "store.put", "time"),
    "store.put.bytes": ("bytes", "store.put", "bytes"),
    "store.puts": ("count", "store.put", "calls"),
    "store.get.s": ("s", "store.get", "time"),
    "store.codec.from_wire.s": ("s", "store.codec.from_wire", "time"),
    "store.gets": ("count", "store.get", "calls"),
    "core.phases.plan.s": ("s", "core.phases.plan", "time"),
    "service.submit.s": ("s", "service.submit", "time"),
    "service.poll.s": ("s", "service.poll", "time"),
    "service.claim.s": ("s", "service.claim", "time"),
    "service.http.s": ("s", "service.http", "time"),
    "service.http.requests": ("count", "service.http", "calls"),
    "core.batch.run.s": ("s", "core.batch.run", "time"),
    "core.batch.inline.s": ("s", "core.batch.inline", "time"),
}

#: Metrics not folded from spans: collector totals and the fleet's
#: job-record figures (filled in by the workload).
EXTRA_METRICS: Dict[str, str] = {
    "gc.pause.s": "s",
    "gc.gen2.collections": "count",
    "service.queue_wait.s": "s",
    "service.saturations": "count",
}


class Tracer:
    """In-memory spans of one process."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.spans: List[Dict] = []
        self._ids = itertools.count()
        #: Pass being recorded (``cold``, ``warm1``, ...); ``None`` pauses
        #: recording.  Fleet and pool workers only ever work cold.
        self.label: Optional[str] = "cold"
        self._local = threading.local()
        self._gc_started: Optional[float] = None
        #: label -> [pause seconds, generation-2 collections]
        self.gc: Dict[str, List[float]] = {}

    def _stack(self) -> List[Dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, func: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        """``func`` wrapped to record a span named ``name``.

        ``attrs(result, args)`` may return counts to attach to the span.
        A call nested inside an open span of the same name is not
        recorded again, so plan_batch's per-job plans are not counted
        twice.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if tracer.label is None or any(open_span["name"] == name
                                           for open_span in stack):
                return func(*args, **kwargs)
            record = {"name": name, "label": tracer.label,
                      "pid": os.getpid(),
                      "thread": threading.get_ident(),
                      "parent": stack[-1]["id"] if stack else None,
                      "id": next(tracer._ids), "gc_s": 0.0}
            stack.append(record)
            started = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record["start"] = started
                record["duration"] = time.perf_counter() - started
                stack.pop()
                tracer.spans.append(record)
            if attrs is not None:
                record.update(attrs(result, args))
            return result

        return wrapper

    def on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        if self._gc_started is None or self.label is None:
            return
        pause = time.perf_counter() - self._gc_started
        self._gc_started = None
        totals = self.gc.setdefault(self.label, [0.0, 0])
        totals[0] += pause
        if info.get("generation") == 2:
            totals[1] += 1
        stack = self._stack()
        if stack:
            stack[-1]["gc_s"] += pause

    def dump(self) -> None:
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"spans-{os.getpid()}.jsonl"
        lines = [json.dumps({"name": "gc", "label": label,
                             "pid": os.getpid(), "gc_pause_s": pause,
                             "gc_gen2": gen2})
                 for label, (pause, gen2) in sorted(self.gc.items())]
        lines += [json.dumps(span) for span in self.spans]
        tmp = path.with_suffix(".tmp")
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, path)


_TRACER: Optional[Tracer] = None


def _patch(owner, attr: str, name: str,
           attrs: Optional[Callable] = None) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, _TRACER.span(name, original, attrs))


def _r2_rule_names() -> frozenset:
    from repro.core import basic_rules, identification_rules
    r2 = {rule.name for variants in (True, False)
          for rule in identification_rules(variants)}
    r1 = {rule.name for lightweight in (True, False)
          for rule in basic_rules(lightweight)}
    return frozenset(r2 - r1)


def install(trace_dir: Path) -> Tracer:
    """Wrap the traced callables in this process (idempotent)."""
    global _TRACER
    if _TRACER is not None:
        return _TRACER
    _TRACER = Tracer(trace_dir)
    gc.callbacks.append(_TRACER.on_gc)

    import repro.core.batch as batch
    import repro.core.phases as phases
    from repro.core import BoolEExtractor, BoolEPipeline
    from repro.egraph import DenseEGraph, EGraph, Runner
    from repro.service import JobService, LeaseManager, ServiceClient
    import repro.service.jobs as jobs
    from repro.store import ArtifactStore

    r2_names = _r2_rule_names()
    tracer = _TRACER

    def runner_run(original):
        r1_span = tracer.span("egraph.r1", original)

        def r2_attrs(report, args):
            egraph = args[1]
            return {"ematch_ops": report.ematch_ops,
                    "nodes": egraph.num_nodes,
                    "classes": egraph.num_classes}

        r2_span = tracer.span("egraph.r2", original, r2_attrs)

        @functools.wraps(original)
        def run(self, egraph, rules, *args, **kwargs):
            is_r2 = any(rule.name in r2_names for rule in rules)
            return (r2_span if is_r2 else r1_span)(
                self, egraph, rules, *args, **kwargs)

        return run

    Runner.run = runner_run(Runner.run)
    _patch(phases, "aig_to_egraph", "core.construct")
    for graph_class in (DenseEGraph, EGraph):
        _patch(graph_class, "prune_duplicates", "core.fa_structure.prune")
    _patch(phases, "insert_fa_structures", "core.fa_structure.pair",
           lambda report, args: {"paired_fas": report.num_exact_fas})
    _patch(phases, "count_npn_fa_pairs", "core.fa_structure.npn")
    _patch(BoolEExtractor, "extract", "core.extraction.extract")
    _patch(phases, "reconstruct_aig", "core.extraction.reconstruct",
           lambda result, args: {"fa_blocks": len(result[1])})
    for codec_name in ("egraph_to_wire", "extraction_to_wire",
                       "aig_to_wire"):
        _patch(phases, codec_name, "store.codec.to_wire")
    for codec_name in ("egraph_from_wire", "extraction_from_wire",
                       "aig_from_wire"):
        _patch(phases, codec_name, "store.codec.from_wire")
    _patch(ArtifactStore, "put", "store.put",
           lambda path, args: {"bytes": path.stat().st_size})
    _patch(ArtifactStore, "get", "store.get")
    _patch(BoolEPipeline, "plan", "core.phases.plan")
    _patch(batch, "plan_batch", "core.phases.plan")
    _patch(jobs, "plan_batch", "core.phases.plan")
    _patch(JobService, "submit_sweep", "service.submit")
    _patch(JobService, "claimable", "service.poll")
    _patch(LeaseManager, "claim", "service.claim")
    _patch(ServiceClient, "_request", "service.http")
    _patch(batch.BatchPipeline, "run", "core.batch.run")
    _patch(batch.BatchPipeline, "_serve_inline", "core.batch.inline")

    # Pool workers end with os._exit, so they write their spans after
    # every chunk instead of at exit.
    chunk = batch._run_process_chunk

    @functools.wraps(chunk)
    def run_chunk(*args, **kwargs):
        try:
            return chunk(*args, **kwargs)
        finally:
            tracer.dump()

    batch._run_process_chunk = run_chunk
    return _TRACER


def summarize(trace_dir: Path, labels: Sequence[str]) -> Dict[str, float]:
    """Per-layer totals of the passes ``labels`` over the span files of
    every process."""
    totals = {name: 0.0 for name in (*LAYER_METRICS, *EXTRA_METRICS)}
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            span = json.loads(line)
            if span["label"] not in labels:
                continue
            if span["name"] == "gc":
                totals["gc.pause.s"] += span["gc_pause_s"]
                totals["gc.gen2.collections"] += span["gc_gen2"]
                continue
            for metric, (_, span_name, fold) in LAYER_METRICS.items():
                if span["name"] != span_name:
                    continue
                if fold == "time":
                    totals[metric] += span["duration"]
                elif fold == "calls":
                    totals[metric] += 1
                else:
                    totals[metric] += span.get(fold, 0)
    return totals
