"""The benchmark's workloads: fixed lists of BoolE jobs.

Every workload has the same shape.  ``setup`` builds the inputs and
starts whatever processes the workload has; ``cold`` runs every job once
into an empty artifact store; ``warm`` fetches every result again from
that store through the same public entry point.  ``check_cold`` and
``check_warm`` run outside the timed passes and record one operation per
job (cold) or per fetch (warm) in an :class:`Outcome`.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.forkserver
import multiprocessing.resource_tracker
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
from repro.core import BatchJob, BatchPipeline, BoolEOptions, BoolEPipeline
from repro.generators import booth_multiplier, csa_multiplier, wallace_multiplier
from repro.opt import post_mapping_flow
from repro.service import JobService, ServiceClient, ServiceServer
from repro.store import ArtifactStore

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

GENERATORS = {"csa": csa_multiplier, "booth": booth_multiplier,
              "wallace": wallace_multiplier}
#: Booth multipliers are two's complement; the others are unsigned.
SIGNED = {"csa": False, "booth": True, "wallace": False}

#: Saturation budget of the two multi-job workloads: two iterations per
#: phase keep a whole round (cold + warm) near ten seconds on two CPUs.
SMALL_BUDGET = {"r1_iterations": 2, "r2_iterations": 2}

#: Seconds a fleet or pool request may take before the round fails.
REQUEST_TIMEOUT = 150.0


class Outcome:
    """Attempted / failed operations of one round, with the reasons.

    Operations are cold jobs (``job``) or warm fetches (``fetch``).
    """

    def __init__(self) -> None:
        self.counts = {"job": [0, 0], "fetch": [0, 0]}
        self.problems: List[str] = []

    def record(self, kind: str, problems: List[str]) -> None:
        self.counts[kind][0] += 1
        if problems:
            self.counts[kind][1] += 1
            self.problems.extend(problems)


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int,
                 trace_dir: Optional[Path]) -> None:
        self.root = root
        self.seed = seed
        self.trace_dir = trace_dir
        self.store_root = root / "store"
        #: Per-layer figures that come from job records, not spans.
        self.layer_extras: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def cold(self) -> None:
        raise NotImplementedError

    def check_cold(self, outcome: Outcome) -> int:
        """Check the cold results; returns the exact FAs of all jobs."""
        raise NotImplementedError

    def warm(self) -> None:
        raise NotImplementedError

    def check_warm(self, outcome: Outcome) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop every process the workload started and wait for it."""


def _result_record(result) -> Tuple[checks.Netlist, List[checks.Block]]:
    return (checks.netlist_from_aig(result.extracted_aig),
            checks.blocks_from_records(result.fa_blocks))


class Csa16(Workload):
    """``BoolEPipeline.run`` on the post-mapping 16-bit CSA multiplier."""

    name = "csa16"

    def setup(self) -> None:
        self.circuit = csa_multiplier(16)
        self.aig = post_mapping_flow(self.circuit.aig)
        self.pipeline = BoolEPipeline(
            BoolEOptions(r1_iterations=3, r2_iterations=3),
            store=ArtifactStore(self.store_root))
        self.result = None
        self.digest = ""

    def cold(self) -> None:
        self.result = self.pipeline.run(self.aig)

    def check_cold(self, outcome: Outcome) -> int:
        result, self.result = self.result, None
        netlist, blocks = _result_record(result)
        problems = checks.check_netlist(
            netlist, blocks, 16, False, self.circuit.num_full_adders,
            self.seed, self.name)
        if result.cache_hit or result.extraction_cache_hit:
            problems.append(f"{self.name}: cold run hit the store")
        self.digest = checks.result_digest(netlist, blocks)
        outcome.record("job", problems)
        return len(blocks)

    def warm(self) -> None:
        self.result = self.pipeline.run(self.aig)

    def check_warm(self, outcome: Outcome) -> None:
        result, self.result = self.result, None
        problems = []
        if not (result.cache_hit and result.extraction_cache_hit):
            problems.append(f"{self.name}: warm run missed the store")
        if checks.result_digest(*_result_record(result)) != self.digest:
            problems.append(f"{self.name}: warm result differs from cold")
        outcome.record("fetch", problems)


class BatchPremap(Workload):
    """``BatchPipeline`` (process pool, 2 workers) over six pre-mapping
    multipliers with no shared prefix."""

    name = "batch-premap"
    JOBS = [(arch, width) for arch in ("csa", "booth", "wallace")
            for width in (6, 8)]

    def setup(self) -> None:
        self.circuits = {f"{arch}{width}": (arch, width,
                                            GENERATORS[arch](width))
                         for arch, width in self.JOBS}
        self.jobs = [BatchJob(name=name, aig=circuit.aig)
                     for name, (_, _, circuit) in self.circuits.items()]
        self.pipeline = BatchPipeline(
            BoolEOptions(**SMALL_BUDGET), executor="process", max_workers=2,
            store=ArtifactStore(self.store_root))
        if self.trace_dir is not None:
            # Pool workers fork from the forkserver; preloading the hook
            # there installs the span recorder in every one of them.
            multiprocessing.get_context("forkserver").set_forkserver_preload(
                ["__main__", "trace_hook"])
        multiprocessing.forkserver.ensure_running()
        self.report = None
        self.digests: Dict[str, str] = {}

    def cold(self) -> None:
        self.report = self.pipeline.run(self.jobs)

    def check_cold(self, outcome: Outcome) -> int:
        report, self.report = self.report, None
        exact_fas = 0
        for item in report.items:
            arch, width, circuit = self.circuits[item.name]
            label = f"{self.name}/{item.name}"
            if not item.ok:
                outcome.record("job", [f"{label}: {item.error}"])
                continue
            netlist, blocks = _result_record(item.result)
            problems = checks.check_netlist(
                netlist, blocks, width, SIGNED[arch],
                circuit.num_full_adders, self.seed, label)
            if item.cached or item.prefix_shared:
                problems.append(f"{label}: cold job was not a pool leader")
            self.digests[item.name] = checks.result_digest(netlist, blocks)
            exact_fas += len(blocks)
            outcome.record("job", problems)
        return exact_fas

    def warm(self) -> None:
        self.report = self.pipeline.run(self.jobs)

    def check_warm(self, outcome: Outcome) -> None:
        report, self.report = self.report, None
        for item in report.items:
            label = f"{self.name}/{item.name}"
            if not item.ok:
                outcome.record("fetch", [f"{label}: {item.error}"])
                continue
            problems = []
            if not (item.cached and item.extraction_cached):
                problems.append(f"{label}: warm fetch missed the store")
            digest = checks.result_digest(*_result_record(item.result))
            if digest != self.digests.get(item.name):
                problems.append(f"{label}: warm result differs from cold")
            outcome.record("fetch", problems)

    def teardown(self) -> None:
        # The forkserver and the resource tracker outlive the pool; stop
        # both and wait for them, so the pool workers' peak RSS reaches
        # this process's child rusage and no process is left running.
        for helper in (multiprocessing.forkserver._forkserver,
                       multiprocessing.resource_tracker._resource_tracker):
            stop = getattr(helper, "_stop", None)
            if stop is not None:
                stop()


class FleetSweep(Workload):
    """One ``POST /sweeps`` to an in-process server, drained by two
    ``python -m repro.service work`` processes."""

    name = "fleet-sweep"
    PREFIXES = [(arch, width) for arch in ("csa", "booth")
                for width in (6, 8)]
    REQUEST = {"generator": {
        "archs": ["csa", "booth"], "widths": [6, 8], "mapped": True,
        "options": dict(SMALL_BUDGET),
        "option_sets": [{"refine_rounds": rounds} for rounds in (0, 1, 2)],
    }}

    def setup(self) -> None:
        self.store_root.mkdir(parents=True, exist_ok=True)
        self.server = ServiceServer(str(self.store_root), port=0)
        self.server.start_background()
        self.client = ServiceClient(self.server.host, self.server.port,
                                    timeout=REQUEST_TIMEOUT)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        command = ["-m", "repro.service"]
        if self.trace_dir is not None:
            command = [str(HERE / "fleet_worker.py")]
        self.workers = [
            subprocess.Popen(
                [sys.executable, *command, "--root", str(self.store_root),
                 "work", "--idle-timeout", "900"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True)
            for _ in range(2)]
        for worker in self.workers:
            # A worker prints "worker <owner> polling <root>" once ready.
            line = worker.stdout.readline()
            if "polling" not in line:
                raise RuntimeError(f"fleet worker failed to start: {line!r}")
        self.submission: Dict = {}
        self.cold_results: Dict[str, Dict] = {}
        self.digests: Dict[str, str] = {}

    def cold(self) -> None:
        self.submission = self.client.submit_sweep(self.REQUEST)
        self.client.wait_sweep(self.submission["sweep_id"],
                               timeout=REQUEST_TIMEOUT)

    def _stop_workers(self) -> None:
        for worker in getattr(self, "workers", []):
            if worker.poll() is None:
                worker.send_signal(signal.SIGTERM)
        for worker in getattr(self, "workers", []):
            try:
                worker.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.communicate()
        self.workers = []

    def _artifact(self, store: ArtifactStore, record
                  ) -> Tuple[checks.Netlist, List[checks.Block]]:
        payload = store.get(record.extraction_key,
                            expected_kind="extraction")
        return (checks.netlist_from_wire(payload["extracted_aig"]),
                checks.blocks_from_wire(payload["fa_blocks"]))

    def check_cold(self, outcome: Outcome) -> int:
        # The fleet has drained the sweep; the warm passes are served
        # inline by the front door, so the workers stop here.
        self._stop_workers()
        service = JobService(self.store_root)
        exact_fas = 0
        saturations = {prefix: 0 for prefix in self.PREFIXES}
        queue_wait = 0.0
        for item in self.submission.get("jobs", []):
            label = f"{self.name}/{item['name']}"
            record = service.load(item["job_id"])
            if record is None or record.state != "done":
                state = (f"{record.state} {record.error or ''}"
                         if record else "missing")
                outcome.record("job", [f"{label}: job {state}"])
                continue
            origin = record.spec.origin or {}
            arch, width = origin.get("arch"), origin.get("width")
            circuit = GENERATORS[arch](width)
            netlist, blocks = self._artifact(service.store, record)
            problems = checks.check_netlist(
                netlist, blocks, width, SIGNED[arch],
                circuit.num_full_adders, self.seed, label)
            if record.result.get("exact_fas") != len(blocks):
                problems.append(f"{label}: record and artifact disagree")
            events = record.events
            saturations[(arch, width)] += sum(
                1 for event in events
                if event["event"] == "done" and event.get("ematch_ops"))
            queued = [event["at"] for event in events
                      if event["event"] == "queued"]
            claimed = [event["at"] for event in events
                       if event["event"] == "claimed"]
            if queued and claimed:
                queue_wait += claimed[0] - queued[-1]
            self.cold_results[item["job_id"]] = _stable(record.result)
            self.digests[item["job_id"]] = checks.result_digest(
                netlist, blocks)
            exact_fas += len(blocks)
            outcome.record("job", problems)
        # The sweep itself is one more operation: planned as 4 pool
        # leaders and 8 dependents, and one saturation per prefix.
        problems = []
        counts = self.submission.get("counts", {})
        if counts.get("pool") != 4 or counts.get("dependent") != 8:
            problems.append(f"{self.name}: planned {counts}, want 4 pool "
                            "leaders and 8 dependents")
        wrong = {f"{arch}{width}": count
                 for (arch, width), count in saturations.items()
                 if count != 1}
        if wrong:
            problems.append(f"{self.name}: saturations per prefix {wrong}, "
                            "want exactly 1 each")
        outcome.record("job", problems)
        self.layer_extras = {
            "service.queue_wait.s": queue_wait,
            "service.saturations": sum(saturations.values()),
        }
        return exact_fas

    def warm(self) -> None:
        self.submission = self.client.submit_sweep(self.REQUEST)

    def check_warm(self, outcome: Outcome) -> None:
        service = JobService(self.store_root)
        for item in self.submission.get("jobs", []):
            job_id = item["job_id"]
            label = f"{self.name}/{item['name']}"
            record = service.load(job_id)
            problems = []
            if item["schedule"] != "inline" or record is None \
                    or record.events[-1]["event"] != "served-warm":
                problems.append(f"{label}: warm fetch not served inline")
            elif _stable(record.result) != self.cold_results.get(job_id):
                problems.append(f"{label}: warm summary differs from cold")
            elif checks.result_digest(*self._artifact(service.store, record)
                                      ) != self.digests.get(job_id):
                problems.append(f"{label}: artifact changed after warm")
            outcome.record("fetch", problems)

    def teardown(self) -> None:
        self._stop_workers()
        server = getattr(self, "server", None)
        if server is not None:
            server.stop_background()


def _stable(summary: Dict) -> Dict:
    """A job's result summary without its wall-clock runtime."""
    return {key: value for key, value in summary.items()
            if key != "runtime"}


WORKLOADS = {cls.name: cls for cls in (Csa16, FleetSweep, BatchPremap)}
