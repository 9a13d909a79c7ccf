"""BoolE benchmark: cold/warm time-to-result and exact-FA quality.

    python3 perfbench/run.py --workload csa16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Runs whole rounds of the workload (see ``round.py``), each in a fresh
process, until ``--seconds`` have passed, then prints one JSON object as
the last line: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  Every metric is the median over rounds.
Exits non-zero when a check fails or the program cannot be run.

``--selftest`` feeds the output checks known-bad netlists at widths 3-4
and exits non-zero unless every one is rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("csa16", "fleet-sweep", "batch-premap")

END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
              "exact_fas": "count", "store_mb": "MiB",
              "peak_rss_mb": "MiB"}

#: Set-up is sampled at least this many times per run (extra set-up-only
#: rounds when fewer whole rounds fit), and the median is reported.
SETUP_SAMPLES = 5

#: A round that has not finished after this many seconds fails the run.
ROUND_TIMEOUT = 170.0


def _round(workload: str, seed: int, work_dir: Path, trace: int,
           setup_only: bool = False) -> dict:
    env = dict(os.environ)
    # The benchmark directory is on the path too: the forkserver of the
    # batch pool re-imports round.py (and, traced, trace_hook.py).
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE)))
    command = [sys.executable, str(HERE / "round.py"),
               "--workload", workload, "--seed", str(seed),
               "--dir", str(work_dir), "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    spawned = time.perf_counter()
    # Its own session, so a hung round is killed with every process it
    # started (fleet workers, forkserver, pool workers).
    proc = subprocess.Popen(command + ["--spawned-at", repr(spawned)],
                            env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} round timed out")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} round exited {proc.returncode}")
    return json.loads(lines[-1])


def _metrics(rounds, setups, trace: int, per_layer_units) -> dict:
    if trace:
        names = sorted(rounds[0]["layers"])
        return {name: {"value": statistics.median(
                           r["layers"][name] for r in rounds),
                       "unit": per_layer_units[name]}
                for name in names}
    metrics = {name: {"value": statistics.median(r[name] for r in rounds),
                      "unit": unit}
               for name, unit in END_TO_END.items() if name != "setup_s"}
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int) -> int:
    base = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    rounds = []
    started = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - started < seconds:
            index = len(rounds)
            rounds.append(_round(workload, seed * 1000 + index,
                                 base / f"round{index}", trace))
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_round(workload, seed, base / f"setup{len(setups)}",
                                 trace, setup_only=True)["setup_s"])
    except RuntimeError as error:
        print(f"run failed: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(base, ignore_errors=True)

    per_layer_units = {}
    if trace:
        import spans
        per_layer_units = {name: unit for name, (unit, _, _)
                           in spans.LAYER_METRICS.items()}
        per_layer_units.update(spans.EXTRA_METRICS)
    counts = {kind: [sum(r["operations"][kind][i] for r in rounds)
                     for i in (0, 1)]
              for kind in ("job", "fetch")}
    attempted = sum(attempted for attempted, _ in counts.values())
    failed = sum(failed for _, failed in counts.values())
    for problem in (problem for r in rounds for problem in r["problems"]):
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{workload}: {len(rounds)} round(s); cold jobs "
          f"{counts['job'][0]} attempted, {counts['job'][1]} failed; warm "
          f"fetches {counts['fetch'][0]} attempted, {counts['fetch'][1]} "
          "failed; per round: " + ", ".join(
              f"cold {r['cold_s']:.2f}s warm "
              f"{'/'.join(f'{w:.3f}' for w in r['warm_passes_s'])}s "
              f"setup {r['setup_s']:.2f}s" for r in rounds),
          file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": _metrics(rounds, setups, trace, per_layer_units)}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def selftest() -> int:
    """Every check must pass on real results and reject injected faults."""
    sys.path.insert(0, str(SRC))
    import checks
    from repro.core import BoolEOptions, BoolEPipeline
    from repro.generators import booth_multiplier, csa_multiplier

    rejected = passed = 0
    cases = [(csa_multiplier(3), False), (booth_multiplier(4), True)]
    for circuit, signed in cases:
        result = BoolEPipeline(
            BoolEOptions(r1_iterations=2, r2_iterations=2)).run(circuit.aig)
        netlist = checks.netlist_from_aig(result.extracted_aig)
        blocks = checks.blocks_from_records(result.fa_blocks)
        label = circuit.aig.name

        def verdict(bad_netlist, bad_blocks):
            return checks.check_netlist(bad_netlist, bad_blocks,
                                        circuit.width, signed,
                                        circuit.num_full_adders, 7, label)

        genuine = verdict(netlist, blocks)
        print(f"{label}: genuine result -> {genuine or 'accepted'}")
        passed += not genuine

        outputs = list(netlist.outputs)
        literal, name = outputs[1]
        outputs[1] = (literal ^ 1, name)
        inverted = verdict(checks.Netlist(netlist.inputs, netlist.gates,
                                          tuple(outputs)), blocks)
        print(f"{label}: output {name} inverted -> {inverted or 'ACCEPTED'}")
        rejected += bool(inverted)

        inputs, sum_lit, carry_lit = blocks[0]
        swapped = verdict(netlist,
                          [(inputs, carry_lit, sum_lit)] + blocks[1:])
        print(f"{label}: FA block 0 sum/carry swapped -> "
              f"{swapped or 'ACCEPTED'}")
        rejected += bool(swapped)
    ok = passed == len(cases) and rejected == 2 * len(cases)
    print(f"selftest {'passed' if ok else 'FAILED'}: {passed}/{len(cases)} "
          f"genuine accepted, {rejected}/{2 * len(cases)} faults rejected")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
