"""Steadiness check: two sets of benchmark runs of the same commit.

    python3 perfbench/steady.py --runs 5 [--workloads csa16,batch-premap]
                                [--out steady.json]

Reads ``BENCHMARK.json``, runs its command ``--runs`` times per workload
in each of two sets (a different seed every run, workloads interleaved),
and prints for every end-to-end metric each set's median and quartiles,
the spread (quartile distance over median) and whether the two sets
agree within the metric's bound: the spread stays within the bound
(``setup_s`` excepted) and the second median is not worse than the first
by more than the bound.  The share of failed operations must be the same
in both sets.

Before every run a fixed arithmetic loop is timed; its spread is printed
as a measure of how much the machine itself drifted meanwhile.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Iterations of the drift probe (about 0.1-0.2 s of pure Python).
LOOP_ITERATIONS = 1_000_000


def drift_probe() -> float:
    started = time.perf_counter()
    total = 0
    for value in range(LOOP_ITERATIONS):
        total += value * value % 7
    return time.perf_counter() - started


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per workload in each set")
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (default: all)")
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out", type=Path,
                        help="also write every run's result here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([name for name in args.workloads.split(",") if name]
                 or [entry["name"] for entry in spec["workloads"]])
    results = {name: ([], []) for name in workloads}
    probes = []
    seed = args.first_seed
    for set_index in (0, 1):
        for _ in range(args.runs):
            for name in workloads:
                probes.append(drift_probe())
                result = run_once(spec["command"], name, seed,
                                  spec["run_seconds"])
                results[name][set_index].append(result)
                print(f"set {set_index + 1} {name} seed {seed}: " + ", ".join(
                    f"{metric}={entry['value']:.4g}"
                    for metric, entry in sorted(result["metrics"].items())),
                    flush=True)
                seed += 1

    agree = True
    print()
    for name in workloads:
        print(f"== {name}")
        shares = []
        for runs in results[name]:
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.append((failed, attempted))
        same_share = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        agree &= same_share
        print(f"  failed/attempted: set 1 {shares[0][0]}/{shares[0][1]}, "
              f"set 2 {shares[1][0]}/{shares[1][1]} "
              f"{'same share' if same_share else 'SHARE DIFFERS'}")
        print(f"  {'metric':<12} {'set':>3} {'median':>10} {'q1':>10} "
              f"{'q3':>10} {'spread':>7} {'bound':>6} verdict")
        for metric in spec["end_to_end"]:
            metric_name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index, runs in enumerate(results[name]):
                values = [r["metrics"][metric_name]["value"] for r in runs]
                q1, median, q3 = quartiles(values)
                medians.append(median)
                set_spread = spread(values)
                steady = metric_name == "setup_s" or set_spread <= bound
                agree &= steady
                print(f"  {metric_name:<12} {set_index + 1:>3} "
                      f"{median:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                      f"{set_spread:>7.1%} {bound:>6.0%} "
                      f"{'' if steady else 'SPREAD OVER BOUND'}")
            first, second = medians
            change = (second - first) / first if first else 0.0
            worse = change if metric["better"] == "lower" else -change
            ok = worse <= bound
            agree &= ok
            print(f"  {metric_name:<12} set 2 vs set 1: {change:+.1%} "
                  f"({'agree' if ok else 'WORSE BEYOND BOUND'})")
    q1, median, q3 = quartiles(probes)
    print(f"\nmachine drift: fixed loop median {median:.3f}s, quartiles "
          f"{q1:.3f}-{q3:.3f}s, spread {spread(probes):.1%}, "
          f"range {min(probes):.3f}-{max(probes):.3f}s over {len(probes)} "
          "probes")
    print(f"sets agree within bounds: {agree}")
    if args.out is not None:
        args.out.write_text(json.dumps({"results": results,
                                        "drift_probe_s": probes}, indent=1))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
