#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

For each workload, runs seeds 1-10 with --trace 0, then the same ten seeds
again in reverse order, then one held-out seed. For each end-to-end metric
it reports:

  spread  the distance between the first and third quartile of the ten
          values of a set (statistics.quantiles(values, n=4)) as a share
          of their median. It mixes the inputs' variation between seeds
          with run-to-run noise. Checked against a third of the metric's
          bound, for both sets, setup_s included.
  shift   how far the second set's median lies from the first's, as a
          share of the first. Two sets of runs of the same code must
          agree within the metric's bound.
  repeat  the median over seeds of |second - first| / first for the same
          seed: run-to-run noise alone (0 for a deterministic metric).
          Information only.
  held    the held-out seed's distance from the first set's median.
          Checked against the metric's bound.

Run from the repository root (about 25 minutes):

    python3 perfbench/steady.py

Exits with code 1 if any check fails. Raw values are written to
.bench_out/steady.json.
"""

import json
import os
import statistics
import subprocess
import sys

SEEDS = list(range(1, 11))
HELD_OUT_SEED = 7919


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{workload} seed {seed}: iter_ns={metrics['iter_ns']:.4f} "
          f"setup_s={metrics['setup_s']:.6f}", flush=True)
    return metrics


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    def run(workload, seed):
        return run_once(bench["command"], workload, seed, bench["run_seconds"])

    raw = {}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        first = {seed: run(workload, seed) for seed in SEEDS}
        second = {seed: run(workload, seed) for seed in reversed(SEEDS)}
        held = run(workload, HELD_OUT_SEED)
        raw[workload] = {"first": first, "second": second, "held_out": held}
        print(f"\n{workload}: seeds {SEEDS[0]}-{SEEDS[-1]} twice, "
              f"held-out seed {HELD_OUT_SEED}")
        print(f"  {'metric':<18} {'median':>12} {'spread':>15} {'shift':>7} "
              f"{'repeat':>7} {'held':>7} {'bound':>6}")
        for name, bound in bounds.items():
            a = [first[s][name] for s in SEEDS]
            b = [second[s][name] for s in SEEDS]
            med = statistics.median(a)
            spreads = (spread(a), spread(b))
            shift = abs(statistics.median(b) - med) / med
            repeat = statistics.median(abs(y - x) / x for x, y in zip(a, b))
            off = abs(held[name] - med) / med
            flags = []
            if max(spreads) > bound / 3:
                flags.append("spread above a third of the bound")
            if shift > bound:
                flags.append("sets disagree")
            if off > bound:
                flags.append("held-out seed outside the bound")
            steady = steady and not flags
            print(f"  {name:<18} {med:>12.6g} {spreads[0]:>7.4f} {spreads[1]:>7.4f} "
                  f"{shift:>7.4f} {repeat:>7.4f} {off:>7.4f} {bound:>6}"
                  + "".join(f"  <-- {f}" for f in flags))
        print(flush=True)

    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    with open(os.path.join(root, ".bench_out", "steady.json"), "w") as f:
        json.dump(raw, f, indent=1)
    print("steady" if steady else "NOT steady")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
