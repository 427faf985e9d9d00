"""Steadiness report: repeat untraced runs and compare each metric's spread to its bound.

Usage (from the root of a checkout):

    python3 bench/steadiness.py [--first-seed 1] [--rounds 1]

For every workload in ``BENCHMARK.json`` it makes ten runs of
``bench/run.py --trace 0 --seconds <run_seconds>``, each with the next seed,
and prints for every end-to-end metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread
as a share of the median, next to the metric's bound in ``BENCHMARK.json``.
A spread under a third of the bound is marked steady.  With ``--rounds 2``
the runs are made twice and the second median is compared with the first.
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
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']}/{result['attempted']} checks failed")
    return result


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    all_steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        medians = []
        for rnd in range(args.rounds):
            seeds = range(args.first_seed, args.first_seed + RUNS)
            results = [run_once(workload, seed, bench["run_seconds"]) for seed in seeds]
            walls = [r["wall_s"] for r in results]
            print(f"{workload} round {rnd + 1}: {RUNS} runs, seeds {seeds.start}..{seeds.stop - 1}, "
                  f"wall per run median {statistics.median(walls):.1f} s, max {max(walls):.1f} s, "
                  f"checks failed {sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
            print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            round_medians = {}
            for name, bound in bounds.items():
                med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in results])
                round_medians[name] = med
                steady = rel < bound / 3.0
                all_steady &= steady
                print(f"  {name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.4f} {bound:>6} "
                      f"{'steady' if steady else 'NOT STEADY'}")
            medians.append(round_medians)
        if args.rounds == 2:
            better = {m["name"]: m["better"] for m in bench["end_to_end"]}
            for name, bound in bounds.items():
                first, second = medians[0][name], medians[1][name]
                worse = (second - first) / first if better[name] == "lower" else (first - second) / first
                ok = worse <= bound
                all_steady &= ok
                print(f"  {name:<14} second vs first median: {worse:+.4f} (bound {bound}) "
                      f"{'ok' if ok else 'WORSE'}")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
