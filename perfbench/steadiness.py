"""``run.py steadiness``: repeat workloads over seeds and report each spread.

    python3 perfbench/run.py steadiness --runs 10 --first-seed 1
    python3 perfbench/run.py steadiness --workloads served --runs 5 --out raw.json

Runs the benchmark once per seed and workload (each run a fresh process,
exactly as a single invocation would), then prints for every end-to-end
metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, beside the metric's bound from ``BENCHMARK.json``.
A spread under a third of its bound reads ``steady``; ``setup_s`` is
reported but exempt from the spread check.  Exits 1 when a spread exceeds
its bound or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

from perfbench import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
EXEMPT = ("setup_s",)


def _verdict(name: str, spread: float, bound: float) -> str:
    if name in EXEMPT:
        return "exempt"
    if spread <= bound / 3:
        return "steady"
    return "within bound" if spread <= bound else "TOO WIDE"


def main(argv: List[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(prog="run.py steadiness")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--out", help="write every run's metrics to this JSON file")
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    raw: Dict[str, List[Dict[str, float]]] = {}
    failures = 0
    for workload in args.workloads.split(","):
        raw[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            completed = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                failures += 1
                print(f"{workload} seed {seed}: FAILED ({completed.returncode})\n{completed.stderr}")
                continue
            result = json.loads(lines[-1])
            values = {name: entry["value"] for name, entry in result["metrics"].items()}
            if not result["correct"]:
                failures += 1
            raw[workload].append(values)
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                + " ".join(f"{name}={value:.6g}" for name, value in values.items()),
                flush=True,
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(raw, handle, indent=1)

    too_wide = 0
    print(f"\n{'workload':<12} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for workload, runs in raw.items():
        if not runs:
            continue
        for name, bound in bounds.items():
            summary = stats.spread([run[name] for run in runs])
            verdict = _verdict(name, summary["spread"], bound)
            too_wide += verdict == "TOO WIDE"
            print(
                f"{workload:<12} {name:<16} {summary['median']:>12.6g} {summary['q1']:>12.6g} "
                f"{summary['q3']:>12.6g} {summary['spread']:>8.4f} {bound:>6}  {verdict}"
            )
    return 1 if failures or too_wide else 0
