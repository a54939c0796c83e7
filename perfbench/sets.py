"""Run every workload once per seed and report the spread of each metric.

    python3 perfbench/sets.py [--first-seed 1] [--workloads a,b]

Runs `run.py` untraced as one process at a time, workload by workload, for
BENCHMARK.json's run_seconds and with the ten seeds first-seed ..
first-seed+9. For each workload and metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and their distance as a
share of the median; it writes the per-run results and the summary to
.perfbench-out/sets-<first-seed>.json. This is the one command that runs
every workload; two sets made with different first seeds show how steady
the figures are.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SEEDS = 10


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    report = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)
        metrics = runs[0]["metrics"]
        summary = {k: {"unit": metrics[k]["unit"],
                       **summarize([r["metrics"][k]["value"] for r in runs])}
                   for k in metrics}
        report[name] = {"runs": runs, "summary": summary}
        for k, s in summary.items():
            print(f"  {name:22s} {k:14s} median {s['median']:.4f} {s['unit']} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.2%}", flush=True)
    os.makedirs(".perfbench-out", exist_ok=True)
    with open(os.path.join(".perfbench-out", f"sets-{args.first_seed}.json"), "w") as fh:
        json.dump({"first_seed": args.first_seed, "seeds": SEEDS, "seconds": seconds,
                   "report": report}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
