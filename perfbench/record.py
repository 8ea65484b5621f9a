"""Record a baseline: every workload, untraced and traced, on one seed.

    python3 perfbench/record.py --seed 1

Runs each workload of BENCHMARK.json, plus limits, in its own interpreter
for the run_seconds of BENCHMARK.json, and writes perfbench/baseline.json
with the machine info, each run's result line and its full report (named
metrics, failures by input and cause, and for traced runs the per-layer
table by operation group).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import networkx

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    return {"result": json.loads(lines[-1]), "report": json.loads("\n".join(lines[:-1]))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    baseline = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "networkx": networkx.__version__, "platform": platform.platform()},
        "seed": args.seed,
        "seconds": seconds,
        "runs": {},
    }
    for workload in [w["name"] for w in bench["workloads"]] + ["limits"]:
        baseline["runs"][workload] = {mode: run(workload, args.seed, seconds, trace)
                                      for mode, trace in (("untraced", 0), ("traced", 1))}
        print(f"recorded {workload}", flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
