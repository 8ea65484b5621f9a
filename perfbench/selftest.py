"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Feeds the checker a corrupted coloring and a corrupted audit, directly
   and through run.run_op and the CLI output parsers, and confirms each
   counts as a wrong output.
2. Runs every workload in BENCHMARK.json briefly, untraced and traced, and
   confirms every end-to-end and per-layer metric is emitted with its unit,
   along with the named metrics of each workload's report, and that every
   reported tail percentile has at least 10 samples beyond it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from fractions import Fraction

import check
import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Named report metrics each workload must emit (see layers.json).
NAMED = {
    "corpus12": ["setup_s", "peak_rss_mb", "fail_ratio", "color_p50_ms", "color_tail_ms",
                 "color_us_per_vertex", "audit_p50_ms", "audit_tail_ms"],
    "large": ["setup_s", "peak_rss_mb", "fail_ratio", "color_p50_ms", "color_tail_ms",
              "color_us_per_vertex", "audit_p50_ms", "audit_tail_ms"],
    "generate": ["setup_s", "peak_rss_mb", "fail_ratio", "enumerate_s", "sample_p50_ms",
                 "sample_tail_ms"],
}

C6 = [[1, 5], [0, 2], [1, 3], [2, 4], [3, 5], [4, 0]]
SEVEN = [frozenset(range(1, 8))] * 6


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def checker_rejects_corruption() -> None:
    good = [1, 2, 3, 1, 2, 3]
    expect(check.check_coloring(C6, SEVEN, good) is None, "a proper square coloring of C6 passes")
    clash = [1, 2, 1, 4, 5, 6]  # vertices 0 and 2 are at distance 2
    expect(check.check_coloring(C6, SEVEN, clash) is not None, "distance-2 clash is caught")
    off_list = [1, 2, 3, 1, 2, 9]
    expect(check.check_coloring(C6, SEVEN, off_list) is not None, "off-list color is caught")

    audit = dict(faces=2, initial_total=Fraction(-12), final_total=Fraction(-12),
                 negative_vertices=[], has_negative_face=True, has_config=True,
                 dichotomy_holds=True)
    expect(check.check_audit(C6, **audit) is None, "a correct C6 audit passes")
    for field, bad in (("final_total", Fraction(-11)), ("faces", 3),
                       ("negative_vertices", [0]), ("dichotomy_holds", False)):
        expect(check.check_audit(C6, **{**audit, field: bad}) is not None,
               f"audit with corrupted {field} is caught")

    op = run.Op("color", "c6", 6, lambda: clash, lambda out: check.check_coloring(C6, SEVEN, out))
    expect(run.run_op(op, 5.0)["status"] == "wrong", "run_op counts a corrupted coloring as failed")
    cli_text = "sqcolor-report 1\ncolors=1,2,1,4,5,6\nverified=ok\n"
    expect(run.check_cli_coloring(C6, SEVEN)((0, cli_text)) is not None,
           "a CLI coloring that claims verified=ok but clashes is caught")
    audit_text = ("vertices=6\nedges=6\nfaces=2\ninitial_total=-12\nfinal_total=-10\n"
                  "config=sixcycle_two_vertex cycle=1,2,3,4,5,0 two_vertex=0\ndichotomy=ok\n")
    op = run.Op("audit", "c6", 6, lambda: (0, audit_text), run.check_cli_audit(C6))
    expect(run.run_op(op, 5.0)["status"] == "wrong", "run_op counts a corrupted CLI audit as failed")


def run_workload(name: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


def every_metric_emitted() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            report, result = run_workload(workload, trace)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} trace={trace}: every output checked correct")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: all {len(want)} {key} metrics emitted")
            if trace == 0:
                missing = [m for m in NAMED[workload] if m not in report["metrics"]]
                expect(not missing, f"{workload}: named report metrics emitted (missing: {missing})")
                # --seconds 0 runs the fewest rounds a run can have.
                thin = {k: v["beyond"] for k, v in report["metrics"].items()
                        if k.endswith("_tail_ms") and v["beyond"] < 10}
                expect(not thin, f"{workload}: every tail has 10 samples beyond it (short: {thin})")


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, run._on_alarm)
    checker_rejects_corruption()
    every_metric_emitted()
    print("selftest passed")
