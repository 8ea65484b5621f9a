"""sqcolor benchmark: one workload per process, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload corpus12 --seed 1 --seconds 25 --trace 0

Every workload is a closed loop: one process, one operation at a time.  A
run repeats whole rounds of the workload's operations until --seconds have
passed, so each run measures the same mix of inputs.  Times are CPU time
of this thread: the program is single-threaded and blocks on nothing but
page-cached file reads, so that is its wall time less what other tenants
of a shared machine take.  Each is then scaled to the nominal speed of a
reference loop timed between and inside the operations (calibrate.py),
because a shared machine's speed drifts by up to a half in spells.  Every
output goes through the independent checks in check.py; an exception, a
missed per-operation deadline (a wall-clock timer in this process) or a
wrong output counts as a failed operation and as an over-limit sample in
the percentiles.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
runs round 0 untraced, then repeats round 0 with span wrappers installed
(spans.py) and reports per-layer calls and self time; the tracing overhead
is the traced round's time minus the untraced round's time.

setup_s is the median over SETUP_REPS fresh interpreters of the CPU time
from the interpreter's start until the workload's inputs are ready: each
runs this script with --setup-only, which imports sqcolor, builds the
inputs and the first round of operations, and prints time.process_time().
Each is scaled like an operation, by the reference timed in this process
just before and just after the fresh interpreter runs.

stdout ends with the full report as JSON, then one line holding the result
object: correct, attempted, failed and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

import calibrate
import check
from spans import SPANS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_REPS = 5
SETUP_REF_REPS = 20  # reference timings on either side of each set-up, which scale it
PALETTE = range(1, 11)  # random 7-lists are drawn from 10 colors

# Every run measures at least MIN_ROUNDS whole rounds.  The tail percentile
# of each workload's operation kinds is the highest of p50/p75/p90/p99 that
# keeps at least 10 samples beyond it after MIN_ROUNDS rounds (per round:
# corpus12 977 of each kind; large 20 colorings and 15 audits; generate 14
# samples and one enumeration, which has no tail; limits 23 colorings and
# 11 audits).  It is fixed, so every run reports the same percentile; the
# report gives the count beyond it.
MIN_ROUNDS = 3
TAIL_P = {"corpus12": {"color": 99, "audit": 99}, "large": {"color": 75, "audit": 75},
          "generate": {"sample": 75}, "limits": {"color": 75, "audit": 50}}

# End-to-end metrics shared by every workload.  "main" and "side" are the
# workload's two operation kinds: color and audit on corpus12, large and
# limits; sample (random_instance) and enumerate on generate.
MAIN = {"corpus12": "color", "large": "color", "generate": "sample", "limits": "color"}
SIDE = {"corpus12": "audit", "large": "audit", "generate": "enumerate", "limits": "audit"}
UNITS = {"setup_s": "s", "main_p50_ms": "ms", "main_tail_ms": "ms",
         "main_us_per_vertex": "us", "side_p50_ms": "ms", "peak_rss_mb": "MB"}

# Per-operation deadlines: generous on the listed workloads, so that only
# a hang misses them; on limits, tight enough to cut the exponential
# cycle search in the audit of some random instances.
DEADLINE_S = {"corpus12": 5.0, "large": 30.0, "generate": 30.0, "limits": 10.0}


class Deadline(BaseException):
    """Raised by the per-operation timer; not an Exception, so no handler in
    the program can swallow it."""


class Op(NamedTuple):
    kind: str  # color, audit, sample or enumerate
    label: str  # the input's name
    n: int  # vertex count of the input; for samples, the most the output may have
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    size: "Callable[[object], int] | None" = None  # vertex count of a correct output


def _on_alarm(signum, frame):
    raise Deadline()


def run_op(op: Op, limit: float, ref: calibrate.Reference | None = None) -> dict:
    """Run and check one operation.  With a reference, its "s" is scaled to
    the reference's nominal speed later (measure), "ref" holds the range of
    its reference timings, and the time the reference took inside it is
    left out."""
    status, detail = "ok", ""
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.thread_time()
    first = ref.start_op() if ref else 0
    try:
        out = op.call()
    except Deadline:
        status, detail = "deadline", f"over {limit:g} s"
    except RecursionError:
        status, detail = "crash", "RecursionError"
    except Exception as exc:  # any other crash is a result, recorded by type
        status, detail = "crash", f"{type(exc).__name__}: {exc}"
    finally:
        end, in_op_s = ref.end_op() if ref else (0, 0.0)
        elapsed = time.thread_time() - t0 - in_op_s
        signal.setitimer(signal.ITIMER_REAL, 0)
    n = op.n
    if status == "ok":
        problem = op.check(out)
        if problem is not None:
            status, detail = "wrong", problem
        elif op.size is not None:
            n = op.size(out)
    return {"kind": op.kind, "label": op.label, "n": n, "s": elapsed,
            "status": status, "detail": detail, "ref": (first, end)}


# --- inputs shared by workloads ---------------------------------------------


def import_sqcolor() -> dict:
    """Import the package and return its modules by short name."""
    import sqcolor.cli  # noqa: F401  (loads every module)
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("sqcolor.")}


def adjacency(g) -> list[list[int]]:
    return [list(g.adj[v]) for v in range(g.n)]


def random_lists(rng: random.Random, n: int) -> list[frozenset]:
    return [frozenset(rng.sample(PALETTE, 7)) for _ in range(n)]


def audit_fields(report) -> tuple:
    return (report.face_count, report.initial_total, report.final_total,
            [v for v, _ in report.negative_vertices], bool(report.negative_faces),
            report.config is not None, report.dichotomy_holds)


def write_graph(path: str, adj: list[list[int]]) -> None:
    edges = check.edges_of(adj)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{len(adj)} {len(edges)}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)


def write_lists(path: str, lists: list[frozenset]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"{v}: {' '.join(map(str, sorted(L)))}\n" for v, L in enumerate(lists))


def cli_run(mods: dict, argv: list[str]) -> tuple[int, str]:
    """In-process `sqcolor <argv>` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods["cli"].main(argv)
    return code, out.getvalue() + err.getvalue()


def check_cli_coloring(adj, lists):
    def verify(result):
        code, text = result
        fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        if code != 0 or fields.get("verified") != "ok" or "colors" not in fields:
            return f"exit {code}: {text.strip()[:200]}"
        colors = [int(c) for c in fields["colors"].split(",")]
        return check.check_coloring(adj, lists, colors)
    return verify


def check_cli_audit(adj):
    def verify(result):
        code, text = result
        lines = text.splitlines()
        fields = dict(line.split("=", 1) for line in lines if "=" in line and " " not in line)
        if code != 0 or "faces" not in fields:
            return f"exit {code}: {text.strip()[:200]}"
        negative = [int(line.split()[1][2:]) for line in lines if line.startswith("negative_vertex ")]
        negative_face = any(line.startswith("negative_face ") for line in lines)
        config = next((line[7:] for line in lines if line.startswith("config=")), "none")
        return check.check_audit(adj, int(fields["faces"]), fields["initial_total"],
                                 fields["final_total"], negative, negative_face,
                                 config != "none", fields.get("dichotomy") == "ok")
    return verify


# --- workloads ---------------------------------------------------------------
#
# Each setup returns a make_round(r) that builds the list of operations
# for round r.  Setup covers the import, the input construction and the
# operations of round 0.


def setup_corpus12(mods: dict, seed: int, workdir: str):
    """977 tiny graphs: per-call overhead and the six-cycle engine dominate."""
    with open(os.path.join(HERE, "data", "corpus12.g6"), encoding="ascii") as fh:
        corpus = [check.decode_graph6(line) for line in fh if line.strip()]
    Graph = mods["graph_core"].Graph

    def make_round(r: int) -> list[Op]:
        rng = random.Random(seed * 1_000_003 + r)
        ops = []
        order = list(range(len(corpus)))
        rng.shuffle(order)
        for i in order:
            adj = corpus[i]
            # A fresh Graph per round, because Graph caches its square.
            g = Graph(len(adj), check.edges_of(adj))
            lists = random_lists(rng, len(adj))
            label = f"corpus12[{i}]"
            ops.append(Op("color", label, g.n,
                          lambda g=g, lists=lists: mods["reducer"].color_square_7lists(g, lists),
                          lambda out, adj=adj, lists=lists: check.check_coloring(adj, lists, out)))
            ops.append(Op("audit", label, g.n,
                          lambda g=g: mods["discharging"].discharge_audit(g),
                          lambda rep, adj=adj: check.check_audit(adj, *audit_fields(rep))))
        return ops

    return make_round


# large: in-class honeycomb chains and cycles, n from 100 to 900, each
# colored from uniform lists and from three random list assignments, and
# audited three times.  Inputs are fixed, so every run measures the same
# mix; the seed and the round draw the lists.  Their coloring costs are at least 1.9x apart (c100 <
# honeycomb-25 < honeycomb-50 < c600 < c900), so with five inputs the median
# falls in the middle of honeycomb-50's samples and p75 inside c600's,
# whatever the number of rounds.
LARGE = {name: ("uniform", "random-lists", "random-lists", "random-lists",
                "audit", "audit", "audit")
         for name in ("c100", "honeycomb-25", "honeycomb-50", "c600", "c900")}
# limits: the slowest in-class coloring that still works (n = 802), the
# recursion crash from n = 1002, and seeded random instances, whose cost
# varies severalfold with the seed and whose audit can run into the
# exponential cycle search.
LIMITS = {"honeycomb-200": ("uniform",), "honeycomb-250": ("uniform",),
          "c1000": ("uniform", "audit")}
LIMITS_RANDOM = 10
RANDOM_N = 150


def _cli_rounds(mods, seed: int, workdir: str, named_inputs: dict, random_count: int):
    """Write the graph files, and return a make_round(r) that writes round
    r's list files and returns the CLI operations on them.

    Each input names its operations: "uniform" and "random-lists" color it
    (every "random-lists" with its own lists, drawn afresh in each round
    from the seed and the round), "audit" audits it.
    """
    gen = mods["generate"]
    graphs = [(name, gen.named(name)[0], ops) for name, ops in named_inputs.items()]
    for i in range(random_count):
        spec_seed = seed * 1000 + i
        g = gen.random_instance(gen.GeneratorSpec(max_n=RANDOM_N, seed=spec_seed))
        graphs.append((f"random{RANDOM_N}-s{spec_seed}", g, ("uniform", "random-lists", "audit")))
    inputs = []
    for name, g, wanted in graphs:
        adj = adjacency(g)
        gpath = os.path.join(workdir, f"{name}.txt")
        write_graph(gpath, adj)
        inputs.append((name, adj, gpath, wanted))

    def make_round(r: int) -> list[Op]:
        rng = random.Random(seed * 1_000_003 + r)
        ops = []
        for name, adj, gpath, wanted in inputs:
            n = len(adj)
            for k, what in enumerate(wanted):
                if what == "audit":
                    ops.append(Op("audit", name, n,
                                  lambda gpath=gpath: cli_run(mods, ["discharge-audit", gpath]),
                                  check_cli_audit(adj)))
                    continue
                argv = ["color", "--structured", gpath]
                lists = [frozenset(range(1, 8))] * n  # the CLI default, uniform:7
                if what == "random-lists":
                    lists = random_lists(rng, n)
                    lpath = os.path.join(workdir, f"{name}.lists{k}")
                    write_lists(lpath, lists)
                    argv[2:2] = ["--lists", lpath]
                ops.append(Op("color", f"{name} {what}", n,
                              lambda argv=argv: cli_run(mods, argv),
                              check_cli_coloring(adj, lists)))
        return ops

    return make_round


def setup_large(mods: dict, seed: int, workdir: str):
    """Per-level rebuilds of the peel recursion, and the CLI path."""
    return _cli_rounds(mods, seed, workdir, LARGE, 0)


def setup_limits(mods: dict, seed: int, workdir: str):
    """Known failures, recorded as results."""
    return _cli_rounds(mods, seed, workdir, LIMITS, LIMITS_RANDOM)


ENUM_MAX_N = 11
SAMPLE_SEEDS = range(14)  # the fewest whose p75 keeps 10 samples beyond it in MIN_ROUNDS rounds


def setup_generate(mods: dict, seed: int, workdir: str):
    """Canonical codes, planarity of many small candidates, the chord step.

    A round is one enumeration and one random instance for each of a fixed
    set of seeds, the same in every run: random_instance's cost varies
    threefold between seeds (0.36 s to 1.18 s at n = 150 for seeds 0-15), so
    the median of ~50 independent draws would swing from run to run.
    Nothing here depends on the seed.
    """
    gen = mods["generate"]
    enum_spec = gen.GeneratorSpec(max_n=ENUM_MAX_N)
    ops = [Op("enumerate", f"enumerate_class(max_n={ENUM_MAX_N})", ENUM_MAX_N,
              lambda: list(gen.enumerate_class(enum_spec)),
              lambda out: check.check_enumeration([adjacency(g) for g in out], ENUM_MAX_N))]
    for spec in (gen.GeneratorSpec(max_n=RANDOM_N, seed=s) for s in SAMPLE_SEEDS):
        ops.append(Op("sample", f"random_instance(seed={spec.seed})", RANDOM_N,
                      lambda spec=spec: gen.random_instance(spec),
                      lambda g: check.check_class_member(adjacency(g), RANDOM_N),
                      size=lambda g: g.n))
    return lambda r: ops


WORKLOADS = {"corpus12": setup_corpus12, "large": setup_large,
             "generate": setup_generate, "limits": setup_limits}


# --- statistics --------------------------------------------------------------


def _rank(values: list[float], p: float) -> int:
    return max(0, math.ceil(p / 100 * len(values)) - 1)


def summarize(samples: list[dict], limit: float, tail_p: float | None,
              per_vertex: bool = False) -> dict | None:
    """Median and, if tail_p is given, tail, in ms or in us per vertex.

    A failure ranks above every success and reads as the deadline.
    """
    if not samples:
        return None

    def rank_and_value(s: dict) -> tuple[float, float]:
        scale = 1e6 / s["n"] if per_vertex else 1e3
        if s["status"] == "ok":
            return s["s"] * scale, s["s"] * scale
        return math.inf, limit * scale

    values = sorted(map(rank_and_value, samples))
    out = {"samples": len(values), "p50": values[_rank(values, 50)][1]}
    if tail_p is not None:
        tail = _rank(values, tail_p)
        out.update(tail=values[tail][1], tail_percentile=tail_p, beyond=len(values) - 1 - tail)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --- running a workload -------------------------------------------------------


def measure(make_round, seconds: float, limit: float, min_rounds: int = MIN_ROUNDS,
            tracer: Tracer | None = None, groups: dict | None = None) -> tuple[list, dict]:
    """Run whole rounds, at least `min_rounds`, until `seconds` have passed;
    return the samples and facts about the run.

    Each sample's "s" is its thread time scaled to the reference's nominal
    speed (calibrate.py); "thread_s" keeps the thread time.  The peak
    memory is taken after `min_rounds` rounds, so that it does not grow
    with the number of samples held.  With a tracer, add each operation's
    self times into its group of `groups`.
    """
    samples = []
    peak_mb = None
    start = time.perf_counter()
    r = 0
    with calibrate.Reference(in_ops=tracer is None) as ref:
        while r < min_rounds or time.perf_counter() - start < seconds:
            for op in make_round(r):
                ref.between_ops()
                before = tracer.self_times() if tracer else None
                samples.append(run_op(op, limit, ref))
                if tracer:
                    tracer.end_op()
                    if groups is not None:
                        after = tracer.self_times()
                        group = groups[f"{op.kind} {op.label.split('[')[0].split(' ')[0]}"]
                        group["ops"] += 1
                        group["thread_s"] += samples[-1]["s"]
                        for name in SPANS:
                            group["self_s"][name] += after[name] - before[name]
            r += 1
            # Collect the round's garbage, then move what the benchmark
            # holds (inputs, samples) out of the collector's reach, so that
            # full collections inside the program do not grow with the
            # number of samples.
            gc.collect()
            gc.freeze()
            if r == min_rounds:
                peak_mb = peak_rss_mb()
    measured = time.perf_counter() - start
    for sample in samples:
        sample["thread_s"] = sample["s"]
        sample["s"] *= ref.scale(*sample.pop("ref"))
    return samples, {"rounds": r, "measured_s": measured, "peak_rss_mb": peak_mb,
                     "reference": {"nominal_s": calibrate.NOMINAL_S, "timings": len(ref.times),
                                   "median_s": ref.median(), "min_s": min(ref.times),
                                   "max_s": max(ref.times)}}


def failures(samples: list[dict]) -> list[dict]:
    tally = Counter((s["label"], s["kind"], s["status"], s["detail"])
                    for s in samples if s["status"] != "ok")
    return [{"input": label, "op": kind, "cause": status, "detail": detail, "count": count}
            for (label, kind, status, detail), count in sorted(tally.items())]


def end_to_end(workload: str, samples: list[dict], setup_s: float, peak_mb: float,
               limit: float) -> tuple[dict, dict]:
    """(contract metrics, full named metrics) of an untraced run."""
    by_kind = defaultdict(list)
    for s in samples:
        by_kind[s["kind"]].append(s)

    def stats(kind: str, per_vertex: bool = False) -> dict | None:
        return summarize(by_kind[kind], limit, TAIL_P[workload].get(kind), per_vertex)

    named = {"setup_s": setup_s, "peak_rss_mb": peak_mb,
             "fail_ratio": sum(s["status"] != "ok" for s in samples) / len(samples)}
    for kind in ("color", "audit", "sample"):
        st = stats(kind)
        if st is None:
            continue
        named[f"{kind}_p50_ms"] = st["p50"]
        named[f"{kind}_tail_ms"] = {k: st[k] for k in
                                    ("tail", "tail_percentile", "beyond", "samples")}
    if by_kind["color"]:
        named["color_us_per_vertex"] = stats("color", per_vertex=True)["p50"]
    if by_kind["enumerate"]:
        named["enumerate_s"] = stats("enumerate")["p50"] / 1e3

    named["thread_p50_ms"] = {kind: summarize([{**s, "s": s["thread_s"]} for s in group],
                                              limit, None)["p50"]
                              for kind, group in sorted(by_kind.items()) if group}
    main = stats(MAIN[workload])
    contract = {
        "setup_s": setup_s,
        "main_p50_ms": main["p50"],
        "main_tail_ms": main["tail"],
        "main_us_per_vertex": stats(MAIN[workload], per_vertex=True)["p50"],
        "side_p50_ms": stats(SIDE[workload])["p50"],
        "peak_rss_mb": named["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in contract.items()}, named


def traced(make_round, seconds: float, limit: float) -> tuple[list, dict, dict]:
    """Round 0 untraced, then round 0 traced, repeated until `seconds` pass."""
    untraced_runs, traced_runs, samples = [], [], []
    tracer, groups = None, None
    start = time.perf_counter()
    while not traced_runs or time.perf_counter() - start < seconds:
        plain, _ = measure(make_round, 0, limit, 1)
        tracer = Tracer()
        groups = defaultdict(lambda: {"ops": 0, "thread_s": 0.0, "self_s": dict.fromkeys(SPANS, 0.0)})
        tracer.install()
        try:
            spans, _ = measure(make_round, 0, limit, 1, tracer, groups)
        finally:
            tracer.uninstall()
        samples += plain + spans
        untraced_runs.append(sum(s["s"] for s in plain))
        traced_runs.append(sum(s["s"] for s in spans))
    # Counts repeat exactly between repetitions.  Per-layer times come
    # from the last repetition, the overhead from the medians.
    untraced_s = sorted(untraced_runs)[len(untraced_runs) // 2]
    traced_s = sorted(traced_runs)[len(traced_runs) // 2]
    per_layer = tracer.metrics()
    per_layer["trace.overhead_s"] = traced_s - untraced_s
    per_layer["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    table = {}
    for name, group in sorted(groups.items()):
        top = sorted(group["self_s"].items(), key=lambda kv: -kv[1])[:5]
        table[name] = {"ops": group["ops"], "thread_s": group["thread_s"],
                       "top_self_s": {k: v for k, v in top if v > 0}}
    return samples, per_layer, table


def cold_setup_s(workload: str, seed: int) -> list[dict]:
    """Set-up CPU times of SETUP_REPS fresh interpreters, one after another,
    each scaled by the reference timed SETUP_REF_REPS times just before and
    just after it in this process."""
    ref = calibrate.Reference()
    reps = []
    for _ in range(SETUP_REPS):
        around = [ref.run_once() for _ in range(SETUP_REF_REPS)]
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        around += [ref.run_once() for _ in range(SETUP_REF_REPS)]
        cpu_s = float(proc.stdout.split()[-1])
        reference_s = sorted(around)[len(around) // 2]
        reps.append({"cpu_s": cpu_s, "reference_s": reference_s,
                     "s": cpu_s * calibrate.NOMINAL_S / reference_s})
    return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, then print the process CPU time so far and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sqcolor", "__init__.py")):
        print(f"error: no sqcolor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)
    limit = DEADLINE_S[args.workload]
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        mods = import_sqcolor()
        make = WORKLOADS[args.workload](mods, args.seed, workdir)
        first = [make(0)]
        if not mods["graph_core"].__file__.startswith(SRC):
            print("error: sqcolor was not imported from this checkout", file=sys.stderr)
            return 2
        if args.setup_only:
            print(time.process_time())
            return 0

        def make_round(r: int) -> list[Op]:
            return first.pop() if r == 0 and first else make(r)

        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        if args.trace:
            samples, metrics, table = traced(make_round, args.seconds, limit)
            report.update(per_layer=metrics, per_op_group=table)
            result_metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}
        else:
            setup_reps = cold_setup_s(args.workload, args.seed)
            setup_s = sorted(rep["s"] for rep in setup_reps)[SETUP_REPS // 2]
            report["setup_reps"] = setup_reps
            samples, run_info = measure(make_round, args.seconds, limit)
            result_metrics, named = end_to_end(args.workload, samples, setup_s,
                                               run_info.pop("peak_rss_mb"), limit)
            report.update(run_info, metrics=named)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    report["failures"] = failures(samples)
    failed = sum(s["status"] != "ok" for s in samples)
    wrong = sum(s["status"] == "wrong" for s in samples)
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({"correct": wrong == 0, "attempted": len(samples), "failed": failed,
                      "metrics": result_metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".self_s") or name == "trace.overhead_s":
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
