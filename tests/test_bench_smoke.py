"""The benchmark's own operations run and pass its output checks.

perfbench/run.py builds its operations from more of the sqcolor API than
the traced names that test_trace_names.py checks: the AuditReport fields
read by run.audit_fields, named(...)[0] and the GeneratorSpec keywords,
and the argv it hands to cli.main.  This test builds round 0 of each
gated workload and runs the first three operations of each kind (and so
the one enumeration) through run.run_op, so that a change to that API
fails here rather than in the benchmark.
"""

import importlib
import signal
import sys
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# run.py imports its siblings as top-level modules.
BENCH_MODULES = ("run", "calibrate", "check", "spans")


@pytest.fixture(scope="module")
def run():
    """perfbench/run.py, imported with perfbench/ on sys.path only while it
    loads, with its deadline handler installed for SIGALRM."""
    saved = {name: sys.modules.pop(name) for name in BENCH_MODULES if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        module = importlib.import_module("run")
    finally:
        sys.path.remove(str(PERFBENCH))
    old_handler = signal.signal(signal.SIGALRM, module._on_alarm)
    try:
        yield module
    finally:
        signal.signal(signal.SIGALRM, old_handler)
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


@pytest.mark.parametrize("workload", ["corpus12", "large", "generate"])
def test_first_operations_of_each_kind_pass(run, tmp_path, workload):
    mods = run.import_sqcolor()
    ops = run.WORKLOADS[workload](mods, 1, str(tmp_path))(0)
    taken = Counter()
    for op in ops:
        if taken[op.kind] == 3:
            continue
        taken[op.kind] += 1
        result = run.run_op(op, run.DEADLINE_S[workload])
        assert result["status"] == "ok", (op.kind, op.label, result["status"], result["detail"])
    assert set(taken) == {run.MAIN[workload], run.SIDE[workload]}
