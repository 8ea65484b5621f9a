"""The reference loop that sets the benchmark's time scale.

A shared machine runs the same code up to a half faster or slower in
spells that last from under a second to minutes, and thread CPU time does
not see it.  So run.py times a fixed reference loop once per EVERY_S of
process CPU time, between operations and, through a SIGVTALRM timer,
inside those that run longer than EVERY_S (that time is taken out of the
operation's time).  Each operation's time is then scaled by NOMINAL_S
over the median of the reference times taken during it and the WINDOW
taken on either side of it.  A reported time is thus what the operation takes when the reference
takes NOMINAL_S, about its time on a 2-vCPU Xeon at 2.1 GHz, so there the
figures stay close to thread CPU time.

The reference is pure Python over the benchmark's own data and code, and
none of sqcolor's: a distance-2 coloring check and a girth by BFS
(check.py) on the last REF_GRAPHS graphs of data/corpus12.g6, colored
greedily here.  A change to sqcolor cannot change it.
"""

from __future__ import annotations

import os
import signal
import time

import check

HERE = os.path.dirname(os.path.abspath(__file__))

REF_GRAPHS = 12
NOMINAL_S = 0.001  # about the reference's time on a 2-vCPU Xeon at 2.1 GHz
EVERY_S = 0.02  # process CPU time between two reference timings
WINDOW = 3  # reference timings on either side of an operation that scale it


def _greedy_square_coloring(adj: list[list[int]]) -> list[int]:
    colors = [0] * len(adj)
    for v in range(len(adj)):
        used = {colors[u] for u in check._within_two(adj, v)}
        colors[v] = min(c for c in range(1, 11) if c not in used)
    return colors


class Reference:
    """Times the reference loop in and between operations, and scales by it.

    Use as a context manager around the measured loop: it runs the
    SIGVTALRM timer.  Call start_op and end_op around each operation and
    between_ops outside them.  With in_ops False the timer only marks a
    timing due at the next operation boundary, so that span times of a
    traced run hold none of the reference's.
    """

    def __init__(self, in_ops: bool = True) -> None:
        self.in_ops = in_ops
        with open(os.path.join(HERE, "data", "corpus12.g6"), encoding="ascii") as fh:
            lines = [line for line in fh if line.strip()][-REF_GRAPHS:]
        palette = [frozenset(range(1, 11))]
        self.inputs = []
        for line in lines:
            adj = check.decode_graph6(line)
            self.inputs.append((adj, palette * len(adj), _greedy_square_coloring(adj)))
        self.times: list[float] = []
        self.due = True  # a timing is owed since the timer last fired outside an operation
        self.in_op = False
        self.in_op_s = 0.0  # thread time the timer spent inside the current operation
        self.op_start = 0.0  # thread time at the start of the current operation
        self.busy = False  # the timer's handler is running (it must not nest)

    def run_once(self) -> float:
        t0 = time.thread_time()
        for adj, lists, colors in self.inputs:
            if check.check_coloring(adj, lists, colors) is not None:
                raise AssertionError("reference coloring is not proper")
            check.girth(adj)
        return time.thread_time() - t0

    def _on_timer(self, signum, frame) -> None:
        # Only operations that have run for EVERY_S are timed inside: in a
        # short one the reference would only evict its caches.
        if (not (self.in_op and self.in_ops) or self.busy
                or time.thread_time() - self.op_start < EVERY_S):
            self.due = True
            return
        self.busy = True
        t0 = time.thread_time()
        try:
            self.times.append(self.run_once())
        finally:
            self.in_op_s += time.thread_time() - t0
            self.busy = False

    def __enter__(self) -> "Reference":
        signal.signal(signal.SIGVTALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_VIRTUAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)
        self.in_op = False
        for _ in range(WINDOW):  # so that the last operations have timings after them
            self.times.append(self.run_once())

    def between_ops(self) -> None:
        if self.due:
            self.due = False
            self.times.append(self.run_once())

    def start_op(self) -> int:
        """Start counting the timer's time in an operation; return the
        index its first timing would take."""
        self.in_op_s = 0.0
        self.op_start = time.thread_time()
        self.in_op = True
        return len(self.times)

    def end_op(self) -> tuple[int, float]:
        """Stop; return the index after the operation's last timing and the
        thread time the timer spent in it."""
        self.in_op = False
        return len(self.times), self.in_op_s

    def scale(self, first: int, end: int) -> float:
        """NOMINAL_S over the median of the timings in [first, end) and WINDOW
        on either side: the factor that brings an operation to nominal speed."""
        around = sorted(self.times[max(0, first - WINDOW):end + WINDOW])
        return NOMINAL_S / around[len(around) // 2]

    def median(self) -> float:
        return sorted(self.times)[len(self.times) // 2]
