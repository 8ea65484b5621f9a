"""Per-layer spans around sqcolor's public functions, installed from outside.

The program's source stays untouched: every listed function is swapped,
in every sqcolor module that holds a reference to it, for a wrapper that
counts calls and measures thread CPU time.  Self time is a span's duration
minus the time covered by the listed spans it caused.  Spans are aggregated in
memory per function; per-operation breakdowns come from snapshots.
"""

from __future__ import annotations

import functools
import sys
import time

# The traced functions, by layer (module under src/sqcolor/).
LAYERS = {
    "graph_core": ["square", "girth", "induced_subgraph", "cut_vertices",
                   "biconnected_components", "distance"],
    "reducer": ["color_square_7lists", "find_reducible_config", "find_spacing_violation",
                "find_sixcycle_two_vertex", "extend_sixcycle", "reduce_cut_two_vertex"],
    "coloring": ["find_L_coloring", "greedy_extend", "is_proper"],
    "planar_embed": ["find_planar_embedding", "faces"],
    "generate": ["canonical_code", "random_instance"],
    "discharging": ["discharge_audit", "claim3_bound_check"],
    "formats": ["parse_graphs"],
    "cli": ["main"],
}

SPANS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

# Outcome of find_reducible_config, by the class name of its witness.
RULES = {"OneVertex": "one_vertex", "CutTwoVertex": "cut_two_vertex",
         "SixCycleTwoVertex": "sixcycle"}


class Tracer:
    """Installs span wrappers and keeps per-span [calls, total_s, self_s]."""

    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in SPANS}
        self.counts = {f"reducer.rule.{r}": 0 for r in (*RULES.values(), "fallback")}
        self.counts["coloring.find_L_coloring.vertices"] = 0
        self.counts["generate.kept"] = 0
        self._codes: set = set()
        self._stack: list[float] = []
        self._undo: list = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if (name == "sqcolor" or name.startswith("sqcolor.")) and m is not None]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"sqcolor.{layer}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _after(self, name: str, args, result) -> None:
        if name == "reducer.find_reducible_config":
            rule = RULES.get(type(result).__name__, "fallback")
            self.counts[f"reducer.rule.{rule}"] += 1
        elif name == "coloring.find_L_coloring":
            self.counts["coloring.find_L_coloring.vertices"] += args[0].n
        elif name == "generate.canonical_code":
            self._codes.add(result)

    def end_op(self) -> None:
        """Close one benchmark operation: drop spans a deadline left open and
        count the distinct canonical codes it computed (the graphs kept)."""
        self._stack.clear()
        self.counts["generate.kept"] += len(self._codes)
        self._codes.clear()

    def _wrap(self, name: str, fn):
        rec = self.spans[name]
        stack = self._stack
        after = self._after if name in ("reducer.find_reducible_config",
                                        "coloring.find_L_coloring",
                                        "generate.canonical_code") else None
        clock = time.thread_time  # the clock run.py times operations with

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(name, args, result)
            return result

        return span

    def self_times(self) -> dict:
        return {name: rec[2] for name, rec in self.spans.items()}

    def metrics(self) -> dict:
        out = {}
        for name, (calls, _, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        detector_calls = self.spans["reducer.find_reducible_config"][0]
        constructive = sum(self.counts[f"reducer.rule.{r}"] for r in RULES.values())
        out["reducer.constructive_ratio"] = constructive / detector_calls if detector_calls else 0.0
        codes = self.spans["generate.canonical_code"][0]
        out["generate.kept_ratio"] = self.counts["generate.kept"] / codes if codes else 0.0
        return out
