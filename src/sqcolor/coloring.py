"""List coloring, choosability, degeneracy.

Colors are opaque small integers.  A coloring is a list indexed by
vertex with None as the unassigned sentinel.  All searches are exact
and deterministic; budgets are node counts, never wall clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded, PartialColoring
from .graph_core import Graph

CHOOSABLE = "choosable"
NOT_CHOOSABLE = "not_choosable"
INCONCLUSIVE = "inconclusive"

DEFAULT_CHOOSABILITY_BUDGET = 2_000_000


def normalize_lists(g: Graph, lists: Sequence[Iterable[int]]) -> list[frozenset[int]]:
    """Validate per-vertex lists and freeze them."""
    if len(lists) != g.n:
        raise ValueError(f"got {len(lists)} lists for {g.n} vertices")
    return [frozenset(L) for L in lists]


def is_proper(g: Graph, coloring: Sequence[Optional[int]]) -> bool:
    """Return True when the total coloring has no monochromatic edge."""
    if len(coloring) != g.n:
        raise ValueError("coloring length does not match vertex count")
    for v in range(g.n):
        if coloring[v] is None:
            raise PartialColoring(f"vertex {v} is unassigned")
    for u in range(g.n):
        cu = coloring[u]
        for v in g.adj[u]:
            if u < v and cu == coloring[v]:
                return False
    return True


def _search(g: Graph, lists, budget: Optional[int]) -> tuple[Optional[list], int]:
    """Exact list-coloring backtracking; returns (coloring or None, nodes)."""
    n = g.n
    avail = [set(L) for L in lists]
    color: list[Optional[int]] = [None] * n
    uncolored = set(range(n))
    nodes = 0

    def pick() -> Optional[int]:
        best = None
        best_key = None
        for v in uncolored:
            key = (len(avail[v]), -len(g.adj[v]), v)
            if best_key is None or key < best_key:
                best_key = key
                best = v
        return best

    def dfs() -> bool:
        nonlocal nodes
        if not uncolored:
            return True
        v = pick()
        uncolored.discard(v)
        for c in sorted(avail[v]):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(nodes, budget, "list-coloring")
            color[v] = c
            removed = []
            dead = False
            for u in g.adj[v]:
                if color[u] is None and c in avail[u]:
                    avail[u].discard(c)
                    removed.append(u)
                    if not avail[u]:
                        dead = True
            if not dead and dfs():
                return True
            for u in removed:
                avail[u].add(c)
            color[v] = None
        uncolored.add(v)
        return False

    found = dfs()
    return (list(color) if found else None), nodes


def find_L_coloring(g: Graph, lists: Sequence[Iterable[int]], max_nodes: Optional[int] = None) -> Optional[list]:
    """Return a proper coloring with each color drawn from its vertex list.

    Exact backtracking, most constrained vertex first; returns None only
    when no such coloring exists.  max_nodes, when given, bounds the
    search and raises BudgetExceeded on exhaustion.
    """
    norm = normalize_lists(g, lists)
    found, _ = _search(g, norm, max_nodes)
    return found


def greedy_extend(g: Graph, coloring: Sequence[Optional[int]], v: int, lists: Sequence[Iterable[int]]) -> Optional[int]:
    """Return the smallest usable color for v given its colored neighbors."""
    used = {coloring[u] for u in g.adj[v] if coloring[u] is not None}
    avail = sorted(set(lists[v]) - used)
    return avail[0] if avail else None


def degeneracy(g: Graph) -> tuple[int, list[int]]:
    """Return (d, order): repeated minimum-degree removal, ties to the
    smallest vertex.

    Every vertex has at most d neighbors later in the order, so coloring
    the order in reverse meets at most d colored neighbors per step.
    """
    deg = [len(a) for a in g.adj]
    heap = [(dv, v) for v, dv in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * g.n
    order = []
    d = 0
    while heap:
        dv, v = heapq.heappop(heap)
        if removed[v]:
            continue  # a stale entry: v's current (deg, v) came off first
        d = max(d, dv)
        order.append(v)
        removed[v] = True
        for u in g.adj[v]:
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return d, order


@dataclass
class ChoosabilityResult:
    verdict: str
    witness: Optional[list]
    nodes_used: int
    budget: Optional[int] = None


def _canonical_assignments(n: int, k: int):
    """Yield list assignments with colors labeled in first-use order.

    Every size-k assignment is a color renaming of exactly one canonical
    assignment, so checking the canonical ones decides choosability.
    Colors are 1-based; at most k fresh colors appear per vertex, so the
    pool never exceeds k*n.
    """
    lists: list[tuple[int, ...]] = [()] * n

    def rec(i: int, fresh: int):
        if i == n:
            yield [frozenset(L) for L in lists]
            return
        for take_new in range(k + 1):
            old_need = k - take_new
            new_block = tuple(range(fresh + 1, fresh + 1 + take_new))
            for old in combinations(range(1, fresh + 1), old_need):
                lists[i] = old + new_block
                yield from rec(i + 1, fresh + take_new)
        lists[i] = ()

    yield from rec(0, 0)


def is_k_choosable(
    g: Graph,
    k: int,
    max_nodes: Optional[int] = DEFAULT_CHOOSABILITY_BUDGET,
    use_degeneracy_shortcut: bool = True,
) -> ChoosabilityResult:
    """Decide whether every assignment of k-color lists admits a coloring.

    Degeneracy at most k-1 certifies the positive answer outright.
    Otherwise enumerate canonical assignments (first-use color labels)
    and run the exact solver on each; a failing assignment is returned
    as the witness.  The node budget covers both the enumeration and the
    solver; running out yields an inconclusive verdict, never a guess.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if use_degeneracy_shortcut:
        d, _ = degeneracy(g)
        if d <= k - 1:
            return ChoosabilityResult(CHOOSABLE, None, 0, max_nodes)
    nodes = 0
    try:
        for assignment in _canonical_assignments(g.n, k):
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise BudgetExceeded(nodes, max_nodes, "choosability")
            remaining = None if max_nodes is None else max_nodes - nodes
            found, used = _search(g, assignment, remaining)
            nodes += used
            if found is None:
                return ChoosabilityResult(NOT_CHOOSABLE, assignment, nodes, max_nodes)
    except BudgetExceeded:
        return ChoosabilityResult(INCONCLUSIVE, None, nodes, max_nodes)
    return ChoosabilityResult(CHOOSABLE, None, nodes, max_nodes)
