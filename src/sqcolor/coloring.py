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


def _search(g: Graph, lists, budget: int) -> tuple[Optional[list], int]:
    """Exact list-coloring backtracking; returns (coloring or None, nodes).

    The next vertex has the fewest available colors, then the highest
    degree, then the least index; its colors are tried in increasing
    order, one node each.  The search keeps an explicit stack with one
    frame per colored vertex: the vertex, its untried colors and the
    uncolored neighbours its color was taken from, so its depth is not
    bounded by Python's recursion limit.

    The next vertex comes off a heap of (len(avail[u]), -deg(u), u).  An
    entry is pushed whenever an uncolored vertex's available set shrinks
    or grows and whenever a vertex is uncolored again, so every uncolored
    vertex has an entry with its current key; an entry whose vertex is
    on the stack, or whose length is no longer that of its vertex's set,
    is stale and popped unused.  So the top is the least key over the
    uncolored vertices, and a node costs O(deg log n) rather than O(n).
    The heap is rebuilt from the uncolored vertices once stale entries
    make it more than twice as long as n, which keeps it O(n).
    """
    adj = g.adj
    n = g.n
    avail = [set(L) for L in lists]
    color: list[Optional[int]] = [None] * n
    taken = [False] * n  # on the stack
    heap = [(len(avail[u]), -len(adj[u]), u) for u in range(n)]
    heapq.heapify(heap)
    push = heapq.heappush
    nodes = 0
    stack = []
    fits = True  # the top vertex's color left each uncolored neighbour a color
    while True:
        if fits:
            if len(stack) == n:
                return list(color), nodes
            if len(heap) > 2 * n + 16:
                heap = [(len(avail[u]), -len(adj[u]), u) for u in range(n) if not taken[u]]
                heapq.heapify(heap)
            k, _, v = heapq.heappop(heap)
            while taken[v] or k != len(avail[v]):
                k, _, v = heapq.heappop(heap)
            taken[v] = True
            stack.append((v, iter(sorted(avail[v])), []))
        v, colors, removed = stack[-1]
        if color[v] is not None:  # take back the color that failed
            for u in removed:
                a = avail[u]
                a.add(color[v])
                push(heap, (len(a), -len(adj[u]), u))
            removed.clear()
            color[v] = None
        c = next(colors, None)
        if c is None:
            stack.pop()
            taken[v] = False
            push(heap, (len(avail[v]), -len(adj[v]), v))
            if not stack:
                return None, nodes
            fits = False
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes, budget, "list-coloring")
        color[v] = c
        fits = True
        for u in adj[v]:
            a = avail[u]
            if color[u] is None and c in a:
                a.discard(c)
                removed.append(u)
                push(heap, (len(a), -len(adj[u]), u))
                if not a:
                    fits = False


def find_L_coloring(
    g: Graph, lists: Sequence[Iterable[int]], max_nodes: int = DEFAULT_CHOOSABILITY_BUDGET
) -> Optional[list]:
    """Return a proper coloring with each color drawn from its vertex list.

    Exact backtracking, most constrained vertex first; returns None only
    when no such coloring exists.  max_nodes bounds the search, which
    raises BudgetExceeded on exhaustion.
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


def _list_choices(k: int, fresh: int):
    """The lists one vertex may take when colors 1..fresh are in use, each
    with the count of colors in use after it: for take_new = 0, ..., k,
    each (k - take_new)-subset of the old colors in lexicographic order,
    followed by the new colors fresh + 1, ..., fresh + take_new."""
    for take_new in range(k + 1):
        new_block = tuple(range(fresh + 1, fresh + 1 + take_new))
        for old in combinations(range(1, fresh + 1), k - take_new):
            yield old + new_block, fresh + take_new


def _canonical_assignments(n: int, k: int):
    """Yield list assignments with colors labeled in first-use order.

    Every size-k assignment is a color renaming of exactly one canonical
    assignment, so checking the canonical ones decides choosability.
    Colors are 1-based; at most k fresh colors appear per vertex, so the
    pool never exceeds k*n.  The assignments come in the order of the
    vertices' choices (_list_choices), the last vertex's varying fastest.
    An explicit stack holds one iterator of choices per vertex placed, so
    n is not bounded by the recursion limit.
    """
    if n == 0:
        yield []
        return
    lists: list[tuple[int, ...]] = [()] * n
    stack = [_list_choices(k, 0)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        i = len(stack) - 1
        lists[i], fresh = step
        if i + 1 == n:
            yield [frozenset(L) for L in lists]
        else:
            stack.append(_list_choices(k, fresh))


def is_k_choosable(g: Graph, k: int, max_nodes: int = DEFAULT_CHOOSABILITY_BUDGET) -> ChoosabilityResult:
    """Decide whether every assignment of k-color lists admits a coloring.

    Degeneracy at most k-1 certifies the positive answer outright.
    Otherwise enumerate canonical assignments (first-use color labels)
    and run the exact solver on each; a failing assignment is returned
    as the witness.  The node budget covers both the enumeration and the
    solver; running out yields an inconclusive verdict, never a guess,
    with nodes_used max_nodes + 1: the node that ran out.
    """
    if k < 1:
        raise ValueError("k must be positive")
    d, _ = degeneracy(g)
    if d <= k - 1:
        return ChoosabilityResult(CHOOSABLE, None, 0)
    return _choosable_by_search(g, k, max_nodes)


def _choosable_by_search(g: Graph, k: int, max_nodes: int) -> ChoosabilityResult:
    """is_k_choosable without the degeneracy shortcut."""
    nodes = 0
    try:
        for assignment in _canonical_assignments(g.n, k):
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceeded(nodes, max_nodes, "choosability")
            found, used = _search(g, assignment, max_nodes - nodes)
            nodes += used
            if found is None:
                return ChoosabilityResult(NOT_CHOOSABLE, assignment, nodes)
    except BudgetExceeded:
        return ChoosabilityResult(INCONCLUSIVE, None, max_nodes + 1)
    return ChoosabilityResult(CHOOSABLE, None, nodes)
