"""Independent output checks for the benchmark.

Nothing here imports sqcolor: graphs are plain adjacency lists (a list of
neighbour lists indexed by vertex) that the benchmark built or decoded
itself, and every property is recomputed with a BFS written here.  Each
check returns None when the output is correct, else a one-line reason.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction

import networkx as nx

# Connected class members (subcubic, planar, girth >= 6) by vertex count,
# frozen from the graph6 corpus: 163 up to 10 vertices, 376 up to 11,
# 977 up to 12.
FROZEN_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 5, 7: 8, 8: 18, 9: 35, 10: 90, 11: 213, 12: 601}


def decode_graph6(line: str) -> list[list[int]]:
    """Adjacency lists of one graph6 line with at most 62 vertices."""
    data = [ord(ch) - 63 for ch in line.strip()]
    n = data[0]
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 size byte out of range: {line!r}")
    bits = [(byte >> shift) & 1 for byte in data[1:] for shift in range(5, -1, -1)]
    adj: list[list[int]] = [[] for _ in range(n)]
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i].append(j)
                adj[j].append(i)
            k += 1
    return adj


def edges_of(adj: list[list[int]]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]


def _within_two(adj: list[list[int]], source: int) -> list[int]:
    """Vertices at distance 1 or 2 from source, by a depth-bounded BFS."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if dist[u] == 2:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return [v for v, d in dist.items() if d > 0]


def check_coloring(adj: list[list[int]], lists: list[frozenset], colors) -> str | None:
    """Every vertex wears a color from its list; vertices at distance <= 2 differ."""
    n = len(adj)
    if colors is None:
        return "no coloring returned"
    if len(colors) != n:
        return f"coloring has {len(colors)} entries for {n} vertices"
    for v in range(n):
        if colors[v] not in lists[v]:
            return f"vertex {v} wears {colors[v]!r}, not in its list"
    for v in range(n):
        for u in _within_two(adj, v):
            if u > v and colors[u] == colors[v]:
                return f"vertices {v} and {u} are within distance 2 and share color {colors[v]}"
    return None


def check_audit(adj: list[list[int]], faces: int, initial_total, final_total,
                negative_vertices, has_negative_face: bool, has_config: bool,
                dichotomy_holds: bool) -> str | None:
    """Totals are -12, the face count obeys Euler, and the dichotomy holds.

    After the transfer rule a vertex of degree d ends at 2d - 6, plus 2 for
    a 2-vertex (it tails exactly two darts), so the negative vertices are
    exactly those of degree at most 1.
    """
    n = len(adj)
    m = sum(len(a) for a in adj) // 2
    if Fraction(initial_total) != -12 or Fraction(final_total) != -12:
        return f"totals are {initial_total} and {final_total}, not -12"
    if faces != 2 - n + m:
        return f"{faces} faces, Euler needs {2 - n + m}"
    want_negative = {v for v in range(n) if len(adj[v]) <= 1}
    if set(negative_vertices) != want_negative:
        return f"negative vertices {sorted(negative_vertices)}, expected {sorted(want_negative)}"
    holds = bool(want_negative) or has_negative_face or has_config
    if not (holds and dichotomy_holds):
        return "dichotomy violated"
    return None


def girth(adj: list[list[int]]) -> float:
    """Shortest cycle length by per-source BFS; inf for a forest."""
    best = float("inf")
    n = len(adj)
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def _connected(adj: list[list[int]]) -> bool:
    if not adj:
        return False
    seen = {0}
    queue = deque([0])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(adj)


def check_class_member(adj: list[list[int]], max_n: int) -> str | None:
    """Connected, subcubic, girth >= 6 and planar, with at most max_n vertices."""
    n = len(adj)
    if not 1 <= n <= max_n:
        return f"{n} vertices, outside 1..{max_n}"
    if any(len(a) > 3 for a in adj):
        return "a vertex has degree above 3"
    if not _connected(adj):
        return "graph is disconnected"
    g = girth(adj)
    if g < 6:
        return f"girth {g} is below 6"
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(edges_of(adj))
    if not nx.check_planarity(nxg)[0]:
        return "graph is not planar"
    return None


def check_enumeration(graphs: list[list[list[int]]], max_n: int) -> str | None:
    """Counts by vertex count match the frozen counts and every graph is in class."""
    counts = Counter(len(adj) for adj in graphs)
    want = {n: c for n, c in FROZEN_COUNTS.items() if n <= max_n}
    if dict(counts) != want:
        return f"counts by n {dict(sorted(counts.items()))} differ from frozen {want}"
    for adj in graphs:
        problem = check_class_member(adj, max_n)
        if problem is not None:
            return problem
    return None
