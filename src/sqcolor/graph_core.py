"""Core graph type and the metrics the rest of the package is built on.

Vertices are dense integers 0..n-1.  Graphs are simple (no loops, no
parallel edges) and immutable after construction; derived graphs are new
objects.  Infinite distances and infinite girth use math.inf, which is
deliberately distinct from every natural number and compares correctly.

Each primitive has one implementation here: the distance-2
neighbourhood (square_neighbors), the depth-bounded BFS (ball, which
distance runs unbounded), the component walk (adjacency_components) and
the blocks (biconnected_components), from which the cut vertices and
the reducer's block map of 2-vertices are read off.  The first three
take any adjacency sequence, so the reducer's, the sampler's and the
planarity test's mutable adjacencies of sets use them too.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Sequence

INF = math.inf


class Graph:
    """Undirected simple graph with sorted adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adjsets = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if v in adjsets[u]:
                raise ValueError(f"parallel edge ({u},{v})")
            adjsets[u].add(v)
            adjsets[v].add(u)
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in adjsets)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """Return all edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def max_degree(g: Graph) -> int:
    """Return the maximum vertex degree, 0 for an edgeless graph."""
    return max((len(a) for a in g.adj), default=0)


def is_subcubic(g: Graph) -> bool:
    """Return True when every vertex has degree at most 3."""
    return max_degree(g) <= 3


def distance(g: Graph, u: int, v: int) -> float:
    """Return the length of a shortest u-v path, math.inf if none."""
    return ball(g.adj, u, INF).get(v, INF)


def ball(adj: Sequence[Iterable[int]], s: int, radius: int) -> dict[int, int]:
    """Return {v: dist(s, v)} for the vertices within distance radius of
    s; adj[u] holds the neighbours of u.  The BFS stops at that depth or
    when a level adds nothing, so it costs the ball's size at any radius.
    """
    dist = {s: 0}
    frontier = [s]
    depth = 0
    while frontier and depth < radius:
        depth += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return dist


def adjacency_components(adj: Sequence[Iterable[int]]) -> list[list[int]]:
    """Return the components of adj, one list each in breadth-first order
    from its smallest vertex; adj[v] holds the neighbours of v."""
    seen = [False] * len(adj)
    out = []
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for u in comp:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        out.append(comp)
    return out


def is_connected(g: Graph) -> bool:
    """Return True when the graph has one component (true for n <= 1)."""
    return len(adjacency_components(g.adj)) <= 1


def components(g: Graph) -> list[list[int]]:
    """Return the vertex sets of the connected components, sorted."""
    return [sorted(comp) for comp in adjacency_components(g.adj)]


def square_neighbors(adj: Sequence[Iterable[int]], v: int) -> set[int]:
    """Return the vertices at distance 1 or 2 from v; adj[u] holds the
    neighbours of u."""
    near = set(adj[v])
    for u in adj[v]:
        near.update(adj[u])
    near.discard(v)
    return near


def square(g: Graph) -> Graph:
    """Return the square graph: edges between vertices at distance 1 or 2."""
    edges = [(u, v) for u in range(g.n) for v in square_neighbors(g.adj, u) if u < v]
    return Graph(g.n, edges)


def girth(g: Graph) -> float:
    """Return the length of a shortest cycle, math.inf for a forest."""
    return _shortest_cycle(g, INF)


def girth_at_least(g: Graph, k: float) -> bool:
    """Return True when g has no cycle shorter than k.

    The search stops at depth about k/2 from every vertex, so at bounded
    degree and small k it takes time linear in n.
    """
    return _shortest_cycle(g, k) >= k


def _shortest_cycle(g: Graph, cap: float) -> float:
    """Return min(girth, cap).

    Per-source BFS: a non-tree edge (u, v) seen while scanning u closes a
    walk of length dist[u] + dist[v] + 1 through the source.  The walk
    contains a cycle no longer than itself, so the minimum over all
    sources and edges is exactly the girth.  A vertex is scanned only
    while it can still close a walk shorter than the best so far, which
    starts at cap; per-source state lives in dicts, so a small cap makes
    each source cost O(1) at bounded degree.
    """
    best = cap
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        q = deque([s])
        while q:
            u = q.popleft()
            du = dist[u]
            if 2 * du >= best - 1:
                continue
            for w in g.adj[u]:
                dw = dist.get(w)
                if dw is None:
                    dist[w] = du + 1
                    parent[w] = u
                    q.append(w)
                elif parent[u] != w:
                    cand = du + dw + 1
                    if cand < best:
                        best = cand
    return best


def cut_vertices(g: Graph) -> set[int]:
    """Return the articulation points: the vertices that lie in two or
    more blocks of biconnected_components(g)."""
    seen: set[int] = set()
    cuts: set[int] = set()
    for block in biconnected_components(g):
        cuts |= block & seen
        seen |= block
    return cuts


def biconnected_components(g: Graph) -> list[set[int]]:
    """Return the vertex sets of the biconnected components (blocks).

    Bridges show up as 2-vertex blocks.  Two vertices lie on a common
    cycle exactly when some block with at least 3 vertices contains both.
    Iterative lowpoint DFS: vertices are stacked as they are discovered,
    and when a child u of p finishes with low[u] >= disc[p], p and the
    vertices stacked from u on form a block.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    blocks: list[set[int]] = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        found = [root]
        stack = [(root, -1, iter(g.adj[root]), 0)]
        while stack:
            u, parent, it, at = stack[-1]
            for w in it:
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, u, iter(g.adj[w]), len(found)))
                    found.append(w)
                    break
                if w != parent and disc[w] < low[u]:
                    low[u] = disc[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[u] >= disc[p]:
                        blocks.append({p, *found[at:]})
                        del found[at:]
                    elif low[u] < low[p]:
                        low[p] = low[u]
    return blocks


def induced_subgraph(g: Graph, keep: Sequence[int]) -> tuple[Graph, list[int]]:
    """Return the induced subgraph on keep plus the old-id lookup.

    The new graph uses ids 0..len(keep)-1; old_ids[new] is the original
    vertex id.
    """
    old_ids = sorted(keep)
    new_of = {v: i for i, v in enumerate(old_ids)}
    edges = []
    for v in old_ids:
        for w in g.adj[v]:
            if w in new_of and v < w:
                edges.append((new_of[v], new_of[w]))
    return Graph(len(old_ids), edges), old_ids


def add_vertex(g: Graph, attach_to: Sequence[int]) -> Graph:
    """Return a new graph with one extra vertex joined to attach_to."""
    new = g.n
    edges = g.edges() + [(u, new) for u in attach_to]
    return Graph(g.n + 1, edges)
