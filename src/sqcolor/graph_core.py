"""Core graph type and the metrics the rest of the package is built on.

Vertices are dense integers 0..n-1.  Graphs are simple (no loops, no
parallel edges) and immutable after construction; derived graphs are new
objects.  Infinite distances and infinite girth use math.inf, which is
deliberately distinct from every natural number and compares correctly.

girth and girth_at_least share one kernel, _girth_below: it reads each
cycle component of the 2-core (core_adjacency) off its length and grows
spheres from each vertex of degree >= 3 in the 2-core, up to the
shortest cycle found so far, or up to k for girth_at_least, which for
k > n only asks whether g is a forest.

Each primitive has one implementation here: the distance-2
neighbourhood (square_neighbors), the depth-bounded BFS (ball, which
distance runs unbounded), the component walk (adjacency_components),
the first path of four edges (_four_path, which closes a six-cycle for
the peel and the six-cycle detector alike), the 2-core (core_adjacency,
which girth strips leaves with) and the blocks (biconnected_components),
from which the cut vertices and the audit's block map of 2-vertices are
read off.  All but the last take any adjacency sequence, so the peel's,
the sampler's and the planarity test's mutable adjacencies of sets use
them too.

A fact that several functions read about one graph (its component
count, maximum degree, girth verdict, block map of 2-vertices, least
cut 2-vertex, close pair of 2-vertices) is kept on the graph:
derived(g, fact, *args) computes fact(g, *args) once, keyed by fact and
args, in g's private memo.  That is sound because a Graph is never
changed after __init__: its rows are tuples, and nothing writes n, adj
or m again.  No value kept refers back to g, so a graph and its memo are
freed together by reference counting.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

INF = math.inf


class Graph:
    """Undirected simple graph with sorted adjacency; m, the edge count,
    is counted once at construction, and derived fills the memo _facts."""

    __slots__ = ("n", "adj", "m", "_facts")

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
        self.m = sum(map(len, adjsets)) // 2
        self._facts = {}

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


def derived(g: Graph, fact, *args):
    """fact(g, *args), computed on the first request and then read from
    g's memo; fact must be pure, and its value must not refer to g."""
    key = (fact, *args)
    facts = g._facts
    if key not in facts:
        facts[key] = fact(g, *args)
    return facts[key]


def max_degree(g: Graph) -> int:
    """Return the maximum vertex degree, 0 for an edgeless graph."""
    return max((len(a) for a in g.adj), default=0)


def is_subcubic(g: Graph) -> bool:
    """Return True when every vertex has degree at most 3."""
    return derived(g, max_degree) <= 3


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


def component_count(g: Graph) -> int:
    """Return the number of connected components."""
    return len(adjacency_components(g.adj))


def is_connected(g: Graph) -> bool:
    """Return True when the graph has one component (true for n <= 1)."""
    return derived(g, component_count) <= 1


def square_neighbors(adj: Sequence[Iterable[int]], v: int) -> set[int]:
    """Return the vertices at distance 1 or 2 from v; adj[u] holds the
    neighbours of u."""
    near = set(adj[v])
    for u in adj[v]:
        near.update(adj[u])
    near.discard(v)
    return near


def _four_path(adj, x: int, y: int, avoid: int):
    """First path (x, a, b, c, y) of 4 edges on distinct vertices, none of
    them avoid, in the order of the adjacency adj (lexicographic for a
    Graph's sorted adj), or None; avoid is neither x nor y.  When x and y
    are the neighbours of avoid at girth >= 6, only the tests against
    going back (b != x, c != a) can fire; the others rule out shorter
    cycles."""
    for a in adj[x]:
        if a == y or a == avoid:
            continue
        for b in adj[a]:
            if b == x or b == y or b == avoid:
                continue
            for c in adj[b]:
                if c != a and c != x and c != avoid and y in adj[c]:
                    return (x, a, b, c, y)
    return None


def square(g: Graph) -> Graph:
    """Return the square graph: edges between vertices at distance 1 or 2."""
    edges = [(u, v) for u in range(g.n) for v in square_neighbors(g.adj, u) if u < v]
    return Graph(g.n, edges)


def girth(g: Graph) -> float:
    """Return the length of a shortest cycle, math.inf for a forest: the
    girth kernel _girth_below with no bound."""
    return _girth_below(g.adj, INF)


def girth_at_least(g: Graph, k: float) -> bool:
    """Return True when g has no cycle shorter than k.

    A graph with a cycle has girth at most n, so for k > n (math.inf
    included) the answer is whether g is a forest: m = n - #components.
    Otherwise girth's kernel decides, with its spheres cut off at k.
    """
    if k <= 3:
        return True
    n = g.n
    adj = g.adj
    if k > n:
        return 2 * (n - len(adjacency_components(adj))) == sum(len(a) for a in adj)
    return _girth_below(adj, k) >= k


def _girth_below(adj, bound) -> float:
    """The girth of the graph adj if it is less than bound, else bound.

    Every cycle lies in the 2-core.  A component of the 2-core whose
    vertices all have degree 2 there is a cycle, read off its length.  In
    any other component every cycle passes through a branch vertex (one
    of degree >= 3 in the 2-core), since a cycle of 2-vertices would be a
    component by itself.  From each branch vertex s the spheres S_1 =
    core[s], S_2, ... grow by set unions.  A shortest cycle is isometric,
    so from each of its vertices one of length 2d + 1 shows as an edge
    inside S_d, and one of length 2d + 2 as a vertex of S_{d+1} reached
    from two vertices of S_d: |S_{d+1}| < the sum of deg - 1 over S_d.
    Conversely each of those closes a walk through s of that length,
    which holds a cycle no longer.  So the first such level from any
    source bounds the girth from above, and from a vertex of a shortest
    cycle it gives the girth.  The spheres stop at the level d where
    2d + 1 reaches the best length so far.

    There is no early exit: a graph with a cycle shorter than bound is
    still read in full.  That stays linear in n at bounded degree, and
    only input outside the class (girth < 6) pays for it.  A long cycle,
    or a theta graph, takes linear time; many branch vertices far apart
    on long cycles still cost up to quadratic time.
    """
    core = core_adjacency(adj)
    best = bound
    sources = []
    for comp in adjacency_components(core):
        branch = [v for v in comp if len(core[v]) >= 3]
        if branch:
            sources += branch
        elif len(comp) > 1:
            best = min(best, len(comp))
    for s in sources:
        prev, cur = {s}, core[s]
        d = 1
        while 2 * d + 1 < best:
            nxt = set()
            want = 0
            for u in cur:
                nbrs = core[u]
                nxt.update(nbrs)
                want += len(nbrs) - 1
            nxt.difference_update(prev)
            if not nxt.isdisjoint(cur):
                best = 2 * d + 1
                break
            if len(nxt) < want:
                best = min(best, 2 * d + 2)
                break
            prev, cur = cur, nxt
            d += 1
    return best


def core_adjacency(adj) -> list[list[int]]:
    """The 2-core of the graph given by its adjacency: leaves are
    stripped repeatedly, and core[v] lists v's neighbours in the 2-core,
    in adj's order, and is empty off it."""
    core = [list(a) for a in adj]
    stack = [v for v in range(len(core)) if len(core[v]) <= 1]
    while stack:
        v = stack.pop()
        for u in core[v]:
            core[u].remove(v)
            if len(core[u]) == 1:
                stack.append(u)
        core[v] = []
    return core


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
