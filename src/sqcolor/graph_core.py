"""Core graph type and the metrics the rest of the package is built on.

Vertices are dense integers 0..n-1.  Graphs are simple (no loops, no
parallel edges) and immutable after construction; derived graphs are new
objects.  Infinite distances and infinite girth use math.inf, which is
deliberately distinct from every natural number and compares correctly.

The class checks decide girth >= 6 with girth_at_least, a sphere test
that looks no further than distance 2 from each vertex at k = 6 and
for k > n only asks whether g is a forest.  girth, the exact value,
reads each cycle component of the 2-core (core_adjacency) off its
length and runs one BFS from each vertex of degree >= 3 in the 2-core;
girth_at_least decides 6 < k <= n (the sampler's --min-girth) the same
way, with the BFS pruned at depth k / 2.

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
    """Return the length of a shortest cycle, math.inf for a forest.

    Every cycle lies in the 2-core.  A component of the 2-core whose
    vertices all have degree 2 there is a cycle, and its length is its
    girth.  In any other component every cycle passes through a vertex of
    degree >= 3 in the 2-core, since a cycle of 2-vertices would be a
    component by itself.  So the pruned BFS of _shortest_cycle runs only
    from those vertices, within the 2-core, and starts from the shortest
    cycle component.  A long cycle, or a theta graph, takes linear time;
    many branch vertices far apart still cost up to quadratic time.
    """
    return _girth_below(g.adj, INF)


def _girth_below(adj, bound) -> float:
    """The girth of the graph adj if it is less than bound, else bound:
    girth's 2-core reading, with cycles of length >= bound pruned."""
    core = core_adjacency(adj)
    best = bound
    sources = []
    for comp in adjacency_components(core):
        branch = [v for v in comp if len(core[v]) >= 3]
        if branch:
            sources += branch
        elif len(comp) > 1:
            best = min(best, len(comp))
    return _shortest_cycle(core, sources, best)


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


def girth_at_least(g: Graph, k: float) -> bool:
    """Return True when g has no cycle shorter than k.

    Sphere test.  A shortest cycle is isometric, so from each of its
    vertices v it shows up in the spheres S_1 = adj[v], ..., S_r around
    v, r = (k - 1) // 2: a cycle of length 2d + 1 as an edge inside S_d,
    one of length 2d + 2 as a vertex of S_{d+1} with two neighbours in
    S_d.  Conversely each of those closes a walk through v of that
    length, which holds a cycle no longer.  So the spheres of each v are
    grown by set unions, and g has a cycle shorter than k exactly when
      - a new sphere S_{d+1}, d < r, meets S_d (an odd cycle), or
      - S_{d+1} has fewer vertices than the sum of deg - 1 over S_d (two
        paths from v meet: an even cycle), or
      - for even k, the spheres S_r of the two ends of some edge meet
        (an odd closed walk of length k - 1 through that edge).
    At bounded degree and k <= 6 this takes time linear in n.  Beyond
    that the spheres grow with k, up to a whole long cycle from each of
    its vertices, so for 6 < k <= n girth's 2-core reading decides: a
    cycle component is read off its length and the pruned BFS runs from
    the branch vertices only, no deeper than k / 2.  A graph with a
    cycle has girth at most n, so for k > n (math.inf included) the
    answer is whether g is a forest: m = n - #components.
    """
    if k <= 3:
        return True
    n = g.n
    adj = g.adj
    if k > n:
        return 2 * (n - len(adjacency_components(adj))) == sum(len(a) for a in adj)
    if k > 6:
        return _girth_below(adj, k) >= k
    k = math.ceil(k)
    r = (k - 1) // 2
    outer: list | None = [] if k % 2 == 0 else None
    for v in range(n):
        prev, cur = (v,), adj[v]
        for _ in range(r - 1):
            nxt = set()
            want = 0
            for u in cur:
                nbrs = adj[u]
                nxt.update(nbrs)
                want += len(nbrs) - 1
            nxt.difference_update(prev)
            if len(nxt) < want or not nxt.isdisjoint(cur):
                return False
            prev, cur = cur, nxt
            if not cur:
                break
        if outer is not None:
            outer.append(cur if r > 1 else set(cur))
    if outer is not None:
        for u in range(n):
            sphere = outer[u]
            for w in adj[u]:
                if u < w and not outer[w].isdisjoint(sphere):
                    return False
    return True


def _shortest_cycle(adj, sources, best) -> float:
    """Return the least of best and the lengths of the cycles through
    the sources in the graph adj.

    Per-source BFS: a non-tree edge (u, v) seen while scanning u closes a
    walk of length dist[u] + dist[v] + 1 through the source.  The walk
    contains a cycle no longer than itself, and from a vertex of a
    shortest cycle the BFS finds that cycle's length.  A vertex is
    scanned only while it can still close a walk shorter than the best
    so far.
    """
    for s in sources:
        dist = {s: 0}
        parent = {s: -1}
        q = deque([s])
        while q:
            u = q.popleft()
            du = dist[u]
            if 2 * du >= best - 1:
                continue
            for w in adj[u]:
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
