"""Core graph type and the metrics the rest of the package is built on.

Vertices are dense integers 0..n-1.  Graphs are simple (no loops, no
parallel edges) and immutable after construction; derived graphs are new
objects.  Infinite distances and infinite girth use math.inf, which is
deliberately distinct from every natural number and compares correctly.

Graph(n, edges) checks every edge.  Code whose rows are sorted,
symmetric and simple by construction builds through Graph._from_rows,
which checks nothing: square, add_vertex, which the enumeration grows
each child with, random_instance's final graph, and the parsers on
graph6 and on text edges in writer order.  Both constructors end in one
helper, which sets n, adj, m and an empty memo.

girth and girth_at_least share one kernel, _girth_below.  For a bound
of at most 6 it first deletes vertices of degree <= 2 as the colorer's
peel does, and probes the short paths between the two neighbours of
each 2-vertex it deletes; a member of the class is deleted in full, so
there girth_at_least(g, 6) is one linear pass.  What that leaves has
no vertex of degree below 2, so it is its own 2-core; for a larger
bound core_adjacency strips the leaves.  The 2-core goes to the general
stage (_core_girth): it reads each cycle component off its length and
grows spheres from each vertex of degree >= 3, up to the shortest cycle
found so far, or up to k for girth_at_least, which for k > n only asks
whether g is a forest.  The deletion's probe is a scan
of its own beside _short_or_four_path: it reads a Graph's tuple rows
under gone marks, while _short_or_four_path reads the peel's mutated
sets and has to find the four-edge path too, and sharing it would mean
copying every row into a set.

Each primitive has one implementation here: the distance-2
neighbourhood (square_neighbors), the depth-bounded BFS (ball, which
distance runs unbounded), the component walk (adjacency_components),
the scan for a short or a four-edge path between the neighbours of a
2-vertex (_short_or_four_path, which finds a short cycle or closes a
six-cycle for the peel and the six-cycle detector alike), the 2-core
(core_adjacency, which girth strips leaves with above bound 6) and the blocks
(biconnected_components), from which the cut vertices and the audit's
block map of 2-vertices are read off.  All but the last take any adjacency sequence, so the peel's,
the sampler's and the planarity test's mutable adjacencies of sets use
them too.

A fact that several functions read about one graph (its component
count, maximum degree, girth verdict, block map of 2-vertices, least
cut 2-vertex, close pair of 2-vertices) is kept on the graph:
derived(g, fact, *args) computes fact(g, *args) once, keyed by fact and
args, in g's private memo.  That is sound because a Graph is never
changed after __init__: its rows are tuples, and nothing writes n, adj
or m again.  No value kept refers back to g, so a graph and its memo are
freed together by reference counting.  keep(g, value, fact, *args)
stores a fact that a caller has proved another way: the colorer's peel
certifies girth >= 6 as it runs, and keeps girth_at_least(g, 6) for the
charge audit, which would otherwise run the girth kernel again.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

INF = math.inf


class Graph:
    """Undirected simple graph with sorted adjacency; m, the edge count,
    is counted once at construction, and derived fills the memo _facts.

    Graph(n, edges) raises ValueError on a negative n, an edge out of
    range, a loop or a parallel edge, the first in edges' order."""

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
        self._take(tuple(tuple(sorted(s)) for s in adjsets))

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[int, ...], ...]) -> Graph:
        """The graph whose row v is rows[v], taken as it is.  rows must be
        a tuple of sorted tuples, symmetric and simple (no loop, no
        repeat); nothing is checked, so only code whose rows are right by
        construction calls this."""
        g = cls.__new__(cls)
        g._take(rows)
        return g

    def _take(self, rows: tuple[tuple[int, ...], ...]) -> None:
        self.n = len(rows)
        self.adj = rows
        self.m = sum(map(len, rows)) // 2
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


def keep(g: Graph, value, fact, *args) -> None:
    """Store value as fact(g, *args) in g's memo, for a caller that has
    proved it another way, so that derived reads it and never computes
    it; the same rules hold as for derived's values."""
    g._facts[(fact, *args)] = value


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


def adjacency_components(adj: Sequence[Iterable[int]], sources: Optional[Iterable[int]] = None) -> list[list[int]]:
    """Return the components of adj, one list each in breadth-first order
    from its smallest vertex; adj[v] holds the neighbours of v.  With
    sources, an increasing sequence of vertices, only the components that
    hold one of them are walked, each from its smallest source."""
    seen = [False] * len(adj)
    out = []
    for s in range(len(adj)) if sources is None else sources:
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


def _short_or_four_path(adj, x: int, y: int, v: int):
    """One scan of the paths from x to y that avoid v, where x and y are
    the neighbours of the 2-vertex v (attached to them in adj or not).

    Returns a path (x, ..., y) of at most 3 edges on distinct vertices if
    there is one: with v it closes a cycle of length <= 5.  Otherwise the
    first path (x, a, b, c, y) of 4 edges, in the order of adj
    (lexicographic for a Graph's sorted adj): with v it closes a
    six-cycle.  Otherwise None.

    The scan walks a in N(x) - v, then b in N(a) - x.  a is y, or lies in
    N(y), or some b lies in N(y): that is a short path.  Until the first
    four-edge path is found, each b also looks for a c in N(b) that lies
    in N(y).  A short path found later still wins, so every a and b is
    scanned.  With no short path, c is none of a, x, y and v, and so
    (x, a, b, c, y) is a path; with one, the four-edge path is dropped.
    """
    ay = adj[y]
    four = None
    for a in adj[x]:
        if a == v:
            continue
        if a == y:
            return (x, y)
        if a in ay:
            return (x, a, y)
        for b in adj[a]:
            if b == x:
                continue
            if b in ay:
                return (x, a, b, y)
            if four is None:
                for c in adj[b]:
                    if c in ay:
                        four = (x, a, b, c, y)
                        break
    return four


def square(g: Graph) -> Graph:
    """Return the square graph: edges between vertices at distance 1 or 2.
    Row v is v's square_neighbors, sorted: distance is symmetric, and v is
    discarded from its own, so the rows are right by construction."""
    adj = g.adj
    return Graph._from_rows(tuple(tuple(sorted(square_neighbors(adj, v))) for v in range(g.n)))


def girth(g: Graph) -> float:
    """Return the length of a shortest cycle, math.inf for a forest: the
    girth kernel _girth_below with no bound."""
    return _girth_below(g.adj, INF)


def girth_at_least(g: Graph, k: float) -> bool:
    """Return True when g has no cycle shorter than k.

    A graph with a cycle has girth at most n, so for k > n (math.inf
    included) the answer is whether g is a forest: m = n - #components.
    Otherwise girth's kernel decides, with its spheres cut off at k.  For
    k <= 6 it first deletes vertices of degree <= 2, which decides alone
    on every member of the class: girth_at_least(g, 6) is then one
    linear pass, the check that the peel makes as it colors.
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

    For bound <= 6 a first stage eliminates vertices of degree <= 2, as
    the colorer's peel does (_eliminate_below_six).  It lowers best to
    the shortest cycle it sees, and what it leaves, if anything, goes to
    the sphere stage (_core_girth) with best as its bound.  That rest has
    minimum degree >= 2, since every vertex whose live degree fell to 1
    or 0 was deleted, so it is its own 2-core and goes as it is.  Every
    member of the class is eliminated in full, so on it the check is one
    linear pass.  A larger bound strips leaves with core_adjacency.
    """
    best = bound
    if bound <= 6:
        best, core = _eliminate_below_six(adj, bound)
        if core is None:
            return best
    else:
        core = core_adjacency(adj)
    return _core_girth(core, best)


def _core_girth(core, best) -> float:
    """The girth of the graph core, a 2-core given by its rows (a deleted
    vertex has an empty row), if it is less than best, else best.

    A component of the 2-core whose vertices all have degree 2 there is a
    cycle, read off its length.  In any other component every cycle
    passes through a branch vertex (one of degree >= 3 in the 2-core),
    since a cycle of 2-vertices would be a component by itself.  From
    each branch vertex s the spheres S_1 = core[s], S_2, ... grow by set
    unions.  A shortest cycle is isometric, so from each of its vertices
    one of length 2d + 1 shows as an edge inside S_d, and one of length
    2d + 2 as a vertex of S_{d+1} reached from two vertices of S_d:
    |S_{d+1}| < the sum of deg - 1 over S_d.  Conversely each of those
    closes a walk through s of that length, which holds a cycle no
    longer.  So the first such level from any source bounds the girth
    from above, and from a vertex of a shortest cycle it gives the girth.
    The spheres stop at the level d where 2d + 1 reaches the best length
    so far.

    There is no early exit: a graph with a cycle shorter than best is
    still read in full.  That stays linear in n at bounded degree, and
    only input outside the class (girth < 6) pays for it.  A long cycle,
    or a theta graph, takes linear time; many branch vertices far apart
    on long cycles still cost up to quadratic time.
    """
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


def _eliminate_below_six(adj, bound):
    """Delete the vertices of degree <= 2 of the graph adj, one at a time,
    as the peel does; returns (best, rest).  best is the shortest cycle
    that the deletions saw, or bound (<= 6) if none was shorter.  rest is
    None once every vertex is gone, adj itself if none is, and otherwise
    the adjacency of what is left, with an empty row for each deleted
    vertex.  Each vertex left keeps >= 2 live neighbours, so rest is a
    2-core.

    A worklist pops the vertices whose live degree fell to 2 or less; it
    reads the tuple rows of adj in place, with a live-degree list and
    gone marks, and copies no row.  A leaf, or a vertex with no live
    neighbour, is deleted.  A 2-vertex v with live neighbours x and y is
    deleted after one probe of the x...y paths of at most 3 edges that
    avoid v: y in N(x) (a 3-cycle), a live a in N(x) with a in N(y) (a
    4-cycle), or b in N(a) with b in N(y) (a 5-cycle).  v is marked gone
    before its probe, so a is never v.  b is never v, since v's only live
    neighbours are x and y, and never x, since y is not in N(x) there; so
    each path found closes a cycle with v.

    This is sound because only deletions happen.  A cycle C stays whole
    until its first deleted vertex v, which then has live degree 2 and
    C's two neighbours as its live neighbours.  If C is shorter than
    bound, it has at most 5 edges, so C - v is an x...y path of at most 3
    live edges, and the probe at v sees it.  A cycle with no vertex
    deleted is left whole in rest.

    A 2-vertex whose probe would read a row longer than 3 is left in
    place, so every probe costs O(1): without this guard a K2,n with two
    vertices on each of its paths costs O(n) per probe.  rest holds what
    the guard left and any stall at minimum degree 3.  A subcubic graph
    never meets the guard, and a member of the class never stalls: each
    of its subgraphs has a vertex of degree <= 2.
    """
    deg = [len(row) for row in adj]
    gone = [False] * len(adj)
    stack = [v for v, d in enumerate(deg) if d <= 2]
    best = bound
    while stack:
        v = stack.pop()
        if gone[v]:
            continue
        gone[v] = True
        x = y = -1
        for u in adj[v]:
            if not gone[u]:
                if x < 0:
                    x = u
                else:
                    y = u
        if y >= 0:
            if best > 3:
                ax, ay = adj[x], adj[y]
                if len(ax) > 3 or len(ay) > 3:
                    gone[v] = False
                    continue
                if y in ax:
                    best = 3
                elif best > 4:
                    found = best
                    for a in ax:
                        if gone[a]:
                            continue
                        if a in ay:
                            found = 4
                            break
                        if found > 5:
                            row = adj[a]
                            if len(row) > 3:
                                found = 0
                                break
                            for b in row:
                                if b in ay:
                                    found = 5
                                    break
                    if not found:
                        gone[v] = False
                        continue
                    best = found
            deg[y] -= 1
            if deg[y] <= 2:
                stack.append(y)
        if x >= 0:
            deg[x] -= 1
            if deg[x] <= 2:
                stack.append(x)
    if False not in gone:
        return best, None
    if True not in gone:
        return best, adj
    return best, [() if gone[v] else [w for w in row if not gone[w]] for v, row in enumerate(adj)]


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
    """Return a new graph with one extra vertex, g.n, joined to attach_to.

    The new vertex is the largest id, so each row it joins stays sorted
    with it appended, and the graph is built from g's rows.  A repeated
    or out-of-range attach vertex goes through Graph's checks instead,
    which raise their ValueError."""
    new = g.n
    row = tuple(sorted(attach_to))
    if not all(0 <= s < new for s in row) or len(set(row)) < len(row):
        return Graph(new + 1, g.edges() + [(u, new) for u in attach_to])
    rows = list(g.adj)
    for s in row:
        rows[s] += (new,)
    rows.append(row)
    return Graph._from_rows(tuple(rows))
