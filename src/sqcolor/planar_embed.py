"""Combinatorial plane embeddings: rotation systems and face tracing.

A rotation system stores, for each vertex, the cyclic order of its
neighbors.  Faces are closed walks of directed edges; the successor of
(u, v) is (v, w) where w follows u in the rotation at v.  Face length
counts edge sides, so a bridge contributes 2 to the face containing it.
Embedding operations reject disconnected graphs; callers embed each
component separately.

is_planar decides planarity without an embedding.  A subcubic graph has
no K5 subdivision (its branch vertices need degree 4), so by Kuratowski
it is non-planar exactly when it contains a subdivided K3,3, whose six
branch vertices have degree 3 in the 2-core.  Most class members have
fewer, and then no planarity test runs at all; otherwise the test runs
on the cubic kernel, the 2-core with its 2-paths spliced, which is far
smaller than the graph.  check_class is the one membership test for the
coloring theorem's class (subcubic, girth at least 6, planar).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .errors import InconsistentRotation, NotInClass
from .graph_core import (
    Graph,
    adjacency_components,
    girth_at_least,
    is_connected,
    is_subcubic,
)


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic neighbor order per vertex."""

    rot: tuple[tuple[int, ...], ...]

    def validate(self, g: Graph) -> None:
        if len(self.rot) != g.n:
            raise InconsistentRotation(f"rotation has {len(self.rot)} rows for n={g.n}")
        for v in range(g.n):
            if tuple(sorted(self.rot[v])) != g.adj[v]:
                raise InconsistentRotation(f"rotation at vertex {v} does not match adjacency")


@dataclass(frozen=True)
class Face:
    """One face boundary walk, as a tuple of directed edges."""

    walk: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.walk)

    def vertices(self) -> tuple[int, ...]:
        """Vertices visited by the walk, with repetition."""
        return tuple(u for u, _ in self.walk)


def faces(g: Graph, rs: RotationSystem) -> list[Face]:
    """Trace all faces of the embedding given by rs."""
    if not is_connected(g):
        raise ValueError("face tracing requires a connected graph")
    rs.validate(g)
    if g.n == 1 and g.m == 0:
        # a single vertex in the plane bounds one face
        return [Face(())]
    pos = {}
    for v in range(g.n):
        for i, u in enumerate(rs.rot[v]):
            pos[(u, v)] = i
    seen = set()
    out = []
    darts = [(u, v) for u in range(g.n) for v in rs.rot[u]]
    for start in sorted(darts):
        if start in seen:
            continue
        walk = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            walk.append(cur)
            u, v = cur
            i = pos[(u, v)]
            w = rs.rot[v][(i + 1) % len(rs.rot[v])]
            cur = (v, w)
        out.append(Face(tuple(walk)))
    return out


def euler_genus_check(g: Graph, rs: RotationSystem) -> bool:
    """Return True when n - m + f = 2 for the faces traced from rs."""
    f = len(faces(g, rs))
    return g.n - g.m + f == 2


def find_planar_embedding(g: Graph) -> RotationSystem | None:
    """Return a rotation system with n - m + f = 2, or None when none exists.

    The search is delegated to networkx's linear-time planarity test; the
    returned rotation is re-validated here by tracing faces and checking
    the Euler count, so a wrong embedding cannot slip through.
    """
    if not is_connected(g):
        raise ValueError("embedding requires a connected graph")
    if g.n == 1:
        return RotationSystem(((),))
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    ok, emb = nx.check_planarity(nxg)
    if not ok:
        return None
    rot = tuple(tuple(emb.neighbors_cw_order(v)) for v in range(g.n))
    rs = RotationSystem(rot)
    if not euler_genus_check(g, rs):
        raise AssertionError("planarity backend produced a non-planar rotation")
    return rs


def is_planar(g: Graph) -> bool:
    """Return True when g, connected or not, has a plane embedding.

    Leaves are stripped repeatedly, which leaves the 2-core.  A graph is
    planar when its 2-core has fewer than six vertices of degree >= 3
    and fewer than five of degree >= 4, since a subdivided K3,3 or K5
    needs that many branch vertices; at degree <= 3 this reads "fewer
    than six 3-vertices", and no planarity test runs.  Otherwise every
    2-vertex whose two neighbours are not adjacent is spliced out, which
    leaves a simple graph homeomorphic to the 2-core, and each component
    of it that still has enough branch vertices goes through
    find_planar_embedding, so every positive answer is Euler-checked.
    """
    if _few_branch_vertices(len(a) for a in g.adj):
        return True
    adj = [set(a) for a in g.adj]
    stack = [v for v in range(g.n) if len(adj[v]) <= 1]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            adj[u].discard(v)
            if len(adj[u]) == 1:
                stack.append(u)
        adj[v].clear()
    if _few_branch_vertices(len(a) for a in adj):
        return True
    for v in range(g.n):
        if len(adj[v]) == 2:
            a, b = adj[v]
            if b not in adj[a]:
                adj[a].discard(v)
                adj[b].discard(v)
                adj[a].add(b)
                adj[b].add(a)
                adj[v].clear()
    for comp in adjacency_components(adj):
        if _few_branch_vertices(len(adj[v]) for v in comp):
            continue
        new_of = {v: i for i, v in enumerate(comp)}
        kernel = Graph(len(comp), [(new_of[v], new_of[w]) for v in comp for w in adj[v] if v < w])
        if find_planar_embedding(kernel) is None:
            return False
    return True


def _few_branch_vertices(degrees) -> bool:
    """True when the degrees rule out a subdivided K3,3 (six of degree
    >= 3) and a subdivided K5 (five of degree >= 4)."""
    deg3 = deg4 = 0
    for d in degrees:
        if d >= 3:
            deg3 += 1
            if d >= 4:
                deg4 += 1
    return deg3 < 6 and deg4 < 5


def check_degree_and_girth(g: Graph) -> None:
    """Raise NotInClass unless g is subcubic with girth at least 6."""
    if not is_subcubic(g):
        raise NotInClass("graph has a vertex of degree above 3")
    if not girth_at_least(g, 6):
        raise NotInClass("girth is below 6")


def check_class(g: Graph) -> None:
    """Raise NotInClass unless g is subcubic, of girth at least 6 and planar.

    g may be disconnected.  Planarity is decided by is_planar, so most
    class members pass without any embedding being built; callers that
    need a rotation system call check_degree_and_girth and then
    find_planar_embedding themselves.
    """
    check_degree_and_girth(g)
    if not is_planar(g):
        raise NotInClass("graph is not planar")
