"""Combinatorial plane embeddings: rotation systems and face tracing.

A rotation system stores, for each vertex, the cyclic order of its
neighbors.  Faces are closed walks of directed edges; the successor of
(u, v) is (v, w) where w follows u in the rotation at v.  Face length
counts edge sides, so a bridge contributes 2 to the face containing it.
Embedding operations reject disconnected graphs; callers embed each
component separately.  check_class is the one membership test for the
coloring theorem's class (subcubic, girth at least 6, planar).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .errors import InconsistentRotation, NotInClass
from .graph_core import (
    Graph,
    components,
    girth_at_least,
    induced_subgraph,
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


def check_class(g: Graph) -> RotationSystem:
    """Return a plane rotation system of g, or raise NotInClass.

    g must be subcubic with girth at least 6 and planar.  Each component
    is embedded on its own and its rotations are written back in g's
    vertex ids; faces can be traced from the result when g is connected.
    """
    if not is_subcubic(g):
        raise NotInClass("graph has a vertex of degree above 3")
    if not girth_at_least(g, 6):
        raise NotInClass("girth is below 6")
    rot: list = [()] * g.n
    for comp in components(g):
        sub, old_ids = induced_subgraph(g, comp)
        rs = find_planar_embedding(sub)
        if rs is None:
            raise NotInClass("graph is not planar")
        for i, row in enumerate(rs.rot):
            rot[old_ids[i]] = tuple(old_ids[u] for u in row)
    return RotationSystem(tuple(rot))
