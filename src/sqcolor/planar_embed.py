"""Combinatorial plane embeddings: rotation systems and face tracing.

A rotation system stores, for each vertex, the cyclic order of its
neighbors.  Faces are closed walks of directed edges; the successor of
(u, v) is (v, w) where w follows u in the rotation at v.  Face length
counts edge sides, so a bridge contributes 2 to the face containing it.
Embedding operations reject disconnected graphs; callers embed each
component separately.

Both planarity entry points work on the cubic kernel (_kernel): the
2-core with its 2-paths spliced, which is homeomorphic to the 2-core and
so planar exactly when the graph is, and far smaller than it.
is_planar decides planarity without an embedding.  A subcubic graph has
no K5 subdivision (its branch vertices need degree 4), so by Kuratowski
it is non-planar exactly when it contains a subdivided K3,3, whose six
branch vertices have degree 3 in the 2-core.  Most class members have
fewer, and then no planarity test runs at all; otherwise networkx tests
the kernel.  find_planar_embedding embeds the kernel (with networkx
unless its rotation is forced), then puts back the spliced 2-vertices,
whose rotations are forced, and the pendant trees, which fit in any
angle, and Euler-checks the faces it traces.  Any plane embedding
serves the charge audit, which takes those faces too.  check_class is
the one membership test for the coloring theorem's class (subcubic,
girth at least 6, planar).
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


def _kernel(adj):
    """The cubic kernel of a graph given by its adjacency.

    Leaves are stripped repeatedly, which leaves the 2-core; then every
    2-vertex whose two neighbours are not adjacent is spliced out, in
    vertex order, which leaves a simple graph homeomorphic to the 2-core.
    Returns (kadj, core, splices).  kadj[v] lists v's kernel neighbours,
    and is empty off the kernel; splicing v out puts b in v's place at a
    and a in v's place at b.  core[v] says whether v is in the 2-core.
    splices lists (v, a, b) in splice order, v having joined a and b.
    """
    kadj = [list(a) for a in adj]
    stack = [v for v in range(len(kadj)) if len(kadj[v]) <= 1]
    while stack:
        v = stack.pop()
        for u in kadj[v]:
            kadj[u].remove(v)
            if len(kadj[u]) == 1:
                stack.append(u)
        kadj[v] = []
    core = [bool(a) for a in kadj]
    splices = []
    for v in range(len(kadj)):
        if len(kadj[v]) == 2:
            a, b = kadj[v]
            if b not in kadj[a]:
                kadj[a][kadj[a].index(v)] = b
                kadj[b][kadj[b].index(v)] = a
                kadj[v] = []
                splices.append((v, a, b))
    return kadj, core, splices


def _embed(g: Graph) -> tuple[RotationSystem, list[Face]] | None:
    """Embed connected g by embedding its cubic kernel; return the rotation
    and its faces, or None when g is not planar.

    The kernel is homeomorphic to the 2-core, so it is planar exactly when
    g is.  Without a vertex of degree >= 3 it is empty or a triangle and
    its rotation is forced; otherwise networkx embeds it.  The splices are
    undone in reverse order (v takes b's place at a and a's place at b),
    each core vertex gets its pendant-tree neighbours after its core ones,
    and tree vertices keep their adjacency order.  The faces are traced
    once and Euler-checked, so a wrong rotation cannot slip through.
    """
    if not is_connected(g):
        raise ValueError("embedding requires a connected graph")
    # A kernel with no vertex of degree >= 3 (empty or a triangle) is its
    # own rotation.
    rot, core, splices = _kernel(g.adj)
    kernel = [v for v in range(g.n) if rot[v]]
    if any(len(rot[v]) >= 3 for v in kernel):
        nxg = nx.Graph()
        nxg.add_nodes_from(kernel)
        # Sorted, so that networkx's input does not depend on the splices.
        nxg.add_edges_from([(v, w) for v in kernel for w in sorted(rot[v]) if v < w])
        ok, emb = nx.check_planarity(nxg)
        if not ok:
            return None
        for v in kernel:
            rot[v] = list(emb.neighbors_cw_order(v))
    for v, a, b in reversed(splices):
        rot[a][rot[a].index(b)] = v
        rot[b][rot[b].index(a)] = v
        rot[v] = [a, b]
    rs = RotationSystem(tuple(
        tuple(rot[v]) + tuple(w for w in g.adj[v] if not core[w]) if core[v] else g.adj[v]
        for v in range(g.n)
    ))
    face_list = faces(g, rs)
    if g.n - g.m + len(face_list) != 2:
        raise AssertionError("kernel embedding lifted to a non-planar rotation")
    return rs, face_list


def find_planar_embedding(g: Graph) -> RotationSystem | None:
    """Return a rotation system with n - m + f = 2, or None when none exists.

    g must be connected.  Only the cubic kernel goes to networkx's
    linear-time planarity test; see _embed.
    """
    found = _embed(g)
    return None if found is None else found[0]


def is_planar(g: Graph) -> bool:
    """Return True when g, connected or not, has a plane embedding.

    A graph is planar when it has fewer than six vertices of degree >= 3
    and fewer than five of degree >= 4, since a subdivided K3,3 or K5
    needs that many branch vertices; at degree <= 3 this reads "fewer
    than six 3-vertices", and no planarity test runs.  The same holds for
    the cubic kernel (_kernel), which has the 2-core's branch vertices.
    Each component of the kernel that still has enough of them goes
    through find_planar_embedding, so every positive answer is
    Euler-checked.
    """
    if _few_branch_vertices(len(a) for a in g.adj):
        return True
    kadj, _, _ = _kernel(g.adj)
    if _few_branch_vertices(len(a) for a in kadj):
        return True
    for comp in adjacency_components(kadj):
        if _few_branch_vertices(len(kadj[v]) for v in comp):
            continue
        new_of = {v: i for i, v in enumerate(comp)}
        kernel = Graph(len(comp), [(new_of[v], new_of[w]) for v in comp for w in kadj[v] if v < w])
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
    class members pass without any embedding being built.  Callers that
    need a rotation system embed connected g themselves: the charge audit
    calls check_degree_and_girth and then _embed, which also returns the
    faces its Euler check traced.
    """
    check_degree_and_girth(g)
    if not is_planar(g):
        raise NotInClass("graph is not planar")
