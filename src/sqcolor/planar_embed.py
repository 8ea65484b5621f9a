"""Combinatorial plane embeddings: rotation systems and face tracing.

A rotation system stores, for each vertex, the cyclic order of its
neighbors.  Faces are closed walks of directed edges; the successor of
(u, v) is (v, w) where w follows u in the rotation at v.  Face length
counts edge sides, so a bridge contributes 2 to the face containing it.
Embedding operations reject empty and disconnected graphs; callers embed
each component separately.

Planarity is decided on the cubic kernel (_kernel): the 2-core with its
2-paths spliced, homeomorphic to the 2-core and far smaller.  A subcubic
graph has no K5 subdivision (its branch vertices need degree 4), so by
Kuratowski it is non-planar exactly when it contains a subdivided K3,3,
whose six branch vertices have degree 3 in the 2-core.  _embed_kernel
embeds a kernel component (the one call into networkx) and _face_walks
traces the faces of every Euler check.  is_planar embeds only kernel
components with six such vertices, which most class members lack.
find_planar_embedding embeds the kernel, puts back the spliced
2-vertices (forced rotations) and pendant trees (any angle), and
Euler-checks its faces, which the charge audit takes too.  check_class
is the one membership test for the coloring theorem's class.
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
    """Trace all faces of the embedding given by rs on nonempty connected g.

    Face i starts at the i-th least dart (u, v) that no earlier face
    holds; the charge audit numbers faces by this index.
    """
    if g.n == 0:
        raise ValueError("face tracing requires a nonempty graph")
    if not is_connected(g):
        raise ValueError("face tracing requires a connected graph")
    rs.validate(g)
    if g.m == 0:
        return [Face(())]  # a single vertex in the plane bounds one face
    return [Face(walk) for walk in _face_walks(range(g.n), g.adj, rs.rot)]


def _face_walks(verts, order, rot) -> list[tuple[tuple[int, int], ...]]:
    """The face walks of the rotation rows rot on verts, each started at
    the first unwalked dart (u, v) for u in verts and v in order[u].  A
    dart (s, t) is marked walked at t's position in rot[s]."""
    seen = {v: [False] * len(rot[v]) for v in verts}
    walks = []
    for u in verts:
        for v in order[u]:
            s, t, i = u, v, rot[u].index(v)
            walk = []
            while not seen[s][i]:
                seen[s][i] = True
                walk.append((s, t))
                row = rot[t]
                i = (row.index(s) + 1) % len(row)
                s, t = t, row[i]
            if walk:
                walks.append(tuple(walk))
    return walks


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


def _embed_kernel(rot, comp) -> bool:
    """Give kernel component comp a plane rotation in rot, in place, or
    return False; the one call into networkx."""
    nxg = nx.Graph()
    nxg.add_nodes_from(comp)
    # Sorted, so that networkx's input does not depend on the splices.
    nxg.add_edges_from([(v, w) for v in comp for w in sorted(rot[v]) if v < w])
    ok, emb = nx.check_planarity(nxg)
    if ok:
        for v in comp:
            rot[v] = list(emb.neighbors_cw_order(v))
    return ok


def _embed(g: Graph) -> tuple[RotationSystem, list[Face]] | None:
    """Embed g (its caller checks it is connected) by its cubic kernel;
    return the rotation and its faces, or None when g is not planar.

    A kernel with no vertex of degree >= 3 is empty or a triangle, its
    own rotation.  The splices are undone in reverse order (v takes b's
    place at a and a's place at b), each core vertex gets its pendant-tree
    neighbours after its core ones, and tree vertices keep their adjacency
    order.  faces traces the faces once and they are Euler-checked.
    """
    rot, core, splices = _kernel(g.adj)
    kernel = [v for v in range(g.n) if rot[v]]
    if any(len(rot[v]) >= 3 for v in kernel) and not _embed_kernel(rot, kernel):
        return None
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
    """Return a rotation system with n - m + f = 2, or None when none
    exists, for nonempty connected g.  See _embed."""
    if g.n == 0 or not is_connected(g):
        raise ValueError("embedding requires a nonempty connected graph")
    found = _embed(g)
    return None if found is None else found[0]


def is_planar(g: Graph) -> bool:
    """Return True when g, connected or not, has a plane embedding.

    A graph is planar when it has fewer than six vertices of degree >= 3
    and fewer than five of degree >= 4, since a subdivided K3,3 or K5
    needs that many branch vertices; at degree <= 3 this reads "fewer
    than six 3-vertices", and no planarity test runs.  The same holds for
    the cubic kernel, which has the 2-core's branch vertices.  Each kernel
    component that still has enough goes to _embed_kernel, and its
    rotation is Euler-checked, so every positive answer is checked.
    """
    if _few_branch_vertices(len(a) for a in g.adj):
        return True
    rot, _, _ = _kernel(g.adj)
    if _few_branch_vertices(len(a) for a in rot):
        return True
    for comp in adjacency_components(rot):
        if _few_branch_vertices(len(rot[v]) for v in comp):
            continue
        if not _embed_kernel(rot, comp):
            return False
        m = sum(len(rot[v]) for v in comp) // 2
        if len(comp) - m + len(_face_walks(comp, rot, rot)) != 2:
            raise AssertionError("kernel embedding is a non-planar rotation")
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
    class members pass without any embedding being built; the charge
    audit, which needs the faces, calls check_degree_and_girth and _embed.
    """
    check_degree_and_girth(g)
    if not is_planar(g):
        raise NotInClass("graph is not planar")
