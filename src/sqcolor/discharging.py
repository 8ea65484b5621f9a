"""The paper's reducible configurations and the charge audit.

Four configuration types, one per reducible configuration: a vertex of
degree <= 1 (OneVertex), a cut 2-vertex (CutTwoVertex), a 2-vertex on a
six-cycle (SixCycleTwoVertex) and two 2-vertices within distance 3 on a
common cycle (SpacingViolation).  find_reducible_config returns the
first one present, from the six-cycle detector (find_sixcycle_two_vertex),
the block map of 2-vertices (two_vertex_blocks, which also answers every
cut 2-vertex question) and the spacing witness (find_spacing_violation):
the common cycle, read off the block itself when the block is a cycle
and otherwise off a unit flow of value 2 between the two 2-vertices.
find-config, reduce and the audit use them; coloring needs none of them.
Each type is a plain record of its witness's vertices and holds no
graph; the tests check a witness against the definition with their own
oracle, not with these detectors.

Vertices start at 2d(v) - 6 and faces at d(f) - 6, which sums to -12 on
any connected plane graph.  The single redistribution rule sends 1 from
a face to each incidence of a 2-vertex on its boundary walk; apply_r1
gives the final charges as two plain lists, one indexed by vertex and
one by face.  The audit certifies the engine dichotomy: every in-class
graph either keeps a negative final charge somewhere or contains a
reducible configuration.

The audit calls the public detectors and claim3_bound_check.  The
facts they share are kept on the graph (graph_core.derived): the
component count, the degree and girth verdicts, the block map of
2-vertices, the least cut 2-vertex (least_cut_two_vertex) and the close
pair (close_two_vertex_pair).  So one audit makes one pass for each,
and a detector called alone makes its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import NotCutVertex, NotInClass, NotTwoVertex
from .graph_core import (
    Graph,
    _short_or_four_path,
    ball,
    biconnected_components,
    component_count,
    derived,
    girth_at_least,
    is_connected,
)
from .planar_embed import _embed, check_degree_and_girth, check_subcubic


@dataclass(frozen=True)
class OneVertex:
    v: int


@dataclass(frozen=True)
class CutTwoVertex:
    u: int
    x: int
    y: int


@dataclass(frozen=True)
class SixCycleTwoVertex:
    """A six-cycle (v1, ..., v6) whose last vertex v6 has degree 2.

    The recoloring engine reads the cycle in this order: v1 and v5 are
    the neighbours of the 2-vertex v6.
    """

    cycle: tuple


@dataclass(frozen=True)
class SpacingViolation:
    """Two 2-vertices on a common cycle at distance at most 3."""

    cycle: tuple
    u: int
    w: int
    dist: int


def find_sixcycle_two_vertex(g: Graph) -> Optional[SixCycleTwoVertex]:
    """Find a six-cycle through a 2-vertex; requires girth >= 6.

    NotInClass on a vertex of degree above 3, as find_reducible_config:
    each 2-vertex's path search would scan such a hub's row.  A short
    path at a 2-vertex shows a cycle of length <= 5, so the answer is
    None.  Otherwise the girth is asked only once a six-cycle path is
    found, and read from g's memo when the caller has decided it.
    """
    check_subcubic(g)
    adj = g.adj
    for v6, a in enumerate(adj):
        if len(a) != 2:
            continue
        x, y = a
        path = _short_or_four_path(adj, x, y, v6)
        if path is None:
            continue
        if len(path) < 5:
            return None  # it closes a cycle of length <= 5 with x-v6-y
        # A path x .. y of 4 edges closes a six-cycle with x-v6-y; with no
        # six-cycle the girth cannot change the answer, so it is asked here.
        return SixCycleTwoVertex((*path, v6)) if derived(g, girth_at_least, 6) else None
    return None


def _cycle_through(g: Graph, block: set, u: int, w: int) -> tuple:
    """A cycle inside the 2-connected block through its vertices u and w,
    as a tuple that starts at u.

    A block whose vertices all have two neighbours in it is a cycle, read
    from u by u's first neighbour in it (_ring).  In any other block,
    Menger gives two u-w paths that share only their ends: a unit flow of
    value 2 on the block with each vertex v split into an in-node 2v and
    an out-node 2v + 1, from u's out-node to w's in-node, found by two
    breadth-first augmenting paths.  The cycle is the path that leaves u
    by the earlier neighbour in g.adj[u], then the other path back to u.
    O(n + m) either way.
    """
    ring = _ring(g, block, u)
    if ring is not None:
        return ring
    flow = set()  # the arcs that carry a unit
    source, sink = 2 * u + 1, 2 * w
    for _ in range(2):
        parent = {source: None}
        queue = deque(parent)
        while sink not in parent:
            a = queue.popleft()
            v = a >> 1
            if a & 1:  # along an edge, or back through v's own unit
                step = [2 * b for b in g.adj[v] if b in block and b != u and (a, 2 * b) not in flow]
                step += [a - 1] if (a - 1, a) in flow else []
            else:  # through v, or back along the unit that entered v
                step = [a + 1] if (a, a + 1) not in flow else []
                step += [2 * b + 1 for b in g.adj[v] if (2 * b + 1, a) in flow]
            for b in step:
                if b not in parent:
                    parent[b] = a
                    queue.append(b)
        b = sink
        while parent[b] is not None:
            a = parent[b]
            if (b, a) in flow:
                flow.discard((b, a))
            else:
                flow.add((a, b))
            b = a
    # Each vertex but u sends at most one unit on, so the units out of u
    # trace the two paths; a unit that goes round a closed loop is skipped.
    after = {a >> 1: b >> 1 for a, b in flow if a & 1 and a != source}
    there, back = ([x] for x in g.adj[u] if (source, 2 * x) in flow)
    for path in (there, back):
        while path[-1] != w:
            path.append(after[path[-1]])
    return (u, *there, *reversed(back[:-1]))


def _ring(g: Graph, block: set, u: int) -> Optional[tuple]:
    """The block read as a cycle from u by u's first neighbour in it, or
    None once a vertex on the way has a third neighbour in the block.  A
    walk that gets back to u is the whole block, since the block is
    2-connected."""
    cycle = [u]
    prev, v = u, next(x for x in g.adj[u] if x in block)
    while v != u:
        cycle.append(v)
        ahead = None
        for x in g.adj[v]:
            if x != prev and x in block:
                if ahead is not None:
                    return None
                ahead = x
        prev, v = v, ahead
    return tuple(cycle)


def two_vertex_blocks(g: Graph) -> dict:
    """{v: block} for each 2-vertex v on a cycle: the one block of at least
    3 vertices that holds v.  A 2-vertex is a cut vertex exactly when it
    lies on no cycle, so the cut 2-vertices are the ones missing here."""
    adj = g.adj
    block_of = {}
    for b in biconnected_components(g):
        if len(b) >= 3:
            for v in b:
                if len(adj[v]) == 2:
                    block_of[v] = b
    return block_of


def least_cut_two_vertex(g: Graph) -> Optional[int]:
    """The least 2-vertex of g that lies on no cycle, so a cut vertex, or
    None.  Its callers read it through derived, so an audit scans once."""
    block_of = derived(g, two_vertex_blocks)
    return next((v for v, a in enumerate(g.adj) if len(a) == 2 and v not in block_of), None)


def close_two_vertex_pair(g: Graph) -> Optional[tuple]:
    """First (u, w, dist, block): 2-vertices u < w at distance <= 3 in a
    common block of at least 3 vertices (so on a common cycle), or None."""
    # A 2-vertex that is no cut vertex lies in exactly one block of >= 3
    # vertices, so two of them share a cycle exactly when they share it.
    block_of = derived(g, two_vertex_blocks)
    for u in sorted(block_of):
        near = ball(g.adj, u, 3)
        w = min((w for w in near if w > u and block_of.get(w) is block_of[u]), default=None)
        if w is not None:
            return u, w, near[w], block_of[u]
    return None


def find_spacing_violation(g: Graph) -> Optional[SpacingViolation]:
    """Two 2-vertices at distance <= 3 sharing a cycle, if any, with the
    cycle that _cycle_through reads off their block."""
    pair = derived(g, close_two_vertex_pair)
    if pair is None:
        return None
    u, w, dist, block = pair
    return SpacingViolation(cycle=_cycle_through(g, block, u, w), u=u, w=w, dist=dist)


def find_reducible_config(g: Graph):
    """The first of the paper's four reducible configurations, or None.

    Checked in this order: a vertex of degree <= 1, a cut 2-vertex, a
    2-vertex on a six-cycle, two 2-vertices within distance 3 on a
    common cycle.  None is possible only out of class.  The
    configurations are defined on subcubic graphs, so a vertex of degree
    above 3 raises NotInClass; the detectors would scan such a hub's row
    once for each of its neighbours.

    Proof that an in-class graph G with n >= 1 has one of the four.
    Suppose it has none.  No vertex has degree <= 1.  Take an end block
    B of a component: a block with at most one cut vertex c.  B is not
    a bridge, since its far end would be a leaf, so B is 2-connected and
    every face of its plane embedding is a cycle of length l >= 6.
    Every vertex of B other than c has all its edges in B; if c exists,
    it has degree 2 in B.  Charge each vertex 2 d_B - 6 and each face
    l - 6; by Euler the total is -12.  Each face pays 1 to every
    degree-2 vertex of B on it, so degree-2 vertices end at 0.  A face
    holds at most floor(l/4) of G's 2-vertices, since any two of them
    are >= 4 apart on a common cycle; it holds none if l = 6 (six-cycle
    rule), and it holds c at most once.  So every face ends at >= -1,
    and only the <= 2 faces holding c can be negative: the total is
    >= -2, not -12.
    """
    check_subcubic(g)
    for v, a in enumerate(g.adj):
        if len(a) <= 1:
            return OneVertex(v)
    u = derived(g, least_cut_two_vertex)
    if u is not None:
        return CutTwoVertex(u, *g.adj[u])
    cfg = find_sixcycle_two_vertex(g)
    if cfg is not None:
        return cfg
    return find_spacing_violation(g)


def reduce_cut_two_vertex(g: Graph, u: int) -> Graph:
    """Splice out a cut 2-vertex: H joins the two sides by a direct edge.

    ValueError unless 0 <= u < g.n.  The neighbours of a cut 2-vertex lie
    in different components of g - u, so the new edge is never a double.
    """
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} is out of range for n={g.n}")
    if g.degree(u) != 2:
        raise NotTwoVertex(f"vertex {u} has degree {g.degree(u)}")
    if u in derived(g, two_vertex_blocks):
        raise NotCutVertex(f"vertex {u} does not disconnect the graph")
    x, y = sorted(g.neighbors(u))
    new_id = {v: i for i, v in enumerate(v for v in range(g.n) if v != u)}
    edges = [(new_id[p], new_id[q]) for p, q in g.edges() if p != u and q != u]
    edges.append((new_id[x], new_id[y]))
    return Graph(g.n - 1, edges)


def apply_r1(g: Graph, face_list: Sequence[tuple]) -> tuple[list, list]:
    """The final charges of g's vertices and of the faces in face_list,
    as one list for each, indexed by vertex and by face number.  Each
    face is the tuple of darts of its boundary walk.

    Each vertex starts at 2d(v) - 6 and each face at its length - 6.
    The rule R1 then moves 1 from a face to each 2-vertex incidence on
    its boundary walk.  Incidences count with multiplicity: a vertex
    appears once per dart it tails, so a 2-vertex on a cut sees the same
    face twice and is paid twice.  The rule keeps the total.
    """
    adj = g.adj
    vertex_charge = [2 * len(a) - 6 for a in adj]
    face_charge = []
    for walk in face_list:
        q = len(walk) - 6
        for v, _ in walk:
            if len(adj[v]) == 2:
                q -= 1
                vertex_charge[v] += 1
        face_charge.append(q)
    return vertex_charge, face_charge


@dataclass(frozen=True)
class Claim3Face:
    face: int
    length: int
    two_vertices: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.two_vertices <= self.bound


@dataclass(frozen=True)
class Claim3Report:
    """The verdict of claim3_bound_check.  A checked report holds one row
    per face, rows[i] for face i; a skipped one names the first hypothesis
    that fails and holds no rows."""

    checked: bool
    reason: str
    rows: tuple

    @property
    def passed(self) -> bool:
        return not self.checked or all(row.ok for row in self.rows)

    @property
    def violations(self) -> tuple:
        return tuple(row for row in self.rows if not row.ok) if self.checked else ()


def claim3_bound_check(g: Graph, face_list: Sequence[tuple]) -> Claim3Report:
    """Per-face cap on 2-vertices: at most length/4, rounded down, for
    each face of face_list, given as the tuple of darts of its walk.

    The cap only holds for graphs with no cut 2-vertex and no two
    2-vertices within distance 3 on a common cycle, so those hypotheses
    are asked first, in this order: a cycle at all, no cut 2-vertex, no
    close pair.  The first that fails is the reason of a skipped report,
    which holds no rows; only a checked report builds one row per face.
    """
    if g.m == g.n - derived(g, component_count):
        return Claim3Report(checked=False, reason="acyclic", rows=())
    if derived(g, least_cut_two_vertex) is not None:
        return Claim3Report(checked=False, reason="cut 2-vertex present", rows=())
    if derived(g, close_two_vertex_pair) is not None:
        return Claim3Report(checked=False, reason="close 2-vertices on a cycle", rows=())
    adj = g.adj
    rows = tuple(
        Claim3Face(
            face=i,
            length=len(walk),
            two_vertices=len({v for v, _ in walk if len(adj[v]) == 2}),
            bound=len(walk) // 4,
        )
        for i, walk in enumerate(face_list)
    )
    return Claim3Report(checked=True, reason="", rows=rows)


@dataclass(frozen=True)
class AuditReport:
    n: int
    m: int
    face_count: int
    initial_total: int
    final_total: int
    vertex_charge: list
    face_charge: list
    negative_vertices: tuple
    negative_faces: tuple
    config: object
    claim3: Claim3Report

    @property
    def has_negative(self) -> bool:
        return bool(self.negative_vertices or self.negative_faces)

    @property
    def dichotomy_holds(self) -> bool:
        return self.has_negative or self.config is not None


def discharge_audit(g: Graph) -> AuditReport:
    """Full charge audit of one connected in-class graph.

    Checks the class: nonempty and connected (the component count),
    subcubic and girth >= 6 (check_degree_and_girth), then a plane
    embedding taken on the series-parallel reduction that is_planar
    decides on, with the reduction's log undone (is_planar would only
    answer yes or no).  Any embedding serves, since Euler gives -12 for
    each; the faces are the ones _embed traced once for its Euler check,
    and apply_r1 reads their walks, as claim3 does only when it checks
    the claim.  Totals the charges before
    the rule from the degrees and face lengths and after it from
    apply_r1's two lists (both must be -12), lists every element left
    negative, and runs find_reducible_config and claim3_bound_check,
    which read the facts the class check left on g and share one block
    map, one cut 2-vertex scan and one close-pair search.  At least one
    side of the dichotomy must come back nonempty.
    """
    if g.n == 0:
        raise NotInClass("empty graph")
    if not is_connected(g):
        raise NotInClass("graph is disconnected")
    check_degree_and_girth(g)
    embedded = _embed(g)
    if embedded is None:
        raise NotInClass("graph is not planar")
    _, face_list = embedded
    vertex_charge, face_charge = apply_r1(g, face_list)
    return AuditReport(
        n=g.n,
        m=g.m,
        face_count=len(face_list),
        initial_total=sum(2 * len(a) - 6 for a in g.adj) + sum(len(w) - 6 for w in face_list),
        final_total=sum(vertex_charge) + sum(face_charge),
        vertex_charge=vertex_charge,
        face_charge=face_charge,
        negative_vertices=tuple((v, q) for v, q in enumerate(vertex_charge) if q < 0),
        negative_faces=tuple(
            (i, len(face_list[i]), q) for i, q in enumerate(face_charge) if q < 0
        ),
        config=find_reducible_config(g),
        claim3=claim3_bound_check(g, face_list),
    )


def render_audit(report: AuditReport, full: bool = False) -> str:
    """Structured text for an audit: totals, negatives, witness, dichotomy."""
    lines = [
        f"vertices={report.n}",
        f"edges={report.m}",
        f"faces={report.face_count}",
        f"initial_total={report.initial_total}",
        f"final_total={report.final_total}",
    ]
    if full:
        for v, q in enumerate(report.vertex_charge):
            lines.append(f"vertex_charge v={v} charge={q}")
        for i, q in enumerate(report.face_charge):
            lines.append(f"face_charge face={i} charge={q}")
    else:
        for v, q in report.negative_vertices:
            lines.append(f"negative_vertex v={v} charge={q}")
        for i, length, q in report.negative_faces:
            lines.append(f"negative_face face={i} length={length} charge={q}")
    lines.append(f"config={describe_config(report.config)}")
    if not report.claim3.checked:
        lines.append(f"claim3=skipped reason={report.claim3.reason}")
    elif report.claim3.passed:
        lines.append("claim3=ok")
    else:
        for row in report.claim3.violations:
            lines.append(
                f"claim3_violation face={row.face} length={row.length}"
                f" two_vertices={row.two_vertices} bound={row.bound}"
            )
    lines.append(f"dichotomy={'ok' if report.dichotomy_holds else 'violated'}")
    return "\n".join(lines)


def describe_config(cfg) -> str:
    """One-line description of a detector witness."""
    if cfg is None:
        return "none"
    if isinstance(cfg, OneVertex):
        return f"one_vertex v={cfg.v}"
    if isinstance(cfg, CutTwoVertex):
        return f"cut_two_vertex u={cfg.u} x={cfg.x} y={cfg.y}"
    if isinstance(cfg, SixCycleTwoVertex):
        cyc = ",".join(str(v) for v in cfg.cycle)
        return f"sixcycle_two_vertex cycle={cyc} two_vertex={cfg.cycle[5]}"
    if isinstance(cfg, SpacingViolation):
        cyc = ",".join(str(v) for v in cfg.cycle)
        return f"spacing_violation u={cfg.u} w={cfg.w} dist={cfg.dist} cycle={cyc}"
    return repr(cfg)
