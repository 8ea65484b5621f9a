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

Vertices start at 2d(v) - 6 and faces at d(f) - 6, which sums to -12 on
any connected plane graph.  The single redistribution rule sends 1 from
a face to each incidence of a 2-vertex on its boundary walk.  The audit
certifies the engine dichotomy: every in-class graph either keeps a
negative final charge somewhere or contains a reducible configuration.

The audit makes one structural pass: one component walk, one degree
row, one girth check, one embedding with its faces and one block map,
handed to the private bodies _reducible_config (with
_sixcycle_two_vertex, which then skips its girth check) and _claim3.
find_reducible_config, find_sixcycle_two_vertex and claim3_bound_check
are thin wrappers that build those inputs themselves and call the same
bodies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import NotCutVertex, NotInClass, NotTwoVertex, PreconditionViolated
from .graph_core import (
    Graph,
    _four_path,
    adjacency_components,
    ball,
    biconnected_components,
    components,
    girth_at_least,
)
from .planar_embed import Face, _embed


@dataclass(frozen=True)
class OneVertex:
    v: int

    def verify(self, g: Graph) -> bool:
        return 0 <= self.v < g.n and g.degree(self.v) <= 1


@dataclass(frozen=True)
class CutTwoVertex:
    u: int
    x: int
    y: int

    def verify(self, g: Graph) -> bool:
        if not 0 <= self.u < g.n:
            return False
        return (
            g.degree(self.u) == 2
            and set(g.neighbors(self.u)) == {self.x, self.y}
            and self.u not in two_vertex_blocks(g)
        )


@dataclass(frozen=True)
class SixCycleTwoVertex:
    """A six-cycle (v1, ..., v6) of host whose last vertex v6 has degree 2.

    The recoloring engine reads the cycle in this order: v1 and v5 are
    the neighbours of the 2-vertex v6.
    """

    cycle: tuple
    host: Graph

    def validate(self) -> None:
        """Raise PreconditionViolated unless host has girth >= 6 and cycle
        is a six-cycle of host ending at a 2-vertex."""
        g = self.host
        cyc = self.cycle
        if len(cyc) != 6 or len(set(cyc)) != 6:
            raise PreconditionViolated("cycle must list six distinct vertices")
        for i in range(6):
            u, v = cyc[i], cyc[(i + 1) % 6]
            if not (0 <= u < g.n) or not (0 <= v < g.n) or not g.has_edge(u, v):
                raise PreconditionViolated(f"missing cycle edge {u}-{v}")
        v6 = cyc[5]
        if g.degree(v6) != 2:
            raise PreconditionViolated(f"vertex {v6} has degree {g.degree(v6)}, not 2")
        if not girth_at_least(g, 6):
            raise PreconditionViolated("host girth is below 6")

    def verify(self, g: Graph) -> bool:
        if self.host is not g and self.host != g:
            return False
        try:
            self.validate()
        except PreconditionViolated:
            return False
        return True


@dataclass(frozen=True)
class SpacingViolation:
    """Two 2-vertices on a common cycle at distance at most 3."""

    cycle: tuple
    u: int
    w: int
    dist: int

    def verify(self, g: Graph) -> bool:
        cyc = self.cycle
        if len(cyc) < 3 or len(set(cyc)) != len(cyc):
            return False
        if not all(0 <= v < g.n for v in cyc):
            return False
        if not all(g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))):
            return False
        return (
            self.u in cyc
            and self.w in cyc
            and self.u != self.w
            and g.degree(self.u) == 2
            and g.degree(self.w) == 2
            and self.dist <= 3
            and ball(g.adj, self.u, 3).get(self.w) == self.dist
        )


def find_sixcycle_two_vertex(g: Graph) -> Optional[SixCycleTwoVertex]:
    """Find a six-cycle through a 2-vertex; requires host girth >= 6.

    NotInClass on a vertex of degree above 3, as find_reducible_config:
    each 2-vertex's path search would scan such a hub's row.
    """
    return _sixcycle_two_vertex(g, _subcubic_degrees(g), False)


def _subcubic_degrees(g: Graph) -> list:
    """The degree row of g; NotInClass on a vertex of degree above 3."""
    deg = [len(a) for a in g.adj]
    if max(deg, default=0) > 3:
        raise NotInClass("graph has a vertex of degree above 3")
    return deg


def _sixcycle_two_vertex(g: Graph, deg: list, girth6: bool) -> Optional[SixCycleTwoVertex]:
    """find_sixcycle_two_vertex on subcubic g with degree row deg.  The
    girth is checked only once a six-cycle path is found, and not at all
    when girth6 says the caller has decided girth >= 6."""
    for v6, d in enumerate(deg):
        if d != 2:
            continue
        x, y = g.adj[v6]
        # A path x .. y of 4 edges avoiding v6 closes a six-cycle with x-v6-y.
        path = _four_path(g.adj, x, y, v6)
        if path is not None:  # with no six-cycle the girth cannot change the answer
            return SixCycleTwoVertex(cycle=(*path, v6), host=g) if girth6 or girth_at_least(g, 6) else None
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


def close_two_vertex_pair(g: Graph, block_of: dict) -> Optional[tuple]:
    """First (u, w, dist, block): 2-vertices u < w at distance <= 3 in a
    common block of at least 3 vertices (so on a common cycle), or None;
    block_of is two_vertex_blocks(g)."""
    # A 2-vertex that is no cut vertex lies in exactly one block of >= 3
    # vertices, so two of them share a cycle exactly when they share it.
    for u in sorted(block_of):
        near = ball(g.adj, u, 3)
        w = min((w for w in near if w > u and block_of.get(w) is block_of[u]), default=None)
        if w is not None:
            return u, w, near[w], block_of[u]
    return None


def _spacing_violation(g: Graph, block_of: dict) -> Optional[SpacingViolation]:
    """find_spacing_violation, given block_of = two_vertex_blocks(g)."""
    pair = close_two_vertex_pair(g, block_of)
    if pair is None:
        return None
    u, w, dist, block = pair
    return SpacingViolation(cycle=_cycle_through(g, block, u, w), u=u, w=w, dist=dist)


def find_spacing_violation(g: Graph) -> Optional[SpacingViolation]:
    """Two 2-vertices at distance <= 3 sharing a cycle, if any, with the
    cycle that _cycle_through reads off their block."""
    return _spacing_violation(g, two_vertex_blocks(g))


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
    return _reducible_config(g, _subcubic_degrees(g), two_vertex_blocks(g), False)


def _reducible_config(g: Graph, deg: list, block_of: dict, girth6: bool):
    """find_reducible_config on subcubic g, given its degree row deg, its
    block_of = two_vertex_blocks(g) and girth6 as _sixcycle_two_vertex
    takes it."""
    for v, d in enumerate(deg):
        if d <= 1:
            return OneVertex(v)
    for u, d in enumerate(deg):
        if d == 2 and u not in block_of:
            return CutTwoVertex(u, *g.adj[u])
    cfg = _sixcycle_two_vertex(g, deg, girth6)
    if cfg is not None:
        return cfg
    return _spacing_violation(g, block_of)


def reduce_cut_two_vertex(g: Graph, u: int) -> Graph:
    """Splice out a cut 2-vertex: H joins the two sides by a direct edge.

    ValueError unless 0 <= u < g.n.  The neighbours of a cut 2-vertex lie
    in different components of g - u, so the new edge is never a double.
    """
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} is out of range for n={g.n}")
    if g.degree(u) != 2:
        raise NotTwoVertex(f"vertex {u} has degree {g.degree(u)}")
    return _splice_cut_two_vertex(g, u, two_vertex_blocks(g))


def _splice_cut_two_vertex(g: Graph, u: int, block_of: dict) -> Graph:
    """The body of reduce_cut_two_vertex for a 2-vertex u of g, with the
    caller's block map block_of = two_vertex_blocks(g)."""
    if u in block_of:
        raise NotCutVertex(f"vertex {u} does not disconnect the graph")
    x, y = sorted(g.neighbors(u))
    new_id = {v: i for i, v in enumerate(v for v in range(g.n) if v != u)}
    edges = [(new_id[p], new_id[q]) for p, q in g.edges() if p != u and q != u]
    edges.append((new_id[x], new_id[y]))
    return Graph(g.n - 1, edges)


@dataclass
class ChargeLedger:
    vertex_charge: dict
    face_charge: dict

    def total(self) -> int:
        return sum(self.vertex_charge.values()) + sum(self.face_charge.values())


def initial_charges(g: Graph, face_list: Sequence[Face]) -> ChargeLedger:
    """Starting charges: 2d(v) - 6 per vertex, length - 6 per face."""
    return ChargeLedger(
        vertex_charge={v: 2 * len(a) - 6 for v, a in enumerate(g.adj)},
        face_charge={i: f.length - 6 for i, f in enumerate(face_list)},
    )


def apply_r1(ledger: ChargeLedger, g: Graph, face_list: Sequence[Face]) -> ChargeLedger:
    """Each face gives 1 to every 2-vertex incidence on its boundary walk.

    Incidences count with multiplicity: a vertex appears once per dart
    it tails, so a 2-vertex on a cut sees the same face twice and is
    paid twice.  The total charge is unchanged, and ledger is left as
    it was.
    """
    adj = g.adj
    vertex_charge = dict(ledger.vertex_charge)
    face_charge = dict(ledger.face_charge)
    for i, face in enumerate(face_list):
        for v, _ in face.walk:
            if len(adj[v]) == 2:
                face_charge[i] -= 1
                vertex_charge[v] += 1
    return ChargeLedger(vertex_charge, face_charge)


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
    checked: bool
    reason: str
    rows: tuple

    @property
    def passed(self) -> bool:
        return not self.checked or all(row.ok for row in self.rows)

    @property
    def violations(self) -> tuple:
        return tuple(row for row in self.rows if not row.ok) if self.checked else ()


def claim3_bound_check(g: Graph, face_list: Sequence[Face]) -> Claim3Report:
    """Per-face cap on 2-vertices: at most length/4, rounded down.

    The cap only holds for graphs with no cut 2-vertex and no two
    2-vertices within distance 3 on a common cycle, so the counts are
    asserted only when those hypotheses hold; otherwise the report just
    records them.
    """
    acyclic = g.m == g.n - len(components(g))
    block_of = {} if acyclic else two_vertex_blocks(g)
    return _claim3(g, [len(a) for a in g.adj], face_list, block_of, acyclic)


def _claim3(g: Graph, deg: list, face_list: Sequence[Face], block_of: dict, acyclic: bool) -> Claim3Report:
    """claim3_bound_check given g's degree row deg, its block_of =
    two_vertex_blocks(g) and whether g is acyclic."""
    rows = tuple(
        Claim3Face(
            face=i,
            length=face.length,
            two_vertices=len({v for v, _ in face.walk if deg[v] == 2}),
            bound=face.length // 4,
        )
        for i, face in enumerate(face_list)
    )
    if acyclic:
        return Claim3Report(checked=False, reason="acyclic", rows=rows)
    if any(d == 2 and v not in block_of for v, d in enumerate(deg)):
        return Claim3Report(checked=False, reason="cut 2-vertex present", rows=rows)
    if close_two_vertex_pair(g, block_of) is not None:
        return Claim3Report(checked=False, reason="close 2-vertices on a cycle", rows=rows)
    return Claim3Report(checked=True, reason="", rows=rows)


@dataclass(frozen=True)
class AuditReport:
    n: int
    m: int
    face_count: int
    initial_total: int
    final_total: int
    ledger: ChargeLedger
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
    """Full charge audit of one connected in-class graph, in one
    structural pass.

    Checks the class: nonempty and connected (one component walk, which
    also makes g acyclic exactly when m = n - 1), subcubic (one degree
    row, which then serves the detectors and claim3), girth >= 6 (one
    girth check), then a plane embedding taken on the series-parallel
    reduction that is_planar decides on, with the reduction's log undone
    (is_planar would only answer yes or no).  Any embedding serves,
    since Euler gives -12 for each; the faces are the ones the
    embedding's Euler check traced, and R1 and claim3 read their walks.
    Totals the charges before and after the rule (both must be -12),
    lists every element left negative, and runs the configuration
    detectors and claim3 on one block map.  At least one side of the
    dichotomy must come back nonempty.
    """
    if g.n == 0:
        raise NotInClass("empty graph")
    if len(adjacency_components(g.adj)) > 1:
        raise NotInClass("graph is disconnected")
    deg = _subcubic_degrees(g)
    if not girth_at_least(g, 6):
        raise NotInClass("girth is below 6")
    embedded = _embed(g)
    if embedded is None:
        raise NotInClass("graph is not planar")
    _, face_list = embedded
    m = g.m
    acyclic = m == g.n - 1
    # A tree has no block of 3 or more vertices.
    block_of = {} if acyclic else two_vertex_blocks(g)
    before = initial_charges(g, face_list)
    after = apply_r1(before, g, face_list)
    negative_vertices = tuple(
        (v, q) for v, q in sorted(after.vertex_charge.items()) if q < 0
    )
    negative_faces = tuple(
        (i, face_list[i].length, q) for i, q in sorted(after.face_charge.items()) if q < 0
    )
    return AuditReport(
        n=g.n,
        m=m,
        face_count=len(face_list),
        initial_total=before.total(),
        final_total=after.total(),
        ledger=after,
        negative_vertices=negative_vertices,
        negative_faces=negative_faces,
        config=_reducible_config(g, deg, block_of, True),
        claim3=_claim3(g, deg, face_list, block_of, acyclic),
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
        for v, q in sorted(report.ledger.vertex_charge.items()):
            lines.append(f"vertex_charge v={v} charge={q}")
        for i, q in sorted(report.ledger.face_charge.items()):
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
