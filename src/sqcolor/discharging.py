"""Charge bookkeeping on plane graphs and the global audit.

Vertices start at 2d(v) - 6 and faces at d(f) - 6, which sums to -12 on
any connected plane graph.  The single redistribution rule sends 1 from
a face to each incidence of a 2-vertex on its boundary walk.  The audit
certifies the engine dichotomy: every in-class graph either keeps a
negative final charge somewhere or contains a reducible configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NotInClass
from .graph_core import Graph, components, is_connected
from .planar_embed import Face, _embed, check_degree_and_girth
from .reducer import (
    CutTwoVertex,
    OneVertex,
    SixCycleTwoVertex,
    SpacingViolation,
    close_two_vertex_pair,
    find_reducible_config,
    two_vertex_blocks,
)


@dataclass
class ChargeLedger:
    vertex_charge: dict
    face_charge: dict
    transfers: list

    def total(self) -> int:
        return sum(self.vertex_charge.values()) + sum(self.face_charge.values())

    def copy(self) -> "ChargeLedger":
        return ChargeLedger(
            vertex_charge=dict(self.vertex_charge),
            face_charge=dict(self.face_charge),
            transfers=list(self.transfers),
        )


def initial_charges(g: Graph, face_list: Sequence[Face]) -> ChargeLedger:
    """Starting charges: 2d(v) - 6 per vertex, length - 6 per face."""
    return ChargeLedger(
        vertex_charge={v: 2 * g.degree(v) - 6 for v in range(g.n)},
        face_charge={i: f.length - 6 for i, f in enumerate(face_list)},
        transfers=[],
    )


def apply_r1(ledger: ChargeLedger, g: Graph, face_list: Sequence[Face]) -> ChargeLedger:
    """Each face gives 1 to every 2-vertex incidence on its boundary walk.

    Incidences count with multiplicity: a vertex appears once per dart
    it tails, so a 2-vertex on a cut sees the same face twice and is
    paid twice.  The total charge is unchanged.
    """
    out = ledger.copy()
    for i, face in enumerate(face_list):
        for v in face.vertices():
            if g.degree(v) == 2:
                out.face_charge[i] -= 1
                out.vertex_charge[v] += 1
                out.transfers.append((i, v, 1))
    return out


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
    rows = tuple(
        Claim3Face(
            face=i,
            length=face.length,
            two_vertices=len({v for v in face.vertices() if g.degree(v) == 2}),
            bound=face.length // 4,
        )
        for i, face in enumerate(face_list)
    )
    if g.m == g.n - len(components(g)):
        return Claim3Report(checked=False, reason="acyclic", rows=rows)
    block_of = two_vertex_blocks(g)
    if any(g.degree(v) == 2 and v not in block_of for v in range(g.n)):
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
    """Full charge audit of one connected in-class graph.

    Checks the class: nonempty and connected, then the degree and girth
    checks that check_class makes, then a plane embedding lifted from one
    of the cubic kernel (is_planar would only answer yes or no).  Any
    embedding serves, since Euler gives -12 for each; the faces are the
    ones the embedding's Euler check traced.  Totals the charges before
    and after the rule (both must be -12), lists every element left
    negative, and runs the configuration detectors.  At least one side
    of the dichotomy must come back nonempty.
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
        m=g.m,
        face_count=len(face_list),
        initial_total=before.total(),
        final_total=after.total(),
        ledger=after,
        negative_vertices=negative_vertices,
        negative_faces=negative_faces,
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
