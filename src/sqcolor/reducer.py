"""Coloring the square by the proof's three rules, and Lemma 2.

Every subcubic planar graph of girth >= 6 has a vertex of degree <= 2
(Euler), and the colorer needs nothing else of the configurations:
color_square_7lists drops a leaf, splices a 2-vertex, or removes a
2-vertex that lies on a six-cycle, down to nothing (_peel), then puts
the vertices back in reverse order and colors them (_lift), recoloring
around the six-cycle by Lemma 2 (_recoloring, RECOLORING_ROWS), and
certifies the result.  verify_lemma2_tables checks the 12 rows.

The peel records each removed vertex's square-neighbourhood (for a
six-cycle, those of all six cycle vertices) while the vertex is still
attached.  The lift colors that vertex in the same graph, so it reads
the records alone and never rebuilds the adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .coloring import normalize_lists
from .errors import ListTooSmall, PreconditionViolated
from .graph_core import Graph, _four_path, is_subcubic, square_neighbors
from .planar_embed import check_class

# The benchmark's span tracer (perfbench/spans.py) still looks these names
# up on this module; delete this import once it looks them up on discharging.
from .discharging import (  # noqa: F401
    CutTwoVertex,
    OneVertex,
    SixCycleTwoVertex,
    find_reducible_config,
    find_sixcycle_two_vertex,
    find_spacing_violation,
    reduce_cut_two_vertex,
)

ALPHA = "alpha"
A = "a"
B = "b"
C = "c"

# Recoloring table for the last branch of _recoloring.  When every
# escape fails, v1 has {a, b, alpha} available, v5 has {b, c, alpha},
# and C(v2) = {a, x2}, C(v3) = {b, x3}, C(v4) = {c, x4} for some
# x2 in {b, c}, x3 in {a, c, alpha} and x4 in {a, b}.  Keys are
# (x2, x3, x4); values are the new colors on (v1, ..., v5).  Every row
# avoids conflicts on the square-adjacent pairs 12, 23, 34, 45, 13, 24,
# 35, 15; the pairs 14 and 25 are free.
RECOLORING_ROWS: dict[tuple[str, str, str], tuple[str, ...]] = {
    (B, A, A): (ALPHA, B, A, C, B),
    (B, C, A): (A, B, C, A, ALPHA),
    (B, ALPHA, A): (A, B, ALPHA, C, B),
    (B, A, B): (ALPHA, B, A, C, B),
    (B, C, B): (B, A, C, B, ALPHA),
    (B, ALPHA, B): (A, B, ALPHA, C, B),
    (C, A, A): (A, C, B, A, ALPHA),
    (C, C, A): (A, C, B, A, ALPHA),
    (C, ALPHA, A): (A, C, B, A, ALPHA),
    (C, A, B): (ALPHA, C, A, B, C),
    (C, C, B): (B, A, C, B, ALPHA),
    (C, ALPHA, B): (A, C, ALPHA, B, C),
}

# Within-cycle pairs that are square-adjacent when the girth is >= 6.
SQUARE_PAIRS = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4), (0, 4))


def _free_color(colors: frozenset, f: Sequence[Optional[int]], near: Iterable[int]) -> int:
    """Smallest color of `colors` that no vertex of `near` wears in f."""
    free = colors.difference(map(f.__getitem__, near))
    _invariant(bool(free), "a vertex with at most 6 square-neighbors has a free color")
    return min(free)


def _fits(f: Sequence[Optional[int]], lists, v: int, near: Iterable[int]) -> bool:
    """f[v] lies in the list of v and differs from f[u] for every u in near."""
    color = f[v]
    return color in lists[v] and color not in map(f.__getitem__, near)


def _available(cyc: tuple, lists, f: Sequence[Optional[int]], near: dict) -> dict:
    """The available list of each vertex v of the cycle cyc = (v1, ..., v6):
    the colors of lists[v] that no square-neighbor off the cycle wears in
    f.  near[v] is the square-neighborhood of v in the host."""
    return {v: lists[v] - {f[u] for u in near[v] if u not in cyc} for v in cyc}


def _recoloring(cyc: tuple, Cv: dict, f: Sequence[Optional[int]]) -> dict:
    """New colors for some of v1..v5 when f[v1] == f[v5].

    f colors v1, ..., v5 alpha, a, b, c, alpha; Cv holds their available
    lists (_available).  Try the five single-vertex recolorings (v1, v5,
    v2, v3, v4, in this order; later ones rely on the equalities that
    earlier failures establish), and when all escapes fail, look up the
    row of RECOLORING_ROWS for the colors (x2, x3, x4) that C(v2), C(v3)
    and C(v4) hold besides a, b and c.
    """
    v1, v2, v3, v4, v5, v6 = cyc
    alpha, a, b, c = f[v1], f[v2], f[v3], f[v4]
    _invariant(len({alpha, a, b, c}) == 4, "the four cycle colors must be distinct")
    for v, bound in ((v1, 3), (v2, 2), (v3, 2), (v4, 2), (v5, 3), (v6, 5)):
        _invariant(len(Cv[v]) >= bound, f"available list at vertex {v} smaller than {bound}")

    # Escape recolorings: each moves one cycle vertex to a spare color,
    # plus at most one of its cycle neighbors.
    escapes = (
        (v1, {a, b, alpha}, {}),
        (v5, {b, c, alpha}, {}),
        (v2, {a, b, c}, {v1: a}),
        (v3, {a, b, c, alpha}, {v1: b}),
        (v4, {a, b, c}, {v5: c}),
    )
    for v, taken, also in escapes:
        spare = Cv[v] - taken
        if spare:
            return {v: min(spare), **also}

    # All escapes failed, so the available lists collapse to the table
    # situation; these five facts are forced at this point.
    _invariant(Cv[v1] == {a, b, alpha}, "v1 must have exactly {a, b, alpha} available")
    _invariant(Cv[v5] == {b, c, alpha}, "v5 must have exactly {b, c, alpha} available")
    _invariant(a in Cv[v2] and Cv[v2] <= {a, b, c}, "v2 availability must sit inside {a, b, c}")
    _invariant(b in Cv[v3] and Cv[v3] <= {a, b, c, alpha}, "v3 availability must sit inside {a, b, c, alpha}")
    _invariant(c in Cv[v4] and Cv[v4] <= {a, b, c}, "v4 availability must sit inside {a, b, c}")

    x2 = B if b in Cv[v2] else C
    x3 = A if a in Cv[v3] else C if c in Cv[v3] else ALPHA
    x4 = A if a in Cv[v4] else B
    sym = {A: a, B: b, C: c, ALPHA: alpha}
    new = {v: sym[symbol] for v, symbol in zip(cyc, RECOLORING_ROWS[(x2, x3, x4)])}
    _invariant(all(new[v] in Cv[v] for v in new), "table row leaves an available list")
    return new


def _extend_sixcycle(cyc: tuple, lists, f: list, near: dict) -> None:
    """Color the 2-vertex v6 of the six-cycle cyc = (v1, ..., v6) in f.

    f colors the host minus v6 properly in its square, except that v1
    and v5 may share a color; near maps each cycle vertex to its
    square-neighbourhood in the host (the peel's record, or
    square_neighbors on the host for extend_sixcycle).  If v1 and v5
    differ in color, v6 is colored greedily; otherwise v1..v5 are
    recolored first (_recoloring).
    """
    v1, v5, v6 = cyc[0], cyc[4], cyc[5]
    if f[v1] == f[v5]:
        for v, color in _recoloring(cyc, _available(cyc, lists, f, near), f).items():
            f[v] = color
    f[v6] = _free_color(lists[v6], f, near[v6])
    for v in cyc:
        _invariant(_fits(f, lists, v, near[v]), "extension must stay in the lists and proper on the square")


def _seven_lists(g: Graph, L: Sequence[Iterable[int]]) -> list:
    """The frozen lists of g; ListTooSmall unless each has >= 7 colors."""
    lists = normalize_lists(g, L)
    for v in range(g.n):
        if len(lists[v]) < 7:
            raise ListTooSmall(f"vertex {v} has a list of size {len(lists[v])} < 7")
    return lists


def _invariant(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(f"recoloring invariant failed: {msg}")


def _check_phi(g: Graph, lists, phi, v1: int, v5: int, v6: int) -> None:
    """phi must be a proper list coloring of the square of g minus v6."""
    if len(phi) != g.n:
        raise PreconditionViolated("coloring length does not match host")
    if phi[v6] is not None:
        raise PreconditionViolated("the 2-vertex must be uncolored")
    for v in range(g.n):
        if v != v6 and phi[v] is None:
            raise PreconditionViolated(f"vertex {v} is uncolored")
    # Removing the degree-2 vertex v6 deletes exactly the square edges at
    # v6 plus the pair {v1, v5}, whose distance without v6 is >= 3.
    for v in range(g.n):
        if v == v6:
            continue
        skip = {v6, v5} if v == v1 else {v6, v1} if v == v5 else {v6}
        if not _fits(phi, lists, v, square_neighbors(g.adj, v) - skip):
            raise PreconditionViolated(
                f"vertex {v} wears a color outside its list or shared with a square-neighbor"
            )


def extend_sixcycle(cfg: SixCycleTwoVertex, L: Sequence[Iterable[int]], phi: Sequence[Optional[int]]) -> list:
    """Extend a square coloring of host minus the 2-vertex v6 to the host square.

    cfg.cycle = (v1, ..., v6) ends at the 2-vertex, so v1 and v5 are its
    neighbours.  phi must be a proper coloring of the square of host
    minus v6 from the lists, with phi[v6] None, else PreconditionViolated
    naming the first offending vertex.  If v1 and v5 differ in color,
    coloring v6 greedily suffices.  Otherwise recolor by an escape or a
    row of RECOLORING_ROWS (_recoloring) first.  Never fails on valid
    input.

    The library entry point of Lemma 2: the peel calls _extend_sixcycle
    directly, and this checked form stays as API for callers that bring
    their own coloring, such as the acceptance sweep of the lemma.
    """
    cfg.validate()
    g = cfg.host
    if not is_subcubic(g):
        raise PreconditionViolated("host must be subcubic")
    lists = _seven_lists(g, L)
    v1, _, _, _, v5, v6 = cfg.cycle
    _check_phi(g, lists, phi, v1, v5, v6)
    f = list(phi)
    _extend_sixcycle(cfg.cycle, lists, f, {v: square_neighbors(g.adj, v) for v in cfg.cycle})
    return f


# The proof's three rules, one record per removed vertex.
LEAF = "leaf"
SPLICE = "splice"
SIXCYCLE = "six-cycle"


def _peel(adj: list) -> list:
    """Remove every vertex of an in-class graph; return (rule, v, nbrs, cycle, near) records.

    adj is a list of neighbor sets; each removed vertex's row becomes ().
    Every subcubic planar graph of girth >= 6 has a vertex of degree <= 2,
    and each rule keeps the graph in the class:
      leaf      deg v <= 1: delete v.
      six-cycle v lies on a six-cycle (v's neighbors x, y are joined by a
                path of 4 edges avoiding v): delete v; cycle is
                (x, ..., y, v).
      splice    otherwise: delete v and join x to y.  Every cycle
                through v has length >= 7 (or v is a cut vertex), so the
                girth stays >= 6.
    near holds what the lift needs, read in the graph G from which v is
    removed: for a leaf or a splice, v's square-neighbours (u, *N(u)) or
    (x, y, *N(x), *N(y)) without v; for a six-cycle, one tuple of
    square-neighbours per cycle vertex, aligned with cycle.  The lift
    undoes the later records first, so it colors v in this same G, and
    these are the neighbourhoods it would read there.  Tuples, not sets:
    the records outlive the peel, and sets cost memory and GC time.
    """
    gone = [False] * len(adj)
    work = [v for v in range(len(adj)) if len(adj[v]) <= 2]
    records = []
    while work:
        v = work.pop()
        if gone[v]:
            continue
        gone[v] = True
        nbrs = tuple(sorted(adj[v]))
        path = _four_path(adj, *nbrs, v) if len(nbrs) == 2 else None
        if path is not None:
            # v is still attached: this is the graph the lift colors v in.
            cycle = (*path, v)
            record = (SIXCYCLE, v, nbrs, cycle, tuple([tuple(square_neighbors(adj, u)) for u in cycle]))
        adj[v] = ()
        for u in nbrs:
            adj[u].discard(v)
        if path is None:
            if len(nbrs) == 2:
                x, y = nbrs
                ax, ay = adj[x], adj[y]
                _invariant(y not in ax, "a splice never doubles an edge at girth >= 6")
                records.append((SPLICE, v, nbrs, None, (x, y, *ax, *ay)))
                ax.add(y)
                ay.add(x)
                continue  # x and y keep their degrees
            record = (LEAF, v, nbrs, None, (nbrs[0], *adj[nbrs[0]]) if nbrs else ())
        records.append(record)
        work.extend(nbrs)  # each lost v, so has degree <= 2 in a subcubic graph
    _invariant(all(gone), "every in-class graph has a vertex of degree at most 2")
    return records


def _lift(n: int, records: list, lists) -> list:
    """Undo the peel records in reverse, coloring each vertex as it returns.

    n is the vertex count.  No adjacency is read: each record carries the
    square-neighbourhoods of the graph the vertex returns to (see _peel).
    A leaf or spliced vertex has at most 6 square-neighbors and takes a
    free color; a six-cycle vertex goes through the recoloring engine.
    """
    f: list = [None] * n
    for rule, v, _, cycle, near in reversed(records):
        if rule == SIXCYCLE:
            _extend_sixcycle(cycle, lists, f, dict(zip(cycle, near)))
        else:
            f[v] = _free_color(lists[v], f, near)
    return f


def color_square_7lists(g: Graph, L: Sequence[Iterable[int]]) -> list:
    """Properly color the square of g from per-vertex lists of size >= 7.

    g must be subcubic and planar with girth >= 6, else NotInClass (a
    PreconditionViolated) from check_class.  The proof's three rules
    (leaf, splice, six-cycle) peel g down to nothing on one mutable
    adjacency (_peel); the lift puts the vertices back in reverse order
    and colors them from the peel's records alone (_lift).  No exact
    search runs.  The result is certified proper on the square of g and
    inside every list; a failed certificate raises AssertionError.  Two
    vertices at distance <= 2 are adjacent or share a neighbour, so the
    certificate asks only that every closed neighbourhood N[u] has
    pairwise distinct colors.
    """
    check_class(g)
    lists = _seven_lists(g, L)
    f = _lift(g.n, _peel([set(a) for a in g.adj]), lists)
    _invariant(
        all(color in allowed for color, allowed in zip(f, lists))
        and all(len({f[u], *map(f.__getitem__, nbrs)}) == len(nbrs) + 1 for u, nbrs in enumerate(g.adj)),
        "final certificate: the coloring must be proper on the square and inside the lists",
    )
    return f


@dataclass(frozen=True)
class Lemma2Case:
    key: tuple
    f: tuple
    failure: Optional[str]

    def line(self) -> str:
        x2, x3, x4 = self.key
        verdict = "OK" if self.failure is None else f"FAIL({self.failure})"
        return f"case {{a,{x2}}}|{{b,{x3}}}|{{c,{x4}}} -> f=({','.join(self.f)}) {verdict}"


@dataclass(frozen=True)
class Lemma2Report:
    cases: tuple

    @property
    def passed(self) -> bool:
        return all(case.failure is None for case in self.cases)

    def render(self) -> str:
        return "\n".join(case.line() for case in self.cases)


def check_lemma2_row(key: tuple, f: tuple) -> Optional[str]:
    """Validate one recoloring row; None when sound, else the broken constraint.

    key = (x2, x3, x4) gives the available sets {a, x2}, {b, x3} and
    {c, x4} of v2, v3 and v4; v1 and v5 have the fixed sets from the
    failed escapes.  Checks membership of each new color in its available
    set and properness on the square-adjacent pairs inside the cycle.
    The 2-vertex v6 needs no check: its square-neighbours are v1, v2, v4,
    v5 and the third neighbours of v1 and v5, at most six, so its 7-list
    always keeps a color for it.
    """
    x2, x3, x4 = key
    sets = ({A, B, ALPHA}, {A, x2}, {B, x3}, {C, x4}, {B, C, ALPHA})
    for i in range(5):
        if f[i] not in sets[i]:
            return f"f(v{i + 1}) not in C(v{i + 1})"
    for i, j in SQUARE_PAIRS:
        if f[i] == f[j]:
            return f"v{i + 1}v{j + 1} conflict"
    return None


def verify_lemma2_tables() -> Lemma2Report:
    """Check all 12 recoloring rows; every case must come back OK."""
    cases = []
    for x2 in (B, C):
        for x4 in (A, B):
            for x3 in (A, C, ALPHA):
                key = (x2, x3, x4)
                f = RECOLORING_ROWS[key]
                cases.append(Lemma2Case(key, f, check_lemma2_row(key, f)))
    return Lemma2Report(cases=tuple(cases))
