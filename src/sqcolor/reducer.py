"""Coloring the square by the proof's three rules, and Lemma 2.

Every subcubic planar graph of girth >= 6 has a vertex of degree <= 2
(Euler), and the colorer needs nothing else of the configurations:
color_square_7lists drops a leaf, splices a 2-vertex, or removes a
2-vertex that lies on a six-cycle, down to nothing (_peel), then puts
the vertices back in reverse order and colors them (_lift), recoloring
around the six-cycle by Lemma 2 (_recoloring, RECOLORING_ROWS), and
certifies the result.  verify_lemma2_tables runs the engine on its 12
table situations, and verify_lemma2_situations on every collapsed
situation of the lemma, escapes included.

The colorer runs no girth pass.  It checks the degrees and planarity,
and the peel certifies girth >= 6 as it goes: a cycle of length <= 5
is whole until the peel removes its first vertex v, whose neighbours
are then joined by a path of at most 3 edges that avoids v, and the
peel looks for that path at every 2-vertex.  A finished peel keeps the
fact girth_at_least(g, 6) on g for the charge audit; a refused one
hands g to check_class, which words the refusal.

The peel records each removed vertex's square-neighbourhood (for a
six-cycle, the off-cycle square-neighbours of each cycle vertex) while
the vertex is still attached.  The lift colors that vertex in the same
graph, so it reads the records alone and never rebuilds the adjacency.
At girth >= 6 the square pairs on a six-cycle are fixed, v_i and v_j
being square-adjacent exactly when their cyclic distance is <= 2, so
only the engine (_extend_sixcycle) knows them, and the records, the
checked entry point and the Lemma 2 checks pass it the off-cycle sets
alone.
"""

from __future__ import annotations

from itertools import product
from operator import ne
from typing import Iterable, Optional, Sequence

from .coloring import normalize_lists
from .errors import ListTooSmall, PreconditionViolated
from .graph_core import Graph, _short_or_four_path, derived, girth_at_least, is_subcubic, keep, square_neighbors
from .planar_embed import check_class, is_planar

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


def _fits(f: Sequence[Optional[int]], lists, v: int, near: Iterable[int]) -> bool:
    """f[v] lies in the list of v and differs from f[u] for every u in near."""
    color = f[v]
    return color in lists[v] and color not in map(f.__getitem__, near)


def _available(cyc: tuple, lists, f: Sequence[Optional[int]], off: Sequence) -> dict:
    """The available list of each vertex v of the cycle cyc = (v1, ..., v6):
    the colors of lists[v] that no square-neighbor off the cycle wears in
    f.  off[i] holds the off-cycle square-neighbours of cyc[i] in the host."""
    return {v: lists[v].difference(map(f.__getitem__, ov)) for v, ov in zip(cyc, off)}


def _recoloring(cyc: tuple, Cv: dict, f: Sequence[Optional[int]]) -> tuple:
    """The branch taken and the new colors for some of v1..v5 when f[v1] == f[v5].

    f colors v1, ..., v5 alpha, a, b, c, alpha; Cv holds their available
    lists (_available).  Try the five single-vertex recolorings (v1, v5,
    v2, v3, v4, in this order; later ones rely on the equalities that
    earlier failures establish), and when all escapes fail, look up the
    row of RECOLORING_ROWS for the colors (x2, x3, x4) that C(v2), C(v3)
    and C(v4) hold besides a, b and c.  The branch is the escape's name,
    "v1", "v5", "v2", "v3" or "v4", or the row's key (x2, x3, x4).
    """
    v1, v2, v3, v4, v5, v6 = cyc
    alpha, a, b, c = f[v1], f[v2], f[v3], f[v4]
    _invariant(len({alpha, a, b, c}) == 4, "the four cycle colors must be distinct")
    for v, bound in ((v1, 3), (v2, 2), (v3, 2), (v4, 2), (v5, 3), (v6, 5)):
        if len(Cv[v]) < bound:
            _invariant(False, f"available list at vertex {v} smaller than {bound}")

    # Escape recolorings: each moves one cycle vertex to a spare color,
    # plus at most one of its cycle neighbors.
    escapes = (
        ("v1", v1, {a, b, alpha}, {}),
        ("v5", v5, {b, c, alpha}, {}),
        ("v2", v2, {a, b, c}, {v1: a}),
        ("v3", v3, {a, b, c, alpha}, {v1: b}),
        ("v4", v4, {a, b, c}, {v5: c}),
    )
    for name, v, taken, also in escapes:
        spare = Cv[v] - taken
        if spare:
            return name, {v: min(spare), **also}

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
    key = (x2, x3, x4)
    sym = {A: a, B: b, C: c, ALPHA: alpha}
    new = {v: sym[symbol] for v, symbol in zip(cyc, RECOLORING_ROWS[key])}
    _invariant(all(new[v] in Cv[v] for v in new), "table row leaves an available list")
    return key, new


def _extend_sixcycle(cyc: tuple, lists, f: list, off: Sequence):
    """Color the 2-vertex v6 of the six-cycle cyc = (v1, ..., v6) in f;
    return the branch taken: "greedy", or _recoloring's branch.

    f colors the host minus v6 properly in its square, except that v1
    and v5 may share a color.  off[i] holds the off-cycle
    square-neighbours of cyc[i] in the host, aligned with cyc (the
    peel's record, square_neighbors minus the cycle for extend_sixcycle,
    empty sets for the bare hexagon).  The square pairs on the cycle are
    fixed at girth >= 6: v_i and v_j are square-adjacent exactly when
    their cyclic distance is <= 2.  If v1 and v5 differ in color, v6 is
    colored greedily; otherwise v1..v5 are recolored first
    (_recoloring).  Then each cycle vertex must wear a color of its list
    that no off-cycle square-neighbour wears, and the 12 cyclic pairs
    must differ, which the triples v1v2v3, v3v4v5, v5v6v1 and v2v4v6
    cover; the checks run inline, and a message is built only when one
    fails.
    """
    v1, v2, v3, v4, v5, v6 = cyc
    branch = "greedy"
    if f[v1] == f[v5]:
        branch, new = _recoloring(cyc, _available(cyc, lists, f, off), f)
        for v, color in new.items():
            f[v] = color
    get = f.__getitem__
    c1, c2, c3, c4, c5 = f[v1], f[v2], f[v3], f[v4], f[v5]
    free = lists[v6].difference(map(get, off[5]), (c1, c2, c4, c5))
    if not free:
        _invariant(False, "a vertex with at most 6 square-neighbors has a free color")
    f[v6] = c6 = min(free)
    for v, ov in zip(cyc, off):
        color = f[v]
        if color not in lists[v] or color in map(get, ov):
            _invariant(False, "extension must stay in the lists and proper on the square")
    if len({c1, c2, c3}) < 3 or len({c3, c4, c5}) < 3 or len({c5, c6, c1}) < 3 or len({c2, c4, c6}) < 3:
        _invariant(False, "extension must stay in the lists and proper on the square")
    return branch


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


def extend_sixcycle(
    g: Graph, cycle: tuple, L: Sequence[Iterable[int]], phi: Sequence[Optional[int]]
) -> list:
    """Extend a square coloring of g minus the 2-vertex v6 to the square of g.

    cycle = (v1, ..., v6) is a six-cycle of g ending at the 2-vertex, so
    v1 and v5 are its neighbours.  g must be subcubic with girth >= 6,
    every list must hold >= 7 colors (ListTooSmall), and phi must be a
    proper coloring of the square of g minus v6 from the lists, with
    phi[v6] None.  Any other input raises PreconditionViolated naming the
    first fault.  If v1 and v5 differ in color, coloring v6 greedily
    suffices.  Otherwise recolor by an escape or a row of
    RECOLORING_ROWS (_recoloring) first.  Never fails on valid input.

    The library entry point of Lemma 2: the peel calls _extend_sixcycle
    directly, and this checked form stays as API for callers that bring
    their own coloring, such as the acceptance sweep of the lemma.
    """
    if len(cycle) != 6 or len(set(cycle)) != 6:
        raise PreconditionViolated("cycle must list six distinct vertices")
    for i in range(6):
        u, v = cycle[i], cycle[(i + 1) % 6]
        if not (0 <= u < g.n) or not (0 <= v < g.n) or not g.has_edge(u, v):
            raise PreconditionViolated(f"missing cycle edge {u}-{v}")
    v1, _, _, _, v5, v6 = cycle
    if g.degree(v6) != 2:
        raise PreconditionViolated(f"vertex {v6} has degree {g.degree(v6)}, not 2")
    if not derived(g, girth_at_least, 6):
        raise PreconditionViolated("host girth is below 6")
    if not is_subcubic(g):
        raise PreconditionViolated("host must be subcubic")
    lists = _seven_lists(g, L)
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
    f = list(phi)
    on = set(cycle)
    _extend_sixcycle(cycle, lists, f, [square_neighbors(g.adj, v) - on for v in cycle])
    return f


# The proof's three rules, one record per removed vertex.
LEAF = "leaf"
SPLICE = "splice"
SIXCYCLE = "six-cycle"


def _peel(adj: list) -> Optional[list]:
    """Remove every vertex of an in-class graph; return (rule, v, nbrs, cycle, near) records.

    adj is the list of neighbor sets of a subcubic graph; each removed
    vertex's row becomes ().  Every subcubic planar graph of girth >= 6
    has a vertex of degree <= 2, and each rule keeps the graph in the
    class:
      leaf      deg v <= 1: delete v.
      six-cycle v lies on a six-cycle (v's neighbors x, y are joined by a
                path of 4 edges avoiding v): delete v; cycle is
                (x, ..., y, v).
      splice    otherwise: delete v and join x to y.  Every cycle
                through v has length >= 7 (or v is a cut vertex), so the
                girth stays >= 6.
    near holds what the lift needs, read in the graph G from which v is
    removed: for a leaf or a splice, v's square-neighbours (u, *N(u)) or
    (x, y, *N(x), *N(y)) without v; for a six-cycle, one tuple per cycle
    vertex, aligned with cycle, of its square-neighbours off the cycle,
    each built by in-place unions of the peel's sets less the cycle.
    The square pairs on the cycle are fixed at girth >= 6, and the
    engine knows them (_extend_sixcycle).  The lift undoes the later
    records first, so it colors v in this same G, and these are the
    neighbourhoods it would read there.  Tuples, not sets: the records
    outlive the peel, and sets cost memory and GC time.

    The peel certifies girth >= 6 as it goes.  A cycle C of length <= 5
    stays intact until the peel removes its first vertex v, since a
    splice or a deletion elsewhere only adds edges or removes other
    vertices.  At that moment v has degree 2, both of its neighbours x
    and y lie on C, and C - v is an x-y path of at most 3 edges that
    avoids v.  Each 2-vertex makes one scan of the paths from x to y
    (_short_or_four_path): it returns such a short path if there is one,
    else the six-cycle's path of 4 edges, else None for a splice.  So a
    peel that removes every vertex without a short path certifies girth
    >= 6.  The peel returns None when it finds one, or when it stalls:
    every vertex left has degree 3, which no member of the class allows,
    and the rules keep an in-class graph in the class.
    """
    gone = [False] * len(adj)
    work = [v for v in range(len(adj)) if len(adj[v]) <= 2]
    records = []
    while work:
        v = work.pop()
        if gone[v]:
            continue
        gone[v] = True
        av = adj[v]
        if len(av) != 2:
            adj[v] = ()
            nbrs = tuple(av)  # at most one vertex, so already sorted
            near = ()
            if nbrs:
                au = adj[nbrs[0]]
                au.discard(v)
                near = (nbrs[0], *au)
                work.append(nbrs[0])  # it lost v, so has degree <= 2 in a subcubic graph
            records.append((LEAF, v, nbrs, None, near))
            continue
        x, y = av
        if y < x:
            x, y = y, x
        # v is still attached to x and y: this is the graph the lift colors v in.
        path = _short_or_four_path(adj, x, y, v)
        ax, ay = adj[x], adj[y]
        if path is None:
            adj[v] = ()
            ax.discard(v)
            ay.discard(v)
            records.append((SPLICE, v, (x, y), None, (x, y, *ax, *ay)))
            ax.add(y)
            ay.add(x)
            continue  # x and y keep their degrees
        if len(path) < 5:
            return None  # a cycle of length <= 5 through v
        cycle = (*path, v)
        near = []
        for u in cycle:
            au = adj[u]
            ball = set(au)
            for w in au:
                ball |= adj[w]
            ball.difference_update(cycle)
            near.append(tuple(ball))
        records.append((SIXCYCLE, v, (x, y), cycle, tuple(near)))
        adj[v] = ()
        ax.discard(v)
        ay.discard(v)
        work += (x, y)
    return records if all(gone) else None


def _lift(n: int, records: list, lists) -> list:
    """Undo the peel records in reverse, coloring each vertex as it returns.

    n is the vertex count.  No adjacency is read: each record carries the
    square-neighbourhoods of the graph the vertex returns to (see _peel).
    A leaf or spliced vertex has at most 6 square-neighbors and takes the
    least color of its list that none of them wears, inline; a six-cycle
    vertex goes through the recoloring engine, which reads the record's
    off-cycle near as it is, aligned with the cycle.  The lift ignores
    the branch that the engine returns.
    """
    f: list = [None] * n
    get = f.__getitem__
    for _, v, _, cycle, near in reversed(records):
        if cycle is not None:
            _extend_sixcycle(cycle, lists, f, near)
            continue
        free = lists[v].difference(map(get, near))
        if not free:
            _invariant(False, "a vertex with at most 6 square-neighbors has a free color")
        f[v] = min(free)
    return f


def color_square_7lists(g: Graph, L: Sequence[Iterable[int]]) -> list:
    """Properly color the square of g from per-vertex lists of size >= 7.

    g must be subcubic and planar with girth >= 6, else NotInClass (a
    PreconditionViolated) with check_class's message.  The proof's three
    rules (leaf, splice, six-cycle) peel g down to nothing on one mutable
    adjacency (_peel); the lift puts the vertices back in reverse order
    and colors them from the peel's records alone (_lift).  No exact
    search runs.  The result is certified proper on the square of g and
    inside every list; a failed certificate raises AssertionError.  Two
    vertices at distance <= 2 are adjacent or share a neighbour, so the
    certificate asks only that every closed neighbourhood N[u] has
    pairwise distinct colors.

    No girth pass runs: the degree and planarity checks come first, and
    the peel itself certifies girth >= 6 (see _peel), so a finished peel
    keeps that fact on g for the charge audit to read.  The lists are
    checked after the peel, so a graph of girth < 6 is refused for its
    girth whatever its lists.  On any refusal, check_class decides the
    message; if it finds g in the class after the peel has failed, the
    peel is at fault and an AssertionError says so.
    """
    records = _peel([set(a) for a in g.adj]) if is_subcubic(g) and is_planar(g) else None
    if records is None:
        check_class(g)
        _invariant(False, "the peel removes every vertex of an in-class graph and meets no cycle shorter than 6")
    keep(g, True, girth_at_least, 6)
    lists = _seven_lists(g, L)
    f = _lift(g.n, records, lists)
    _invariant(
        all(color in allowed for color, allowed in zip(f, lists))
        and all(len({f[u], *map(f.__getitem__, nbrs)}) == len(nbrs) + 1 for u, nbrs in enumerate(g.adj)),
        "final certificate: the coloring must be proper on the square and inside the lists",
    )
    return f


# The bare six-cycle 0..5 of the Lemma 2 situations; nothing lies off it.
_HEXAGON = tuple(range(6))


def verify_lemma2_tables() -> list:
    """Run the engine on the 12 table situations; one line per row, ending
    in OK or FAIL(<message>).

    Row (x2, x3, x4)'s situation is the bare six-cycle 0..5, with the
    symbols as colors: v1..v5 wear alpha, a, b, c, alpha, v6 is
    uncolored, and the lists are C(v1) = {a, b, alpha}, C(v2) = {a, x2},
    C(v3) = {b, x3}, C(v4) = {c, x4}, C(v5) = {b, c, alpha} and
    C(v6) = {alpha, a, b, c, d}, all available since no vertex lies off
    the cycle: the engine gets empty off-cycle sets.  Every escape fails
    there, so _extend_sixcycle applies the row; a line is OK when its
    invariants pass, the engine reports the row's key as its branch, and
    v1..v5 end with the row's colors.
    """
    lines = []
    for x2 in (B, C):
        for x4 in (A, B):
            for x3 in (A, C, ALPHA):
                row = RECOLORING_ROWS[(x2, x3, x4)]
                own = ({A, B, ALPHA}, {A, x2}, {B, x3}, {C, x4}, {B, C, ALPHA}, {ALPHA, A, B, C, "d"})
                lists = [frozenset(s) for s in own]
                f = [ALPHA, A, B, C, ALPHA, None]
                try:
                    branch = _extend_sixcycle(_HEXAGON, lists, f, ((),) * 6)
                    if branch != (x2, x3, x4):
                        verdict = f"FAIL(the engine took branch {branch})"
                    elif tuple(f[:5]) != row:
                        verdict = f"FAIL(v1..v5 end as ({','.join(f[:5])}))"
                    else:
                        verdict = "OK"
                except AssertionError as exc:
                    verdict = f"FAIL({exc})"
                lines.append(f"case {{a,{x2}}}|{{b,{x3}}}|{{c,{x4}}} -> f=({','.join(row)}) {verdict}")
    return lines


# The spare colors of the collapsed lists, and the order in which a
# situation line names the colors of a list.
_SPARES = ("s1", "s2")
_SYMBOL_ORDER = (ALPHA, A, B, C, "d", *_SPARES)


def _collapsed_lists(own: str, bound: int) -> list:
    """Every available list of a cycle vertex wearing the symbol own, up
    to renaming colors: own, any of the other three cycle colors, and
    either no spare or as many as reach the bound (at least one)."""
    others = [s for s in (ALPHA, A, B, C) if s != own]
    out = []
    for mask in range(8):
        base = {own, *(others[i] for i in range(3) if mask >> i & 1)}
        for spare in (False, True):
            spares = _SPARES[: max(1, bound - len(base))] if spare else ()
            if len(base) + len(spares) >= bound:
                out.append(frozenset(base.union(spares)))
    return out


def verify_lemma2_situations() -> tuple[str, int]:
    """Run the engine on every collapsed situation of Lemma 2; return the
    summary line and the number of failures.

    Each situation is the bare six-cycle 0..5 of verify_lemma2_tables,
    with v1..v5 wearing alpha, a, b, c, alpha and C(v6) = {alpha, a, b,
    c, d}, and with the lists of v1..v5 drawn from their collapsed
    lists.  The engine reads of an available list only which of the
    cycle colors alpha, a, b and c it holds, whether it holds another
    color, and its size against the bound (3 at v1 and v5, 2 at v2, v3
    and v4); it takes the least spare color of the first escape that has
    one, and only that vertex and at most one of its cycle neighbours
    move.  So up to renaming colors, each list is its cycle colors plus
    either no spare or as many as reach the bound, and one spare color
    stands for any number of them.  The situations are the 15 * 15 * 15
    * 12 = 40,500 lists of v2..v5 with C(v1) = {alpha, a, b}, which is
    the one list of v1 with no escape, plus each of the 11 escaping lists
    of v1 with the first lists of v2..v5: escape v1 reads no other list.

    A situation fails when an engine invariant fails, or when the colors
    leave a list or repeat on a square-adjacent pair of the hexagon; that
    re-check lists the hexagon's pairs itself rather than trust the
    engine's.  The line counts the situations and the branch that the
    engine reports for each one that passes (every table row counts as
    "table"), then the failures, and names the first failing situation's
    lists and why it failed.
    """
    kept = frozenset({ALPHA, A, B})
    v6_list = frozenset({ALPHA, A, B, C, "d"})
    others = (_collapsed_lists(A, 2), _collapsed_lists(B, 2), _collapsed_lists(C, 2), _collapsed_lists(ALPHA, 3))
    first = tuple(column[0] for column in others)
    situations = [(kept, *rest, v6_list) for rest in product(*others)]
    situations += [(L, *first, v6_list) for L in _collapsed_lists(ALPHA, 3) if L != kept]
    # The hexagon's square pairs (us[k], ws[k]): cyclic distance 1 or 2.
    us, ws = zip(*[(u, (u + step) % 6) for u in _HEXAGON for step in (1, 2)])
    branches = {name: 0 for name in ("v1", "v5", "v2", "v3", "v4", "table")}
    failures = 0
    first_failure = ""
    for lists in situations:
        f = [ALPHA, A, B, C, ALPHA, None]
        try:
            branch = _extend_sixcycle(_HEXAGON, lists, f, ((),) * 6)
        except AssertionError as exc:
            why = str(exc)
        else:
            # The engine's own check, repeated here in case it is wrong:
            # every color in its list, and each square pair (us[k], ws[k])
            # of two colors.
            get = f.__getitem__
            if all(map(frozenset.__contains__, lists, f)) and all(map(ne, map(get, us), map(get, ws))):
                branches["table" if branch in RECOLORING_ROWS else branch] += 1
                continue
            why = "the colors leave a list or repeat on the square"
        failures += 1
        if not first_failure:
            shown = ("{" + ",".join(s for s in _SYMBOL_ORDER if s in L) + "}" for L in lists)
            first_failure = f" first={'|'.join(shown)} FAIL({why})"
    histogram = " ".join(f"{name}={count}" for name, count in branches.items())
    return f"situations={len(situations)} {histogram} failures={failures}{first_failure}", failures
