"""Corpus generation: exhaustive small in-class graphs, random instances,
and named fixtures.

The enumeration grows connected graphs one vertex at a time.  Attaching
a new vertex to a set S creates cycles of length dist(s, s') + 2 only,
so requiring pairwise distance >= min_girth - 2 inside S preserves the
girth bound exactly, and removing any non-cut vertex of an in-class
graph lands back in the class, which makes the augmentation complete.
Isomorph rejection keeps the first child found with each ranked code:
canonical_code's search with each vertex's degree profile
(_degree_rank) compared ahead of its adjacency bits.  That code is a
complete invariant too, so it keeps the same children, with far fewer
tied orders to carry; canonical_code runs once per kept graph, to sort
each level.  Attach sets that an automorphism of the parent maps onto
each other give isomorphic children, so each parent tries one set per
orbit (McKay's orbit pruning), under the maps read off the tied orders
of the ranked search that found the parent.  These need not be all of
Aut(g), but two sets with the same least image under them are images
of each other under a composition of them, so the output is the same
as without pruning.  At max_n = 11 this searches 1,631 children instead
of 2,580, and codes only the 375 kept.

The sampler grows one adjacency; its chord step counts the open pairs
per vertex and lists only the drawn vertex's row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceeded, GenerationFailed, ParseError, UnknownName
from .formats import MAX_VERTICES
from .graph_core import (
    INF,
    Graph,
    add_vertex,
    adjacency_components,
    ball,
    girth_at_least,
    induced_subgraph,
    is_connected,
    is_subcubic,
)
from .planar_embed import _planar, find_planar_embedding, is_planar

# The largest max_n that enumerate_class and random_instance accept;
# beyond them they raise BudgetExceeded.  CPU on a 2-vCPU Xeon: the
# enumeration takes 1.2 s at max_n = 13 and 4.8 s at 14; girth-6 samples
# of 4,000 vertices take 6-9 s (seeds 0-2), and 5,000 already 10 s.
# Above girth 6 the sampler's budget shrinks (_sample_budget).
ENUMERATION_BUDGET = 14
SAMPLE_BUDGET = 4000


@dataclass(frozen=True)
class GeneratorSpec:
    max_n: int
    min_girth: float = 6
    seed: int = 0

    def validate(self) -> None:
        if self.max_n < 1:
            raise ValueError("max_n must be at least 1")
        if self.min_girth != INF and (self.min_girth < 3 or self.min_girth != int(self.min_girth)):
            raise ValueError("min_girth must be an integer >= 3, or infinite")


def canonical_code(g: Graph) -> tuple:
    """Isomorphism-invariant code: the lexicographically greatest
    placement of the upper-triangle adjacency bits.

    Placing vertex k contributes k bits (adjacency to the k already
    placed vertices); codes compare level by level, so prefixes that
    fall strictly behind the best sequence can be dropped.  All tied
    prefixes are kept, which makes the maximum exact.  The next vertex
    is a neighbour of the prefix, or any vertex once the prefix is a
    union of components.

    A prefix is kept as (score, placed, boundary, trail): score[u] has
    bit n - 1 - i set for each neighbour of u at position i, so at level
    k the raw scores compare as the level values score[u] >> (n - k);
    placed and boundary are bitmasks of the prefix and of its unplaced
    neighbours, and trail links the placed vertices back to the first.
    When the boundary is empty, one vertex per neighbourhood is tried:
    swapping two unplaced twins is an automorphism fixing the prefix.

    A disconnected graph is coded one component at a time.  The search
    places each component whole, so a level holds bits of its own
    component only, as in that component's own code; the first vertex of
    each later component reads 0, and every other level is nonzero,
    since each vertex has a neighbour placed before it.  So each
    component adds its own code's levels and a final 0, a block that no
    other block is a prefix of; the greatest concatenation takes the
    blocks in decreasing order, and the code is that concatenation
    without its last 0.  Six disjoint edges, which tie at every order of
    the edges in one search, cost six searches of one edge.

    Without a triangle the search starts only at vertices of maximum
    degree.  From a start s of degree d, levels 1..d place neighbours of
    s: each such row has the most significant bit (adjacency to s), and
    nothing else, since a neighbour of s adjacent to an earlier
    neighbour of s would close a triangle.  So every start of degree d'
    reads "MSB only" at levels 1..d'; at level d' + 1 a start of larger
    degree still places a neighbour of s, with the MSB set, and the
    start of degree d' cannot, so it falls behind.  With a triangle the
    rows can carry more bits (K3 plus K1,3 starts in the triangle), so
    every vertex is tried.  The triangle test costs O(m) bitmask ANDs.
    """
    comps = adjacency_components(g.adj)
    if len(comps) < 2:
        return _frontier_search(g)[0]
    parts = (induced_subgraph(g, comp)[0] for comp in comps)
    blocks = sorted((_frontier_search(part)[0][1] + (0,) for part in parts), reverse=True)
    return (g.n, tuple(chain.from_iterable(blocks))[:-1])


def _frontier_search(g: Graph, rank: Optional[list[int]] = None) -> tuple[tuple, list[tuple[int, ...]]]:
    """canonical_code's search: the code, and every placement order
    (vertex at position 0, 1, ...) that the search ties at the code.

    With rank, an isomorphism invariant of the vertices (_degree_rank),
    each score starts at rank[v] << n instead of 0, so candidates
    compare by rank first and by adjacency bits second.  The code read
    that way is again a complete invariant, with far fewer ties.
    """
    n = g.n
    if n == 0:
        return (0, ()), [()]
    adj = g.adj
    nbmask = [sum(1 << w for w in adj[v]) for v in range(n)]
    starts: Sequence[int] = range(n)
    if not any(nbmask[u] & nbmask[w] for u in range(n) for w in adj[u] if u < w):
        top = max(len(a) for a in adj)
        starts = [v for v in range(n) if len(adj[v]) == top]
    root = [r << n for r in rank] if rank is not None else [0] * n
    frontier = [(root, 0, 0, None)]
    levels: list[int] = []
    for k in range(n):
        best_val = -1
        best: list = []
        for entry in frontier:
            score, placed, cands, _ = entry
            if not cands:
                seen = set()
                for u in starts if not placed else range(n):
                    if not placed >> u & 1 and nbmask[u] not in seen:
                        seen.add(nbmask[u])
                        cands |= 1 << u
            while cands:
                low = cands & -cands
                cands ^= low
                u = low.bit_length() - 1
                val = score[u]
                if val > best_val:
                    best_val = val
                    best = [(entry, u)]
                elif val == best_val:
                    best.append((entry, u))
        if k:
            levels.append(best_val >> (n - k))
        if k == n - 1:
            break
        bit = 1 << (n - 1 - k)
        frontier = []
        for (score, placed, boundary, trail), u in best:
            score = score.copy()
            for w in adj[u]:
                score[w] |= bit
            placed |= 1 << u
            frontier.append((score, placed, (boundary | nbmask[u]) & ~placed, (u, trail)))
    orders = []
    for (_, _, _, trail), u in best:
        order = [u]
        while trail is not None:
            v, trail = trail
            order.append(v)
        orders.append(tuple(reversed(order)))
    return (n, tuple(levels)), orders


def _degree_rank(g: Graph) -> list[int]:
    """Per vertex, its degree and the multiset of its neighbours'
    degrees packed into one int: deg(v) << 8 plus 1 << 2 deg(w) for each
    neighbour w.  On a subcubic graph each degree count is at most 3 and
    fits its two bits, so equal ranks mean equal degree profiles."""
    adj = g.adj
    return [len(a) << 8 | sum(1 << 2 * len(adj[w]) for w in a) for a in adj]


def _automorphisms(orders: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Automorphisms sigma of a graph, as tuples with sigma[v] the image
    of v, from the placement orders its search ties at its code.

    Two tied orders read the same ranks and adjacency bits, so the map
    from the first order to any other position by position is an
    automorphism; the identity comes first, and distinct orders give
    distinct maps.  The search skips a start with the same neighbourhood
    as one it tried, so these need not be all of Aut(g) (on C4 they are
    4 of 8); orbit pruning needs only some automorphisms.
    """
    first = orders[0]
    maps = []
    for order in orders:
        sigma = [0] * len(first)
        for v, w in zip(first, order):
            sigma[v] = w
        maps.append(tuple(sigma))
    return maps


def _attach_sets(g: Graph, min_girth: float) -> Iterator[tuple]:
    """Vertex sets a new vertex may attach to without breaking the class."""
    open_vertices = [v for v in range(g.n) if g.degree(v) < 3]
    for v in open_vertices:
        yield (v,)
    if min_girth == INF:
        return
    # dist(u, w) >= min_girth - 2 exactly when w lies outside u's ball
    # of radius min_girth - 3.
    near = {v: ball(g.adj, v, int(min_girth) - 3) for v in open_vertices}
    for size in (2, 3):
        for S in combinations(open_vertices, size):
            if all(w not in near[u] for u, w in combinations(S, 2)):
                yield S


def _enumerate_connected(max_n: int, min_girth: float) -> list[list[Graph]]:
    """Connected class members grouped by vertex count, deduped, sorted."""
    levels: list[list[Graph]] = [[] for _ in range(max_n + 1)]
    if max_n < 1:
        return levels
    # Each kept graph with the orders its ranked search tied.
    kept = [(Graph(1, []), [(0,)])]
    levels[1] = [kept[0][0]]
    for n in range(2, max_n + 1):
        seen = {}
        for g, orders in kept:
            # Sets in one orbit of Aut(g) give isomorphic children, so
            # only the first of each orbit is tried: the first child of
            # each code is found as before, and the output is unchanged.
            autos = _automorphisms(orders)
            tried = set()
            for S in _attach_sets(g, min_girth):
                key = min(tuple(sorted(sigma[s] for s in S)) for sigma in autos)
                if key in tried:
                    continue
                tried.add(key)
                h = add_vertex(g, S)
                if not is_planar(h):
                    continue
                # The ranked code is a complete invariant, so the first
                # child per ranked code is the first per canonical_code.
                code, h_orders = _frontier_search(h, _degree_rank(h))
                if code not in seen:
                    seen[code] = (h, h_orders)
        kept = sorted(seen.values(), key=lambda item: canonical_code(item[0]))
        levels[n] = [h for h, _ in kept]
    return levels


def enumerate_class(spec: GeneratorSpec) -> Iterator[Graph]:
    """All connected subcubic planar graphs with girth >= min_girth, up
    to max_n vertices, exactly once up to isomorphism, by size."""
    spec.validate()
    if spec.max_n > ENUMERATION_BUDGET:
        raise BudgetExceeded(spec.max_n, ENUMERATION_BUDGET, "class enumeration", "vertex")
    levels = _enumerate_connected(spec.max_n, spec.min_girth)
    for n in range(1, spec.max_n + 1):
        yield from levels[n]


def subdivide_edge(g: Graph, u: int, v: int) -> Graph:
    """Replace edge uv by a path through a fresh vertex."""
    edges = [e for e in g.edges() if e != (min(u, v), max(u, v))]
    w = g.n
    edges.extend([(u, w), (v, w)])
    return Graph(g.n + 1, edges)


def random_instance(spec: GeneratorSpec) -> Graph:
    """Randomly grown class member, deterministic under the seed.

    Grows one adjacency, a list of sets, in place from a min_girth-cycle
    (one vertex if the girth is infinite or the cycle does not fit).
    Every step keeps the class by construction: attachments go to
    vertices of degree <= 2 (<= 1 for a cycle at a vertex), new cycles
    have exactly the girth, no step passes max_n, and a chord joins two
    vertices at distance >= girth - 1 (_draw_chord), and is rolled back
    if it breaks planarity.
    The result is checked once more; GenerationFailed if it left the class.
    BudgetExceeded when max_n exceeds _sample_budget(min_girth): each
    chord step reads the whole adjacency, so the cost grows with max_n
    squared.
    """
    spec.validate()
    budget = _sample_budget(spec.min_girth)
    if spec.max_n > budget:
        raise BudgetExceeded(spec.max_n, budget, "random instance", "vertex")
    rng = random.Random(spec.seed)
    ring = 0 if spec.min_girth == INF else int(spec.min_girth)
    adj: list[set[int]] = [set()]
    if ring and spec.max_n >= ring:
        adj = [{(i - 1) % ring, (i + 1) % ring} for i in range(ring)]
    for _ in range(4 * spec.max_n):
        if len(adj) >= spec.max_n:
            break
        _random_step(adj, spec, rng)
    g = Graph(len(adj), _edges(adj))
    if not (
        g.n <= spec.max_n
        and is_subcubic(g)
        and is_connected(g)
        and girth_at_least(g, spec.min_girth)
        and is_planar(g)
    ):
        raise GenerationFailed(f"random instance for {spec} left the class")
    return g


def _sample_budget(min_girth: float) -> int:
    """The largest max_n that random_instance accepts at min_girth:
    SAMPLE_BUDGET up to girth 6 and at infinite girth, else
    SAMPLE_BUDGET * 6 // min_girth, or min_girth if that is larger:
    up to min_girth vertices the sample is a tree or one cycle, with no
    chord drawn (a tree of 4,000 vertices takes half the CPU of girth 6).

    A chord step reads a ball of radius min_girth - 2 around each open
    vertex, so a larger girth reads larger balls: at 4,000 vertices
    (seed 0) girth 10 takes 1.2 times the CPU of girth 6, and girth 30
    2.7 times.  With max_n scaled as 1 / min_girth, seeds 0-2 at girths
    7 to 200 took at most 0.87 times the cheapest of girth 6 at 4,000.
    """
    if min_girth == INF or min_girth <= 6:
        return SAMPLE_BUDGET
    girth = int(min_girth)
    return min(SAMPLE_BUDGET, max(SAMPLE_BUDGET * 6 // girth, girth))


def _cycle(k: int) -> Graph:
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def _edges(adj: list[set[int]]) -> list[tuple[int, int]]:
    """The edges u < v of adj in lexicographic order, as Graph.edges."""
    return [(u, v) for u in range(len(adj)) for v in sorted(adj[u]) if u < v]


def _link(adj: list[set[int]], path: list[int]) -> None:
    """Add the edges of path to adj, appending its fresh vertices first."""
    adj.extend(set() for _ in range(max(path) + 1 - len(adj)))
    for u, v in zip(path, path[1:]):
        adj[u].add(v)
        adj[v].add(u)


def _random_step(adj: list[set[int]], spec: GeneratorSpec, rng: random.Random) -> None:
    """Apply one random growth step to adj in place; a step without
    candidates, or a chord that breaks planarity, leaves it unchanged."""
    n = len(adj)
    room = spec.max_n - n
    ring = 0 if spec.min_girth == INF else int(spec.min_girth)
    ops = []
    open_vertices = [v for v in range(n) if len(adj[v]) < 3]
    if open_vertices:
        ops.append("pendant")
    if any(adj) and ring:
        ops.append("subdivide")
    if ring and room >= ring - 1 and any(len(a) <= 1 for a in adj):
        ops.append("cycle_at_vertex")
    if ring and room >= ring - 2:
        ops.append("fuse_cycle")
    if ring:
        ops.append("chord")
    op = rng.choice(ops)
    if op == "pendant":
        _link(adj, [rng.choice(open_vertices), n])
    elif op == "subdivide":
        u, v = rng.choice(_edges(adj))
        adj[u].remove(v)
        adj[v].remove(u)
        _link(adj, [u, n, v])
    elif op == "cycle_at_vertex":
        v = rng.choice([v for v in range(n) if len(adj[v]) <= 1])
        _link(adj, [v, *range(n, n + ring - 1), v])
    elif op == "fuse_cycle":
        pairs = [(u, v) for u, v in _edges(adj) if len(adj[u]) <= 2 and len(adj[v]) <= 2]
        if pairs:
            u, v = rng.choice(pairs)
            _link(adj, [u, *range(n, n + ring - 2), v])
    else:
        # adj is connected, so its distances stay below n: no pair lies
        # ring - 1 apart until ring <= n.
        pair = _draw_chord(adj, ring, rng) if ring <= n else None
        if pair:
            u, v = pair
            _link(adj, [u, v])
            if not _planar(adj):
                adj[u].remove(v)
                adj[v].remove(u)


def _draw_chord(adj: list[set[int]], ring: int, rng: random.Random) -> Optional[tuple[int, int]]:
    """The pair u < v of vertices of degree <= 2 with dist(u, v) >= ring - 1
    that rng.choice draws from the lexicographic list of all of them, or
    None if there is none.  v qualifies when it lies outside u's ball of
    radius ring - 2, so each open u counts its pairs (the open v > u not
    in the ball) from one small ball; only the drawn u's row is listed.
    """
    open_vertices = [v for v in range(len(adj)) if len(adj[v]) <= 2]
    counts = []
    for i, u in enumerate(open_vertices):
        near = [w for w in ball(adj, u, ring - 2) if w > u and len(adj[w]) <= 2]
        counts.append(len(open_vertices) - 1 - i - len(near))
    total = sum(counts)
    if not total:
        return None
    index = rng.choice(range(total))
    i = 0
    while index >= counts[i]:
        index -= counts[i]
        i += 1
    u = open_vertices[i]
    near = ball(adj, u, ring - 2)
    return u, [v for v in open_vertices[i + 1:] if v not in near][index]


def _path(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def _honeycomb(k: int) -> Graph:
    """Chain of k hexagons, consecutive ones sharing an edge."""
    edges = [(i, (i + 1) % 6) for i in range(6)]
    n = 6
    top, bot = 2, 3
    for _ in range(k - 1):
        fresh = list(range(n, n + 4))
        chain = [top] + fresh + [bot]
        edges.extend((chain[i], chain[i + 1]) for i in range(5))
        top, bot = fresh[1], fresh[2]
        n += 4
    return Graph(n, edges)


# The cube and the dodecahedron as networkx's cubical_graph and
# dodecahedral_graph label them.
_CUBE_EDGES = [
    (0, 1), (0, 3), (0, 4), (1, 2), (1, 7), (2, 3),
    (2, 6), (3, 5), (4, 5), (4, 7), (5, 6), (6, 7),
]
_DODECAHEDRON_EDGES = [
    (0, 1), (0, 10), (0, 19), (1, 2), (1, 8), (2, 3), (2, 6), (3, 4), (3, 19), (4, 5),
    (4, 17), (5, 6), (5, 15), (6, 7), (7, 8), (7, 14), (8, 9), (9, 10), (9, 13), (10, 11),
    (11, 12), (11, 18), (12, 13), (12, 16), (13, 14), (14, 15), (15, 16), (16, 17), (17, 18), (18, 19),
]


def _prism(k: int) -> Graph:
    """Two k-cycles, i on the outer joined to k + i on the inner."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return Graph(2 * k, edges)


def _petersen() -> Graph:
    """A pentagon 0..4, spokes i to 5 + i and the pentagram on 5..9."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def _subdivided_prism() -> Graph:
    g = _prism(6)
    for i in range(6):
        g = subdivide_edge(g, i, i + 6)
    return g


def _two_heptagons() -> Graph:
    edges = [(i, (i + 1) % 7) for i in range(7)]
    edges += [(7 + i, 7 + (i + 1) % 7) for i in range(7)]
    edges += [(14, 0), (14, 7)]
    return Graph(15, edges)


def _check_size(name: str, n: int) -> None:
    """Before a fixture of n vertices is built: above MAX_VERTICES, raise
    the ParseError that a text header declaring n vertices raises."""
    if n > MAX_VERTICES:
        raise ParseError(name, None, None, f"vertex count exceeds the limit of {MAX_VERTICES}")


def _family_index(key: str, prefix: str) -> int:
    """k for a family member's name prefix + k, with k in ASCII decimal
    digits, else -1.  A k with more digits than MAX_VERTICES, leading
    zeros aside, is not converted (int refuses over 4,300 digits) but read
    as MAX_VERTICES + 1, which _check_size refuses as too many vertices."""
    digits = key[len(prefix):]
    if not (key.startswith(prefix) and digits.isascii() and digits.isdigit()):
        return -1
    if len(digits.lstrip("0")) > len(str(MAX_VERTICES)):
        return MAX_VERTICES + 1
    return int(digits)


def named(name: str) -> tuple[Graph, Optional[tuple]]:
    """Catalog fixture by name, and its rotation rows
    (find_planar_embedding) when it is planar, else None."""
    key = name.strip().lower()
    g: Optional[Graph] = None
    if (k := _family_index(key, "c")) >= 3:
        _check_size(name, k)
        g = _cycle(k)
    elif (k := _family_index(key, "p")) >= 1:
        _check_size(name, k)
        g = _path(k)
    elif key in ("q3", "cube"):
        g = Graph(8, _CUBE_EDGES)
    elif key in ("prism6", "6-prism"):
        g = _prism(6)
    elif key == "dodecahedron":
        g = Graph(20, _DODECAHEDRON_EDGES)
    elif key == "petersen":
        g = _petersen()
    elif (k := _family_index(key, "honeycomb-")) >= 1:
        _check_size(name, 4 * k + 2)  # k hexagons have 4k + 2 vertices
        g = _honeycomb(k)
    elif key == "subdivided-prism":
        g = _subdivided_prism()
    elif key in ("two-heptagons", "two-heptagons-sharing-a-2-vertex"):
        g = _two_heptagons()
    if g is None:
        raise UnknownName(
            f"unknown fixture '{name}'; try c<k>, p<k>, q3, prism6, dodecahedron,"
            " petersen, honeycomb-<k>, subdivided-prism, two-heptagons"
        )
    return g, find_planar_embedding(g)
