"""Independent reference implementations used to cross-check the package."""

import itertools
from collections import deque

import networkx as nx

from sqcolor.errors import ParseError
from sqcolor.formats import MAX_VERTICES, parse_graphs
from sqcolor.generate import enumerate_class
from sqcolor.graph_core import Graph, square_neighbors
from sqcolor.planar_embed import faces
from sqcolor.reducer import SIXCYCLE, SPLICE, _extend_sixcycle


def to_nx(g):
    """Convert a Graph to a networkx.Graph on the same vertex labels."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def from_nx(h):
    """Convert a networkx graph to a Graph, relabeling nodes to 0..n-1."""
    nodes = sorted(h.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(index[u], index[v]) for u, v in h.edges()])


def built_as_checked(g, edges):
    """Whether g, which a producer built from rows, is the graph that the
    checked constructor Graph(g.n, edges) builds, with the same m.  Its
    rows are sorted tuples, so == holds only if g's rows are sorted,
    symmetric and without repeats."""
    h = Graph(g.n, edges)
    return g == h and g.m == h.m


def square_edges_bfs(g):
    """Edge set of the square, via a depth-2 BFS from every vertex."""
    out = set()
    for s in range(g.n):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            if dist[v] == 2:
                continue
            for w in g.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        for v, d in dist.items():
            if 1 <= d <= 2:
                out.add((min(s, v), max(s, v)))
    return frozenset(out)


def girth_per_edge(g):
    """Girth via shortest path between edge endpoints in the graph minus that edge."""
    best = float("inf")
    for u, v in g.edges():
        dist = {u: 0}
        queue = deque([u])
        while queue and v not in dist:
            x = queue.popleft()
            for w in g.adj[x]:
                if (x, w) in ((u, v), (v, u)):
                    continue
                if w not in dist:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def two_core_rows(g):
    """The rows of g's 2-core, by networkx's k_core: row v lists v's
    neighbours in the 2-core, sorted, and is empty off it."""
    core = nx.k_core(to_nx(g), 2)
    return [sorted(core.adj[v]) if v in core else [] for v in range(g.n)]


def brute_colorable(g, lists):
    """Decide L-colorability by plain index-order backtracking."""
    colors = [None] * g.n

    def place(v):
        if v == g.n:
            return True
        for c in lists[v]:
            if all(colors[w] != c for w in g.adj[v]):
                colors[v] = c
                if place(v + 1):
                    return True
                colors[v] = None
        return False

    return place(0)


def naive_choosable(g, k, universe=None):
    """Decide k-choosability by sweeping all assignments from a finite universe.

    Colors can be assumed to come from a universe of size k*n, so the sweep
    is exact. Returns (True, None) or (False, witness).
    """
    if universe is None:
        universe = range(1, k * g.n + 1)
    pools = list(itertools.combinations(universe, k))
    for choice in itertools.product(pools, repeat=g.n):
        lists = [list(p) for p in choice]
        if not brute_colorable(g, lists):
            return False, lists
    return True, None


def graphs_in_class(max_n, min_girth=6):
    """All connected subcubic planar graphs with girth >= min_girth and n <= max_n.

    Built from the networkx graph atlas (complete for n <= 7), so this is an
    enumeration oracle independent of the package's generator.
    """
    assert max_n <= 7
    out = []
    for h in nx.graph_atlas_g()[1:]:
        if h.number_of_nodes() == 0 or h.number_of_nodes() > max_n:
            continue
        if not nx.is_connected(h):
            continue
        if any(d > 3 for _, d in h.degree()):
            continue
        if not nx.check_planarity(h)[0]:
            continue
        g = from_nx(h)
        if girth_per_edge(g) < min_girth:
            continue
        out.append(g)
    return out


def with_disjoint_unions(spec):
    """enumerate_class(spec), then every disjoint union of two or more of
    its graphs with at most spec.max_n vertices in all, each once.

    A disconnected graph is a multiset of connected components, so
    nondecreasing component choices enumerate each exactly once.
    """
    pool = list(enumerate_class(spec))
    yield from pool

    def unions(start, remaining, parts):
        for idx in range(start, len(pool)):
            g = pool[idx]
            if g.n > remaining:
                continue
            chosen = parts + [g]
            if len(chosen) >= 2:
                yield disjoint_union(chosen)
            yield from unions(idx, remaining - g.n, chosen)

    yield from unions(0, spec.max_n, [])


def disjoint_union(parts):
    """The graphs of parts side by side, each shifted past the ones before."""
    edges = []
    offset = 0
    for g in parts:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph(offset, edges)


def isomorphic(g, h):
    """Graph isomorphism, delegated to networkx."""
    return nx.is_isomorphic(to_nx(g), to_nx(h))


def relabel(g, perm):
    """Apply a vertex permutation: new graph where perm[v] plays v's role."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_lists(rng, n, size, universe):
    """One random list assignment: size colors per vertex, drawn from universe."""
    return [sorted(rng.sample(universe, size)) for _ in range(n)]


def degeneracy_by_scan(g):
    """(d, order) by repeated minimum-degree removal, scanning every
    remaining vertex for the minimum (deg, v) at each step."""
    n = g.n
    deg = [len(a) for a in g.adj]
    removed = [False] * n
    order = []
    d = 0
    for _ in range(n):
        v = min((x for x in range(n) if not removed[x]), key=lambda x: (deg[x], x))
        d = max(d, deg[v])
        order.append(v)
        removed[v] = True
        for u in g.adj[v]:
            if not removed[u]:
                deg[u] -= 1
    return d, order


def canonical_code_by_frontier(g):
    """canonical_code by the direct search: every tied prefix is a tuple
    with a position dict, and the candidates of a prefix are recomputed
    from all its vertices at every level."""
    n = g.n
    if n == 0:
        return (0, ())
    frontier = [((v,), {v: 0}) for v in range(n)]
    levels = []
    for k in range(1, n):
        best_val = -1
        best = []
        for prefix, pos in frontier:
            cands = {u for v in prefix for u in g.adj[v] if u not in pos}
            if not cands:
                cands = {u for u in range(n) if u not in pos}
            top = k - 1
            for cand in sorted(cands):
                val = 0
                for w in g.adj[cand]:
                    i = pos.get(w)
                    if i is not None:
                        val |= 1 << (top - i)
                if val > best_val:
                    best_val = val
                    best = [(prefix, pos, cand)]
                elif val == best_val:
                    best.append((prefix, pos, cand))
        frontier = []
        for prefix, pos, cand in best:
            pos2 = dict(pos)
            pos2[cand] = k
            frontier.append((prefix + (cand,), pos2))
        levels.append(best_val)
    return (n, tuple(levels))


def faces_by_sorted_darts(g, rot):
    """Face walks of the rotation rows rot on connected g, numbered by sorting
    all darts: each walk starts at the least dart that no earlier walk
    holds.  A single vertex bounds one empty walk."""
    if g.n == 1 and g.m == 0:
        return [()]
    pos = {}
    for v in range(g.n):
        for i, u in enumerate(rot[v]):
            pos[(u, v)] = i
    seen = set()
    out = []
    darts = [(u, v) for u in range(g.n) for v in rot[u]]
    for start in sorted(darts):
        if start in seen:
            continue
        walk = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            walk.append(cur)
            u, v = cur
            w = rot[v][(pos[(u, v)] + 1) % len(rot[v])]
            cur = (v, w)
        out.append(tuple(walk))
    return out


def embed_kernel_nx(rot, comp):
    """networkx's embedding of a connected component: give comp a plane
    rotation in rot, in place, or return False."""
    nxg = nx.Graph()
    nxg.add_nodes_from(comp)
    # Sorted, so that networkx's input does not depend on the row order.
    nxg.add_edges_from([(v, w) for v in comp for w in sorted(rot[v]) if v < w])
    ok, emb = nx.check_planarity(nxg)
    if ok:
        for v in comp:
            rot[v] = list(emb.neighbors_cw_order(v))
    return ok


def euler_genus_check(g, rs):
    """True when n - m + f = 2 for the faces traced from rs."""
    return g.n - g.m + len(faces(g, rs)) == 2


def parse_one_graph(text, source="<input>"):
    """The one (graph, rotation) pair in text; ParseError for any other count."""
    items = parse_graphs(text, source)
    if len(items) != 1:
        raise ParseError(source, 1, "", f"expected exactly one graph, found {len(items)}")
    return items[0]


def _tokens(text):
    """Yield (token, lineno) pairs, skipping comments and blanks."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            yield tok, lineno


def _int(tok, lineno, source, what):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(source, lineno, tok, f"expected {what}") from None


def parse_graphs_text_by_tokens(text, source="<text>"):
    """parse_graphs_text one token at a time: every token is paired with
    its line and converted on its own, so each error is raised where it
    is met.  The header's edge count is checked against n(n-1)/2 before
    any edge is read, as in the package."""
    toks = list(_tokens(text))
    out = []
    i = 0
    while i < len(toks):
        tok, lineno = toks[i]
        if tok == "rot":
            raise ParseError(source, lineno, tok, "rotation line before any graph")
        n = _int(tok, lineno, source, "vertex count")
        if i + 1 >= len(toks):
            raise ParseError(source, lineno, tok, "missing edge count")
        mtok, mline = toks[i + 1]
        m = _int(mtok, mline, source, "edge count")
        if n < 0 or m < 0:
            raise ParseError(source, lineno, tok, "negative header value")
        if n > MAX_VERTICES:
            raise ParseError(source, lineno, tok, f"vertex count exceeds the limit of {MAX_VERTICES}")
        if m > n * (n - 1) // 2:
            raise ParseError(source, mline, mtok, f"edge count exceeds n(n-1)/2 = {n * (n - 1) // 2}")
        i += 2
        edges = []
        for k in range(m):
            if i + 1 >= len(toks):
                raise ParseError(source, toks[-1][1], toks[-1][0], f"expected {m} edges, got {k}")
            utok, uline = toks[i]
            vtok, vline = toks[i + 1]
            u = _int(utok, uline, source, "vertex id")
            v = _int(vtok, vline, source, "vertex id")
            if not (0 <= u < v < n):
                raise ParseError(source, uline, f"{utok} {vtok}", f"edge must satisfy 0 <= u < v < {n}")
            edges.append((u, v))
            i += 2
        try:
            g = Graph(n, edges)
        except ValueError as e:
            raise ParseError(source, lineno, tok, str(e)) from None
        rot = None
        if i < len(toks) and toks[i][0] == "rot":
            rows = {}
            while i < len(toks) and toks[i][0] == "rot":
                rline = toks[i][1]
                i += 1
                if i >= len(toks):
                    raise ParseError(source, rline, "rot", "truncated rotation line")
                vtok, vline = toks[i]
                if not vtok.endswith(":"):
                    raise ParseError(source, vline, vtok, "rotation vertex must end with ':'")
                v = _int(vtok[:-1], vline, source, "vertex id")
                if not 0 <= v < n:
                    raise ParseError(source, vline, vtok, "rotation vertex out of range")
                i += 1
                nbrs = []
                while i < len(toks) and toks[i][1] == vline and toks[i][0] != "rot":
                    ntok, nline = toks[i]
                    nbrs.append(_int(ntok, nline, source, "neighbor id"))
                    i += 1
                if sorted(nbrs) != sorted(g.adj[v]):
                    raise ParseError(source, vline, vtok, f"rotation at vertex {v} does not match adjacency")
                rows[v] = tuple(nbrs)
            missing = [v for v in range(n) if len(g.adj[v]) > 0 and v not in rows]
            if missing:
                raise ParseError(source, lineno, "rot", f"rotation missing vertices {first_ten(missing)}")
            rot = tuple(rows.get(v, ()) for v in range(n))
        out.append((g, rot))
    return out


def parse_lists_by_line(text, n, source="<lists>"):
    """parse_lists one line at a time, with one frozenset per line."""
    lists = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if ":" not in body:
            raise ParseError(source, lineno, body.split()[0], "expected 'v: colors' line")
        head, _, tail = body.partition(":")
        v = _int(head.strip(), lineno, source, "vertex id")
        if not 0 <= v < n:
            raise ParseError(source, lineno, head.strip(), f"vertex out of range for n={n}")
        if v in lists:
            raise ParseError(source, lineno, head.strip(), "duplicate vertex line")
        colors = frozenset(_int(t, lineno, source, "color") for t in tail.split())
        if not colors:
            raise ParseError(source, lineno, head.strip(), "empty color list")
        lists[v] = colors
    missing = [v for v in range(n) if v not in lists]
    if missing:
        raise ParseError(source, len(text.splitlines()) or 1, str(missing[0]), f"missing list for vertices {first_ten(missing)}")
    return [lists[v] for v in range(n)]


def lift_by_adjacency(adj, records, lists):
    """The lift that puts the adjacency back: undo the peel records in
    reverse on adj (the rows the peel emptied, which end as the original
    graph) and read every square-neighbourhood off the restored graph.
    At each step it asserts that the record's near holds exactly those
    neighbourhoods (for a six-cycle, the off-cycle ones: no cycle vertex,
    and with the pairs at cyclic distance <= 2 the whole
    square-neighbourhood), then colors from its own as the lift does."""
    f = [None] * len(adj)
    for rule, v, nbrs, cycle, near in reversed(records):
        if rule == SPLICE:
            x, y = nbrs
            adj[x].discard(y)
            adj[y].discard(x)
        adj[v] = set(nbrs)
        for u in nbrs:
            adj[u].add(v)
        if rule == SIXCYCLE:
            restored = [square_neighbors(adj, u) for u in cycle]
            on = set(cycle)
            pairs = [{cycle[(i + step) % 6] for step in (-2, -1, 1, 2)} for i in range(6)]
            assert [set(t) | p for t, p in zip(near, pairs)] == restored, (rule, v)
            assert all(on.isdisjoint(t) for t in near), (rule, v)
            _extend_sixcycle(cycle, lists, f, [nbhd - on for nbhd in restored])
        else:
            restored = square_neighbors(adj, v)
            assert sorted(near) == sorted(restored), (rule, v)
            free = lists[v] - {f[u] for u in restored}
            assert free, "a vertex with at most 6 square-neighbors has a free color"
            f[v] = min(free)
    return f


def config_holds(g, cfg):
    """Whether cfg witnesses its reducible configuration in g, read off
    the definition with networkx and girth_per_edge alone, so that no
    detector of the package checks its own answer.  The four types are
    told apart by class name:
      OneVertex(v)                a vertex of degree <= 1;
      CutTwoVertex(u, x, y)       a 2-vertex with neighbours x and y that
                                  is a cut vertex (so on no cycle);
      SixCycleTwoVertex(cycle)    a six-cycle of a graph of girth >= 6
                                  whose last vertex has degree 2;
      SpacingViolation(cycle, u, w, dist)
                                  two 2-vertices u != w on the cycle
                                  at distance dist <= 3.
    """
    h = to_nx(g)
    kind = type(cfg).__name__
    if kind == "OneVertex":
        return cfg.v in h and h.degree(cfg.v) <= 1
    if kind == "CutTwoVertex":
        u = cfg.u
        return (u in h and h.degree(u) == 2 and set(h[u]) == {cfg.x, cfg.y}
                and u in set(nx.articulation_points(h)))
    cyc = cfg.cycle
    if not (len(set(cyc)) == len(cyc) >= 3 and all(h.has_edge(cyc[i - 1], cyc[i]) for i in range(len(cyc)))):
        return False
    if kind == "SixCycleTwoVertex":
        return len(cyc) == 6 and h.degree(cyc[5]) == 2 and girth_per_edge(g) >= 6
    if kind == "SpacingViolation":
        u, w = cfg.u, cfg.w
        return (u != w and u in cyc and w in cyc and h.degree(u) == 2 == h.degree(w)
                and cfg.dist <= 3 and nx.shortest_path_length(h, u, w) == cfg.dist)
    raise TypeError(f"not a reducible configuration: {cfg!r}")


def first_ten(vertices):
    """The list of vertices, or its first ten, "..." and the count."""
    if len(vertices) <= 10:
        return str(vertices)
    return "[" + ", ".join(map(str, vertices[:10])) + f", ...] ({len(vertices)} in all)"
