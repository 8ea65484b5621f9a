"""Combinatorial plane embeddings: rotations and face tracing.

A rotation is a tuple of rows, row v listing v's neighbours in cyclic
order; check_rotation checks it against a graph.  A face is the tuple of
darts (directed edges) of its boundary walk; the successor of (u, v) is
(v, w) where w follows u in the row of v.  A face's length is the
length of its tuple, which counts edge sides, so a bridge contributes 2
to the face containing it.
Embedding operations reject empty and disconnected graphs; callers embed
each component separately.

One reduction serves planarity and the embedding alike: the
series-parallel reduction (_reduce) deletes leaves, suppresses
2-vertices, and deletes a 2-vertex whose neighbours are adjacent, until
every vertex left has degree 0 or >= 3.  Each rule keeps planarity both
ways, and a graph of treewidth 2, such as a honeycomb chain, reduces to
nothing (Duffin 1965).  A graph with fewer than six vertices of degree
>= 3 and fewer than five of degree >= 4 has no subdivided K3,3 or K5,
so by Kuratowski it is planar.  is_planar asks that of the graph, of
its reduction and of each component of the reduction; _embed_kernel
embeds the components that are left by the left-right planarity test
(Brandes 2009), on explicit stacks, with the rotations networkx's
check_planarity would give, and _face_walks traces the faces of every
Euler check.  find_planar_embedding, and the charge audit through
_embed, embed the reduction the same way and then undo _reduce's log in
reverse, which puts each deleted or suppressed vertex back into the
rotation rows with no search; the faces are traced and Euler-checked,
and the audit numbers faces in the order of that trace.
check_class is the one membership test for the coloring theorem's class,
and the refusal oracle of the colorer: color_square_7lists checks the
degrees and planarity itself, lets its peel certify girth >= 6, and
calls check_class only to word a refusal.
"""

from __future__ import annotations

from .errors import InconsistentRotation, NotInClass
from .graph_core import (
    Graph,
    adjacency_components,
    derived,
    girth_at_least,
    is_connected,
    is_subcubic,
)


def check_rotation(g: Graph, rot) -> None:
    """Raise InconsistentRotation unless rot has one row per vertex of g
    and row v lists v's neighbours in some order."""
    if len(rot) != g.n:
        raise InconsistentRotation(f"rotation has {len(rot)} rows for n={g.n}")
    for v in range(g.n):
        if tuple(sorted(rot[v])) != g.adj[v]:
            raise InconsistentRotation(f"rotation at vertex {v} does not match adjacency")


def faces(g: Graph, rot) -> list[tuple[tuple[int, int], ...]]:
    """The face walks of the rotation rows rot on nonempty connected g,
    each a tuple of darts (u, v).

    Face i starts at the i-th least dart (u, v) that no earlier face
    holds; the charge audit numbers faces by the same index.  This is
    the checked entry point for a rotation that a caller brings: it
    raises ValueError on an empty or disconnected g and
    InconsistentRotation when rot does not match g (check_rotation).  No
    module calls it: _embed traces the rotation it has built itself with
    _face_walks.  It stays as API, and perfbench/spans.py traces it.
    """
    if g.n == 0:
        raise ValueError("face tracing requires a nonempty graph")
    if not is_connected(g):
        raise ValueError("face tracing requires a connected graph")
    check_rotation(g, rot)
    return _face_walks(range(g.n), g.adj, rot)


def _face_walks(verts, order, rot) -> list[tuple[tuple[int, int], ...]]:
    """The face walks of the rotation rows rot on verts, each started at
    the first unwalked dart (u, v) for u in verts and v in order[u].  A
    dart (s, t) is marked walked at t's position in rot[s], in a table
    with a row for each vertex of verts.  A start dart is looked up in
    that table first, so the 2m - f darts that an earlier walk took cost
    one lookup each and no list.  A step finds s in the row of t with
    list.index, on rows of at most 3 entries in the class, and wraps past
    the row's end by a compare.  With no dart at all, a single vertex in
    the plane, there is one empty walk."""
    seen = [None] * len(rot)
    for v in verts:
        seen[v] = [False] * len(rot[v])
    walks = []
    for u in verts:
        row_u, seen_u = rot[u], seen[u]
        for v in order[u]:
            i = row_u.index(v)
            if seen_u[i]:
                continue
            s, t = u, v
            walk = []
            while not seen[s][i]:
                seen[s][i] = True
                walk.append((s, t))
                row = rot[t]
                i = row.index(s) + 1
                if i == len(row):
                    i = 0
                s, t = t, row[i]
            walks.append(tuple(walk))
    return walks or [()]


def _embed_kernel(rot, comp) -> bool:
    """Give the connected component comp of rot, usually one left by
    the reduction, a plane rotation in rot, in place, or return False.

    This is the left-right planarity test (Brandes 2009) on comp
    relabelled to 0..k-1, and it gives the rotations networkx's
    check_planarity gives on the edges (v, w), v < w, listed by v in comp
    order and w sorted: the rows are sorted first, so that the answer
    does not depend on the order the reduction left them in.  Three
    depth-first searches run on explicit stacks: _lr_orient, _lr_sides,
    and the embedding below, which puts each edge into its ends'
    rotations by its side.

    A rotation is a cyclic list of darts, cw[d] following d; dart 2f
    runs along edge f (oriented src to dst) and dart 2f + 1 against it.
    Each rotation starts at networkx's leftmost dart, first[v]: a tree
    edge puts the parent first, a right back edge goes just after
    right_ref, and a left back edge just before left_ref, taking its
    place as first if left_ref held it.
    """
    k = len(comp)
    idx = {v: i for i, v in enumerate(comp)}
    # networkx's graph copy re-lists each edge from its end that comes
    # first in comp, which sets the order the DFS scans neighbours in.
    given: list[list[int]] = [[] for _ in range(k)]
    for i, v in enumerate(comp):
        for w in sorted(rot[v]):
            if v < w:
                j = idx[w]
                given[i].append(j)
                given[j].append(i)
    adj: list[list[int]] = [[] for _ in range(k)]
    for i in range(k):
        for j in given[i]:
            if j > i:
                adj[i].append(j)
                adj[j].append(i)
    m = sum(map(len, adj)) // 2
    if k > 2 and m > 3 * k - 6:
        return False
    height, parent, src, dst, low, depth, out = _lr_orient(adj)
    ordered = _sorted_rows(out, depth)
    side = _lr_sides(ordered, height, parent, src, dst, low)
    if side is None:
        return False
    ordered = _sorted_rows(out, [s * d for s, d in zip(side, depth)])

    head = [0] * (2 * m)
    head[::2] = dst
    head[1::2] = src
    cw = [0] * (2 * m)
    ccw = [0] * (2 * m)
    first = [-1] * k
    for v, o in enumerate(ordered):
        if o:
            darts = [2 * f for f in o]
            first[v] = darts[0]
            for d, d2 in zip(darts, darts[1:] + darts[:1]):
                cw[d] = d2
                ccw[d2] = d

    def insert_before(d, r):
        p = ccw[r]
        cw[p] = ccw[r] = d
        ccw[d] = p
        cw[d] = r

    left_ref = [0] * k
    right_ref = [0] * k
    nxt = [0] * k  # position in ordered[v] of the next edge to place
    stack = [0]
    while stack:
        v = stack[-1]
        o = ordered[v]
        for i in range(nxt[v], len(o)):
            f = o[i]
            w = dst[f]
            d = 2 * f + 1
            if parent[w] == f:
                if first[w] < 0:
                    cw[d] = ccw[d] = d
                else:
                    insert_before(d, first[w])
                first[w] = d
                left_ref[v] = right_ref[v] = 2 * f
                nxt[v] = i + 1
                stack.append(w)
                break
            if side[f] == 1:
                insert_before(d, cw[right_ref[w]])
            else:
                r = left_ref[w]
                insert_before(d, r)
                if first[w] == r:
                    first[w] = d
                left_ref[w] = d
        else:
            stack.pop()

    for i, v in enumerate(comp):
        row = []
        d = start = first[i]
        while d >= 0:
            row.append(comp[head[d]])
            d = cw[d]
            if d == start:
                break
        rot[v] = row
    return True


def _sorted_rows(rows, key):
    """Each row stably sorted by key[f] of its entries f."""
    return [sorted(row, key=key.__getitem__) if len(row) > 1 else row for row in rows]


def _lr_orient(adj):
    """The orientation phase of the left-right test on the connected
    graph adj, scanning each row in order from vertex 0.

    Each edge is oriented the first time the DFS scans it: to a new
    vertex it is a tree edge, to an ancestor a back edge; edge ids count
    the edges in that order.  Returns (height, parent, src, dst, low,
    depth, out): each vertex's height and tree edge in (-1 at the root),
    each edge's ends, lowpoint and nesting depth (2 * lowpoint, + 1 when
    its second lowpoint lies below its tail), and each vertex's
    out-edges in orientation order.
    """
    k = len(adj)
    height = [-1] * k
    parent = [-1] * k
    src: list[int] = []
    dst: list[int] = []
    low: list[int] = []
    low2: list[int] = []
    depth: list[int] = []
    out: list[list[int]] = [[] for _ in range(k)]
    nxt = [0] * k  # position in adj[v] of the next neighbour to scan
    height[0] = 0
    stack = [0]
    while stack:
        v = stack[-1]
        e = parent[v]
        up = src[e] if e >= 0 else -1
        hv = height[v]
        a = adj[v]
        for i in range(nxt[v], len(a)):
            w = a[i]
            hw = height[w]
            if hw >= 0 and (hw > hv or w == up):
                continue  # already oriented, from w
            f = len(src)
            src.append(v)
            dst.append(w)
            out[v].append(f)
            low2.append(hv)
            if hw < 0:
                low.append(hv)
                depth.append(0)  # set once w is done
                parent[w] = f
                height[w] = hv + 1
                nxt[v] = i + 1
                stack.append(w)
                break
            low.append(hw)
            depth.append(2 * hw)
            if e >= 0:
                _lower(low, low2, e, hw, hv)
        else:
            stack.pop()
            if e >= 0:
                depth[e] = 2 * low[e] + (low2[e] < height[up])
                if parent[up] >= 0:
                    _lower(low, low2, parent[up], low[e], low2[e])
    return height, parent, src, dst, low, depth, out


def _lower(low, low2, e, lo, lo2) -> None:
    """Fold an out-edge's lowpoints (lo, lo2) into those of edge e."""
    if lo < low[e]:
        low2[e] = min(low[e], lo2)
        low[e] = lo
    elif lo > low[e]:
        low2[e] = min(low2[e], lo)
    else:
        low2[e] = min(low2[e], lo2)


def _lr_sides(ordered, height, parent, src, dst, low):
    """The testing phase of the left-right test: each edge's side, +1 or
    -1, or None when the graph is not planar.

    The DFS of _lr_orient runs again, each vertex taking its out-edges in
    the order ordered[v].  Conflict pairs [left low, left high, right
    low, right high] of return edges, -1 standing for none, stack up in
    pairs; bottom[f] is the top pair when f was reached, compared by
    identity.  ref[f] names the edge whose side f's side is relative to,
    and the sides are made absolute once the search is done.
    """
    k, m = len(ordered), len(src)
    pairs: list[list[int]] = []
    bottom: list = [None] * m
    low_edge = [0] * m
    ref = [-1] * (m + 1)  # ref[-1] takes the writes to "no edge"
    side = [1] * m

    def conflicting(lo, hi, f):
        return (lo >= 0 or hi >= 0) and low[hi] > low[f]

    def add_constraints(f, e):
        p = [-1, -1, -1, -1]
        while True:  # merge the return edges of f into p's right
            q = pairs.pop()
            if q[0] >= 0 or q[1] >= 0:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if q[0] >= 0 or q[1] >= 0:
                return False
            if low[q[2]] > low[e]:
                if p[2] < 0 and p[3] < 0:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:
                ref[q[2]] = low_edge[e]
            if (pairs[-1] if pairs else None) is bottom[f]:
                break
        # merge the conflicting return edges of f's earlier siblings into p's left
        while True:
            q = pairs[-1]
            if not (conflicting(q[0], q[1], f) or conflicting(q[2], q[3], f)):
                break
            pairs.pop()
            if conflicting(q[2], q[3], f):
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if conflicting(q[2], q[3], f):
                return False
            ref[p[2]] = q[3]
            if q[2] >= 0:
                p[2] = q[2]
            if p[0] < 0 and p[1] < 0:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if max(p) >= 0:
            pairs.append(p)
        return True

    def remove_back_edges(e):
        u = src[e]
        hu = height[u]
        while pairs:  # drop the pairs whose lowest return edge ends at u
            p = pairs[-1]
            if p[0] < 0 and p[1] < 0:
                lowest = low[p[2]]
            elif p[2] < 0 and p[3] < 0:
                lowest = low[p[0]]
            else:
                lowest = min(low[p[0]], low[p[2]])
            if lowest != hu:
                break
            pairs.pop()
            if p[0] >= 0:
                side[p[0]] = -1
        if pairs:  # trim the return edges ending at u off the top pair
            p = pairs[-1]
            while p[1] >= 0 and dst[p[1]] == u:
                p[1] = ref[p[1]]
            if p[1] < 0 and p[0] >= 0:
                ref[p[0]] = p[2]
                side[p[0]] = -1
                p[0] = -1
            while p[3] >= 0 and dst[p[3]] == u:
                p[3] = ref[p[3]]
            if p[3] < 0 and p[2] >= 0:
                ref[p[2]] = p[0]
                side[p[2]] = -1
                p[2] = -1
        if low[e] < hu:  # e takes the side of a highest return edge
            hl, hr = pairs[-1][1], pairs[-1][3]
            ref[e] = hl if hl >= 0 and (hr < 0 or low[hl] > low[hr]) else hr

    def integrate(f, v):
        # f leaves v and returns below it: the first out-edge hands its
        # lowpoint edge to v's tree edge, a later one adds constraints.
        if f == ordered[v][0]:
            low_edge[parent[v]] = low_edge[f]
            return True
        return add_constraints(f, parent[v])

    nxt = [0] * k  # position in ordered[v] of the next edge to test
    stack = [0]
    while stack:
        v = stack[-1]
        o = ordered[v]
        for i in range(nxt[v], len(o)):
            f = o[i]
            bottom[f] = pairs[-1] if pairs else None
            if parent[dst[f]] == f:
                nxt[v] = i + 1
                stack.append(dst[f])
                break
            low_edge[f] = f
            pairs.append([-1, -1, f, f])
            if not integrate(f, v):
                return None
        else:
            stack.pop()
            e = parent[v]
            if e >= 0:
                remove_back_edges(e)
                u = src[e]
                if low[e] < height[u] and not integrate(e, u):
                    return None

    for f in range(m):  # follow each ref chain, then unwind it
        chain = []
        e = f
        while ref[e] >= 0:
            chain.append(e)
            e = ref[e]
            ref[chain[-1]] = -1
        s = side[e]
        for e in reversed(chain):
            s = side[e] = side[e] * s
    return side


def _embed(g: Graph) -> tuple[list, list] | None:
    """Embed g (its caller checks it is connected) through its
    series-parallel reduction; return the rotation rows, as lists, and
    the face walks, or None when g is not planar.

    The reduction of a connected graph has at most one component with
    edges, and _embed_kernel embeds it.  Then _reduce's log is undone in
    reverse order, each step putting v back into the rotation rows:
      - a leaf v goes anywhere in its neighbour a's row;
      - a suppressed v takes b's place at a and a's place at b;
      - a deleted v whose neighbours are adjacent goes right after b at a
        and right before a at b, which closes the face a-v-b.
    The rotation is built here, so check_rotation does not run on it:
    its faces come straight from _face_walks, in the order faces would
    number them, and are Euler-checked.
    """
    red, log = _reduce(g.adj)
    rot = [list(r) for r in red]
    comp = [v for v in range(g.n) if rot[v]]
    if comp and not _embed_kernel(rot, comp):
        return None
    for v, a, b, rule in reversed(log):
        ra = rot[a]
        if rule == "leaf":
            ra.append(v)
            rot[v] = [a]
            continue
        rb = rot[b]
        if rule == "suppress":
            ra[ra.index(b)] = v
            rb[rb.index(a)] = v
        else:
            ra.insert(ra.index(b) + 1, v)
            rb.insert(rb.index(a), v)
        rot[v] = [a, b]
    walks = _face_walks(range(g.n), g.adj, rot)
    if g.n - g.m + len(walks) != 2:
        raise AssertionError("undoing the reduction gave a non-planar rotation")
    return rot, walks


def find_planar_embedding(g: Graph) -> tuple[tuple[int, ...], ...] | None:
    """Return rotation rows, one tuple per vertex, with n - m + f = 2, or
    None when none exists, for nonempty connected g.  It is taken on the
    same series-parallel reduction that is_planar decides on; see _embed."""
    if g.n == 0 or not is_connected(g):
        raise ValueError("embedding requires a nonempty connected graph")
    found = _embed(g)
    return None if found is None else tuple(map(tuple, found[0]))


def is_planar(g: Graph) -> bool:
    """Return True when g, connected or not, has a plane embedding.

    A graph is planar when it has fewer than six vertices of degree >= 3
    and fewer than five of degree >= 4, since a subdivided K3,3 or K5
    needs that many branch vertices; at degree <= 3 this reads "fewer
    than six 3-vertices", and no planarity test runs.  The same is asked
    of g's series-parallel reduction (_reduce), which is planar exactly
    when g is, and of each of its components.  These positive answers
    rest on Kuratowski's theorem and on the reduction rules, and no
    embedding is built for them.  Each component that is left goes to
    _embed_kernel, and its rotation is Euler-checked, so every positive
    answer of the left-right test is checked.
    """
    return _planar(g.adj)


def _planar(adj) -> bool:
    """is_planar on the graph whose vertex v has the neighbours adj[v],
    listed in any order: a list of sets will do."""
    if _few_branch_vertices(len(a) for a in adj):
        return True
    red, _ = _reduce(adj)
    if _few_branch_vertices(len(a) for a in red):
        return True
    # The reduction leaves most vertices isolated; walk only the others.
    for comp in adjacency_components(red, [v for v, a in enumerate(red) if a]):
        if _few_branch_vertices(len(red[v]) for v in comp):
            continue
        if not _embed_kernel(red, comp):
            return False
        m = sum(len(red[v]) for v in comp) // 2
        if len(comp) - m + len(_face_walks(comp, red, red)) != 2:
            raise AssertionError("embedding of the reduction is a non-planar rotation")
    return True


def _reduce(adj) -> tuple[list[set[int]], list[tuple[int, int, int, str]]]:
    """The series-parallel reduction of the graph given by its adjacency,
    and its log: adjacency sets in which every vertex has degree 0 or
    >= 3, and the list of the rules applied, in order.

    A worklist takes the vertices of degree <= 2 and applies, until none
    is left, the rules below, each of which keeps planarity both ways and
    logs one entry (v, a, b, rule):
      - a vertex v of degree 1 is deleted: (v, a, -1, "leaf");
      - a 2-vertex v whose neighbours a and b are not adjacent is
        suppressed, the edge ab taking its place: (v, a, b, "suppress");
      - a 2-vertex v whose neighbours are adjacent is deleted, which also
        drops the parallel edge its suppression would make, and a and b
        go back on the worklist: (v, a, b, "triangle").
    No rule raises a degree, so each vertex is reduced at most once and
    the reduction takes time linear in n + m.  A graph of treewidth at
    most 2, such as a honeycomb chain, reduces to no edge at all.
    """
    red = [set(a) for a in adj]
    log = []
    stack = [v for v in range(len(red)) if len(red[v]) <= 2]
    while stack:
        v = stack.pop()
        nbrs = red[v]
        if len(nbrs) == 2:
            a, b = nbrs
            ra, rb = red[a], red[b]
            ra.discard(v)
            rb.discard(v)
            if b in ra:
                stack.append(a)
                stack.append(b)
                log.append((v, a, b, "triangle"))
            else:
                ra.add(b)
                rb.add(a)
                log.append((v, a, b, "suppress"))
        elif len(nbrs) == 1:
            (a,) = nbrs
            red[a].discard(v)
            stack.append(a)
            log.append((v, a, -1, "leaf"))
        else:
            continue
        nbrs.clear()
    return red, log


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


def check_subcubic(g: Graph) -> None:
    """Raise NotInClass unless every vertex of g has degree at most 3."""
    if not is_subcubic(g):
        raise NotInClass("graph has a vertex of degree above 3")


def check_degree_and_girth(g: Graph) -> None:
    """Raise NotInClass unless g is subcubic with girth at least 6."""
    check_subcubic(g)
    if not derived(g, girth_at_least, 6):
        raise NotInClass("girth is below 6")


def check_class(g: Graph) -> None:
    """Raise NotInClass unless g is subcubic, of girth at least 6 and planar.

    g may be disconnected.  The checks run in that order, and the first
    that fails gives the message.  Planarity is decided by is_planar, so
    most class members pass without any embedding being built; the
    charge audit, which needs the faces, makes the same degree and girth
    checks through check_degree_and_girth and then calls _embed.  The
    colorer does not call it on in-class input: its peel certifies the
    girth, and check_class words its refusals (color_square_7lists).
    """
    check_degree_and_girth(g)
    if not is_planar(g):
        raise NotInClass("graph is not planar")
