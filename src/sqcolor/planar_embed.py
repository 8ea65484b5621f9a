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
(Brandes 2009), with the rotations networkx's check_planarity would
give, and _face_walks traces the faces of every Euler check.  The test
is three flat loops, one per depth-first search, whose one helper call
merges the constraints of an edge; each keeps its stack in arrays (the
scan of each vertex on the search path, and the tree edges back up the
path), so no search recurses.  find_planar_embedding, and the charge
audit through _embed, embed the reduction the same way and then undo
_reduce's log in reverse, which puts each deleted or suppressed vertex
back into the rotation rows with no search; the faces are traced and
Euler-checked, and the audit numbers faces in the order of that trace.
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
    order and w sorted, so that the answer does not depend on the order
    the reduction left the rows in.  Three depth-first searches run on
    explicit stacks: _lr_orient, _lr_sides, and the embedding below.
    Each stack is two arrays: its[v], the scan of each vertex v on the
    search path, and the tree edges, which lead back up the path.

    networkx's graph copy lists each edge from its end that comes first
    in comp, which sets the order the searches scan neighbours in: the
    row of vertex x lists its neighbours before x, in comp order, then
    those after x whose label is above x's, in label order, then the
    other ones after x, in comp order.  One pass builds these rows, each
    vertex appending itself to the rows of the neighbours after it.

    Each vertex's out-edges are sorted by nesting depth for the test,
    then, on a planar answer, by side times nesting depth for the
    embedding.  There a tree edge puts the parent first in the child's
    row, and a back edge into w from below w's current tree edge g goes
    just after g's head (right) or just before the left back edges put
    there so far (left).  So w's row is its parent, then for each
    out-edge g in turn: g's left back edges, the last one first, then
    g's head, then g's right back edges, the last one first.  The row is
    assembled, in labels, as each tree edge is finished.
    """
    k = len(comp)
    idx = {v: i for i, v in enumerate(comp)}
    adj: list[list[int]] = [[] for _ in range(k)]
    for x, v in enumerate(comp):
        ax = adj[x]
        later = None
        for w in sorted(rot[v]):
            j = idx[w]
            if j > x:
                adj[j].append(x)
                if w > v:
                    ax.append(j)
                elif later is None:
                    later = [j]
                else:
                    later.append(j)
        if later:
            later.sort()
            ax += later
    m = sum(map(len, adj)) // 2
    if k > 2 and m > 3 * k - 6:
        return False
    parent, src, dst, low, depth, out = _lr_orient(adj, m)
    for row in out:
        if len(row) > 1:
            row.sort(key=depth.__getitem__)
    side = _lr_sides(out, parent, src, dst, low)
    if side is None:
        return False
    # Stable sorts, so sorting the depth-sorted rows by side times depth
    # gives what sorting the rows in orientation order would.
    key = [s * d for s, d in zip(side, depth)]
    for row in out:
        if len(row) > 1:
            row.sort(key=key.__getitem__)

    # The embedding: rows[v] is v's row, as labels; left[v] and right[v]
    # list the back edges into v from below its current tree edge.
    rows: list = [None] * k
    left: list = [None] * k
    right: list = [None] * k
    its: list = [None] * k  # the scan of each vertex on the search path
    v, lv, row, it = 0, comp[0], [], iter(out[0])
    rows[0] = row
    while True:
        for f in it:
            w = dst[f]
            if parent[w] == f:
                its[v] = it
                left[v] = right[v] = None
                v, lv, row, it = w, comp[w], [lv], iter(out[w])
                rows[w] = row
                break
            row.append(comp[w])
            back = right if side[f] == 1 else left
            if back[w] is None:
                back[w] = [lv]
            else:
                back[w].append(lv)
        else:
            rot[lv] = row
            f = parent[v]
            if f < 0:
                return True
            w = v
            v = src[f]
            lv, row, it = comp[v], rows[v], its[v]
            back = left[v]
            if back:
                back.reverse()
                row += back
            row.append(comp[w])
            back = right[v]
            if back:
                back.reverse()
                row += back


def _lr_orient(adj, m):
    """The orientation phase of the left-right test on the connected
    graph adj with m edges, scanning each row in order from vertex 0.

    Each edge is oriented the first time the DFS scans it: to a new
    vertex it is a tree edge, to an ancestor a back edge; edge ids count
    the edges in that order.  Returns (parent, src, dst, low, depth,
    out): each vertex's tree edge in (-1 at the root), each edge's ends,
    lowpoint (a height) and nesting depth (2 * lowpoint, + 1 when its
    second lowpoint lies below its tail), and each vertex's out-edges in
    orientation order.  A back edge's lowpoints are its head's height and
    its tail's, so it is folded into its tail's tree edge at once; a tree
    edge's are final when its head is done.
    """
    k = len(adj)
    height = [-1] * k
    parent = [-1] * k
    src = [0] * m
    dst = [0] * m
    low = [0] * m
    low2 = [0] * m
    depth = [0] * m
    out: list[list[int]] = [[] for _ in range(k)]
    its: list = [None] * k  # the scan of each vertex on the search path
    height[0] = 0
    f = 0  # the next edge id
    v, e, up, hv, o, it = 0, -1, -1, 0, out[0], iter(adj[0])
    while True:
        for w in it:
            hw = height[w]
            if hw >= 0 and (hw > hv or w == up):
                continue  # already oriented, from w
            src[f] = v
            dst[f] = w
            o.append(f)
            if hw < 0:
                low[f] = low2[f] = hv
                parent[w] = f
                its[v] = it
                hv += 1
                height[w] = hv
                v, e, up, o, it = w, f, v, out[w], iter(adj[w])
                f += 1
                break
            low[f] = hw
            depth[f] = 2 * hw
            f += 1
            if e >= 0:  # fold (hw, hv) into e; hv lies above both of e's
                lo = low[e]
                if hw < lo:
                    low2[e] = lo
                    low[e] = hw
                elif hw > lo and hw < low2[e]:
                    low2[e] = hw
        else:
            if e < 0:
                return parent, src, dst, low, depth, out
            lo, lo2 = low[e], low2[e]
            hv -= 1
            depth[e] = 2 * lo + (lo2 < hv)
            v = up
            e = parent[v]
            o, it = out[v], its[v]
            up = src[e] if e >= 0 else -1
            if e >= 0:  # fold (lo, lo2) into e
                le = low[e]
                if lo < le:
                    low2[e] = le if le < lo2 else lo2
                    low[e] = lo
                elif lo > le:
                    if lo < low2[e]:
                        low2[e] = lo
                elif lo2 < low2[e]:
                    low2[e] = lo2


def _lr_sides(ordered, parent, src, dst, low):
    """The testing phase of the left-right test: each edge's side, +1 or
    -1, or None when the graph is not planar.

    The DFS of _lr_orient runs again, each vertex taking its out-edges in
    the order ordered[v].  Conflict pairs [left low, left high, right
    low, right high] of return edges, -1 standing for none, stack up in
    pairs, on a bottom pair that is never popped; bottom[f] is the top
    pair when the tree edge f was reached, compared by identity.  An edge
    f that returns below its tail v is integrated there: the first
    out-edge of v hands its lowpoint edge to v's tree edge e, and a later
    one adds its constraints.  Those are f's return edges above e's
    lowpoint, gathered into the right of a new pair p (a back edge is
    its own one return edge, so it skips the stack), and then merge.
    ref[f] names the edge whose side f's side is relative to, and the
    sides are made absolute once the search is done.
    """
    m = len(src)
    base = [-1, -1, -1, -1]  # the bottom of the stack, which is never popped
    pairs = [base]
    bottom = [base] * m
    low_edge = [0] * m
    ref = [-1] * (m + 1)  # ref[-1] takes the writes to "no edge"
    side = [1] * m

    def merge(f, p):
        """Merge the return edges of f's earlier siblings that conflict
        with f into p's left, p's right holding f's own, and push p
        unless it is empty; False when a pair conflicts on both sides.
        An interval conflicts with f when it is not empty and its highest
        return edge lies above f's lowpoint."""
        lf = low[f]
        while True:
            q = pairs[-1]
            if (q[2] >= 0 or q[3] >= 0) and low[q[3]] > lf:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                if (q[2] >= 0 or q[3] >= 0) and low[q[3]] > lf:
                    return False
            elif not ((q[0] >= 0 or q[1] >= 0) and low[q[1]] > lf):
                break
            pairs.pop()
            ref[p[2]] = q[3]
            if q[2] >= 0:
                p[2] = q[2]
            if p[0] < 0 and p[1] < 0:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p[2] >= 0 or p[3] >= 0 or p[0] >= 0 or p[1] >= 0:
            pairs.append(p)
        return True

    its: list = [None] * len(ordered)  # the scan of each vertex on the search path
    v, e, hv, o, it = 0, -1, 0, ordered[0], iter(ordered[0])
    while True:
        for f in it:
            w = dst[f]
            if parent[w] == f:
                bottom[f] = pairs[-1]
                its[v] = it
                v, e, o, it = w, f, ordered[w], iter(ordered[w])
                hv += 1
                break
            low_edge[f] = f
            if f == o[0]:
                low_edge[e] = f
                pairs.append([-1, -1, f, f])
                continue
            # f's constraints: f goes into p's right if it lies above e's lowpoint
            if low[f] > low[e]:
                p = [-1, -1, f, f]
            else:
                ref[f] = low_edge[e]
                p = [-1, -1, -1, -1]
            if not merge(f, p):
                return None
        else:
            if e < 0:
                break
            # v is done: drop the return edges that end at its parent u
            u = src[e]
            hv -= 1
            p = pairs[-1]
            while p is not base:  # the pairs whose lowest return edge ends at u
                if p[0] < 0 and p[1] < 0:
                    lowest = low[p[2]]
                elif p[2] < 0 and p[3] < 0:
                    lowest = low[p[0]]
                else:
                    lowest = low[p[0]]
                    if low[p[2]] < lowest:
                        lowest = low[p[2]]
                if lowest != hv:
                    break
                pairs.pop()
                if p[0] >= 0:
                    side[p[0]] = -1
                p = pairs[-1]
            # trim the return edges ending at u off the top pair
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
            f = e
            v = u
            e, o, it = parent[u], ordered[u], its[u]
            if low[f] < hv:  # f returns below u, so it is integrated at u
                hl, hr = p[1], p[3]  # f takes a highest return edge's side
                ref[f] = hl if hl >= 0 and (hr < 0 or low[hl] > low[hr]) else hr
                if f == o[0]:
                    low_edge[e] = low_edge[f]
                    continue
                # f's constraints: the pairs above bottom[f] hold f's return
                # edges; those above e's lowpoint go into p's right
                p = [-1, -1, -1, -1]
                le = low[e]
                while True:
                    q = pairs.pop()
                    if q[0] >= 0 or q[1] >= 0:
                        q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                        if q[0] >= 0 or q[1] >= 0:
                            return None
                    if low[q[2]] > le:
                        if p[2] < 0 and p[3] < 0:
                            p[3] = q[3]
                        else:
                            ref[p[2]] = q[3]
                        p[2] = q[2]
                    else:
                        ref[q[2]] = low_edge[e]
                    if pairs[-1] is bottom[f]:
                        break
                if not merge(f, p):
                    return None

    for f in range(m):  # follow each ref chain, then unwind it
        if ref[f] < 0:
            continue
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
