"""Tests for configuration detection, recoloring, and the main coloring routine."""

import random
import sys
from itertools import permutations, product

import pytest

from oracles import lift_by_adjacency, naive_choosable

from sqcolor.coloring import find_L_coloring, is_proper, normalize_lists
from sqcolor.discharging import (
    CutTwoVertex,
    OneVertex,
    SixCycleTwoVertex,
    SpacingViolation,
    _cycle_through,
    discharge_audit,
    find_reducible_config,
    find_sixcycle_two_vertex,
    find_spacing_violation,
    reduce_cut_two_vertex,
)
from sqcolor.errors import (
    ListTooSmall,
    NotCutVertex,
    NotInClass,
    NotTwoVertex,
    PreconditionViolated,
)
from sqcolor.generate import GeneratorSpec, enumerate_class, named, random_instance
from sqcolor.graph_core import (
    Graph,
    _four_path,
    biconnected_components,
    girth,
    girth_at_least,
    induced_subgraph,
    square,
    square_neighbors,
)
from sqcolor.planar_embed import check_class
from sqcolor.reducer import (
    A,
    ALPHA,
    B,
    C,
    RECOLORING_ROWS,
    SIXCYCLE,
    SPLICE,
    check_lemma2_row,
    color_square_7lists,
    extend_sixcycle,
    verify_lemma2_tables,
    _available,
    _lift,
    _peel,
    _recoloring,
)


def cycle(k):
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


FULL = [list(range(7))]


def hexagon_config(g):
    cfg = find_sixcycle_two_vertex(g)
    assert cfg is not None
    return cfg


# --- the symbolic recoloring table ---


def test_rows_cover_all_twelve_case_combinations():
    keys = set(RECOLORING_ROWS)
    expect = set()
    for x2 in (B, C):
        for x3 in (A, C, ALPHA):
            for x4 in (A, B):
                expect.add((x2, x3, x4))
    assert keys == expect
    assert len(keys) == 12


def test_verify_lemma2_tables_all_ok():
    report = verify_lemma2_tables()
    assert len(report.cases) == 12
    assert report.passed
    text = report.render()
    lines = text.splitlines()
    assert len(lines) == 12
    assert all(line.endswith("OK") for line in lines)
    assert lines[0] == "case {a,b}|{b,a}|{c,a} -> f=(alpha,b,a,c,b) OK"


def test_check_lemma2_row_accepts_every_stored_row():
    for key, f in RECOLORING_ROWS.items():
        assert check_lemma2_row(key, f) is None


def test_check_lemma2_row_catches_conflict():
    key = (B, A, A)  # {a,b}|{b,a}|{c,a}
    good = RECOLORING_ROWS[key]
    assert good == (ALPHA, B, A, C, B)
    broken = (ALPHA, B, B, C, B)
    assert check_lemma2_row(key, broken) == "v2v3 conflict"


def test_check_lemma2_row_catches_bad_membership():
    key = (B, A, A)
    broken = (C, B, A, C, B)
    assert check_lemma2_row(key, broken) == "f(v1) not in C(v1)"
    broken5 = (ALPHA, B, A, C, A)
    assert check_lemma2_row(key, broken5) == "f(v5) not in C(v5)"


def available_symbols(key):
    """The available sets C(v1), ..., C(v5) of the table situation key."""
    x2, x3, x4 = key
    return ({A, B, ALPHA}, {A, x2}, {B, x3}, {C, x4}, {B, C, ALPHA})


def test_check_lemma2_row_catches_out_of_list_symbols():
    for key, good in RECOLORING_ROWS.items():
        for i, avail in enumerate(available_symbols(key)):
            for s in (A, B, C, ALPHA):
                if s in avail:
                    continue
                mutated = good[:i] + (s,) + good[i + 1 :]
                got = check_lemma2_row(key, mutated)
                assert got == f"f(v{i + 1}) not in C(v{i + 1})"


def test_check_lemma2_row_mutations_never_pass_silently():
    # A mutation may happen to build another sound row, but whenever the
    # checker accepts one it must genuinely satisfy all row constraints.
    from sqcolor.reducer import SQUARE_PAIRS

    for key, good in RECOLORING_ROWS.items():
        sets = available_symbols(key)
        for i in range(5):
            for s in (A, B, C, ALPHA):
                if s == good[i]:
                    continue
                mutated = good[:i] + (s,) + good[i + 1 :]
                if check_lemma2_row(key, mutated) is None:
                    assert all(mutated[j] in sets[j] for j in range(5))
                    assert all(mutated[p] != mutated[q] for p, q in SQUARE_PAIRS)


# --- every branch of the recoloring engine ---

# The cycle (v1, ..., v6) on scattered vertex ids, the colors that the
# symbols stand for, and a spare color d.
CYC = (5, 2, 7, 0, 3, 8)
COLOR = {ALPHA: 10, A: 11, B: 12, C: 13, "d": 14}
# (x2, x3, x4): C(v2) = {a, x2}, C(v3) = {b, x3}, C(v4) = {c, x4}.
TABLE_KEYS = [(x2, x3, x4) for x2 in (B, C) for x4 in (A, B) for x3 in (A, C, ALPHA)]
ESCAPES = [  # (index of the cycle vertex given the spare color d, new colors)
    (0, {0: "d"}),
    (4, {4: "d"}),
    (1, {1: "d", 0: A}),
    (2, {2: "d", 0: B}),
    (3, {3: "d", 4: C}),
]


def engine_cases():
    for key in TABLE_KEYS:
        row = RECOLORING_ROWS[key]
        yield pytest.param(key, None, dict(enumerate(row)), id="row-" + "-".join(key))
    for spare_at, new in ESCAPES:
        yield pytest.param(TABLE_KEYS[0], spare_at, new, id=f"escape-v{spare_at + 1}")


@pytest.mark.parametrize("key, spare_at, new", engine_cases())
def test_recoloring_reaches_every_branch(key, spare_at, new):
    # A table situation: v1 and v5 wear alpha, v2, v3, v4 wear a, b, c;
    # one spare color at a vertex of v1..v5 opens that vertex's escape.
    avail = [{COLOR[s] for s in symbols} for symbols in available_symbols(key)]
    avail.append(set(range(20, 25)))
    if spare_at is not None:
        avail[spare_at].add(COLOR["d"])
    Cv = {v: frozenset(colors) for v, colors in zip(CYC, avail)}
    f = [None] * 9
    for v, s in zip(CYC, (ALPHA, A, B, C, ALPHA)):
        f[v] = COLOR[s]
    got = _recoloring(CYC, Cv, f)
    assert got == {CYC[i]: COLOR[s] for i, s in new.items()}


def collapsed_lists(own, bound):
    """Every available list of a cycle vertex wearing the symbol own, up
    to renaming colors: own, any of the other three cycle colors, and
    either no spare or at least one, padded with spares to the bound."""
    others = [COLOR[s] for s in (ALPHA, A, B, C) if s != own]
    out = []
    for mask in range(8):
        base = {COLOR[own]} | {others[i] for i in range(3) if mask >> i & 1}
        for spare in (False, True):
            spares = range(20, 20 + max(1, bound - len(base))) if spare else ()
            if len(base) + len(spares) >= bound:
                out.append(frozenset(base | set(spares)))
    return out


def test_recoloring_is_correct_on_every_collapsed_situation():
    # The engine sees finitely many situations up to renaming colors, and
    # collapsing the spares of a list to "none or some" loses nothing.
    # C(v1) = {alpha, a, b} factors out escape v1, which takes every
    # other list of v1.  Every call must keep each new color in its list
    # and leave no square-adjacent pair of v1..v5 sharing a color.
    from sqcolor.reducer import SQUARE_PAIRS

    v1, v2, v3, v4, v5, v6 = CYC
    f = [None] * 9
    for v, s in zip(CYC, (ALPHA, A, B, C, ALPHA)):
        f[v] = COLOR[s]
    a, b, c = COLOR[A], COLOR[B], COLOR[C]
    fixed = {v1: frozenset({COLOR[ALPHA], a, b}), v6: frozenset(range(40, 45))}
    branch = {(v1, v2): "v2", (v1, v3): "v3", (v4, v5): "v4", (v5,): "v5", CYC[:5]: "table"}
    calls, failures = 0, 0
    branches, keys = {}, set()
    for lists in product(collapsed_lists(A, 2), collapsed_lists(B, 2),
                         collapsed_lists(C, 2), collapsed_lists(ALPHA, 3)):
        Cv = {**fixed, **dict(zip((v2, v3, v4, v5), lists))}
        calls += 1
        try:
            new = _recoloring(CYC, Cv, f)
        except AssertionError:
            failures += 1
            continue
        g = list(f)
        for v, color in new.items():
            g[v] = color
        if any(g[v] not in Cv[v] for v in CYC[:5]) or any(
            g[CYC[i]] == g[CYC[j]] for i, j in SQUARE_PAIRS
        ):
            failures += 1
        name = branch.get(tuple(sorted(new, key=CYC.index)))
        branches[name] = branches.get(name, 0) + 1
        if name == "table":
            C2, C3, C4 = lists[:3]
            keys.add((B if b in C2 else C, A if a in C3 else C if c in C3 else ALPHA, A if a in C4 else B))
    assert calls == 40_500
    assert failures == 0
    assert branches == {"v5": 37_125, "v2": 2_700, "v3": 360, "v4": 252, "table": 63}
    assert keys == set(RECOLORING_ROWS)


# --- six-cycle configuration plumbing ---


def test_sixcycle_config_validate_errors():
    g = cycle(6)
    with pytest.raises(PreconditionViolated):
        SixCycleTwoVertex(cycle=(0, 1, 2, 3, 4, 4), host=g).validate()
    with pytest.raises(PreconditionViolated):
        SixCycleTwoVertex(cycle=(0, 1, 2, 3, 5, 4), host=g).validate()
    small = cycle(5)
    with pytest.raises(PreconditionViolated):
        SixCycleTwoVertex(cycle=(0, 1, 2, 3, 4, 0), host=small).validate()


def test_find_sixcycle_on_c6():
    cfg = hexagon_config(cycle(6))
    assert cfg.cycle == (1, 2, 3, 4, 5, 0)
    cfg.validate()


def test_find_sixcycle_on_subdivided_prism():
    g = named("subdivided-prism")[0]
    cfg = hexagon_config(g)
    cfg.validate()
    assert g.degree(cfg.cycle[5]) == 2


def test_find_sixcycle_respects_girth_gate():
    assert find_sixcycle_two_vertex(named("prism6")[0]) is None
    assert find_sixcycle_two_vertex(cycle(7)) is None
    # Girth 4 with a six-cycle 0-1-13-7-6-12 through the 2-vertex 12: the
    # girth check after the path search still rejects it.
    g = prism_with_subdivided_rungs({0, 1})
    assert _four_path(g.adj, 0, 6, 12) == (0, 1, 13, 7, 6)
    assert find_sixcycle_two_vertex(g) is None


def test_find_sixcycle_refuses_a_vertex_of_degree_above_3_within_a_cpu_bound(cpu_bound):
    # K2,4000: each 2-vertex's path search scanned a hub's row, about 1 s
    # here before returning None.
    n = 4000
    g = Graph(n + 2, [(h, v) for v in range(2, n + 2) for h in (0, 1)])
    with cpu_bound(0.5, "find_sixcycle_two_vertex on K2,4000"):
        with pytest.raises(NotInClass, match="degree above 3"):
            find_sixcycle_two_vertex(g)


def first_four_path_by_walks(adj, x, y, avoid):
    """First of all 4-edge walks from x, listed in adjacency order, that
    ends at y on five distinct vertices without avoid."""
    walks = [(x,)]
    for _ in range(4):
        walks = [w + (u,) for w in walks for u in adj[w[-1]]]
    return next((w for w in walks if w[-1] == y and len(set(w)) == 5 and avoid not in w), None)


def test_four_path_is_the_first_path_in_adjacency_order(subcubic9):
    rng = random.Random(5)
    found_below_six = 0
    for g in subcubic9:
        below_six = not girth_at_least(g, 6)
        adjs = [g.adj, [tuple(rng.sample(a, len(a))) for a in g.adj], [set(a) for a in g.adj]]
        cases = []
        for v in range(g.n):
            if g.degree(v) == 2:
                cases.append((*g.adj[v], v))
        if g.n >= 3:
            for _ in range(4):
                x, y, other = rng.sample(range(g.n), 3)
                cases += [(x, y, -1), (x, y, other)]
        for adj in adjs:
            for x, y, avoid in cases:
                want = first_four_path_by_walks(adj, x, y, avoid)
                assert _four_path(adj, x, y, avoid) == want, (g.adj, x, y, avoid)
                found_below_six += want is not None and below_six
        # The peel's case: v is already gone from a set adjacency.
        for v in range(g.n):
            if g.degree(v) == 2:
                adj = [set(a) - {v} for a in g.adj]
                adj[v] = set()
                x, y = g.adj[v]
                assert _four_path(adj, x, y, v) == first_four_path_by_walks(adj, x, y, v)
    assert found_below_six > 100


# --- reducible configuration detection ---


def test_find_config_one_vertex_first():
    assert find_reducible_config(Graph(1, [])) == OneVertex(0)
    assert find_reducible_config(named("p3")[0]) == OneVertex(0)


def test_find_config_cut_two_vertex():
    g = named("two-heptagons")[0]
    got = find_reducible_config(g)
    assert got == CutTwoVertex(14, 0, 7)
    assert got.verify(g)
    assert not got.verify(cycle(6))


def test_find_config_sixcycle():
    g = cycle(6)
    got = find_reducible_config(g)
    assert isinstance(got, SixCycleTwoVertex)
    assert got.verify(g)


def test_find_config_spacing_violation_on_c7():
    g = cycle(7)
    got = find_reducible_config(g)
    assert isinstance(got, SpacingViolation)
    assert got.dist <= 3
    assert got.verify(g)
    assert sorted(got.cycle) == list(range(7))


def test_find_config_none_on_prism():
    assert find_reducible_config(named("prism6")[0]) is None


def prism_with_subdivided_rungs(rungs):
    edges = []
    for i in range(6):
        edges.append((i, (i + 1) % 6))
        edges.append((6 + i, 6 + (i + 1) % 6))
    nxt = 12
    for i in range(6):
        if i in rungs:
            edges += [(i, nxt), (i + 6, nxt)]
            nxt += 1
        else:
            edges.append((i, i + 6))
    return Graph(nxt, edges)


def test_find_config_none_on_sparse_subdivisions():
    one = prism_with_subdivided_rungs({0})
    assert girth(one) == 4
    assert find_reducible_config(one) is None
    far = prism_with_subdivided_rungs({0, 3})
    assert find_reducible_config(far) is None


def test_find_config_spacing_on_adjacent_subdivisions():
    g = prism_with_subdivided_rungs({0, 1})
    got = find_reducible_config(g)
    assert isinstance(got, SpacingViolation)
    assert {got.u, got.w} == {12, 13}
    assert got.dist == 3
    assert got.verify(g)


def test_spacing_needs_common_cycle():
    # A close 2-vertex pair with no common cycle is not a witness: the
    # hexagon's 2-vertex (5) and a tree 2-vertex (7) sit at distance 3.
    g = pendant_hexagon()
    h = Graph(22, list(g.edges()) + [(7, 21)])
    assert h.degree(7) == 2 and h.degree(5) == 2
    from sqcolor.graph_core import distance

    assert distance(h, 5, 7) == 3
    assert find_spacing_violation(h) is None
    # Trees never carry a witness no matter how close the 2-vertices sit.
    p7 = named("p7")[0]
    assert find_spacing_violation(p7) is None


def test_spacing_witness_on_a_long_cycle():
    # The cycle walk is 3000 vertices deep; a recursive walk overflowed here.
    g = named("c3000")[0]
    got = find_spacing_violation(g)
    assert (got.u, got.w, got.dist) == (0, 1, 1)
    assert got.cycle == tuple(range(3000))
    assert got.verify(g)


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11, 12, 3000])
def test_spacing_witness_on_a_cycle_is_the_cycle_from_u(n):
    # A cycle block is read from u by u's first neighbour, never by the flow.
    g = cycle(n)
    block = set(range(n))
    for w in range(1, n):
        assert _cycle_through(g, block, 0, w) == tuple(range(n))


def test_spacing_witness_is_a_cycle_through_both_vertices(corpus12, subcubic9):
    # Any two vertices of a block of at least 3 vertices share a cycle,
    # and the witness is one: inside the block, from u, through w.
    def pairs_checked(graphs):
        pairs = 0
        for g in graphs:
            for block in biconnected_components(g):
                if len(block) >= 3:
                    for u, w in permutations(sorted(block), 2):
                        got = _cycle_through(g, block, u, w)
                        assert got[0] == u and w in got and set(got) <= block, (g.edges(), u, w)
                        assert len(set(got)) == len(got) >= 3, (g.edges(), u, w)
                        assert all(g.has_edge(got[i - 1], got[i]) for i in range(len(got))), (g.edges(), u, w)
                        pairs += 1
        return pairs

    assert pairs_checked(corpus12) == 43_406
    assert pairs_checked(subcubic9) == 45_728


def test_spacing_witness_within_a_cpu_bound(cpu_bound):
    # n = 395 with the close pair 1, 225 at distance 3: the plain
    # backtracking search was still running after 40 s here.
    g = two_core(random_instance(GeneratorSpec(max_n=400, seed=4)))
    with cpu_bound(5.0, "the spacing witness"):
        got = find_spacing_violation(g)
    assert (g.n, got.u, got.w, got.dist, len(got.cycle)) == (395, 1, 225, 3, 18)
    assert got.verify(g)


def test_config_detection_matches_frozen_corpus_profile(corpus12):
    counts = {"OneVertex": 0, "CutTwoVertex": 0, "SixCycleTwoVertex": 0,
              "SpacingViolation": 0, "none": 0}
    for g in corpus12:
        got = find_reducible_config(g)
        counts[type(got).__name__ if got is not None else "none"] += 1
        if got is not None:
            assert got.verify(g)
    assert counts == {
        "OneVertex": 916,
        "CutTwoVertex": 0,
        "SixCycleTwoVertex": 44,
        "SpacingViolation": 17,
        "none": 0,
    }


def two_core(g):
    """g with vertices of degree <= 1 stripped until none is left."""
    adj = [set(a) for a in g.adj]
    gone = set()
    work = [v for v in range(g.n) if len(adj[v]) <= 1]
    while work:
        v = work.pop()
        if v in gone:
            continue
        gone.add(v)
        for u in adj[v]:
            adj[u].discard(v)
            if len(adj[u]) <= 1:
                work.append(u)
        adj[v] = set()
    return induced_subgraph(g, [v for v in range(g.n) if v not in gone])[0]


def test_every_in_class_graph_has_one_of_the_four_configs(corpus12):
    # find_reducible_config's docstring proves that no in-class graph
    # with n >= 1 lacks all four; leafless cores reach the cut 2-vertex.
    graphs = list(corpus12)
    for s in range(50):
        core = two_core(random_instance(GeneratorSpec(max_n=150, seed=s)))
        if core.n:
            check_class(core)
            graphs.append(core)
    graphs += [named(name)[0] for name in ("c3000", "honeycomb-50", "subdivided-prism", "two-heptagons")]
    seen = set()
    for g in graphs:
        got = find_reducible_config(g)
        assert isinstance(got, (OneVertex, CutTwoVertex, SixCycleTwoVertex, SpacingViolation)), g.edges()
        assert got.verify(g)
        seen.add(type(got))
    assert seen == {OneVertex, CutTwoVertex, SixCycleTwoVertex, SpacingViolation}


# --- available lists ---


def available(cfg, L, phi):
    near = {v: square_neighbors(cfg.host.adj, v) for v in cfg.cycle}
    return _available(cfg.cycle, normalize_lists(cfg.host, L), phi, near)


def test_available_lists_with_no_externals_is_whole_list():
    g = cycle(6)
    cfg = hexagon_config(g)
    phi = [None] * 6
    v1, v2, v3, v4, v5, v6 = cfg.cycle
    phi[v1], phi[v2], phi[v3], phi[v4], phi[v5] = 1, 2, 3, 4, 1
    avail = available(cfg, FULL * 6, phi)
    assert all(avail[v] == frozenset(range(7)) for v in cfg.cycle)


# --- the recoloring engine on hand-built fixtures ---


def pendant_hexagon():
    """Hexagon 0..5 (2-vertex 5) with a cherry hung on each other cycle vertex."""
    edges = [(i, (i + 1) % 6) for i in range(6)]
    # mid vertices 6,9,12,15,18 on cycle vertices 0..4; leaves below each
    for k, v in enumerate((0, 1, 2, 3, 4)):
        mid = 6 + 3 * k
        edges += [(v, mid), (mid, mid + 1), (mid, mid + 2)]
    return Graph(21, edges)


def pendant_phi(externals):
    """Coloring of the fixture: cycle alpha,a,b,c,alpha then given external colors."""
    phi = [0, 1, 2, 3, 0, None]
    phi += list(externals)
    return phi


def fixture_config(g):
    cfg = find_sixcycle_two_vertex(g)
    assert cfg is not None
    assert cfg.cycle == (1, 2, 3, 4, 5, 0) or cfg.cycle[5] == 5
    return cfg


def run_fixture(externals):
    g = pendant_hexagon()
    cfg = SixCycleTwoVertex(cycle=(0, 1, 2, 3, 4, 5), host=g)
    cfg.validate()
    phi = pendant_phi(externals)
    f = extend_sixcycle(cfg, FULL * 21, phi)
    assert is_proper(square(g), f)
    assert all(f[v] in range(7) for v in range(21))
    assert f[6:] == phi[6:]
    return f


# externals order: u1,p,q, w2,t1,t2, w3,r,s, w4,m1,m2, u5,p5,q5
VARIANT_A = (4, 5, 6, 3, 0, 5, 6, 4, 5, 1, 0, 5, 4, 5, 6)
VARIANT_B = (4, 5, 6, 3, 0, 5, 6, 0, 5, 4, 0, 5, 1, 5, 6)


def test_table_fixture_variant_a():
    # All five escapes fail; case ({a,b},{b,alpha},{c,b}) fires.
    f = run_fixture(VARIANT_A)
    assert f[:6] == [1, 2, 0, 3, 2, 0]


def test_table_fixture_variant_b():
    # Same shape, steered into case ({a,b},{b,a},{c,b}).
    f = run_fixture(VARIANT_B)
    assert f[:6] == [0, 2, 1, 3, 2, 5]


def test_fixture_available_lists_variant_a():
    g = pendant_hexagon()
    cfg = SixCycleTwoVertex(cycle=(0, 1, 2, 3, 4, 5), host=g)
    avail = available(cfg, FULL * 21, pendant_phi(VARIANT_A))
    assert avail[0] == frozenset({0, 1, 2})
    assert avail[1] == frozenset({1, 2})
    assert avail[2] == frozenset({0, 2})
    assert avail[3] == frozenset({2, 3})
    assert avail[4] == frozenset({0, 2, 3})
    assert avail[5] == frozenset({0, 1, 2, 3, 5, 6})


def test_escape_at_v1():
    # Free q so v1 keeps a spare color; only v1 moves.
    ext = list(VARIANT_A)
    ext[2] = 3
    f = run_fixture(tuple(ext))
    assert f[:6] == [6, 1, 2, 3, 0, 2]


def test_escape_at_v5():
    ext = list(VARIANT_A)
    ext[13] = 1
    f = run_fixture(tuple(ext))
    assert f[:6] == [0, 1, 2, 3, 5, 2]


def test_escape_at_v2_recolors_v1_to_a():
    ext = list(VARIANT_A)
    ext[4] = 4
    f = run_fixture(tuple(ext))
    assert f[:6] == [1, 0, 2, 3, 0, 2]


def test_escape_at_v3_recolors_v1_to_b():
    ext = list(VARIANT_A)
    ext[8] = 0
    f = run_fixture(tuple(ext))
    assert f[:6] == [2, 1, 5, 3, 0, 5]


def test_escape_at_v4_recolors_v5_to_c():
    ext = list(VARIANT_A)
    ext[11] = 6
    f = run_fixture(tuple(ext))
    assert f[:6] == [0, 1, 2, 5, 3, 2]


def test_branch_one_keeps_coloring():
    g = cycle(6)
    cfg = SixCycleTwoVertex(cycle=(0, 1, 2, 3, 4, 5), host=g)
    phi = [1, 2, 3, 1, 2, None]
    f = extend_sixcycle(cfg, FULL * 6, phi)
    assert f[:5] == [1, 2, 3, 1, 2]
    assert f[5] == 0
    assert is_proper(square(g), f)


def test_bare_hexagon_escape():
    g = cycle(6)
    cfg = SixCycleTwoVertex(cycle=(0, 1, 2, 3, 4, 5), host=g)
    phi = [1, 2, 3, 4, 1, None]
    f = extend_sixcycle(cfg, FULL * 6, phi)
    assert f == [0, 2, 3, 4, 1, 3]
    assert is_proper(square(g), f)


def test_extend_rejects_improper_phi():
    g = cycle(6)
    cfg = SixCycleTwoVertex(cycle=(0, 1, 2, 3, 4, 5), host=g)
    with pytest.raises(PreconditionViolated):
        extend_sixcycle(cfg, FULL * 6, [1, 1, 3, 4, 1, None])
    with pytest.raises(PreconditionViolated):
        extend_sixcycle(cfg, FULL * 6, [1, 2, 3, 4, 1, 5])
    with pytest.raises(PreconditionViolated):
        extend_sixcycle(cfg, FULL * 6, [1, 2, None, 4, 1, None])
    with pytest.raises(PreconditionViolated):
        extend_sixcycle(cfg, FULL * 6, [1, 2, 3, 4, 9, None])


def test_extend_rejects_small_lists():
    g = cycle(6)
    cfg = SixCycleTwoVertex(cycle=(0, 1, 2, 3, 4, 5), host=g)
    with pytest.raises(ListTooSmall, match=r"^vertex 0 has a list of size 6 < 7$"):
        extend_sixcycle(cfg, [list(range(6))] * 6, [1, 2, 3, 4, 1, None])
    assert issubclass(ListTooSmall, PreconditionViolated)


def test_extend_sweep_on_sixcycle_hosts(corpus12):
    """Exact colorings of host minus the 2-vertex always extend."""
    rng = random.Random(97)
    hosts = [g for g in corpus12 if find_sixcycle_two_vertex(g) is not None]
    assert len(hosts) == 470
    for g in rng.sample(hosts, 25):
        cfg = find_sixcycle_two_vertex(g)
        v6 = cfg.cycle[5]
        sq = square(g)
        for trial in range(6):
            lists = [sorted(rng.sample(range(1, 15), 7)) for _ in range(g.n)]
            constrained = [lists[v] if v != v6 else [10**6] for v in range(g.n)]
            phi = find_L_coloring(
                Graph(g.n, [(u, w) for u, w in sq.edges() if v6 not in (u, w)]),
                constrained,
            )
            if phi is None:
                continue
            phi[v6] = None
            f = extend_sixcycle(cfg, lists, phi)
            assert is_proper(sq, f)
            assert all(f[v] in set(lists[v]) for v in range(g.n))


# --- cut 2-vertex reduction ---


def test_reduce_cut_two_vertex_round_trip():
    g = named("two-heptagons")[0]
    H = reduce_cut_two_vertex(g, 14)
    assert H.n == 14
    assert H.has_edge(0, 7)
    assert girth(H) >= 6
    # The colorer splices the same vertex and puts it back.
    records = _peel([set(a) for a in g.adj])
    assert (SPLICE, 14, (0, 7), None) in [record[:4] for record in records]
    f = color_square_7lists(g, FULL * 15)
    assert is_proper(square(g), f)
    assert f[14] in range(7)


def test_reduce_cut_two_vertex_errors():
    g = named("two-heptagons")[0]
    with pytest.raises(NotTwoVertex):
        reduce_cut_two_vertex(g, 0)
    with pytest.raises(NotCutVertex):
        reduce_cut_two_vertex(cycle(6), 0)
    for u in (15, -1):
        with pytest.raises(ValueError, match=rf"^vertex {u} is out of range for n=15$") as exc:
            reduce_cut_two_vertex(g, u)
        assert exc.type is ValueError


# --- the top-level coloring routine ---


def test_color_square_basic_instances():
    for name in ("c6", "p5", "honeycomb-2", "honeycomb-3", "subdivided-prism", "two-heptagons"):
        g = named(name)[0]
        f = color_square_7lists(g, FULL * g.n)
        assert f is not None
        assert is_proper(square(g), f)
        assert all(f[v] in range(7) for v in range(g.n))


def test_color_square_random_lists():
    rng = random.Random(5)
    for name in ("c6", "honeycomb-2", "two-heptagons", "subdivided-prism"):
        g = named(name)[0]
        for _ in range(10):
            lists = [sorted(rng.sample(range(1, 30), 7)) for _ in range(g.n)]
            f = color_square_7lists(g, lists)
            assert f is not None
            assert is_proper(square(g), f)
            assert all(f[v] in set(lists[v]) for v in range(g.n))


def test_color_square_disconnected_input():
    base = named("c6")[0]
    edges = list(base.edges()) + [(u + 6, v + 6) for u, v in base.edges()]
    g = Graph(12, edges)
    f = color_square_7lists(g, FULL * 12)
    assert f is not None
    assert is_proper(square(g), f)


def test_color_square_empty_graph():
    g = Graph(0, [])
    assert color_square_7lists(g, []) == []


def test_color_square_rejects_out_of_class():
    with pytest.raises(PreconditionViolated):
        color_square_7lists(cycle(5), FULL * 5)
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    with pytest.raises(PreconditionViolated):
        color_square_7lists(k4, FULL * 4)
    with pytest.raises(PreconditionViolated):
        color_square_7lists(cycle(6), [list(range(6))] * 6)


@pytest.mark.parametrize("v, color", [(1, "clash"), (2, "clash"), (3, 99)])
def test_final_certificate_rejects_a_bad_lift(monkeypatch, v, color):
    # On c6 colored 0..5, vertex 1 takes the color of its neighbour 0, or
    # vertex 2 that of vertex 0 at distance 2, or vertex 3 a color outside
    # its list; each breaks the certificate in one way only.
    lift = _lift

    def bad_lift(n, records, lists):
        f = list(range(len(lift(n, records, lists))))
        f[v] = f[0] if color == "clash" else color
        return f

    monkeypatch.setattr("sqcolor.reducer._lift", bad_lift)
    with pytest.raises(AssertionError, match="final certificate"):
        color_square_7lists(cycle(6), FULL * 6)


def test_color_square_rejects_nonplanar_girth_six():
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + (5 if i % 2 == 0 else -5)) % 14) for i in range(14)]
    g = Graph(14, sorted({(min(u, v), max(u, v)) for u, v in edges}))
    assert girth(g) == 6
    with pytest.raises(PreconditionViolated):
        color_square_7lists(g, FULL * 14)


def assert_colors(g, lists, f):
    assert is_proper(square(g), f)
    assert all(f[v] in set(lists[v]) for v in range(g.n))


def test_color_square_large_honeycomb():
    # n = 1202; a recursion one level per vertex overflowed the stack here.
    g = named("honeycomb-300")[0]
    assert g.n == 1202
    lists = FULL * g.n
    assert_colors(g, lists, color_square_7lists(g, lists))


def test_coloring_needs_no_exact_search(corpus12, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact search ran on the coloring path")

    monkeypatch.setattr("sqcolor.coloring._search", refuse)
    rng = random.Random(11)
    graphs = list(corpus12)
    graphs += [random_instance(GeneratorSpec(max_n=150, seed=s)) for s in range(20)]
    for g in graphs:
        lists = [sorted(rng.sample(range(1, 11), 7)) for _ in range(g.n)]
        assert_colors(g, lists, color_square_7lists(g, lists))


def test_class_checks_never_run_whole_graph_girth(corpus12, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("whole-graph girth ran")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sqcolor" and hasattr(module, "girth"):
            monkeypatch.setattr(module, "girth", refuse)
    for g in list(corpus12) + [named("c3000")[0]]:
        assert_colors(g, FULL * g.n, color_square_7lists(g, FULL * g.n))
        find_reducible_config(g)
        assert discharge_audit(g).dichotomy_holds
    g = random_instance(GeneratorSpec(max_n=150, seed=0))
    assert g.n <= 150


def test_coloring_needs_no_planarity_test(monkeypatch):
    # No subcubic graph of girth >= 6 with at most 10 vertices, and no
    # cycle, has six 3-vertices in its 2-core, so neither the enumeration
    # nor the class check reaches the kernel embedder.
    def refuse(*args, **kwargs):
        raise AssertionError("the planarity test ran")

    c3000 = named("c3000")[0]  # named() embeds its fixture
    monkeypatch.setattr("sqcolor.planar_embed._embed_kernel", refuse)
    graphs = list(enumerate_class(GeneratorSpec(max_n=10)))
    assert len(graphs) == 163
    for g in graphs + [c3000]:
        assert_colors(g, FULL * g.n, color_square_7lists(g, FULL * g.n))


def test_lift_matches_the_adjacency_restoring_oracle(corpus12):
    # The peel reads each square-neighbourhood before the vertex leaves;
    # the oracle puts the adjacency back and reads them there, asserting
    # at every step that they agree, and must color identically.
    rng = random.Random(31)
    graphs = list(corpus12)
    graphs += [named(f"honeycomb-{k}")[0] for k in range(1, 61)]
    graphs += [cycle(k) for k in range(6, 901)]
    graphs += [random_instance(GeneratorSpec(max_n=150, seed=s)) for s in range(20)]
    for g in graphs:
        lists = normalize_lists(g, [rng.sample(range(10), 7) for _ in range(g.n)])
        adj = [set(a) for a in g.adj]
        records = _peel(adj)
        assert all(row == () for row in adj)
        f = _lift(g.n, records, lists)
        assert lift_by_adjacency(adj, records, lists) == f
        assert adj == [set(a) for a in g.adj]


def test_splice_of_a_two_vertex_on_a_long_cycle():
    # On c8 no 2-vertex is a cut vertex or lies on a six-cycle: the peel
    # splices c8 down to c6 before the six-cycle rule applies.
    g = named("c8")[0]
    rules = [rule for rule, *_ in _peel([set(a) for a in g.adj])]
    assert rules[:3] == [SPLICE, SPLICE, SIXCYCLE]
    rng = random.Random(3)
    for _ in range(50):
        lists = [sorted(rng.sample(range(1, 10), 7)) for _ in range(g.n)]
        assert_colors(g, lists, color_square_7lists(g, lists))

