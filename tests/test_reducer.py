"""Tests for configuration detection, recoloring, and the main coloring routine."""

import random
import sys
from itertools import permutations, product

import pytest

from oracles import config_holds, lift_by_adjacency, naive_choosable, to_nx

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
    _short_or_four_path,
    biconnected_components,
    derived,
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

# The six-cycle 0..5 with its 2-vertex last, as extend_sixcycle reads it.
HEXAGON = (0, 1, 2, 3, 4, 5)


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


# The square-adjacent pairs among v1..v5 (indices 0..4) of a six-cycle
# in a graph of girth >= 6; v1v4 and v2v5 lie at distance 3.
SQUARE_PAIRS = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4), (0, 4))


def available_symbols(key):
    """The available sets C(v1), ..., C(v5) of the table situation key."""
    x2, x3, x4 = key
    return ({A, B, ALPHA}, {A, x2}, {B, x3}, {C, x4}, {B, C, ALPHA})


def test_verify_lemma2_tables_all_ok():
    lines = verify_lemma2_tables()
    assert len(lines) == 12
    assert all(line.endswith(" OK") for line in lines)
    assert lines[0] == "case {a,b}|{b,a}|{c,a} -> f=(alpha,b,a,c,b) OK"


def test_verify_lemma2_fails_exactly_the_unsound_row_mutants(monkeypatch):
    # Every one-symbol substitution at v1..v5 of every row, run through
    # the engine: a line fails exactly when the row leaves an available
    # set or puts one color on a square-adjacent pair.
    verdicts = {"OK": 0, "FAIL": 0}
    for key, good in RECOLORING_ROWS.items():
        sets = available_symbols(key)
        head = "case {{a,{}}}|{{b,{}}}|{{c,{}}} -> ".format(*key)
        for i in range(5):
            for s in (A, B, C, ALPHA):
                if s == good[i]:
                    continue
                mutated = good[:i] + (s,) + good[i + 1 :]
                monkeypatch.setitem(RECOLORING_ROWS, key, mutated)
                (line,) = [line for line in verify_lemma2_tables() if line.startswith(head)]
                assert line.startswith(f"{head}f=({','.join(mutated)}) ")
                if any(mutated[j] not in sets[j] for j in range(5)):
                    assert line.endswith(" FAIL(recoloring invariant failed: table row leaves an available list)")
                elif any(mutated[p] == mutated[q] for p, q in SQUARE_PAIRS):
                    assert line.endswith(" FAIL(recoloring invariant failed: "
                                         "extension must stay in the lists and proper on the square)")
                else:
                    assert line.endswith(" OK")
                verdicts["OK" if line.endswith(" OK") else "FAIL"] += 1
        monkeypatch.setitem(RECOLORING_ROWS, key, good)
    assert verdicts == {"OK": 7, "FAIL": 173}


def test_verify_lemma2_exits_1_when_the_engine_misapplies_a_row(monkeypatch, capsys):
    # An engine that swaps b and c in what it returns must not pass.
    from sqcolor import reducer
    from sqcolor.cli import main

    recoloring = reducer._recoloring
    swap = {B: C, C: B}
    monkeypatch.setattr(
        reducer, "_recoloring", lambda *args: {v: swap.get(c, c) for v, c in recoloring(*args).items()}
    )
    assert main(["verify-lemma2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert not any(line.endswith(" OK") for line in lines)
    assert lines[12].startswith("situations=40511 ") and " failures=0" not in lines[12]


def mutant_v2_leaves_v1(cyc, Cv, f, new):
    # escape v2 keeps v2's move but leaves v1 at alpha
    return {cyc[1]: new[cyc[1]]} if set(new) == {cyc[0], cyc[1]} else new


def mutant_v3_moves_v1_to_a(cyc, Cv, f, new):
    # escape v3 moves v1 to a (the color of v2), not to b
    return {**new, cyc[0]: f[cyc[1]]} if set(new) == {cyc[0], cyc[2]} else new


def mutant_v4_leaves_v5(cyc, Cv, f, new):
    # escape v4 keeps v4's move but leaves v5 at alpha
    return {cyc[3]: new[cyc[3]]} if set(new) == {cyc[3], cyc[4]} else new


def mutant_sym_swaps_b_and_c(cyc, Cv, f, new):
    # a table row read with b and c swapped in _recoloring's sym map
    if len(new) < 5:
        return new
    b, c = f[cyc[2]], f[cyc[3]]
    return {v: c if color == b else b if color == c else color for v, color in new.items()}


@pytest.mark.parametrize("mutant, failures", [
    (mutant_v2_leaves_v1, 2_700),
    (mutant_v3_moves_v1_to_a, 360),
    (mutant_v4_leaves_v5, 252),
    (mutant_sym_swaps_b_and_c, 49),
])
def test_verify_lemma2_exits_1_under_each_escape_and_sym_mutant(monkeypatch, capsys, mutant, failures):
    # Each mutant wraps _recoloring.  An escape mutant fails every
    # situation that takes its escape, while the 12 table lines stay OK;
    # the sym mutant fails 49 of the 63 table situations.
    from sqcolor import reducer
    from sqcolor.cli import main

    recoloring = reducer._recoloring
    monkeypatch.setattr(reducer, "_recoloring", lambda cyc, Cv, f: mutant(cyc, Cv, f, recoloring(cyc, Cv, f)))
    assert main(["verify-lemma2"]) == 1
    sweep = capsys.readouterr().out.splitlines()[12]
    assert int(sweep.split(" failures=")[1].split()[0]) == failures
    assert " first={" in sweep and " FAIL(" in sweep


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


def test_extend_sixcycle_rejects_a_bad_cycle():
    g = cycle(6)
    phi = [1, 2, 3, 4, 1, None]
    with pytest.raises(PreconditionViolated, match=r"^cycle must list six distinct vertices$"):
        extend_sixcycle(g, (0, 1, 2, 3, 4, 4), FULL * 6, phi)
    with pytest.raises(PreconditionViolated, match=r"^missing cycle edge 3-5$"):
        extend_sixcycle(g, (0, 1, 2, 3, 5, 4), FULL * 6, phi)
    with pytest.raises(PreconditionViolated, match=r"^cycle must list six distinct vertices$"):
        extend_sixcycle(cycle(5), (0, 1, 2, 3, 4, 0), FULL * 5, phi[:5])


def test_find_sixcycle_on_c6():
    g = cycle(6)
    cfg = hexagon_config(g)
    assert cfg == SixCycleTwoVertex((1, 2, 3, 4, 5, 0))
    assert config_holds(g, cfg)


def test_find_sixcycle_on_subdivided_prism():
    g = named("subdivided-prism")[0]
    cfg = hexagon_config(g)
    assert config_holds(g, cfg)
    assert g.degree(cfg.cycle[5]) == 2


def test_find_sixcycle_respects_girth_gate():
    assert find_sixcycle_two_vertex(named("prism6")[0]) is None
    assert find_sixcycle_two_vertex(cycle(7)) is None
    # Girth 4 with a six-cycle 0-1-13-7-6-12 through the 2-vertex 12, and
    # the five-cycle 0-5-11-6-12 through it too: the scan finds the short
    # path before the four-edge one can count, and rejects.
    g = prism_with_subdivided_rungs({0, 1})
    assert _short_or_four_path(g.adj, 0, 6, 12) == (0, 5, 11, 6)
    assert find_sixcycle_two_vertex(g) is None
    # A six-cycle whose 2-vertex 0 sees no short path, beside a triangle:
    # the girth check after the path search still rejects it.
    g = Graph(9, [(i, (i + 1) % 6) for i in range(6)] + [(6, 7), (7, 8), (8, 6)])
    assert _short_or_four_path(g.adj, 1, 5, 0) == (1, 2, 3, 4, 5)
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


def is_path_in(adj, path):
    """path lists distinct vertices, each adjacent to the next in adj."""
    return len(set(path)) == len(path) and all(path[i + 1] in adj[path[i]] for i in range(len(path) - 1))


def has_short_path_by_walks(adj, x, y, avoid):
    """Some walk of at most 3 edges from x to y on distinct vertices
    avoids avoid."""
    walks = [(x,)]
    for _ in range(3):
        walks = [w + (u,) for w in walks for u in adj[w[-1]] if u not in w and u != avoid]
        if any(w[-1] == y for w in walks):
            return True
    return False


def test_four_path_is_the_first_path_in_adjacency_order(subcubic9):
    # At every 2-vertex v with neighbours x and y, in either order, on
    # sorted, shuffled and set adjacencies, with v attached or detached:
    # a short path is a real x-y path of at most 3 edges avoiding v when
    # one exists, and otherwise the scan gives the first four-edge path.
    rng = random.Random(5)
    found_below_six = shorts = 0
    for g in subcubic9:
        below_six = not girth_at_least(g, 6)
        adjs = [g.adj, [tuple(rng.sample(a, len(a))) for a in g.adj], [set(a) for a in g.adj]]
        for v in range(g.n):
            if g.degree(v) != 2:
                continue
            detached = [set(a) - {v} for a in g.adj]
            detached[v] = set()
            for adj in adjs + [detached]:
                for x, y in (g.adj[v], g.adj[v][::-1]):
                    got = _short_or_four_path(adj, x, y, v)
                    if has_short_path_by_walks(adj, x, y, v):
                        assert got is not None and len(got) <= 4, (g.adj, x, y, v)
                        assert got[0] == x and got[-1] == y and v not in got and is_path_in(adj, got)
                        shorts += 1
                    else:
                        want = first_four_path_by_walks(adj, x, y, v)
                        assert got == want, (g.adj, x, y, v)
                        found_below_six += want is not None and below_six
    assert found_below_six > 2000
    assert shorts > 20000


def scan_spy(monkeypatch):
    """Wrap the peel's scan: calls holds (v, result, whether a short path
    exists, the first four-edge path) for every call, the last two read
    by walks on the peel's adjacency at the call (a copy of a set may
    iterate in another order)."""
    calls = []
    scan = _short_or_four_path

    def spy(adj, x, y, v):
        got = scan(adj, x, y, v)
        calls.append((v, got, has_short_path_by_walks(adj, x, y, v), first_four_path_by_walks(adj, x, y, v)))
        return got

    monkeypatch.setattr("sqcolor.reducer._short_or_four_path", spy)
    return calls


def test_the_peels_six_cycle_path_is_the_first_four_path(corpus12, monkeypatch):
    calls = scan_spy(monkeypatch)
    graphs = list(corpus12) + [named("honeycomb-5")[0]]
    graphs += [random_instance(GeneratorSpec(max_n=150, seed=s)) for s in range(14)]
    sixcycles = 0
    for g in graphs:
        calls.clear()
        records = _peel([set(a) for a in g.adj])
        cycles = [cycle for rule, _, _, cycle, _ in records if rule == SIXCYCLE]
        at_calls = []
        for v, got, short, four in calls:
            assert not short
            assert got == four
            if got is not None:
                at_calls.append((*got, v))
        assert cycles == at_calls
        sixcycles += len(cycles)
    assert sixcycles > 1500


def test_each_short_path_refusal_names_a_cycle_of_length_at_most_5(subcubic9, monkeypatch):
    calls = scan_spy(monkeypatch)
    graphs = [g for g in enumerate_class(GeneratorSpec(max_n=12, min_girth=5)) if not girth_at_least(g, 6)]
    graphs += [g for g in subcubic9 if not girth_at_least(g, 6)]
    refusals = stalls = 0
    for g in graphs:
        calls.clear()
        assert _peel([set(a) for a in g.adj]) is None
        v, path, short, _ = calls[-1] if calls else (None, None, False, None)
        assert (path is not None and len(path) <= 4) == short
        if not short:
            stalls += 1  # every vertex left has degree 3
            continue
        cyc = (*path, v)
        h = to_nx(g)
        assert len(cyc) <= 5 and len(set(cyc)) == len(cyc)
        assert all(h.has_edge(cyc[i - 1], cyc[i]) for i in range(len(cyc))), (g.edges(), cyc)
        refusals += 1
    assert refusals > 3000 and stalls > 0


# --- reducible configuration detection ---


def test_find_config_one_vertex_first():
    assert find_reducible_config(Graph(1, [])) == OneVertex(0)
    assert find_reducible_config(named("p3")[0]) == OneVertex(0)


def test_find_config_cut_two_vertex():
    g = named("two-heptagons")[0]
    got = find_reducible_config(g)
    assert got == CutTwoVertex(14, 0, 7)
    assert config_holds(g, got)
    assert not config_holds(cycle(6), got)


def test_find_config_sixcycle():
    g = cycle(6)
    got = find_reducible_config(g)
    assert isinstance(got, SixCycleTwoVertex)
    assert config_holds(g, got)


def test_find_config_spacing_violation_on_c7():
    g = cycle(7)
    got = find_reducible_config(g)
    assert isinstance(got, SpacingViolation)
    assert got.dist <= 3
    assert config_holds(g, got)
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
    assert config_holds(g, got)


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
    assert config_holds(g, got)


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
    assert config_holds(g, got)


def test_config_detection_matches_frozen_corpus_profile(corpus12):
    counts = {"OneVertex": 0, "CutTwoVertex": 0, "SixCycleTwoVertex": 0,
              "SpacingViolation": 0, "none": 0}
    for g in corpus12:
        got = find_reducible_config(g)
        counts[type(got).__name__ if got is not None else "none"] += 1
        if got is not None:
            assert config_holds(g, got)
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
        assert config_holds(g, got)
        seen.add(type(got))
    assert seen == {OneVertex, CutTwoVertex, SixCycleTwoVertex, SpacingViolation}


# --- available lists ---


def available(g, cyc, L, phi):
    near = [square_neighbors(g.adj, v) for v in cyc]
    return _available(cyc, normalize_lists(g, L), phi, near)


def test_available_lists_with_no_externals_is_whole_list():
    g = cycle(6)
    cfg = hexagon_config(g)
    phi = [None] * 6
    v1, v2, v3, v4, v5, v6 = cfg.cycle
    phi[v1], phi[v2], phi[v3], phi[v4], phi[v5] = 1, 2, 3, 4, 1
    avail = available(g, cfg.cycle, FULL * 6, phi)
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
    phi = pendant_phi(externals)
    f = extend_sixcycle(g, HEXAGON, FULL * 21, phi)
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
    avail = available(g, HEXAGON, FULL * 21, pendant_phi(VARIANT_A))
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
    phi = [1, 2, 3, 1, 2, None]
    f = extend_sixcycle(g, HEXAGON, FULL * 6, phi)
    assert f[:5] == [1, 2, 3, 1, 2]
    assert f[5] == 0
    assert is_proper(square(g), f)


def test_bare_hexagon_escape():
    g = cycle(6)
    phi = [1, 2, 3, 4, 1, None]
    f = extend_sixcycle(g, HEXAGON, FULL * 6, phi)
    assert f == [0, 2, 3, 4, 1, 3]
    assert is_proper(square(g), f)


def test_extend_rejects_improper_phi():
    g = cycle(6)
    with pytest.raises(PreconditionViolated):
        extend_sixcycle(g, HEXAGON, FULL * 6, [1, 1, 3, 4, 1, None])
    with pytest.raises(PreconditionViolated):
        extend_sixcycle(g, HEXAGON, FULL * 6, [1, 2, 3, 4, 1, 5])
    with pytest.raises(PreconditionViolated):
        extend_sixcycle(g, HEXAGON, FULL * 6, [1, 2, None, 4, 1, None])
    with pytest.raises(PreconditionViolated):
        extend_sixcycle(g, HEXAGON, FULL * 6, [1, 2, 3, 4, 9, None])


def test_extend_rejects_small_lists():
    g = cycle(6)
    with pytest.raises(ListTooSmall, match=r"^vertex 0 has a list of size 6 < 7$"):
        extend_sixcycle(g, HEXAGON, [list(range(6))] * 6, [1, 2, 3, 4, 1, None])
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
            f = extend_sixcycle(g, cfg.cycle, lists, phi)
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


def nonplanar_girth_six():
    """A 14-cycle with chords i -- i + 5 from each even i: cubic, girth 6."""
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + (5 if i % 2 == 0 else -5)) % 14) for i in range(14)]
    return Graph(14, sorted({(min(u, v), max(u, v)) for u, v in edges}))


def test_color_square_rejects_nonplanar_girth_six():
    g = nonplanar_girth_six()
    assert girth(g) == 6
    with pytest.raises(PreconditionViolated):
        color_square_7lists(g, FULL * 14)


# --- the peel's girth certificate ---


def refusal(call, *args):
    """(type, message) of the exception that call(*args) raises, or None."""
    try:
        call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def fresh(g):
    """g rebuilt, with none of its facts kept."""
    return Graph(g.n, g.edges())


def out_of_class():
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    return {
        "c3": cycle(3), "c4": cycle(4), "c5": cycle(5),
        # planar with girth < 6, and every vertex of degree 3: the peel stalls
        "k4": k4, "cube": named("cube")[0], "prism6": named("prism6")[0],
        "dodecahedron": named("dodecahedron")[0],
        "petersen": named("petersen")[0],  # girth 5 and not planar
        "nonplanar-girth-six": nonplanar_girth_six(),
        "degree-four": Graph(5, [(0, i) for i in range(1, 5)]),
        # a 4-cycle that the peel meets after removing a pendant path
        "c4-with-tail": Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)]),
        # paths of 2, 3 and 7 edges from 0 to 1: the peel pops the long
        # path's 2-vertices first and splices them until it finds a short path
        "theta-2-3-7": Graph(11, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6),
                                  (6, 7), (7, 8), (8, 9), (9, 10), (10, 1)]),
    }


@pytest.mark.parametrize("name", sorted(out_of_class()))
@pytest.mark.parametrize("size", [7, 6])
def test_color_refuses_as_check_class(name, size):
    # Whatever stops the coloring (a degree, planarity, or the peel finding
    # a short path or stalling), check_class words the refusal; lists too
    # small change nothing, since the lists are read after the peel.
    g = out_of_class()[name]
    want = refusal(check_class, fresh(g))
    assert want is not None and want[0] is NotInClass
    assert refusal(color_square_7lists, fresh(g), [list(range(size))] * g.n) == want
    assert refusal(color_square_7lists, g, [list(range(size))] * g.n) == want


def random_subcubic(rng):
    """A random subcubic graph, its edges then subdivided at random, so
    that short and long girths, planar or not, all occur."""
    n = rng.randint(3, 12)
    deg = [0] * n
    edges = set()
    for _ in range(rng.randint(n - 1, 2 * n)):
        u, v = sorted(rng.sample(range(n), 2))
        if deg[u] < 3 and deg[v] < 3 and (u, v) not in edges:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    for _ in range(rng.randint(0, 8)):
        if edges:
            u, v = rng.choice(sorted(edges))
            edges -= {(u, v)}
            edges |= {(u, n), (v, n)}
            n += 1
    return Graph(n, edges)


def test_color_refuses_random_subcubic_graphs_as_check_class():
    rng = random.Random(34)
    outcomes = {}
    graphs = 0
    while graphs < 200:
        g = random_subcubic(rng)
        if not 3 <= girth(g) <= 7:
            continue
        graphs += 1
        want = refusal(check_class, fresh(g))
        got = refusal(color_square_7lists, g, [list(range(7))] * g.n)
        small = refusal(color_square_7lists, fresh(g), [list(range(6))] * g.n)
        if want is None:
            assert got is None and small[0] is ListTooSmall
        else:
            assert got == small == want
        outcomes[want] = outcomes.get(want, 0) + 1
    assert outcomes[None] >= 20 and outcomes[NotInClass, "girth is below 6"] >= 20


def test_a_refused_peel_on_an_in_class_graph_fails_the_invariant(monkeypatch):
    # The peel stopping where check_class finds g in the class would be a
    # fault in the peel; that stays a hard check.
    monkeypatch.setattr("sqcolor.reducer._peel", lambda adj: None)
    with pytest.raises(AssertionError, match="the peel removes every vertex"):
        color_square_7lists(cycle(6), FULL * 6)


def refuse_girth(*args):
    raise AssertionError("the girth kernel ran")


def test_the_kept_girth_fact_is_the_girth_verdict(corpus12, monkeypatch):
    # After a coloring, the audit reads girth_at_least(g, 6) from the
    # graph's memo; with the girth kernel refused, derived must still
    # answer, and agree with the kernel on a fresh copy.
    graphs = [fresh(g) for g in corpus12]
    graphs += [fresh(random_instance(GeneratorSpec(max_n=150, seed=s))) for s in range(20)]
    for g in graphs:
        color_square_7lists(g, FULL * g.n)
    with monkeypatch.context() as m:
        m.setattr("sqcolor.graph_core._girth_below", refuse_girth)
        kept = [derived(g, girth_at_least, 6) for g in graphs]
    assert kept == [girth_at_least(fresh(g), 6) for g in graphs]


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
    # No uncapped girth anywhere, and no girth kernel at all while a graph
    # is colored: the peel certifies girth >= 6 (the audit may run the
    # kernel, but reads the fact the coloring kept).
    def refuse(*args, **kwargs):
        raise AssertionError("whole-graph girth ran")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sqcolor" and hasattr(module, "girth"):
            monkeypatch.setattr(module, "girth", refuse)
    for g in list(corpus12) + [named("honeycomb-50")[0], named("c3000")[0]]:
        g = fresh(g)
        with monkeypatch.context() as m:
            m.setattr("sqcolor.graph_core._girth_below", refuse_girth)
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

