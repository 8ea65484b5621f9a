"""Tests for the core graph type and its structural queries."""

import itertools
import math
import random

import pytest

from oracles import built_as_checked, girth_per_edge, square_edges_bfs, to_nx, with_disjoint_unions
import networkx as nx

from sqcolor import graph_core
from sqcolor.generate import GeneratorSpec, _honeycomb, _prism, named, random_instance, subdivide_edge
from sqcolor.graph_core import (
    Graph,
    add_vertex,
    ball,
    biconnected_components,
    adjacency_components,
    component_count,
    cut_vertices,
    distance,
    girth,
    girth_at_least,
    induced_subgraph,
    is_connected,
    is_subcubic,
    max_degree,
    square,
)


def path(k):
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k):
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def test_graph_construction_normalizes():
    g = Graph(3, [(2, 1), (0, 1)])
    assert g.adj == ((1,), (0, 2), (1,))
    assert g.m == 2
    assert g.degree(1) == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)


NAMED = ("c6", "c7", "p1", "p5", "q3", "prism6", "dodecahedron", "petersen", "honeycomb-1",
         "honeycomb-50", "subdivided-prism", "two-heptagons")


def test_edge_count_is_the_number_of_edges(corpus12):
    graphs = corpus12 + [named(name)[0] for name in NAMED] + [Graph(0), Graph(4)]
    for g in graphs:
        assert g.m == len(g.edges()), g.edges()
    assert repr(named("c6")[0]) == "Graph(n=6, m=6)"


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1), (1, 0)])


def test_graph_equality_and_hash():
    g = cycle(5)
    h = Graph(5, [(4, 0), (3, 4), (2, 3), (1, 2), (0, 1)])
    assert g == h
    assert hash(g) == hash(h)
    assert g != path(5)


def test_degrees_and_subcubic():
    g = named("q3")[0]
    assert max_degree(g) == 3
    assert is_subcubic(g)
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert is_subcubic(k4)
    k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert not is_subcubic(k5)


def test_distance_on_path():
    g = path(5)
    assert [distance(g, 0, v) for v in range(5)] == [0, 1, 2, 3, 4]


def test_ball_is_bounded_by_radius_and_by_reach():
    g = path(5)
    assert ball(g.adj, 1, 2) == {1: 0, 0: 1, 2: 1, 3: 2}
    assert ball(g.adj, 0, 0) == {0: 0}
    # Stops once a level adds nothing; running 10**18 levels would hang.
    assert ball(g.adj, 0, 10**18) == {v: v for v in range(5)}


def test_distance_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    assert distance(g, 0, 0) == 0 and distance(g, 0, 1) == 1
    assert math.isinf(distance(g, 0, 2)) and math.isinf(distance(g, 3, 1))
    assert not is_connected(g)
    assert component_count(g) == 2


def test_square_of_small_fixtures():
    g = path(4)
    sq = square(g)
    assert set(sq.edges()) == {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)}
    c6 = cycle(6)
    sq6 = square(c6)
    assert sq6.m == 12
    assert all(sq6.degree(v) == 4 for v in range(6))
    assert not sq6.has_edge(0, 3)


def test_square_matches_bfs_oracle_on_corpus(corpus12, subcubic9):
    # square builds from rows, so its graph must be the one that the
    # checked constructor builds from the oracle's edges, rows and m alike.
    graphs = list(corpus12) + list(subcubic9) + [_honeycomb(k) for k in (1, 2, 5, 50)]
    for g in graphs:
        assert built_as_checked(square(g), square_edges_bfs(g)), g.edges()


def test_girth_fixtures():
    assert girth(cycle(5)) == 5
    assert girth(cycle(6)) == 6
    assert girth(path(4)) == math.inf
    assert girth(named("q3")[0]) == 4
    assert girth(named("petersen")[0]) == 5
    assert girth(named("honeycomb-3")[0]) == 6


def theta(lengths):
    """Paths with the given numbers of edges between vertices 0 and 1."""
    edges, n = [], 2
    for k in lengths:
        path = [0, *range(n, n + k - 1), 1]
        edges += zip(path, path[1:])
        n += k - 1
    return Graph(n, edges)


def test_girth_matches_per_edge_oracle(corpus12, subcubic9):
    q3 = named("q3")[0]
    graphs = list(corpus12) + list(subcubic9)
    graphs += [named(name)[0] for name in ("q3", "prism6", "petersen", "dodecahedron", "two-heptagons")]
    graphs += [
        # cycle components only
        Graph(11, cycle(5).edges() + [(5 + u, 5 + v) for u, v in cycle(6).edges()]),
        # a 9-cycle and a 4-cycle sharing vertex 0, the one branch vertex
        Graph(12, cycle(9).edges() + [(0, 9), (9, 10), (10, 11), (11, 0)]),
        # a 7-cycle bridged to a cube, with a pendant path
        Graph(18, cycle(7).edges() + [(7 + u, 7 + v) for u, v in q3.edges()] + [(0, 7), (3, 15), (15, 16), (16, 17)]),
        # a theta graph beside a shorter cycle component
        Graph(22, theta((4, 4, 9)).edges() + [(16 + u, 16 + v) for u, v in cycle(6).edges()]),
        theta((2, 3, 5)),
        theta((1, 6, 6)),
    ]
    for g in graphs:
        assert girth(g) == girth_per_edge(g), g.edges()


@pytest.mark.parametrize(
    "lengths", [(50_000, 50_000), (700, 700, 700), (30_000, 40_000, 30_001)], ids=["c100000", "theta-2099", "theta-100000"]
)
def test_girth_within_a_cpu_bound(cpu_bound, lengths):
    # c100000, and theta graphs of 2,099 and 100,000 vertices: one BFS
    # per vertex took 1.97 s on c2000 and on the smaller theta graph.
    g = theta(lengths)
    with cpu_bound(1.0, f"girth at n = {g.n}"):
        assert girth(g) == sum(sorted(lengths)[:2])


NAMED_SMALL = ("c3", "c4", "c5", "c6", "c11", "p1", "p7", "q3", "prism6", "petersen",
               "dodecahedron", "honeycomb-1", "honeycomb-5", "subdivided-prism", "two-heptagons")


def joined(core, part, u, w):
    """core and part side by side, with u in core joined to w in part."""
    edges = core.edges() + [(core.n + a, core.n + b) for a, b in part.edges()] + [(u, core.n + w)]
    return Graph(core.n + part.n, edges)


def binary_tree(depth):
    return Graph(2 ** (depth + 1) - 1, [((v - 1) // 2, v) for v in range(1, 2 ** (depth + 1) - 1)])


def random_subcubic(rng, n):
    """A random simple graph on n vertices of degree at most 3."""
    degree = [0] * n
    edges = set()
    for _ in range(3 * n):
        u, v = sorted(rng.sample(range(n), 2))
        if degree[u] < 3 and degree[v] < 3 and (u, v) not in edges:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph(n, edges)


def stalling_hosts():
    """Hosts on which deleting vertices of degree <= 2 stalls, in full or
    in part: cubic cores alone, with pendant trees, and with honeycomb
    chains hung off them, joined at a core vertex (which keeps the core
    cubic in the rest) or at a subdivided core edge (which lets it go)."""
    cores = [named(name)[0] for name in ("q3", "petersen", "dodecahedron")] + [_prism(k) for k in (3, 4, 5, 6, 8)]
    hosts = list(cores)
    for core in cores:
        split = subdivide_edge(core, *core.edges()[0])
        for part in (binary_tree(1), binary_tree(3), _honeycomb(1), _honeycomb(4)):
            hosts += [joined(core, part, 0, 0), joined(split, part, core.n, 0)]
    return hosts


def test_girth_at_least_agrees_with_girth(corpus12):
    # girth and girth_at_least share their kernel, so both are checked
    # against the per-edge oracle.  The random graphs, the theta graphs
    # of 5 paths (whose hubs stop the deletion of their 2-vertices) and
    # the parts hung off cubic cores are the inputs here above degree 3;
    # the cubic cores stall the deletion at k <= 6, in full or in part.
    graphs = list(corpus12) + [named(name)[0] for name in NAMED_SMALL]
    graphs += stalling_hosts()
    graphs += [theta((length,) * k) for k in (2, 3, 5) for length in (2, 3, 4)]
    for min_girth in (3, 4, 5, 6):
        graphs += with_disjoint_unions(GeneratorSpec(max_n=9, min_girth=min_girth))
    rng = random.Random(23)
    for _ in range(1000):
        n = rng.randint(0, 14)
        p = rng.choice((0.1, 0.2, 0.35, 0.6))
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    rng = random.Random(29)
    graphs += [random_subcubic(rng, rng.randint(6, 40)) for _ in range(300)]
    graphs += [cycle(k) for k in range(3, 14)]
    graphs += [theta(lengths) for lengths in ((1, 2, 2), (2, 3, 5), (1, 6, 6), (4, 4, 9), (3, 3, 3, 3))]
    graphs.append(Graph(22, theta((4, 4, 9)).edges() + [(16 + u, 16 + v) for u, v in cycle(6).edges()]))
    for g in graphs:
        value = girth_per_edge(g)
        assert girth(g) == value, g.edges()
        for k in (*range(3, 12), g.n, g.n + 1, math.inf):
            assert girth_at_least(g, k) == (value >= k), (g.edges(), k)


def test_girth_at_least_on_long_cycles():
    assert girth_at_least(cycle(3000), 6)
    assert not girth_at_least(cycle(5), 6)
    assert girth_at_least(path(3000), 6)
    # An 11-cycle with a 5-vertex tail: k = 12 <= n, and the tail is
    # stripped with the leaves.
    g = Graph(16, [(i, (i + 1) % 11) for i in range(11)] + [(i, i + 1) for i in range(10, 15)])
    assert girth_at_least(g, 11) and not girth_at_least(g, 12)
    # For k > n the test is whether g is a forest.
    assert girth_at_least(cycle(40), 40) and not girth_at_least(cycle(40), 41)


@pytest.mark.parametrize("k", [6, math.inf])
def test_girth_at_least_within_a_cpu_bound(cpu_bound, k):
    # Linear at fixed k, and a forest test at k = inf; one BFS per vertex
    # took 5.8 s on p3000 at k = inf, so p100000 would take hours.  At
    # k = 6 the spheres grow from every branch vertex of honeycomb-25000
    # and of the prism on 10,000 vertices, whose girth is 4: the kernel
    # has no early exit.  In K2,100000 with two vertices on each of its
    # paths, of girth 6, every 2-vertex lies next to a hub of degree
    # 100,000: probing its short paths would cost O(n) per vertex, so the
    # deletion leaves it.
    cases = [(path(100_000), True), (cycle(100_000), k == 6), (theta((3,) * 100_000), k == 6)]
    if k == 6:
        cases += [(_honeycomb(25_000), True), (_prism(5000), False)]
    for g, want in cases:
        with cpu_bound(1.0, f"girth_at_least at n = {g.n}, k = {k}"):
            assert girth_at_least(g, k) == want


def test_girth_at_least_six_deletes_every_class_member(monkeypatch, corpus12):
    # On a member of the class, girth_at_least(g, 6) is one pass of
    # deleting vertices of degree <= 2: the sphere stage is never
    # reached.  Stalling hosts reach it.
    samples = [random_instance(GeneratorSpec(max_n=150, seed=seed)) for seed in range(14)]
    hosts = list(corpus12) + [_honeycomb(k) for k in range(1, 51)] + [cycle(k) for k in range(6, 901)] + samples

    def no_spheres(core, best):
        raise AssertionError("the sphere stage ran")

    monkeypatch.setattr("sqcolor.graph_core._core_girth", no_spheres)
    for g in hosts:
        assert girth_at_least(g, 6), g.edges()
    with pytest.raises(AssertionError, match="sphere stage"):
        girth_at_least(named("dodecahedron")[0], 6)


def test_girth_at_least_six_reads_the_rest_of_the_deletions_as_its_core(monkeypatch):
    # What the deletions leave has minimum degree >= 2, so at k <= 6 it
    # goes to the sphere stage as it is; core_adjacency strips leaves
    # only above 6.  Hosts that stall in full and in part both reach it.
    hosts = stalling_hosts()
    want = {(i, k): girth(g) >= k for i, g in enumerate(hosts) for k in (4, 5, 6)}
    reached = []
    core_girth = graph_core._core_girth

    def spy(core, best):
        assert all(len(row) >= 2 for row in core if row), "a leaf reached the sphere stage"
        reached.append(core)
        return core_girth(core, best)

    def no_core(adj):
        raise AssertionError("core_adjacency ran at k <= 6")

    monkeypatch.setattr("sqcolor.graph_core._core_girth", spy)
    monkeypatch.setattr("sqcolor.graph_core.core_adjacency", no_core)
    for (i, k), value in want.items():
        assert girth_at_least(hosts[i], k) == value, (hosts[i].edges(), k)
    assert any(core is hosts[0].adj for core in reached)
    assert any(not row for core in reached for row in core)


@pytest.mark.parametrize("lengths", [(1, 2999), (1, 1500, 1500), (700, 700, 700)], ids=["c3000", "theta-3000", "theta-2099"])
def test_girth_at_least_near_n_within_a_cpu_bound(cpu_bound, lengths):
    # The spheres of radius k / 2 from every vertex took 2.3 s on c2000
    # at k = 2000.
    g = theta(lengths)
    value = girth(g)
    with cpu_bound(1.0, f"girth_at_least at n = {g.n}, k near n"):
        assert girth_at_least(g, value)
        assert not girth_at_least(g, value + 1)


def test_cut_vertices_matches_networkx(corpus12):
    rng = random.Random(3)
    for g in rng.sample(corpus12, 100):
        assert cut_vertices(g) == set(nx.articulation_points(to_nx(g)))
    g = named("two-heptagons")[0]
    assert cut_vertices(g) == {0, 7, 14}


def random_mixed_graph(rng):
    """A random graph with isolated vertices, trees, bridges and cycles."""
    n = rng.randint(1, 30)
    edges = {(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.6}
    for _ in range(rng.randint(0, n // 3) if n >= 2 else 0):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, edges)


def test_blocks_and_components_match_networkx_on_disconnected_input(subcubic9):
    rng = random.Random(17)
    graphs = subcubic9 + [random_mixed_graph(rng) for _ in range(500)]
    assert sum(1 for g in graphs if not is_connected(g)) > 500
    for g in graphs:
        h = to_nx(g)
        assert cut_vertices(g) == set(nx.articulation_points(h))
        assert sorted(map(sorted, biconnected_components(g))) == sorted(map(sorted, nx.biconnected_components(h)))
        assert sorted(map(sorted, adjacency_components(g.adj))) == sorted(sorted(c) for c in nx.connected_components(h))
        assert component_count(g) == nx.number_connected_components(h)
        assert is_connected(g) == (nx.number_connected_components(h) <= 1)


def test_biconnected_components_cover_cyclic_blocks():
    g = named("two-heptagons")[0]
    blocks = [b for b in biconnected_components(g) if len(b) >= 3]
    assert len(blocks) == 2
    assert {frozenset(b) for b in blocks} == {
        frozenset(range(7)),
        frozenset(range(7, 14)),
    }
    small = [b for b in biconnected_components(g) if len(b) == 2]
    assert {frozenset(b) for b in small} == {frozenset({0, 14}), frozenset({7, 14})}


def test_induced_subgraph():
    g = cycle(6)
    h, old_ids = induced_subgraph(g, [0, 1, 2, 3])
    assert old_ids == [0, 1, 2, 3]
    assert set(h.edges()) == {(0, 1), (1, 2), (2, 3)}


def test_add_vertex():
    g = path(3)
    h = add_vertex(g, [0, 2])
    assert h.n == 4
    assert set(h.edges()) == {(0, 1), (1, 2), (0, 3), (2, 3)}


def test_add_vertex_builds_from_rows_the_graph_of_its_edges():
    for g in (Graph(0), Graph(1), path(3), cycle(6), named("honeycomb-2")[0]):
        open_vertices = [v for v in range(g.n) if g.degree(v) < 3]
        for size in range(4):
            for S in itertools.combinations(open_vertices, size):
                for order in (S, S[::-1]):
                    h = add_vertex(g, order)
                    assert built_as_checked(h, g.edges() + [(s, g.n) for s in order])


def test_add_vertex_refuses_a_repeated_or_out_of_range_attach_vertex():
    # The messages of Graph's checks, the first fault in attach order.
    g = path(3)
    for S, message in [
        ([0, 0], "parallel edge (0,3)"),
        ([1, 2, 1], "parallel edge (1,3)"),
        ([3], "loop at vertex 3"),
        ([0, 2, 3], "loop at vertex 3"),
        ([4], "edge (4,3) out of range for n=4"),
        ([-1], "edge (-1,3) out of range for n=4"),
        ([2, 5, 0, 0], "edge (5,3) out of range for n=4"),
    ]:
        with pytest.raises(ValueError) as e:
            add_vertex(g, S)
        assert str(e.value) == message, S


def test_distance_queries():
    g = cycle(8)
    assert distance(g, 0, 4) == 4
    table = [ball(g.adj, s, 8) for s in range(8)]
    assert table[0][4] == 4
    assert all(table[v][v] == 0 for v in range(8))
    assert all(table[u][v] == table[v][u] == distance(g, u, v) for u in range(8) for v in range(8))
