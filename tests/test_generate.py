"""Tests for canonical codes, class enumeration, and instance generation."""

import hashlib
import math
import random
from pathlib import Path

import pytest

from oracles import (
    canonical_code_by_frontier,
    from_nx,
    graphs_in_class,
    isomorphic,
    relabel,
    to_nx,
    with_disjoint_unions,
)

from sqcolor import generate
from sqcolor.errors import BudgetExceeded, GenerationFailed, UnknownName
from sqcolor.formats import to_graph6
from sqcolor.generate import (
    GeneratorSpec,
    SAMPLE_BUDGET,
    _automorphisms,
    _degree_rank,
    _draw_chord,
    _frontier_search,
    canonical_code,
    enumerate_class,
    named,
    random_instance,
    subdivide_edge,
)
from sqcolor.graph_core import (
    Graph,
    ball,
    girth,
    is_connected,
    is_subcubic,
    max_degree,
)
from sqcolor.planar_embed import check_rotation, find_planar_embedding


def cycle(k):
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


# --- canonical codes ---


def test_canonical_code_invariant_under_relabeling(corpus12):
    rng = random.Random(29)
    for g in rng.sample(corpus12, 60):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_code(relabel(g, perm)) == canonical_code(g)


def test_canonical_code_separates_nonisomorphic_small_graphs():
    import networkx as nx
    from oracles import from_nx

    graphs = []
    for h in nx.graph_atlas_g()[1:]:
        if 1 <= h.number_of_nodes() <= 6 and nx.is_connected(h):
            graphs.append(from_nx(h))
    codes = {canonical_code(g) for g in graphs}
    assert len(codes) == len(graphs)


def test_canonical_code_equal_iff_isomorphic_on_pairs():
    rng = random.Random(71)
    pairs = [
        (cycle(6), relabel(cycle(6), [3, 0, 5, 1, 4, 2])),
        (named("p4")[0], Graph(4, [(2, 3), (1, 2), (0, 1)])),
    ]
    for g, h in pairs:
        assert isomorphic(g, h)
        assert canonical_code(g) == canonical_code(h)
    assert canonical_code(cycle(6)) != canonical_code(named("p6")[0])


def random_connected_subcubic(rng, n):
    """A random spanning tree of maximum degree 3 plus random extra edges
    between vertices of degree < 3; triangles are allowed."""
    deg = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.choice([u for u in range(v) if deg[u] < 3])
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    for _ in range(rng.randint(0, n)):
        u, v = sorted((rng.randrange(n), rng.randrange(n)))
        if u < v and deg[u] < 3 and deg[v] < 3 and (u, v) not in edges:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, sorted(edges))


@pytest.mark.parametrize("max_n, min_girth", [(10, 6), (8, 3), (8, 4), (8, 5)])
def test_canonical_code_matches_frontier_oracle_on_enumeration(monkeypatch, max_n, min_girth):
    calls = []

    def record(h):
        code = canonical_code(h)
        calls.append((h, code))
        return code

    monkeypatch.setattr(generate, "canonical_code", record)
    list(enumerate_class(GeneratorSpec(max_n=max_n, min_girth=min_girth)))
    assert calls
    for h, code in calls:
        assert code == canonical_code_by_frontier(h), h.edges()


def test_canonical_code_matches_frontier_oracle_on_random_graphs():
    # Connected inputs only: the oracle tries every order of the
    # components' vertices that ties, which is factorial on isolated ones.
    rng = random.Random(83)
    for _ in range(1000):
        g = random_connected_subcubic(rng, rng.randint(1, 12))
        assert canonical_code(g) == canonical_code_by_frontier(g), g.edges()


def test_canonical_code_of_edgeless_graphs():
    # Every order ties here; keeping them all took seconds at n = 8.
    for n in (12, 14):
        assert canonical_code(Graph(n, [])) == (n, (0,) * (n - 1))


def test_canonical_code_with_isolated_vertices_matches_oracle():
    for extra in range(4):
        g = Graph(6 + extra, [(i, (i + 1) % 6) for i in range(6)])
        assert canonical_code(g) == canonical_code_by_frontier(g)


def random_disconnected(rng, n):
    """A random relabelled disjoint union of random connected subcubic
    graphs with n vertices in all; isolated vertices are components."""
    edges, offset = [], 0
    while offset < n:
        part = random_connected_subcubic(rng, rng.randint(1, n - offset))
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.n
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Graph(n, edges), perm)


def test_canonical_code_of_disconnected_graphs_matches_oracle():
    # The oracle ties every order of twin components, so each case keeps
    # at most three isolated vertices; edgeless graphs up to 6 vertices.
    rng = random.Random(89)
    checked = 0
    while checked < 400:
        g = random_disconnected(rng, rng.randint(2, 10))
        if sum(1 for a in g.adj if not a) > 3:
            continue
        checked += 1
        assert canonical_code(g) == canonical_code_by_frontier(g), g.edges()
    for n in range(7):
        assert canonical_code(Graph(n, [])) == canonical_code_by_frontier(Graph(n, []))


def test_canonical_code_of_many_components_within_a_cpu_bound(cpu_bound):
    # 40 disjoint edges and paths of 3, 4 and 5 vertices: one search tied
    # every order of the edges, factorial in their number.
    rng = random.Random(7)
    edges = [(2 * i, 2 * i + 1) for i in range(40)]
    edges += [(80, 81), (81, 82), (83, 84), (84, 85), (85, 86), (87, 88), (88, 89), (89, 90), (90, 91)]
    g = Graph(92, edges)
    perm = list(range(g.n))
    rng.shuffle(perm)
    with cpu_bound(1.0, "canonical_code of 40 disjoint edges and three paths"):
        code = canonical_code(g)
        assert canonical_code(relabel(g, perm)) == code
    # Blocks in decreasing order: P5, P4, P3, then 40 edges; the last 0
    # is dropped.
    blocks = [canonical_code(named(f"p{k}")[0])[1] + (0,) for k in (5, 4, 3)]
    assert blocks == sorted(blocks, reverse=True)
    assert code == (92, sum(blocks, ()) + (1, 0) * 39 + (1,))


def random_triangle_free(rng, n, max_deg=4):
    """Random edges between vertices of degree < max_deg that share no
    neighbour, so no triangle; often disconnected."""
    adj = [set() for _ in range(n)]
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        if v in adj[u] or adj[u] & adj[v] or max(len(adj[u]), len(adj[v])) >= max_deg:
            continue
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def test_canonical_code_start_filter_matches_oracle_on_triangle_free_graphs():
    # The search starts only at vertices of maximum degree when there is
    # no triangle.  At most two isolated vertices: the oracle tries every
    # tied order of them, which is factorial.
    rng = random.Random(97)
    checked = disconnected = 0
    while checked < 600:
        g = random_triangle_free(rng, rng.randint(1, 9))
        if sum(1 for v in range(g.n) if not g.adj[v]) > 2:
            continue
        checked += 1
        disconnected += not is_connected(g)
        assert canonical_code(g) == canonical_code_by_frontier(g), g.edges()
    assert 100 < disconnected < 500


def test_canonical_code_tries_every_start_when_there_is_a_triangle():
    # K3 plus K1,3: the triangle's vertices have degree 2 and the star's
    # centre degree 3, but the best code starts in the triangle (level 2
    # reads 11 there, 10 from the centre).
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6)])
    assert canonical_code(g) == canonical_code_by_frontier(g) == (7, (1, 3, 0, 1, 2, 4))


def nx_automorphisms(g):
    from networkx.algorithms.isomorphism import GraphMatcher

    h = to_nx(g)
    return {tuple(m[v] for v in range(g.n)) for m in GraphMatcher(h, h).isomorphisms_iter()}


FIXTURES = ("c6", "c7", "p5", "q3", "prism6", "dodecahedron", "petersen", "honeycomb-1",
            "honeycomb-2", "honeycomb-3", "subdivided-prism", "two-heptagons")


def ranked_automorphisms(g):
    """The maps the enumeration reads off g's ranked search."""
    return _automorphisms(_frontier_search(g, _degree_rank(g))[1])


def test_automorphisms_match_networkx(corpus12):
    graphs = corpus12 + [named(name)[0] for name in FIXTURES]
    for g in graphs:
        autos = ranked_automorphisms(g)
        assert autos[0] == tuple(range(g.n))
        assert len(set(autos)) == len(autos)
        assert set(autos) == nx_automorphisms(g), g.edges()


def test_automorphisms_are_automorphisms_with_four_cycles(subcubic9):
    # The search tries one start per neighbourhood, so with twins of
    # degree >= 2 (a 4-cycle) its maps may miss part of Aut(g); every map
    # returned must still be an automorphism, which is all the orbit
    # pruning needs.
    for g in subcubic9:
        autos = ranked_automorphisms(g)
        assert autos[0] == tuple(range(g.n))
        assert len(set(autos)) == len(autos)
        edges = set(g.edges())
        for sigma in autos:
            assert sorted(sigma) == list(range(g.n))
            assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in edges} == edges
        if is_connected(g):
            assert set(autos) <= nx_automorphisms(g), g.edges()


def ranked_code(g):
    return _frontier_search(g, _degree_rank(g))[0]


def test_ranked_code_is_invariant_under_relabeling(corpus12, subcubic9):
    rng = random.Random(31)
    for g in corpus12 + subcubic9:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert ranked_code(relabel(g, perm)) == ranked_code(g), g.edges()


@pytest.mark.parametrize("min_girth", [3, 4, 6])
def test_ranked_code_separates_exactly_as_canonical_code(monkeypatch, min_girth):
    # Over every child the enumeration tries, the ranked code and
    # canonical_code cut the children into the same classes.
    children = []
    search = generate._frontier_search

    def record(g, rank=None):
        result = search(g, rank)
        if rank is not None:
            children.append((g, result[0]))
        return result

    monkeypatch.setattr(generate, "_frontier_search", record)
    generate._enumerate_connected(10, min_girth)
    monkeypatch.undo()
    pairs = {(ranked, canonical_code(g)) for g, ranked in children}
    assert len(children) > len(pairs)
    assert len({ranked for ranked, _ in pairs}) == len({code for _, code in pairs}) == len(pairs)


def count_searches(monkeypatch):
    """Patch the enumeration to count its ranked searches and its
    canonical_code calls; returns the two lists the calls append to."""
    ranked, coded = [], []
    search, code = generate._frontier_search, generate.canonical_code

    def counting_search(g, rank=None):
        if rank is not None:
            ranked.append(None)
        return search(g, rank)

    def counting_code(g):
        coded.append(None)
        return code(g)

    monkeypatch.setattr(generate, "_frontier_search", counting_search)
    monkeypatch.setattr(generate, "canonical_code", counting_code)
    return ranked, coded


def test_enumeration_codes_one_child_per_orbit(monkeypatch):
    # One ranked search per child tried; canonical_code runs only on the
    # 375 graphs kept (all but the single vertex), to sort them.
    ranked, coded = count_searches(monkeypatch)
    assert len(list(enumerate_class(GeneratorSpec(max_n=11)))) == 376
    assert len(ranked) == 1631
    assert len(coded) == 375


@pytest.mark.parametrize("min_girth, tried, kept", [
    pytest.param(4, 1430, 338, id="4-1430"),
    pytest.param(3, 3620, 812, id="3-3620"),
])
def test_enumeration_codes_one_child_per_orbit_with_four_cycles(monkeypatch, min_girth, tried, kept):
    # The search's maps miss the swaps of twins it skips, so at girth <= 4
    # a few children in one orbit of the full group are each searched.
    ranked, coded = count_searches(monkeypatch)
    levels = generate._enumerate_connected(9, min_girth)
    assert len(ranked) == tried
    assert len(coded) == kept == sum(map(len, levels[2:]))


# --- enumeration ---


def test_enumerate_frozen_counts_to_six(corpus12):
    by_n = {}
    for g in corpus12:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 5,
                    7: 8, 8: 18, 9: 35, 10: 90, 11: 213, 12: 601}
    assert len(corpus12) == 977


def test_enumerate_matches_atlas_oracle_to_seven():
    want = graphs_in_class(7, min_girth=6)
    got = list(enumerate_class(GeneratorSpec(max_n=7, min_girth=6)))
    assert len(got) == len(want) == 20
    # same multiset of isomorphism classes
    for g in got:
        assert any(isomorphic(g, h) for h in want)
    codes = {canonical_code(g) for g in got}
    assert len(codes) == len(got)


def test_enumerate_lower_girth_matches_atlas():
    for min_girth in (3, 4, 5):
        want = graphs_in_class(6, min_girth=min_girth)
        got = list(enumerate_class(GeneratorSpec(max_n=6, min_girth=min_girth)))
        assert len(got) == len(want)
        for g in got:
            assert any(isomorphic(g, h) for h in want)


CORPUS12_G6 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "corpus12.g6"


def test_enumeration_matches_the_frozen_corpus_file(corpus12):
    # Pins the n = 12 representatives and their order, which the
    # enumeration hashes below (max_n 11 and 9) do not reach.
    got = "".join(to_graph6(g) + "\n" for g in corpus12).encode("ascii")
    assert got == CORPUS12_G6.read_bytes()


def test_enumerate_members_satisfy_predicates(corpus12):
    for g in corpus12:
        assert is_connected(g)
        assert is_subcubic(g)
        assert girth(g) >= 6
        assert find_planar_embedding(g) is not None


def test_enumerate_no_duplicates(corpus12):
    codes = {canonical_code(g) for g in corpus12}
    assert len(codes) == len(corpus12)


def test_enumerate_trees_only_when_girth_infinite():
    got = list(enumerate_class(GeneratorSpec(max_n=7, min_girth=math.inf)))
    assert [g.n for g in got] == [1, 2, 3, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7]
    assert all(girth(g) == math.inf for g in got)
    assert all(g.m == g.n - 1 for g in got)


def test_enumerate_ordering_by_vertex_count(corpus12):
    sizes = [g.n for g in corpus12]
    assert sizes == sorted(sizes)


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_class(GeneratorSpec(max_n=15, min_girth=6)))


def test_enumerate_disconnected_unions():
    got = list(with_disjoint_unions(GeneratorSpec(max_n=3, min_girth=6)))
    # connected: p1, p2, p3; unions: p1+p1, p1+p2, p1+p1+p1
    assert len(got) == 6
    sizes = sorted(g.n for g in got)
    assert sizes == [1, 2, 2, 3, 3, 3]
    disconnected = [g for g in got if not is_connected(g)]
    assert len(disconnected) == 3
    codes = {canonical_code(g) for g in got}
    assert len(codes) == 6


def test_enumerate_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(max_n=0, min_girth=6).validate()
    with pytest.raises(ValueError):
        GeneratorSpec(max_n=5, min_girth=2).validate()


# --- named catalog ---


def test_named_catalog_properties():
    cases = {
        "c6": (6, 6, 6),
        "c7": (7, 7, 7),
        "p5": (5, 4, math.inf),
        "q3": (8, 12, 4),
        "prism6": (12, 18, 4),
        "dodecahedron": (20, 30, 5),
        "petersen": (10, 15, 5),
        "honeycomb-1": (6, 6, 6),
        "honeycomb-2": (10, 11, 6),
        "honeycomb-3": (14, 16, 6),
        "subdivided-prism": (18, 24, 6),
        "two-heptagons": (15, 16, 7),
    }
    for name, (n, m, want_girth) in cases.items():
        g, rot = named(name)
        assert (g.n, g.m) == (n, m), name
        assert girth(g) == want_girth, name
        assert is_subcubic(g), name
        if rot is not None:
            check_rotation(g, rot)


def test_named_rotation_present_iff_planar():
    assert named("petersen")[1] is None
    for name in ("c6", "q3", "honeycomb-2", "subdivided-prism"):
        assert named(name)[1] is not None


def test_named_aliases_and_errors():
    assert named("cube")[0] == named("q3")[0]
    assert named("6-prism")[0] == named("prism6")[0]
    assert named("two-heptagons-sharing-a-2-vertex")[0] == named("two-heptagons")[0]
    with pytest.raises(UnknownName) as e:
        named("nope")
    assert "nope" in str(e.value)


def test_named_fixtures_are_the_networkx_graphs():
    import networkx as nx

    fixtures = {
        "q3": nx.cubical_graph(),
        "prism6": nx.circular_ladder_graph(6),
        "dodecahedron": nx.dodecahedral_graph(),
        "petersen": nx.petersen_graph(),
    }
    for name, h in fixtures.items():
        assert named(name)[0] == from_nx(h), name
    g = from_nx(nx.circular_ladder_graph(6))
    for i in range(6):
        g = subdivide_edge(g, i, i + 6)
    assert named("subdivided-prism")[0] == g


def test_named_subdivided_prism_shape():
    g = named("subdivided-prism")[0]
    twos = [v for v in range(g.n) if g.degree(v) == 2]
    assert len(twos) == 6
    assert girth(g) == 6


def test_named_two_heptagons_shape():
    g = named("two-heptagons")[0]
    assert g.degree(14) == 2
    assert sorted(g.neighbors(14)) == [0, 7]


# --- operations ---


def test_subdivide_edge():
    g = subdivide_edge(cycle(6), 0, 1)
    assert g.n == 7
    assert girth(g) == 7
    assert not g.has_edge(0, 1)
    assert g.has_edge(0, 6) and g.has_edge(1, 6)


# --- random generation ---


def test_random_instance_deterministic_per_seed():
    spec = GeneratorSpec(max_n=12, min_girth=6, seed=4)
    assert random_instance(spec) == random_instance(spec)
    other = random_instance(GeneratorSpec(max_n=12, min_girth=6, seed=5))
    assert other == random_instance(GeneratorSpec(max_n=12, min_girth=6, seed=5))


def test_random_instance_satisfies_predicates():
    for seed in range(12):
        g = random_instance(GeneratorSpec(max_n=13, min_girth=6, seed=seed))
        assert g.n <= 13
        assert is_connected(g)
        assert is_subcubic(g)
        assert girth(g) >= 6
        assert find_planar_embedding(g) is not None


def test_random_instance_reaches_cyclic_graphs():
    cyclic = 0
    for seed in range(20):
        g = random_instance(GeneratorSpec(max_n=14, min_girth=6, seed=seed))
        if girth(g) < math.inf:
            cyclic += 1
    assert cyclic > 0


def test_random_instance_raises_when_the_final_check_fails(monkeypatch):
    monkeypatch.setattr(generate, "is_subcubic", lambda g: False)
    with pytest.raises(GenerationFailed):
        random_instance(GeneratorSpec(max_n=12, seed=0))


def test_random_instance_respects_tree_spec():
    g = random_instance(GeneratorSpec(max_n=10, min_girth=math.inf, seed=0))
    assert girth(g) == math.inf
    assert max_degree(g) <= 3


class _Pick:
    """A stand-in rng whose choice(seq) returns seq[i]."""

    def __init__(self, i):
        self.i = i

    def choice(self, seq):
        return seq[self.i]


def test_chord_pairs_match_brute_force(subcubic9, monkeypatch):
    grown = {}
    step = generate._random_step

    def recording(adj, spec, rng):
        grown[tuple(frozenset(a) for a in adj)] = None
        return step(adj, spec, rng)

    monkeypatch.setattr(generate, "_random_step", recording)
    for seed, min_girth in ((0, 6), (1, 6), (13, 6), (2, 4), (3, 5), (4, 8)):
        random_instance(GeneratorSpec(max_n=60, min_girth=min_girth, seed=seed))
    assert len(grown) > 100
    for adj in [g.adj for g in subcubic9] + list(grown):
        g = Graph(len(adj), [(u, v) for u in range(len(adj)) for v in adj[u] if u < v])
        dist = [ball(g.adj, u, g.n) for u in range(g.n)]
        for ring in range(3, 9):
            want = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if g.degree(u) <= 2 and g.degree(v) <= 2 and dist[u].get(v, math.inf) >= ring - 1
            ]
            got = [_draw_chord(adj, ring, _Pick(i)) for i in range(len(want))]
            assert got == want, (g.edges(), ring)
            if not want:
                assert _draw_chord(adj, ring, _Pick(0)) is None, (g.edges(), ring)


def test_random_instance_draws_chords_within_a_cpu_bound(cpu_bound):
    # Listing every open pair before each chord draw made this take 9 to
    # 11 s; counting the pairs per vertex takes under 2 s.
    with cpu_bound(6, "random_instance(max_n=2000)"):
        g = random_instance(GeneratorSpec(max_n=2000, seed=0))
    assert g.n == 2000


def test_random_instance_with_a_huge_girth_within_a_cpu_bound(cpu_bound):
    # No chord fits while the girth exceeds the vertex count; computing
    # every open vertex's ball, each the whole tree, took 35 s here.
    with cpu_bound(3, "random_instance(max_n=1000, min_girth=10**8)"):
        g = random_instance(GeneratorSpec(max_n=1000, min_girth=10**8, seed=0))
    assert (g.n, g.m) == (1000, 999)


def test_random_instance_at_girth_30_within_a_cpu_bound(cpu_bound):
    # The budget shrinks with the girth: girth 30 at 4,000 vertices took
    # 2.7 times the CPU of girth 6 there; at its budget it takes 0.3 s.
    max_n = generate._sample_budget(30)
    assert max_n == 800
    with cpu_bound(3, f"random_instance(max_n={max_n}, min_girth=30)"):
        g = random_instance(GeneratorSpec(max_n=max_n, min_girth=30, seed=0))
    assert g.n == max_n
    with pytest.raises(BudgetExceeded):
        random_instance(GeneratorSpec(max_n=max_n + 1, min_girth=30, seed=0))


def test_random_instance_budget(monkeypatch):
    assert SAMPLE_BUDGET >= 400
    with pytest.raises(BudgetExceeded):
        random_instance(GeneratorSpec(max_n=SAMPLE_BUDGET + 1, seed=0))
    monkeypatch.setattr(generate, "SAMPLE_BUDGET", 12)
    assert random_instance(GeneratorSpec(max_n=12, seed=0)).n <= 12
    with pytest.raises(BudgetExceeded):
        random_instance(GeneratorSpec(max_n=13, seed=0))


# sha256 of to_graph6(random_instance(GeneratorSpec(max_n=150, seed=s)))
# for s = 0..19; other tests and the benchmark rely on these seeds' graphs.
RANDOM_150_SHA256 = [
    "6d910990ae3f3cc0c40fef3826b0109d6c41e03a352e55eee06c2bfd5b95f4cb",
    "c8230dac509786c0991ed27aa757994bcd7e9da0f997e7b5fc5e4c7c79f58389",
    "78d683df54741dc3a48c58be1eb6610181071bab059e0e91b53720185f912572",
    "9e0f8d87022a7b26252691c86f90b21c5c61c9cd8400c86f474c5bc49c073838",
    "76bff990bf39ed7e9d29c6b0cf7512a37fa29fd2868f63aab7ddd0e83a25804a",
    "5b9ec4ce036389a61bf0a0369337a97c375a59687fbbf5f447ca8e72502b5d0b",
    "8cf659d30a0b3312d310f671c5ccc56dd1d9c25d72d0c6fb0159c3e0d0114229",
    "e8d8378de002525f2865e0ceb4ee2c6c27b4ceb75cce3271e80959a43543cfa9",
    "f5b0b03b61b83283c2bc992566951da7e07d9367bbac700365198cda4a6febe9",
    "a968398ec2277e47c052ceeb91f12504e1dc5a1157a3ed17a54e4904e5af5777",
    "3b3f4691d7a38094188a9ad4e0c61500447cdda10b463648e5d430bbd8497fd8",
    "917b9446c774d3cbdcb40eb3208c7282615d3d3256f7efa317c09d14389a2645",
    "e1df0884fade828c0df21b2dc8a29fa37b312c204f2f58d73572fa9d1e7eb8be",
    "2e3696293b1faf85bdd0bcd0c7dab74ecb501b01038649edd4147af49c3b9fd5",
    "0c03cb1118f64f6f7f3ac61579b9bea24386ee923a59c0dea6d19c8586687622",
    "83f1a3d8883ffd794c9ec020443a35db75b2af0c8dcee2696327a0f26de9e7c5",
    "43c9f03dac42997d3a988fe564ee12e4c164be33970d7abb8688cd212997e090",
    "9474f463a48390a74308ec206d2e3e014ce48baaaa0c710d259a704aa4fa1e0d",
    "2c14e7548bc928d034081235b4f4e2077e4df71c22067a9925e96e3f637bcfbb",
    "a0073783e408ec54dfe75d963b6612134145a82407f145d9b2d80aa6681dbe0c",
]


def test_random_instance_outputs_are_frozen():
    for seed, want in enumerate(RANDOM_150_SHA256):
        line = to_graph6(random_instance(GeneratorSpec(max_n=150, seed=seed)))
        assert hashlib.sha256(line.encode()).hexdigest() == want, seed


# sha256 of the newline-joined to_graph6 lines of random_instance over
# min_girth 3, 4, 5, 7, 8, inf x max_n 5, 12, 40 x seeds 0..9, in that
# nesting order.  These samples run every growth step (pendant,
# subdivision, cycle at a vertex, fused cycle, chord) at several girths;
# frozen before the sampler grew one adjacency in place.
RANDOM_MULTI_GIRTH_SHA256 = "8c82fe8a41be4ea1fb51594dec1a55e25e71fdd70f588b5cd466868b02efb604"


def test_random_instance_growth_steps_are_frozen():
    lines = [
        to_graph6(random_instance(GeneratorSpec(max_n=max_n, min_girth=min_girth, seed=seed)))
        for min_girth in (3, 4, 5, 7, 8, math.inf)
        for max_n in (5, 12, 40)
        for seed in range(10)
    ]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RANDOM_MULTI_GIRTH_SHA256


def test_random_instance_builds_a_graph_only_to_test_planarity(monkeypatch):
    # The sampler grows one adjacency, and each chord's planarity test
    # reads it: the one Graph built is the result, for the final check.
    built, planar_calls = [], []
    init = Graph.__init__
    planar = generate._planar

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    def counting_planar(adj):
        planar_calls.append(None)
        return planar(adj)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    monkeypatch.setattr(generate, "_planar", counting_planar)
    random_instance(GeneratorSpec(max_n=150, seed=0))
    assert planar_calls
    assert len(built) == 1


# sha256 of the graph6 lines ("<g6>\n" each) of enumerations, keyed by
# (max_n, min_girth, with the disjoint unions of the oracle appended);
# the first two were frozen before planarity in the generator moved to
# the cubic kernel, and the two with unions while enumerate_class still
# appended them itself.
ENUMERATION_SHA256 = {
    (11, 6, False): (376, "326b3bcd486fc49b0c1b7fdbcab4669c42f18205890a5bcb30d9193c9240fb5a"),
    (9, 4, True): (754, "24506da682876125e649be65cb39fd669e152f55e2c23e37b358f162b736f2e2"),
    # Frozen before the enumeration tried one attach set per orbit: at
    # girth 3 the start filter is off and the orbits are largest.
    (9, 3, False): (813, "39bedbc1969d9334f3cf962751924f2c13342f6c5b1639a1bd648662964bdd0e"),
    # The subcubic9 fixture.
    (9, 3, True): (1801, "c407af0a588700b5fc26f9948dfc3977c5687a2896726d2152c63eee3fa88e8f"),
}


def test_enumeration_outputs_are_frozen():
    for (max_n, min_girth, unions), (count, want) in ENUMERATION_SHA256.items():
        spec = GeneratorSpec(max_n=max_n, min_girth=min_girth)
        graphs = with_disjoint_unions(spec) if unions else enumerate_class(spec)
        lines = [to_graph6(g) + "\n" for g in graphs]
        assert len(lines) == count
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == want, spec
