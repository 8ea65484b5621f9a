"""Tests for rotation systems, face tracing, and planar embedding."""

import functools
import random
import sys

import networkx as nx
import pytest

from oracles import embed_kernel_nx, euler_genus_check, faces_by_sorted_darts, from_nx, to_nx

from sqcolor import generate, planar_embed
from sqcolor.discharging import discharge_audit
from sqcolor.errors import InconsistentRotation, NotInClass
from sqcolor.generate import _disjoint_union, named, subdivide_edge
from sqcolor.graph_core import (
    Graph,
    adjacency_components,
    components,
    girth,
    induced_subgraph,
    is_subcubic,
)
from sqcolor.planar_embed import (
    RotationSystem,
    check_class,
    faces,
    find_planar_embedding,
    is_planar,
)
from sqcolor.reducer import color_square_7lists


def embed(g):
    rs = find_planar_embedding(g)
    assert rs is not None
    return rs


def face_lengths(g):
    return sorted(f.length for f in faces(g, embed(g)))


def test_rotation_validate_catches_mismatch():
    g = Graph(3, [(0, 1), (1, 2)])
    good = RotationSystem(((1,), (0, 2), (1,)))
    good.validate(g)
    with pytest.raises(InconsistentRotation):
        RotationSystem(((1,), (2, 0), (2,))).validate(g)
    with pytest.raises(InconsistentRotation):
        RotationSystem(((1,), (0,), (1,))).validate(g)
    with pytest.raises(InconsistentRotation):
        RotationSystem(((1,), (0, 2, 0), (1,))).validate(g)


def test_faces_of_cycle():
    g = named("c6")[0]
    fs = faces(g, embed(g))
    assert len(fs) == 2
    assert all(f.length == 6 for f in fs)
    assert all(sorted(f.vertices()) == list(range(6)) for f in fs)


def test_faces_of_cube():
    assert face_lengths(named("q3")[0]) == [4] * 6


def test_faces_of_prism():
    assert face_lengths(named("prism6")[0]) == [4] * 6 + [6, 6]


def test_faces_of_dodecahedron():
    assert face_lengths(named("dodecahedron")[0]) == [5] * 12


def test_faces_of_tree_single_face():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    fs = faces(g, embed(g))
    assert len(fs) == 1
    assert fs[0].length == 6


def test_faces_of_single_vertex():
    g = Graph(1, [])
    fs = faces(g, embed(g))
    assert len(fs) == 1
    assert fs[0].length == 0


def test_faces_match_the_sorted_dart_reference_on_corpus12(corpus12):
    for g in corpus12:
        rs = embed(g)
        assert [f.walk for f in faces(g, rs)] == faces_by_sorted_darts(g, rs)


def test_empty_graph_has_no_embedding_but_is_planar():
    g = Graph(0, [])
    with pytest.raises(ValueError, match="nonempty"):
        find_planar_embedding(g)
    with pytest.raises(ValueError, match="nonempty"):
        faces(g, RotationSystem(()))
    assert is_planar(g) is True
    k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    with pytest.raises(ValueError, match="connected"):
        find_planar_embedding(_disjoint_union([k5, named("c6")[0]]))


def test_face_lengths_sum_to_twice_edges(corpus12):
    rng = random.Random(13)
    for g in rng.sample(corpus12, 150):
        fs = faces(g, embed(g))
        assert sum(f.length for f in fs) == 2 * g.m
        assert euler_genus_check(g, embed(g))


def test_nonplanar_graphs_have_no_embedding():
    k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert find_planar_embedding(k5) is None
    k33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert find_planar_embedding(k33) is None
    assert find_planar_embedding(named("petersen")[0]) is None


def test_heawood_is_nonplanar_and_in_girth_class_otherwise():
    from sqcolor.graph_core import girth, is_subcubic

    g = heawood()
    assert g.m == 21
    assert is_subcubic(g)
    assert girth(g) == 6
    assert find_planar_embedding(g) is None


def test_planarity_matches_known_answers():
    fixtures = [
        ("c6", True),
        ("q3", True),
        ("prism6", True),
        ("dodecahedron", True),
        ("honeycomb-3", True),
        ("subdivided-prism", True),
        ("two-heptagons", True),
    ]
    for name, expect in fixtures:
        g = named(name)[0]
        assert (find_planar_embedding(g) is not None) is expect


def test_embedding_subdivision_of_k5_stays_nonplanar():
    k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    edges = []
    nxt = 5
    for u, v in k5.edges():
        edges += [(u, nxt), (min(nxt, v), max(nxt, v))]
        nxt += 1
    g = Graph(nxt, edges)
    assert find_planar_embedding(g) is None


# --- is_planar: the cubic-kernel decision ---


def core_three_vertices(g):
    """Vertices of degree 3 in the 2-core, by networkx."""
    core = nx.k_core(to_nx(g), 2)
    return sum(1 for _, d in core.degree() if d >= 3)


@pytest.fixture
def planarity_calls(monkeypatch):
    """Record (vertices, edges) of each kernel component _embed_kernel
    is asked to embed."""
    seen = []
    real = planar_embed._embed_kernel

    def record(rot, comp):
        seen.append((len(comp), sum(len(rot[v]) for v in comp) // 2))
        return real(rot, comp)

    monkeypatch.setattr(planar_embed, "_embed_kernel", record)
    return seen


def random_subcubic(rng, n, m):
    deg = [0] * n
    edges = set()
    for _ in range(20 * m):
        if len(edges) >= m:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        e = (min(u, v), max(u, v))
        if u != v and e not in edges and deg[u] < 3 and deg[v] < 3:
            edges.add(e)
            deg[u] += 1
            deg[v] += 1
    return Graph(n, sorted(edges))


def decorate(rng, g):
    """Subdivide random edges into long 2-paths and hang pendant trees."""
    for _ in range(rng.randrange(2 * g.m + 1)):
        u, v = rng.choice(g.edges())
        g = subdivide_edge(g, u, v)
    for _ in range(rng.randrange(0, 8)):
        open_vertices = [v for v in range(g.n) if g.degree(v) < 3]
        if not open_vertices:
            break
        g = Graph(g.n + 1, g.edges() + [(rng.choice(open_vertices), g.n)])
    return g


@functools.cache
def seeded_graphs():
    """2,000 subcubic graphs, over a quarter of them disconnected: random
    cores with subdivided edges and pendant trees; built once."""
    rng = random.Random(2024)
    graphs = []
    for _ in range(2000):
        parts = []
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            k = rng.randint(1, 16)
            m = rng.randint(0, 3 * k // 2) if rng.random() < 0.5 else 3 * k // 2
            parts.append(decorate(rng, random_subcubic(rng, k, m)))
        graphs.append(_disjoint_union(parts))
    return tuple(graphs)


def test_is_planar_matches_networkx_on_random_subcubic_graphs(planarity_calls, subcubic9):
    answers = {True: 0, False: 0}
    disconnected = 0
    for g in seeded_graphs() + tuple(subcubic9):
        assert is_subcubic(g)
        want = nx.check_planarity(to_nx(g))[0]
        del planarity_calls[:]
        assert is_planar(g) is want
        if core_three_vertices(g) < 6:
            assert not planarity_calls
        answers[want] += 1
        if g.n and not nx.is_connected(to_nx(g)):
            disconnected += 1
    assert answers[True] > 500 and answers[False] > 300, answers
    assert disconnected > 500, disconnected


def test_find_planar_embedding_matches_networkx_on_each_component():
    answers = {True: 0, False: 0}
    for g in seeded_graphs():
        for comp in components(g):
            h = induced_subgraph(g, comp)[0]
            want = nx.check_planarity(to_nx(h))[0]
            rs = find_planar_embedding(h)
            assert (rs is not None) is want
            answers[want] += 1
            if rs is not None:
                rs.validate(h)
                assert sum(f.length for f in faces(h, rs)) == 2 * h.m
                assert [f.walk for f in faces(h, rs)] == faces_by_sorted_darts(h, rs)
                assert euler_genus_check(h, rs)
    assert answers[True] > 2000 and answers[False] > 300, answers


def test_find_planar_embedding_matches_networkx_on_enumeration_candidates(monkeypatch):
    # Every connected candidate _enumerate_connected tests for planarity.
    checked = []

    def compare(h):
        want = nx.check_planarity(to_nx(h))[0]
        rs = find_planar_embedding(h)
        assert (rs is not None) is want is is_planar(h)
        if rs is not None:
            assert euler_genus_check(h, rs)
        checked.append(h.n)
        return want

    monkeypatch.setattr(generate, "is_planar", compare)
    generate._enumerate_connected(12, 6)
    assert len(checked) > 2000 and max(checked) == 12


def test_audits_embed_only_the_kernel(planarity_calls):
    cycle, honeycomb = named("c3000")[0], named("honeycomb-50")[0]
    del planarity_calls[:]
    assert discharge_audit(cycle).final_total == -12
    assert planarity_calls == []
    assert discharge_audit(honeycomb).final_total == -12
    assert [n < honeycomb.n for n, _ in planarity_calls] == [True]


def test_euler_check_rejects_a_mutated_lift(monkeypatch):
    # Reversing one branch vertex of the kernel's rotation (swapping two
    # of its three neighbours) merges its three faces into one, so the
    # Euler check on the lifted rotation must fail.
    g = named("subdivided-prism")[0]
    real = planar_embed._embed_kernel

    def mutant(rot, comp):
        ok = real(rot, comp)
        if 0 in comp:
            rot[0][0], rot[0][1] = rot[0][1], rot[0][0]
        return ok

    rs = find_planar_embedding(g)
    assert len(rs.rot[0]) == 3 and any(g.degree(w) == 2 for w in rs.rot[0])
    monkeypatch.setattr(planar_embed, "_embed_kernel", mutant)
    with pytest.raises(AssertionError, match="non-planar rotation"):
        find_planar_embedding(g)
    with pytest.raises(AssertionError, match="non-planar rotation"):
        discharge_audit(g)
    with pytest.raises(AssertionError, match="non-planar rotation"):
        is_planar(g)


def test_is_planar_reduces_once(monkeypatch, planarity_calls):
    calls = {"_reduce": 0, "_kernel": 0, "find_planar_embedding": 0}
    real_reduce, real_kernel = planar_embed._reduce, planar_embed._kernel

    def reduce(adj):
        calls["_reduce"] += 1
        return real_reduce(adj)

    def kernel(adj):
        calls["_kernel"] += 1
        return real_kernel(adj)

    def embedding(g):
        calls["find_planar_embedding"] += 1
        return None

    g = named("subdivided-prism")[0]
    del planarity_calls[:]
    monkeypatch.setattr(planar_embed, "_reduce", reduce)
    monkeypatch.setattr(planar_embed, "_kernel", kernel)
    monkeypatch.setattr(planar_embed, "find_planar_embedding", embedding)
    assert is_planar(g) is True
    assert calls == {"_reduce": 1, "_kernel": 0, "find_planar_embedding": 0}
    assert [n for n, _ in planarity_calls] == [12]


def heawood():
    return Graph(14, sorted(nx.heawood_graph().edges()))


def subdivided_k33():
    k33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    g = k33
    for u, v in k33.edges():
        g = subdivide_edge(g, u, v)
    return g


def test_is_planar_on_k33_with_every_edge_subdivided(planarity_calls):
    g = subdivided_k33()
    assert girth(g) == 8
    assert core_three_vertices(g) == 6
    assert is_planar(g) is False
    # The kernel is K3,3 itself: the splice takes every subdivision out.
    assert planarity_calls == [(6, 9)]


def test_is_planar_on_heawood_with_a_pendant_path(planarity_calls):
    g = subdivide_edge(heawood(), 0, 1)
    g = Graph(g.n + 3, g.edges() + [(14, 15), (15, 16), (16, 17)])
    assert is_subcubic(g)
    assert is_planar(g) is False
    assert [n for n, _ in planarity_calls] == [14]


def test_is_planar_on_planar_graphs_with_six_three_vertices(planarity_calls):
    graphs = [named(name)[0] for name in ("prism6", "subdivided-prism", "dodecahedron")]
    del planarity_calls[:]
    for g in graphs:
        assert core_three_vertices(g) >= 6
        assert is_planar(g) is True
    assert [n for n, _ in planarity_calls] == [12, 12, 20]


def test_is_planar_on_a_disjoint_union_with_heawood():
    g = _disjoint_union([named("c6")[0], heawood()])
    assert girth(g) == 6
    assert is_planar(g) is False
    with pytest.raises(NotInClass, match="^graph is not planar$"):
        check_class(g)
    with pytest.raises(NotInClass, match="^graph is not planar$"):
        color_square_7lists(g, [list(range(1, 8))] * g.n)
    assert is_planar(_disjoint_union([named("c6")[0], named("subdivided-prism")[0], Graph(1, [])]))


def chained(g, k):
    """g with every edge uv replaced by a chain of k hexagons, u joined to
    a 2-vertex of the first hexagon and v to one of the last."""
    hc = generate._honeycomb(k)
    ends = (0, 3) if k == 1 else (0, hc.n - 1)
    n, edges = g.n, []
    for u, v in g.edges():
        edges += [(n + a, n + b) for a, b in hc.edges()]
        edges += [(u, n + ends[0]), (n + ends[1], v)]
        n += hc.n
    return Graph(n, edges)


def test_is_planar_on_graphs_with_every_edge_a_honeycomb_chain(planarity_calls):
    k33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    planar = [named(name)[0] for name in ("q3", "prism6", "dodecahedron")]
    for k in (1, 2, 5):
        for want, cores in ((False, [k33, heawood()]), (True, planar)):
            for g in map(functools.partial(chained, k=k), cores):
                assert is_subcubic(g) and girth(g) == 6
                del planarity_calls[:]
                assert is_planar(g) is want is nx.check_planarity(to_nx(g))[0]
                # The reduction leaves one smaller component to the LR test.
                assert len(planarity_calls) == 1 and planarity_calls[0][0] < g.n
    with pytest.raises(NotInClass, match="^graph is not planar$"):
        check_class(chained(heawood(), 2))


def test_honeycomb_chains_reduce_to_nothing(planarity_calls, cpu_bound):
    graphs = [named(f"honeycomb-{k}")[0] for k in range(1, 61)]
    del planarity_calls[:]
    for g in graphs:
        assert is_planar(g) is True
        assert not any(planar_embed._reduce(g.adj))
    assert planarity_calls == []
    g = generate._honeycomb(25_000)
    # The left-right test on its kernel, a 100,000-vertex ladder, took 1 s.
    with cpu_bound(0.5, f"is_planar on honeycomb-25000 (n = {g.n})"):
        assert is_planar(g) is True
    assert planarity_calls == []


def test_is_planar_on_graphs_of_higher_degree():
    k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    wheel = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])
    assert is_planar(k5) is False
    assert is_planar(_disjoint_union([k5, named("c6")[0]])) is False
    assert is_planar(wheel) is True
    assert is_planar(Graph(0, [])) is True


def test_check_class_messages():
    assert check_class(named("subdivided-prism")[0]) is None
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    with pytest.raises(NotInClass, match="^graph has a vertex of degree above 3$"):
        check_class(Graph(5, [(0, i) for i in range(1, 5)]))
    with pytest.raises(NotInClass, match="^girth is below 6$"):
        check_class(k4)
    with pytest.raises(NotInClass, match="^graph is not planar$"):
        check_class(heawood())


# --- _embed_kernel: the left-right test against networkx ---


def embeds_as_networkx(adj, verdicts):
    """Embed each component of adj with a vertex of degree >= 3, in
    breadth-first order, by _embed_kernel and by networkx; assert the same
    verdict and the same rotations, and count the verdicts."""
    for comp in adjacency_components(adj):
        if all(len(adj[v]) < 3 for v in comp):
            continue
        ours, theirs = [list(a) for a in adj], [list(a) for a in adj]
        ok = planar_embed._embed_kernel(ours, comp)
        assert ok is embed_kernel_nx(theirs, comp)
        assert [ours[v] for v in comp] == [theirs[v] for v in comp]
        verdicts[ok] += 1


def embeds_kernel_as_networkx(g, verdicts):
    embeds_as_networkx(planar_embed._kernel(g.adj)[0], verdicts)


def test_embed_kernel_matches_networkx_on_subcubic_kernels(monkeypatch, corpus12):
    verdicts = {True: 0, False: 0}
    for g in seeded_graphs():
        embeds_kernel_as_networkx(g, verdicts)
    for g in corpus12:
        embeds_kernel_as_networkx(g, verdicts)
    for seed in range(14):
        embeds_kernel_as_networkx(generate.random_instance(generate.GeneratorSpec(max_n=150, seed=seed)), verdicts)
    candidates = []

    def collect(h):
        candidates.append(h)
        return is_planar(h)

    monkeypatch.setattr(generate, "is_planar", collect)
    generate._enumerate_connected(12, 6)
    for h in candidates:
        embeds_kernel_as_networkx(h, verdicts)
    assert len(candidates) > 2000
    assert verdicts[True] > 2000 and verdicts[False] > 300, verdicts


def test_embed_kernel_matches_networkx_on_graphs_of_higher_degree():
    # is_planar takes any simple graph; the components are embedded as
    # they are and after the kernel is taken.
    rng = random.Random(14)
    graphs = [
        from_nx(nx.complete_graph(5)),
        from_nx(nx.complete_bipartite_graph(3, 3)),
        from_nx(nx.petersen_graph()),
        heawood(),
        named("dodecahedron")[0],
    ]
    for _ in range(300):
        n = rng.randint(4, 24)
        graphs.append(from_nx(nx.gnp_random_graph(n, rng.uniform(0.15, 0.4), seed=rng.randrange(1 << 30))))
    assert sum(max(map(len, g.adj), default=0) > 3 for g in graphs) > 200
    verdicts = {True: 0, False: 0}
    for g in graphs:
        embeds_as_networkx(g.adj, verdicts)
        embeds_kernel_as_networkx(g, verdicts)
    assert verdicts[True] > 150 and verdicts[False] > 200, verdicts


def test_embedding_a_large_kernel_needs_no_recursion():
    g = named("honeycomb-10000")[0]
    assert sys.getrecursionlimit() < g.n // 2  # about the kernel's size
    rs = find_planar_embedding(g)
    assert rs is not None and euler_genus_check(g, rs)
    # One bridge from a 2-vertex of each: the kernel stays one component.
    k33 = subdivided_k33()
    joined = _disjoint_union([g, k33])
    joined = Graph(joined.n, joined.edges() + [(0, g.n + 6)])
    assert is_subcubic(joined) and g.degree(0) == 2 and k33.degree(6) == 2
    assert is_planar(joined) is False
