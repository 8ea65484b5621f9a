"""Tests for list coloring search, degeneracy, and choosability."""

import itertools
import random

import pytest

from oracles import brute_colorable, degeneracy_by_scan, graphs_in_class, naive_choosable, random_lists

from sqcolor.coloring import (
    CHOOSABLE,
    DEFAULT_CHOOSABILITY_BUDGET,
    INCONCLUSIVE,
    NOT_CHOOSABLE,
    _choosable_by_search,
    degeneracy,
    find_L_coloring,
    greedy_extend,
    is_k_choosable,
    is_proper,
    normalize_lists,
)
from sqcolor.errors import BudgetExceeded, ListTooSmall, PartialColoring
from sqcolor.generate import named
from sqcolor.graph_core import Graph, square


def cycle(k):
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete(k):
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def test_is_proper():
    g = cycle(4)
    assert is_proper(g, [1, 2, 1, 2])
    assert not is_proper(g, [1, 1, 2, 2])
    with pytest.raises(PartialColoring):
        is_proper(g, [1, None, 1, 2])


def test_normalize_lists_validates_length():
    g = cycle(3)
    lists = normalize_lists(g, [[1, 2], (2, 3), {3, 1}])
    assert lists == [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})]
    with pytest.raises(ValueError):
        normalize_lists(g, [[1], [2]])


def test_find_L_coloring_basic():
    g = cycle(5)
    got = find_L_coloring(g, [[1, 2, 3]] * 5)
    assert got is not None
    assert is_proper(g, got)
    assert all(got[v] in (1, 2, 3) for v in range(5))
    assert find_L_coloring(g, [[1, 2]] * 5) is None


def test_find_L_coloring_respects_heterogeneous_lists():
    g = Graph(3, [(0, 1), (1, 2)])
    got = find_L_coloring(g, [[5], [5, 9], [5]])
    assert got == [5, 9, 5]
    assert find_L_coloring(g, [[5], [5, 9], [9]]) is None


def test_find_L_coloring_matches_brute_force():
    rng = random.Random(23)
    graphs = [cycle(5), cycle(6), complete(4), named("p5")[0], named("q3")[0]]
    for g in graphs:
        for _ in range(40):
            size = rng.choice([1, 2, 3])
            lists = random_lists(rng, g.n, size, range(1, 6))
            got = find_L_coloring(g, lists)
            want = brute_colorable(g, lists)
            assert (got is not None) == want
            if got is not None:
                assert is_proper(g, got)
                assert all(got[v] in set(lists[v]) for v in range(g.n))


def test_find_L_coloring_budget():
    g = complete(4)
    with pytest.raises(BudgetExceeded) as e:
        find_L_coloring(g, [[1, 2, 3, 4]] * 4, max_nodes=1)
    assert e.value.budget == 1


def test_greedy_extend():
    g = cycle(4)
    coloring = [1, 2, 1, None]
    got = greedy_extend(g, coloring, 3, [[1, 2, 3]] * 4)
    assert got == 2
    assert coloring[3] is None
    assert greedy_extend(g, [1, None, 2, 1], 1, [[1, 2]] * 4) is None


def test_degeneracy_values():
    assert degeneracy(Graph(1, []))[0] == 0
    assert degeneracy(named("p5")[0])[0] == 1
    assert degeneracy(cycle(6))[0] == 2
    assert degeneracy(complete(4))[0] == 3
    assert degeneracy(named("q3")[0])[0] == 3
    d, order = degeneracy(cycle(5))
    assert sorted(order) == list(range(5))


def test_degeneracy_order_property(corpus12):
    rng = random.Random(31)
    for g in rng.sample(corpus12, 60):
        d, order = degeneracy(g)
        position = {v: i for i, v in enumerate(order)}
        for v in order:
            later = sum(1 for w in g.adj[v] if position[w] > position[v])
            assert later <= d


def test_degeneracy_matches_the_scan(corpus12):
    rng = random.Random(41)
    graphs = [named(name)[0] for name in ("q3", "petersen", "dodecahedron", "honeycomb-3", "p5")]
    graphs += corpus12[::20] + [complete(k) for k in range(1, 7)]
    for _ in range(400):
        n = rng.randint(1, 40)
        p = rng.random() * 0.4
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    for g in graphs:
        assert degeneracy(g) == degeneracy_by_scan(g)


def test_choosability_of_even_cycles():
    got = is_k_choosable(cycle(6), 2)
    assert got.verdict == CHOOSABLE
    assert got.witness is None
    got4 = _choosable_by_search(cycle(4), 2, DEFAULT_CHOOSABILITY_BUDGET)
    assert got4.verdict == CHOOSABLE


def test_odd_cycle_not_2_choosable_with_witness():
    got = is_k_choosable(cycle(5), 2)
    assert got.verdict == NOT_CHOOSABLE
    lists = got.witness
    assert lists is not None
    assert all(len(s) == 2 for s in lists)
    assert find_L_coloring(cycle(5), lists) is None
    assert not brute_colorable(cycle(5), lists)


def test_k4_not_3_choosable_with_witness():
    got = is_k_choosable(complete(4), 3)
    assert got.verdict == NOT_CHOOSABLE
    assert got.witness is not None
    assert not brute_colorable(complete(4), got.witness)


def test_choosability_budget_inconclusive():
    got = _choosable_by_search(cycle(6), 2, 1)
    assert got.verdict == INCONCLUSIVE
    assert got.nodes_used == 2


def test_inconclusive_reports_the_node_that_ran_out():
    # The budget runs out in the enumeration (5) or inside a search (the
    # others); either way the count is that of the node that ran out, as
    # BudgetExceeded counts it, where the searches' own nodes were dropped.
    sq = square(named("c9")[0])
    for budget in (5, 50, 500, 50_000):
        got = is_k_choosable(sq, 3, budget)
        assert (got.verdict, got.nodes_used) == (INCONCLUSIVE, budget + 1)


def test_degeneracy_shortcut_agrees_with_search():
    # Pairs where the shortcut fires; the exhaustive route must agree.
    for g, k in [(named("p5")[0], 2), (cycle(4), 3)]:
        fast = is_k_choosable(g, k)
        slow = _choosable_by_search(g, k, DEFAULT_CHOOSABILITY_BUDGET)
        assert fast.verdict == slow.verdict == CHOOSABLE
        assert fast.nodes_used == 0
        assert slow.nodes_used > 0


def all_connected_small(max_n):
    """Every connected graph with 1 < n <= max_n vertices, via the atlas oracle."""
    import networkx as nx
    from oracles import from_nx

    out = []
    for h in nx.graph_atlas_g()[1:]:
        if 2 <= h.number_of_nodes() <= max_n and nx.is_connected(h):
            out.append(from_nx(h))
    return out


def test_choosability_matches_naive_oracle_up_to_n4():
    for g in all_connected_small(4):
        for k in (1, 2):
            want, want_witness = naive_choosable(g, k)
            got = _choosable_by_search(g, k, DEFAULT_CHOOSABILITY_BUDGET)
            assert got.verdict == (CHOOSABLE if want else NOT_CHOOSABLE)
            if not want:
                assert got.witness is not None
                assert not brute_colorable(g, got.witness)


def test_choosability_matches_naive_oracle_c5():
    want, witness = naive_choosable(cycle(5), 2)
    got = is_k_choosable(cycle(5), 2)
    assert want is False
    assert got.verdict == NOT_CHOOSABLE
    assert not brute_colorable(cycle(5), got.witness)


def test_square_of_class_members_is_7_colorable(corpus12):
    rng = random.Random(41)
    for g in rng.sample(corpus12, 40):
        sq = square(g)
        got = find_L_coloring(sq, [[1, 2, 3, 4, 5, 6, 7]] * g.n)
        assert got is not None
        assert is_proper(sq, got)
