"""Tests for graph and list serialization."""

import random
import tracemalloc

import pytest
import networkx as nx

from oracles import to_nx

from sqcolor.errors import ParseError
from sqcolor.formats import (
    from_graph6,
    parse_graphs,
    parse_graphs_text,
    parse_lists,
    parse_one_graph,
    to_graph6,
    uniform_lists,
    write_coloring,
    write_graph_text,
)
from sqcolor.generate import named
from sqcolor.graph_core import Graph, square
from sqcolor.planar_embed import find_planar_embedding


def test_text_round_trip():
    g = named("c6")[0]
    text = write_graph_text(g)
    assert text == "6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"
    back, rot = parse_one_graph(text)
    assert back == g
    assert rot is None


def test_text_round_trip_with_rotation():
    g, _ = named("q3")
    rot = find_planar_embedding(g)
    text = write_graph_text(g, rot)
    back, rot_back = parse_one_graph(text)
    assert back == g
    assert rot_back is not None
    assert rot_back.rot == rot.rot


def test_multiple_graphs_in_one_stream():
    text = write_graph_text(named("c6")[0]) + "\n" + write_graph_text(named("p4")[0])
    pairs = parse_graphs_text(text)
    assert len(pairs) == 2
    assert pairs[0][0].n == 6
    assert pairs[1][0].n == 4


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\n3 2\n0 1\n# middle\n1 2\n"
    g, rot = parse_one_graph(text)
    assert g == Graph(3, [(0, 1), (1, 2)])


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as e:
        parse_graphs_text("3 x\n", source="bad.txt")
    assert e.value.source == "bad.txt"
    assert e.value.line == 1
    assert e.value.token == "x"
    with pytest.raises(ParseError):
        parse_graphs_text("3 2\n0 1\n")
    with pytest.raises(ParseError):
        parse_graphs_text("3 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_graphs_text("3 1\n0 3\n")
    with pytest.raises(ParseError):
        parse_graphs_text("rot 0: 1\n")


def test_rotation_parse_errors():
    base = "3 2\n0 1\n1 2\n"
    with pytest.raises(ParseError):
        parse_graphs_text(base + "rot 0 1\n")
    with pytest.raises(ParseError):
        parse_graphs_text(base + "rot 5: 1\n")
    with pytest.raises(ParseError):
        parse_graphs_text(base + "rot 0: 1\n")


def test_graph6_round_trip_small(corpus8):
    for g in corpus8:
        assert from_graph6(to_graph6(g)) == g


def test_graph6_matches_networkx(corpus12):
    rng = random.Random(5)
    for g in rng.sample(corpus12, 80):
        line = to_graph6(g)
        h = nx.from_graph6_bytes(line.encode())
        assert nx.is_isomorphic(h, to_nx(g))
        assert from_graph6(nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()) == g


def test_graph6_round_trip_across_the_long_header():
    # n = 62 is the last one-byte header, n = 63 the first four-byte one.
    rng = random.Random(11)
    for n in (62, 63):
        for p in (0.0, 0.1, 0.5, 1.0):
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            line = to_graph6(g)
            assert line[0] == ("~" if n == 63 else chr(n + 63))
            assert line == nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
            assert from_graph6(line) == g


def test_graph6_round_trip_large_square():
    g = square(named("c3000")[0])
    line = to_graph6(g)
    assert len(line) == 4 + (3000 * 2999 // 2 + 5) // 6
    # Decoding must take O(n + m) memory, not one item per vertex pair
    # (4.5 million here).
    tracemalloc.start()
    try:
        decoded = from_graph6(line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decoded == g
    assert peak < 8 * 2**20


def test_graph6_rejects_bad_input():
    with pytest.raises(ParseError):
        from_graph6("")
    with pytest.raises(ParseError):
        from_graph6("B\x7f")
    with pytest.raises(ParseError):
        from_graph6("Bw~~~")


def test_autodetect_graph6_and_text():
    g = named("c6")[0]
    assert parse_graphs(to_graph6(g))[0][0] == g
    assert parse_graphs(write_graph_text(g))[0][0] == g
    two = to_graph6(g) + "\n" + to_graph6(named("p4")[0]) + "\n"
    assert [p[0].n for p in parse_graphs(two)] == [6, 4]


def test_parse_lists():
    text = "0: 1 2 3\n1: 2 4\n2: 9\n"
    lists = parse_lists(text, 3)
    assert lists == [frozenset({1, 2, 3}), frozenset({2, 4}), frozenset({9})]


def test_parse_lists_requires_every_vertex():
    with pytest.raises(ParseError):
        parse_lists("0: 1 2\n", 2)
    with pytest.raises(ParseError):
        parse_lists("0: 1\n0: 2\n", 1)
    with pytest.raises(ParseError):
        parse_lists("5: 1\n", 1)
    with pytest.raises(ParseError):
        parse_lists("0 1 2\n", 1)


def test_uniform_lists():
    lists = uniform_lists(3, 7)
    assert lists == [frozenset(range(1, 8))] * 3
    assert uniform_lists(2, 2, start=0) == [frozenset({0, 1})] * 2


def test_write_coloring_marks_missing():
    assert write_coloring([2, None, 5]) == "0: 2\n1: -\n2: 5\n"
