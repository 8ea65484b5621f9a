"""Tests for graph and list serialization."""

import random
import tracemalloc

import pytest
import networkx as nx
from hypothesis import given, settings, strategies as st

from oracles import parse_graphs_text_by_tokens, parse_lists_by_line, parse_one_graph, to_nx

from sqcolor.errors import ParseError
from sqcolor.formats import (
    from_graph6,
    parse_graphs,
    parse_graphs_text,
    parse_lists,
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
    assert rot_back == rot


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
    # Each row must be an ordering of its vertex's neighbours.
    for rows in ("rot 0: 2\nrot 1: 0 2\nrot 2: 1\n", "rot 0: 1\nrot 1: 0 0\nrot 2: 1\n",
                 "rot 0: 1\nrot 1: 2\nrot 2: 1\n", "rot 0: 1\nrot 1: 0 2 2\nrot 2: 1\n"):
        with pytest.raises(ParseError, match="does not match adjacency$") as e:
            parse_graphs_text(base + rows)
        assert e.value.line == (4 if rows.startswith("rot 0: 2") else 5)
    assert parse_graphs_text(base + "rot 0: 1\nrot 1: 2 0\nrot 2: 1\n")[0][1] == ((1,), (2, 0), (1,))


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


def test_write_coloring_marks_missing():
    assert write_coloring([2, None, 5]) == "0: 2\n1: -\n2: 5\n"


# The parsers against their token-by-token references in tests/oracles.py:
# on every input both return equal results, or both raise a ParseError
# with the same source, line, token and message.


def outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except ParseError as e:
        return "error", (e.source, e.line, e.token, e.message)


def same_graphs(text):
    got = outcome(parse_graphs_text, text, "g.txt")
    assert got == outcome(parse_graphs_text_by_tokens, text, "g.txt"), text
    return got


def same_lists(text, n):
    got = outcome(parse_lists, text, n, "l.txt")
    assert got == outcome(parse_lists_by_line, text, n, "l.txt"), (text, n)
    return got


NAMES = ("c6", "p4", "p1", "q3", "prism6", "petersen", "honeycomb-2", "subdivided-prism", "two-heptagons")


def with_rotation(g):
    return write_graph_text(g, find_planar_embedding(g))


def variants(text):
    """text, and the same stream with CRLF, tabs, comments and blank
    lines, and all on one line."""
    yield text
    yield text.replace("\n", "\r\n")
    yield text.replace(" ", "\t ")
    yield "# head\n\n" + text.replace("\n", "  # note\n\n")
    yield text.replace("\n", " ")


def test_graph_parser_matches_oracle_on_corpus_and_fixtures(corpus12):
    graphs = corpus12[::7] + [named(name)[0] for name in NAMES]
    for g in graphs:
        for text in (write_graph_text(g), with_rotation(g)):
            for variant in variants(text):
                assert same_graphs(variant)[0] == "ok"
    for g in corpus12:
        rot = find_planar_embedding(g) if g.m else None
        assert same_graphs(with_rotation(g)) == ("ok", [(g, rot)])


def test_graph_parser_matches_oracle_on_streams_and_one_line_files():
    texts = [write_graph_text(named(name)[0]) for name in NAMES]
    stream = "\n".join(texts) + with_rotation(named("q3")[0]) + texts[0]
    kind, pairs = same_graphs(stream)
    assert kind == "ok" and len(pairs) == len(NAMES) + 2
    for text in ("3 2 0 1 1 2", "3 2 0 1 1 2\n", "0 0", "1 0 # one vertex", "", "\n\n# only a comment\n",
                 "3 2 0 1 1 2 rot 0: 1 rot 1: 0 2 rot 2: 1", "3 2\n0 1\n1 2\nrot 0:\n1\nrot 1: 0 2\nrot 2: 1\n",
                 "3 2\n0 1 1\n2 rot 1: 0 2\nrot 0: 1 rot 2: 1\n", "3 2\n0 1\n1 2\nrot"):
        same_graphs(text)


def test_header_with_too_many_edges_is_refused_at_the_header():
    with pytest.raises(ParseError) as e:
        parse_graphs_text("4 7\n0 1\n", source="dense.txt")
    assert (e.value.source, e.value.line, e.value.token) == ("dense.txt", 1, "7")
    assert e.value.message == "edge count exceeds n(n-1)/2 = 6"
    assert parse_graphs_text(write_graph_text(Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])))


BLANKS = st.sampled_from(["", "  ", "# c", "\t"])
ROT_LINES = st.builds(
    lambda v, row: f"rot {v}: " + " ".join(map(str, row)), st.integers(-1, 9), st.lists(st.integers(-1, 9), max_size=3)
)


@st.composite
def mutated(draw, bases, swaps, inserted):
    """A base text with up to three edits: truncated, one token replaced
    by one of swaps, a line duplicated or dropped, or a line drawn from
    inserted put in; its lines are joined by LF, CRLF or " LF"."""
    lines = draw(st.sampled_from(bases)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["truncate", "token", "duplicate", "drop", "insert"]))
        if edit == "truncate":
            text = "\n".join(lines)
            lines = text[: draw(st.integers(0, len(text)))].splitlines()
        elif edit == "token":
            toks = lines[at].split(" ")
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(swaps))
            lines[at] = " ".join(toks)
        elif edit == "duplicate":
            lines.insert(at, lines[at])
        elif edit == "drop":
            del lines[at]
        else:
            lines.insert(at, draw(inserted))
    return draw(st.sampled_from(["\n", "\r\n", " \n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


GRAPH_BASES = [write_graph_text(named(name)[0]) for name in ("c6", "p4", "q3", "two-heptagons")] + [
    with_rotation(named(name)[0]) for name in ("c6", "q3", "p4")
]
GRAPH_SWAPS = ["x", "-1", "6", "8", "14", "99", "rot", "0:", "3:", "1.0", "+2", ""]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated(GRAPH_BASES, GRAPH_SWAPS, st.one_of(ROT_LINES, BLANKS)))
def test_graph_parser_matches_oracle_on_mutated_texts(text):
    same_graphs(text)


def lists_text(lists):
    return "".join(f"{v}: {' '.join(map(str, sorted(L)))}\n" for v, L in enumerate(lists))


LIST_BASES = [lists_text([random.Random(seed).sample(range(1, 11), 7) for _ in range(6)]) for seed in range(3)] + [
    "0: 1 2 3\n1: 2 4\n2: 9\n3: 1 2 3\n4: 5\n5: 2 4\n",
    "3: 1\n\n# note\n0: 4 5 # tail\n2:\t7 8\n1: 1\n5: 2\n4: 1 2\n",
]


def test_list_parser_matches_oracle_on_fixed_texts():
    for text in LIST_BASES:
        for variant in list(variants(text))[:4]:
            for n in (5, 6, 7):
                kind, _ = same_lists(variant, n)
                assert kind == "ok" or n != 6
    for text in ("", "\n", "0 1 2\n", "0: 1\n0: 2\n", "x: 1\n", "0: 1 y\n", "0:\n", ": 1\n", "0: 1:2\n",
                 "1: 1\n", "0: 1\nfoo\n", "  \n0: 1\n", "0\x1f: 1\n"):
        for n in (0, 1, 2):
            same_lists(text, n)


def test_missing_vertex_messages_name_ten_vertices_and_the_count():
    # Naming every missing vertex would print 7.9 MB of text for the
    # one-line list file below at n = 10^6.
    n = 10**6
    with pytest.raises(ParseError) as info:
        parse_lists("0: 1\n", n)
    assert info.value.message == "missing list for vertices [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (999999 in all)"
    assert len(str(info.value)) < 200
    path = "1000 999\n" + "".join(f"{v} {v + 1}\n" for v in range(999)) + "rot 0: 1\n"
    with pytest.raises(ParseError) as info:
        parse_graphs_text(path)
    assert info.value.message == "rotation missing vertices [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (999 in all)"
    # Up to ten are all named, and the oracles mirror both messages.
    with pytest.raises(ParseError, match=r"missing list for vertices \[1, 3, 4, 5, 6, 7, 8, 9, 10, 11\]$"):
        parse_lists("0: 1\n2: 1\n", 12)
    assert same_lists("0: 1\n", 1000)[0] == same_lists("0: 1\n2: 1\n", 12)[0] == "error"
    assert same_graphs(path)[0] == "error"


LIST_SWAPS = ["x", "-1", "6", "99", ":", "0:", "1:", "", "+3"]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated(LIST_BASES, LIST_SWAPS, BLANKS), st.integers(0, 8))
def test_list_parser_matches_oracle_on_mutated_texts(text, n):
    same_lists(text, n)


def test_parse_lists_is_bulk_and_shares_one_set_per_list_text(cpu_bound):
    rng = random.Random(20)
    n = 100_002
    text = lists_text([rng.sample(range(1, 11), 7) for _ in range(n)])
    with cpu_bound(0.25, "parse_lists on 100,002 lines"):
        lists = parse_lists(text, n)
    assert len(lists) == n and all(len(L) == 7 for L in lists)
    # C(10, 7) = 120 different lists, each written in one way.
    assert len({id(L) for L in lists}) <= 120
