"""Tests for rotation systems, face tracing, and planar embedding."""

import random

import pytest

from sqcolor.errors import InconsistentRotation
from sqcolor.generate import named
from sqcolor.graph_core import Graph
from sqcolor.planar_embed import (
    RotationSystem,
    euler_genus_check,
    faces,
    find_planar_embedding,
)


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


def heawood():
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + (5 if i % 2 == 0 else -5)) % 14) for i in range(14)]
    dedup = {(min(u, v), max(u, v)) for u, v in edges}
    return Graph(14, sorted(dedup))


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
