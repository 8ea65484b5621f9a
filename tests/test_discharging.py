"""Tests for the charges and their transfer rule, face caps, and the audit."""

import argparse
import gc
import random
import sys
from itertools import combinations

import networkx as nx
import pytest

from oracles import euler_genus_check, to_nx

from sqcolor import cli, discharging, graph_core, planar_embed
from sqcolor.discharging import (
    CutTwoVertex,
    OneVertex,
    SixCycleTwoVertex,
    apply_r1,
    claim3_bound_check,
    describe_config,
    discharge_audit,
    find_reducible_config,
    reduce_cut_two_vertex,
    render_audit,
)
from sqcolor.errors import InconsistentRotation, NotCutVertex, NotInClass
from sqcolor.generate import GeneratorSpec, named, random_instance
from sqcolor.graph_core import Graph, is_connected
from sqcolor.planar_embed import _embed, check_class, faces, find_planar_embedding


def cycle(k):
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def faces_of(g):
    rs = find_planar_embedding(g)
    assert rs is not None
    return faces(g, rs)


def faces_with_pendants_outside(g, k):
    """Faces of g, a k-cycle 0..k-1 with pendant vertices numbered from k,
    embedded with every pendant in the outer face, so that the inner face
    is the bare k-cycle.  A cycle vertex lists its predecessor, then its
    successor, then its pendant, so the face walk that arrives from the
    predecessor leaves to the successor."""
    rot = [((v - 1) % k, (v + 1) % k) + tuple(w for w in g.adj[v] if w >= k) for v in range(k)]
    rot = tuple(rot) + g.adj[k:]
    assert euler_genus_check(g, rot)
    return faces(g, rot)


def r1_payments(g, fs):
    """(face, vertex) once for each time a 2-vertex tails a dart of the
    face's boundary walk: the unit payments that R1 makes."""
    return [(i, v) for i, f in enumerate(fs) for v, _ in f if g.degree(v) == 2]


def pendant_seven_cycle():
    """7-cycle with one 2-vertex (0); pendants push the rest to degree 3."""
    edges = [(i, (i + 1) % 7) for i in range(7)]
    edges += [(i, 6 + i) for i in range(1, 7)]
    return Graph(13, edges)


def starting_charges(g, fs):
    """The charges before R1, read back off apply_r1's final lists by
    undoing each unit payment that r1_payments lists."""
    vertex_charge, face_charge = apply_r1(g, fs)
    for i, v in r1_payments(g, fs):
        vertex_charge[v] -= 1
        face_charge[i] += 1
    return vertex_charge, face_charge


def test_initial_charges_cube():
    g = named("q3")[0]
    vertex_charge, face_charge = starting_charges(g, faces_of(g))
    assert all(c == 0 for c in vertex_charge)
    assert all(c == -2 for c in face_charge)
    assert sum(vertex_charge) + sum(face_charge) == -12


def test_initial_charges_prism():
    g = named("prism6")[0]
    vertex_charge, face_charge = starting_charges(g, faces_of(g))
    assert all(c == 0 for c in vertex_charge)
    assert sorted(face_charge) == [-2] * 6 + [0, 0]
    assert sum(vertex_charge) + sum(face_charge) == -12


def test_initial_charges_c6():
    g = cycle(6)
    vertex_charge, face_charge = starting_charges(g, faces_of(g))
    assert all(c == -2 for c in vertex_charge)
    assert all(c == 0 for c in face_charge)
    assert sum(vertex_charge) + sum(face_charge) == -12


def test_r1_on_c6_moves_face_charge_to_vertices():
    g = cycle(6)
    fs = faces_of(g)
    vertex_charge, face_charge = apply_r1(g, fs)
    assert vertex_charge == [0] * 6
    assert face_charge == [-6, -6]
    assert sum(vertex_charge) + sum(face_charge) == -12
    assert len(r1_payments(g, fs)) == 12


def test_r1_is_conservative_on_classics():
    for name in ("q3", "prism6", "dodecahedron", "honeycomb-3", "subdivided-prism"):
        g = named(name)[0]
        fs = faces_of(g)
        vertex_charge, face_charge = apply_r1(g, fs)
        before = starting_charges(g, fs)
        assert sum(vertex_charge) + sum(face_charge) == sum(map(sum, before)) == -12
        assert (len(vertex_charge), len(face_charge)) == (g.n, len(fs))
        assert all(type(q) is int for q in [*vertex_charge, *face_charge])


def test_r1_pays_once_per_incidence():
    # One 2-vertex (0) on a 7-cycle; pendants push the rest to degree 3.
    # The bare 7-face and the outer face each pay vertex 0 exactly once.
    g = pendant_seven_cycle()
    fs = faces_with_pendants_outside(g, 7)
    vertex_charge, face_charge = apply_r1(g, fs)
    pure = [i for i, f in enumerate(fs) if len(f) == 7]
    assert len(pure) == 1
    paid = r1_payments(g, fs)
    assert [t for t in paid if t[0] == pure[0]] == [(pure[0], 0)]
    assert face_charge[pure[0]] == 7 - 6 - 1
    assert vertex_charge[0] == -2 + 2
    assert len([t for t in paid if t[1] == 0]) == 2


def test_r1_pays_cut_two_vertex_twice_from_one_face():
    # A path's single face walks each edge twice, so the middle 2-vertex
    # of p3 tails two darts of that face and is paid twice.
    g = named("p3")[0]
    fs = faces_of(g)
    assert len(fs) == 1
    vertex_charge, face_charge = apply_r1(g, fs)
    assert vertex_charge[1] == -2 + 2
    assert face_charge == [4 - 6 - 2]
    assert [t for t in r1_payments(g, fs) if t[1] == 1] == [(0, 1)] * 2


def test_claim3_skip_reasons():
    # The hypotheses are asked before any row is built, in this order,
    # so a skipped report holds no rows.
    for g, reason in (
        (named("p5")[0], "acyclic"),
        (named("two-heptagons")[0], "cut 2-vertex present"),
        (cycle(6), "close 2-vertices on a cycle"),
        (named("honeycomb-50")[0], "close 2-vertices on a cycle"),
    ):
        report = claim3_bound_check(g, faces_of(g))
        assert (report.checked, report.reason, report.rows) == (False, reason, ()), g.edges()
        assert report.passed and report.violations == ()


def test_cut_two_vertex_and_claim3_reason_match_networkx(subcubic9):
    seen = {"CutTwoVertex": 0, "acyclic": 0, "cut 2-vertex present": 0,
            "close 2-vertices on a cycle": 0, "": 0}
    for g in subcubic9:
        h = to_nx(g)
        twos = {v for v in range(g.n) if g.degree(v) == 2}
        cut_twos = sorted(twos & set(nx.articulation_points(h)))
        close = any(
            w in nx.single_source_shortest_path_length(h, u, cutoff=3)
            for b in nx.biconnected_components(h) if len(b) >= 3
            for u, w in combinations(sorted(b & twos), 2)
        )
        cfg = find_reducible_config(g)
        if min(g.degree(v) for v in range(g.n)) >= 2 and cut_twos:
            u = cut_twos[0]
            assert cfg == CutTwoVertex(u, *g.adj[u]), g.edges()
            seen["CutTwoVertex"] += 1
        else:
            assert not isinstance(cfg, CutTwoVertex), g.edges()
        if nx.is_forest(h):
            want = "acyclic"
        elif cut_twos:
            want = "cut 2-vertex present"
        else:
            want = "close 2-vertices on a cycle" if close else ""
        report = claim3_bound_check(g, [])
        assert (report.checked, report.reason) == (want == "", want), g.edges()
        seen[want] += 1
        # Every other cut 2-vertex question reads the same block map.
        for u in twos:
            try:
                reduce_cut_two_vertex(g, u)
            except NotCutVertex:
                assert u not in cut_twos, (g.edges(), u)
            else:
                assert u in cut_twos, (g.edges(), u)
        _, out = cli._run_reduce(g, argparse.Namespace(vertex=None, structured=True))
        head = f"removed={cut_twos[0]}" if cut_twos else "error=no cut 2-vertex found"
        assert out.splitlines()[0] == head, g.edges()
    assert min(seen.values()) > 10, seen


def count_structure_calls(monkeypatch, names=("biconnected_components", "girth_at_least", "cut_vertices")):
    """Count the calls of the named passes (by default the block, girth
    and cut-vertex passes), wrapped in every sqcolor module that holds
    them.  A name is looked up on graph_core, else on discharging."""
    calls = {}
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "sqcolor" and m]
    for name in names:
        original = getattr(graph_core, name, None) or getattr(discharging, name)
        calls[name] = 0

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_audit_decides_the_blocks_and_the_girth_once(monkeypatch):
    # One structural pass: the configuration detectors and claim3 share
    # one block map, and a six-cycle witness needs no second girth check.
    calls = count_structure_calls(monkeypatch)
    for name, want in (("c100", [1, 1, 0]), ("c600", [1, 1, 0]), ("honeycomb-50", [1, 1, 0])):
        g = named(name)[0]
        for key in calls:
            calls[key] = 0
        discharge_audit(g)
        assert list(calls.values()) == want, name


def test_audit_searches_for_a_close_pair_once(monkeypatch):
    # The spacing detector and claim3 read one close-pair search, also
    # when the configuration found is a spacing violation.
    calls = count_structure_calls(monkeypatch, ("close_two_vertex_pair",))
    for name in ("c100", "c600", "c900"):
        g = named(name)[0]
        calls["close_two_vertex_pair"] = 0
        report = discharge_audit(g)
        assert describe_config(report.config).startswith("spacing_violation"), name
        assert calls["close_two_vertex_pair"] == 1, name


def test_audit_scans_for_a_cut_two_vertex_once(monkeypatch):
    # find_reducible_config and claim3 read one scan for the least cut
    # 2-vertex, also when the configuration found is a cut 2-vertex.
    calls = count_structure_calls(monkeypatch, ("least_cut_two_vertex",))
    for name in ("c100", "c600", "honeycomb-50", "subdivided-prism", "two-heptagons"):
        g = named(name)[0]
        calls["least_cut_two_vertex"] = 0
        discharge_audit(g)
        assert calls["least_cut_two_vertex"] == 1, name


def test_audit_traces_its_faces_once_and_faces_keeps_its_checks(monkeypatch):
    # _embed traces the rotation it has built once and does not check
    # it; the public faces and find_planar_embedding keep their checks.
    calls = {"walks": 0, "check": 0}
    trace, check = planar_embed._face_walks, planar_embed.check_rotation

    def counted_trace(*args):
        calls["walks"] += 1
        return trace(*args)

    def counted_check(*args):
        calls["check"] += 1
        return check(*args)

    monkeypatch.setattr(planar_embed, "_face_walks", counted_trace)
    monkeypatch.setattr(planar_embed, "check_rotation", counted_check)
    for name in ("c100", "c600", "honeycomb-50"):
        g = named(name)[0]
        calls["walks"] = calls["check"] = 0
        report = discharge_audit(g)
        assert calls == {"walks": 1, "check": 0}, name
        assert report.final_total == -12
    g = cycle(6)
    bad = ((1, 5), (0, 2), (1, 3), (2, 4), (3, 5), (4, 1))
    with pytest.raises(InconsistentRotation):
        faces(g, bad)
    assert calls["check"] == 1
    two = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(ValueError):
        faces(two, ((1, 2), (0, 2), (0, 1), (4, 5), (3, 5), (3, 4)))
    with pytest.raises(ValueError):
        find_planar_embedding(two)


def test_reduce_builds_the_block_map_once(monkeypatch):
    # Picking the least cut 2-vertex and splicing it out share one map.
    calls = count_structure_calls(monkeypatch)
    g = named("two-heptagons")[0]
    got = cli._run_reduce(g, argparse.Namespace(vertex=None, structured=True))
    assert calls["biconnected_components"] == 1
    assert got == (0, "removed=14\nedge=0,7\ngraph=MhCKK?@?G?_@?@?O_\n")


def spread_twelve_cycle():
    """12-cycle with 2-vertices only at 0, 4, 8; pendants suppress the rest."""
    edges = [(i, (i + 1) % 12) for i in range(12)]
    nxt = 12
    for v in range(12):
        if v % 4 != 0:
            edges.append((v, nxt))
            nxt += 1
    return Graph(nxt, edges)


def test_claim3_checked_and_tight():
    g = spread_twelve_cycle()
    report = claim3_bound_check(g, faces_with_pendants_outside(g, 12))
    assert report.checked
    assert report.passed
    twelve = [r for r in report.rows if r.length == 12]
    assert len(twelve) == 1
    assert twelve[0].two_vertices == 3
    assert twelve[0].bound == 3


def test_claim3_seven_face_cap():
    g = pendant_seven_cycle()
    report = claim3_bound_check(g, faces_with_pendants_outside(g, 7))
    assert report.checked
    seven = [r for r in report.rows if r.length == 7]
    assert len(seven) == 1
    assert seven[0].two_vertices == 1
    assert seven[0].bound == 1
    assert report.passed


def test_a_checked_claim3_report_holds_one_row_per_face(corpus12):
    cases = [(g, faces_with_pendants_outside(g, k)) for g, k in ((spread_twelve_cycle(), 12), (pendant_seven_cycle(), 7))]
    checked = [g for g in corpus12 if discharge_audit(g).claim3.checked]
    assert len(checked) == 2
    cases += [(g, _embed(g)[1]) for g in checked]
    for g, fs in cases:
        report = claim3_bound_check(g, fs)
        assert report.checked and report.reason == "", g.edges()
        assert [row.face for row in report.rows] == list(range(len(fs))), g.edges()
        assert [row.length for row in report.rows] == [len(f) for f in fs], g.edges()
        assert [row.bound for row in report.rows] == [len(f) // 4 for f in fs], g.edges()
        twos = [len({v for v, _ in f if g.degree(v) == 2}) for f in fs]
        assert [row.two_vertices for row in report.rows] == twos, g.edges()
    for g in checked:
        report = discharge_audit(g)
        assert [row.face for row in report.claim3.rows] == list(range(report.face_count)), g.edges()


def test_the_audit_builds_no_claim3_row_when_the_claim_is_skipped(monkeypatch):
    built = []
    real = discharging.Claim3Face

    def spy(*args, **kwargs):
        row = real(*args, **kwargs)
        built.append(row.face)
        return row

    monkeypatch.setattr(discharging, "Claim3Face", spy)
    for name in ("honeycomb-50", "c600"):
        report = discharge_audit(named(name)[0])
        assert not report.claim3.checked and report.claim3.rows == (), name
        assert built == [], name
    report = discharge_audit(pendant_seven_cycle())
    assert report.claim3.checked
    assert built == list(range(report.face_count))


def test_audit_c6():
    g = cycle(6)
    report = discharge_audit(g)
    assert report.initial_total == -12
    assert report.final_total == -12
    assert report.negative_vertices == ()
    assert report.negative_faces == ((0, 6, -6), (1, 6, -6))
    assert isinstance(report.config, SixCycleTwoVertex)
    assert report.dichotomy_holds


def test_audit_tree_counts_one_face():
    g = named("p2")[0]
    report = discharge_audit(g)
    assert report.face_count == 1
    assert report.initial_total == -12
    assert report.final_total == -12
    assert report.config == OneVertex(0)


def test_audit_single_vertex():
    report = discharge_audit(Graph(1, []))
    assert report.face_count == 1
    assert report.initial_total == -12
    assert report.final_total == -12
    assert report.config == OneVertex(0)


def test_audit_two_heptagons():
    g = named("two-heptagons")[0]
    report = discharge_audit(g)
    assert report.initial_total == report.final_total == -12
    assert report.config == CutTwoVertex(14, 0, 7)
    assert not report.claim3.checked


def test_audit_rejects_out_of_class():
    with pytest.raises(NotInClass):
        discharge_audit(cycle(5))
    with pytest.raises(NotInClass):
        discharge_audit(named("q3")[0])
    with pytest.raises(NotInClass):
        discharge_audit(Graph(0, []))
    disconnected = Graph(12, [(i, (i + 1) % 6) for i in range(6)]
                    + [(6 + i, 6 + (i + 1) % 6) for i in range(6)])
    with pytest.raises(NotInClass):
        discharge_audit(disconnected)
    k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    with pytest.raises(NotInClass):
        discharge_audit(k5)
    heawood_edges = [(i, (i + 1) % 14) for i in range(14)]
    heawood_edges += [(i, (i + (5 if i % 2 == 0 else -5)) % 14) for i in range(14)]
    heawood = Graph(14, sorted({(min(u, v), max(u, v)) for u, v in heawood_edges}))
    with pytest.raises(NotInClass):
        discharge_audit(heawood)


def test_audit_keeps_the_class_messages_and_the_full_embedding():
    heawood_edges = [(i, (i + 1) % 14) for i in range(14)]
    heawood_edges += [(i, (i + (5 if i % 2 == 0 else -5)) % 14) for i in range(14)]
    heawood = Graph(14, sorted({(min(u, v), max(u, v)) for u, v in heawood_edges}))
    with pytest.raises(NotInClass, match="^graph is not planar$"):
        discharge_audit(heawood)
    with pytest.raises(NotInClass, match="^girth is below 6$"):
        discharge_audit(cycle(5))
    with pytest.raises(NotInClass, match="^graph has a vertex of degree above 3$"):
        discharge_audit(Graph(5, [(0, i) for i in range(1, 5)]))
    # The faces come from the embedding find_planar_embedding returns.
    g = named("subdivided-prism")[0]
    assert discharge_audit(g).face_count == len(faces_of(g))


IN_CLASS_NAMED = ("p1", "p5", "c6", "c7", "c100", "c600", "c900", "honeycomb-1",
                  "honeycomb-25", "honeycomb-50", "subdivided-prism", "two-heptagons")


def in_class(g):
    try:
        check_class(g)
    except NotInClass:
        return False
    return True


def audit_hosts(corpus12, subcubic9):
    graphs = list(corpus12)
    graphs += [g for g in subcubic9 if g.n and is_connected(g) and in_class(g)]
    graphs += [named(name)[0] for name in IN_CLASS_NAMED]
    graphs += [random_instance(GeneratorSpec(max_n=150, seed=seed)) for seed in range(14)]
    return graphs


def test_one_pass_audit_matches_the_public_entry_points(corpus12, subcubic9):
    # The audit reads the facts that its class check left on g; the
    # public entry points, run on a fresh copy of g, compute their own.
    for g in audit_hosts(corpus12, subcubic9):
        report = discharge_audit(g)
        fresh = Graph(g.n, g.edges())
        assert report.config == find_reducible_config(fresh), g.edges()
        fresh = Graph(g.n, g.edges())
        assert report.claim3 == claim3_bound_check(fresh, _embed(fresh)[1]), g.edges()


def test_no_fact_kept_on_an_audited_graph_refers_to_it(corpus12, subcubic9):
    # Then a graph and its memo are freed by reference counting alone.
    for g in audit_hosts(corpus12, subcubic9):
        discharge_audit(g)
        assert g._facts
        seen, todo = set(), list(g._facts.values())
        while todo:
            value = todo.pop()
            assert value is not g, g.edges()
            if id(value) not in seen:
                seen.add(id(value))
                todo += gc.get_referents(value)


def test_audit_needs_no_spacing_witness(monkeypatch):
    # claim3 only asks whether a close pair exists; the witness cycle
    # search behind it backtracks for seconds on this instance.
    def refuse(*args, **kwargs):
        raise AssertionError("witness cycle search ran")

    monkeypatch.setattr("sqcolor.discharging._cycle_through", refuse)
    g = random_instance(GeneratorSpec(max_n=150, seed=13))
    report = discharge_audit(g)
    assert report.initial_total == report.final_total == -12
    assert report.dichotomy_holds


def test_audit_dichotomy_across_corpus(corpus12):
    rng = random.Random(19)
    for g in rng.sample(corpus12, 200):
        report = discharge_audit(g)
        assert report.initial_total == -12
        assert report.final_total == -12
        assert report.dichotomy_holds
        assert report.claim3.passed


def test_render_audit_c6():
    text = render_audit(discharge_audit(cycle(6)))
    assert text == (
        "vertices=6\n"
        "edges=6\n"
        "faces=2\n"
        "initial_total=-12\n"
        "final_total=-12\n"
        "negative_face face=0 length=6 charge=-6\n"
        "negative_face face=1 length=6 charge=-6\n"
        "config=sixcycle_two_vertex cycle=1,2,3,4,5,0 two_vertex=0\n"
        "claim3=skipped reason=close 2-vertices on a cycle\n"
        "dichotomy=ok"
    )


def test_render_audit_full_lists_all_charges():
    text = render_audit(discharge_audit(named("p2")[0]), full=True)
    assert "vertex_charge v=0 charge=-4" in text
    assert "vertex_charge v=1 charge=-4" in text
    assert "face_charge face=0 charge=-4" in text
    assert "claim3=skipped reason=acyclic" in text
    assert text.endswith("dichotomy=ok")


def test_describe_config_formats():
    assert describe_config(None) == "none"
    assert describe_config(OneVertex(3)) == "one_vertex v=3"
    assert describe_config(CutTwoVertex(14, 0, 7)) == "cut_two_vertex u=14 x=0 y=7"
