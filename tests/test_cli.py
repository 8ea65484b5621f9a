"""Tests for the command line interface."""

import gc
import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import euler_genus_check, parse_one_graph

import sqcolor
from sqcolor import cli, generate
from sqcolor.cli import main
from sqcolor.coloring import is_proper
from sqcolor.formats import MAX_VERTICES, from_graph6, to_graph6, write_graph_text
from sqcolor.generate import named
from sqcolor.graph_core import Graph, square


def write_fixture(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def c6_file(tmp_path):
    return write_fixture(tmp_path, "c6.txt", write_graph_text(named("c6")[0]))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_girth(tmp_path, capsys):
    code, out = run(capsys, ["girth", c6_file(tmp_path)])
    assert code == 0
    assert out == "girth=6\n"


def test_girth_of_tree_prints_inf(tmp_path, capsys):
    path = write_fixture(tmp_path, "p4.txt", write_graph_text(named("p4")[0]))
    code, out = run(capsys, ["girth", path])
    assert code == 0
    assert out == "girth=inf\n"


def test_girth_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(write_graph_text(named("c7")[0])))
    code, out = run(capsys, ["girth", "-"])
    assert code == 0
    assert out == "girth=7\n"


@pytest.mark.parametrize("n", [1_000_000_000, MAX_VERTICES + 1])
def test_header_over_the_vertex_limit_is_a_parse_error(tmp_path, capsys, cpu_bound, n):
    # Refused before one adjacency set per declared vertex is built.
    path = write_fixture(tmp_path, "huge.txt", f"{n} 0\n")
    with cpu_bound(1.0, f"the header {n} 0"):
        code = main(["girth", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "vertex count exceeds the limit" in err
    assert "Traceback" not in err


def test_header_with_more_edges_than_pairs_is_a_parse_error(tmp_path, capsys, cpu_bound):
    # Refused at the header line, before any of the 10^12 edges is read.
    path = write_fixture(tmp_path, "dense.txt", "# dense\n1000 1000000000000\n0 1\n")
    with cpu_bound(1.0, "the header 1000 1000000000000"):
        code = main(["color", path])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}:2: bad token '1000000000000': edge count exceeds n(n-1)/2 = 499500" in err
    assert "Traceback" not in err


def test_random_sample_at_girth_near_n_within_a_cpu_bound(capsys, cpu_bound):
    # The sampler's final girth check took 4.5 s of CPU here, growing
    # spheres of radius 1499 from each of the 3,000 vertices.
    with cpu_bound(1.0, "generate --random --max-n 3000 --min-girth 3000"):
        code, out = run(capsys, ["generate", "--random", "--max-n", "3000", "--min-girth", "3000", "--count"])
    assert code == 0
    assert out == "count=1\n"


def test_square_outputs_parseable_graph(tmp_path, capsys):
    code, out = run(capsys, ["square", c6_file(tmp_path)])
    assert code == 0
    got, _ = parse_one_graph(out)
    assert got == square(named("c6")[0])


def test_square_structured_uses_graph6(tmp_path, capsys):
    code, out = run(capsys, ["square", "--structured", c6_file(tmp_path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sqcolor-report 1"
    assert lines[1].startswith("square=")
    assert from_graph6(lines[1].removeprefix("square=")) == square(named("c6")[0])


def test_color_uniform(tmp_path, capsys):
    code, out = run(capsys, ["color", c6_file(tmp_path)])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    coloring = [int(line.split(": ")[1]) for line in lines]
    assert all(c in range(1, 8) for c in coloring)
    assert is_proper(square(named("c6")[0]), coloring)


def test_color_structured(tmp_path, capsys):
    code, out = run(capsys, ["color", "--structured", c6_file(tmp_path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sqcolor-report 1"
    body = [line for line in lines if line.startswith("colors=")]
    assert len(body) == 1
    coloring = [int(c) for c in body[0].split("=", 1)[1].split(",")]
    assert is_proper(square(named("c6")[0]), coloring)
    assert "verified=ok" in lines


def test_color_rejects_short_lists(tmp_path, capsys):
    code = main(["color", "--lists", "uniform:6", c6_file(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: vertex 0 has a list of size 6 < 7\n"


def test_a_huge_uniform_list_colors_from_its_seven_least_colors(tmp_path):
    # uniform:K keeps colors 1..7, so K = 10^8 builds no list of K colors
    # and colors c6 byte for byte as uniform:7 does, in a child limited
    # to 1 GiB of address space; a frozenset of 10^8 colors needs more.
    path = c6_file(tmp_path)

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    outputs = []
    for k in (7, 100_000_000):
        proc = subprocess.run(
            [sys.executable, "-m", "sqcolor.cli", "color", "--lists", f"uniform:{k}", path],
            capture_output=True,
            text=True,
            env=child_env(),
            preexec_fn=limit_address_space,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 6


def test_consecutive_main_calls_share_no_state(tmp_path, capsys):
    # main reuses one parser; options of one call must not reach the next.
    path = c6_file(tmp_path)
    assert main(["color", "--lists", "uniform:6", path]) == 1
    capsys.readouterr()
    code, out = run(capsys, ["color", path])
    assert code == 0
    coloring = [int(line.split(": ")[1]) for line in out.splitlines()]
    assert len(coloring) == 6 and all(c in range(1, 8) for c in coloring)
    code, out = run(capsys, ["discharge-audit", "--full", path])
    assert code == 0
    assert "vertex_charge v=0 charge=0" in out.splitlines()
    code, out = run(capsys, ["discharge-audit", path])
    assert code == 0
    assert not any(line.startswith(("vertex_charge", "face_charge")) for line in out.splitlines())


def test_color_with_lists_file(tmp_path, capsys):
    lists_text = "".join(f"{v}: 10 20 30 40 50 60 70\n" for v in range(6))
    lists_path = write_fixture(tmp_path, "lists.txt", lists_text)
    code, out = run(capsys, ["color", "--lists", lists_path, c6_file(tmp_path)])
    assert code == 0
    coloring = [int(line.split(": ")[1]) for line in out.splitlines()[:6]]
    assert all(c in range(10, 71, 10) for c in coloring)
    assert is_proper(square(named("c6")[0]), coloring)


def test_choosable_even_cycle(tmp_path, capsys):
    code, out = run(capsys, ["choosable", "-k", "2", c6_file(tmp_path)])
    assert code == 0
    assert out.splitlines()[0] == "verdict=choosable"


def test_choosable_long_cycle_by_degeneracy(tmp_path, capsys):
    # Degeneracy 2 < 3 decides it without a search; a degeneracy that
    # rescans every remaining vertex per step spends about a minute on it.
    n = 20000
    path = write_fixture(tmp_path, "c20000.txt", write_graph_text(Graph(n, [(i, (i + 1) % n) for i in range(n)])))
    code, out = run(capsys, ["choosable", "-k", "3", path])
    assert code == 0
    assert out == "verdict=choosable\nnodes=0\n"


def test_choosable_odd_cycle_witness(tmp_path, capsys):
    path = write_fixture(tmp_path, "c5.txt", write_graph_text(named("c5")[0]))
    code, out = run(capsys, ["choosable", "-k", "2", path])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "verdict=not_choosable"
    assert lines[1].startswith("nodes=")
    witness_lines = [l for l in lines if l.startswith("witness v=")]
    assert len(witness_lines) == 5
    assert witness_lines[0] == "witness v=0 list=1,2"


def test_choosable_budget_exhaustion(tmp_path, capsys):
    code, out = run(capsys, ["choosable", "-k", "2", "--budget", "1", c6_file(tmp_path)])
    assert code == 3
    assert out == "verdict=inconclusive\nnodes=2\n"


def test_choosable_env_budget(tmp_path, capsys, monkeypatch):
    # --budget is the one way to set the budget; the environment is not read.
    path = c6_file(tmp_path)
    want = run(capsys, ["choosable", "-k", "2", path])
    monkeypatch.setenv("SQCOLOR_BUDGET", "1")
    assert run(capsys, ["choosable", "-k", "2", path]) == want
    assert want[0] != 3


def test_find_config(tmp_path, capsys):
    code, out = run(capsys, ["find-config", c6_file(tmp_path)])
    assert code == 0
    assert out == "config=sixcycle_two_vertex cycle=1,2,3,4,5,0 two_vertex=0\n"
    path = write_fixture(
        tmp_path, "hept.txt", write_graph_text(named("two-heptagons")[0])
    )
    code, out = run(capsys, ["find-config", path])
    assert code == 0
    assert out == "config=cut_two_vertex u=14 x=0 y=7\n"
    prism = write_fixture(tmp_path, "prism.txt", write_graph_text(named("prism6")[0]))
    code, out = run(capsys, ["find-config", prism])
    assert code == 0
    assert out == "config=none\n"


def test_find_config_refuses_a_vertex_of_degree_above_3_within_a_cpu_bound(tmp_path, capsys, cpu_bound):
    # K2,100000: two hubs joined by 100,000 2-vertices.  The configurations
    # are the paper's, on subcubic graphs; the search behind them scanned a
    # hub's row for every 2-vertex and ran for minutes here.
    n = 100_000
    edges = "".join(f"{h} {v}\n" for v in range(2, n + 2) for h in (0, 1))
    path = write_fixture(tmp_path, "k2n.txt", f"{n + 2} {2 * n}\n{edges}")
    with cpu_bound(2.0, "find-config on K2,100000"):
        code = main(["find-config", path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: graph has a vertex of degree above 3\n"


def test_rotation_row_that_is_not_the_neighbours_is_a_parse_error(tmp_path, capsys):
    # Vertex 0's row names 2, which is not a neighbour of 0.
    path = write_fixture(tmp_path, "rot.txt", "3 2\n0 1\n1 2\nrot 0: 2\nrot 1: 0 2\nrot 2: 1\n")
    code = main(["discharge-audit", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"{path}:4: bad token '0:': rotation at vertex 0 does not match adjacency\n"


def test_reduce(tmp_path, capsys):
    path = write_fixture(
        tmp_path, "hept.txt", write_graph_text(named("two-heptagons")[0])
    )
    code, out = run(capsys, ["reduce", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "removed=14"
    assert lines[1] == "edge=0,7"
    got, _ = parse_one_graph("\n".join(lines[2:]) + "\n")
    assert got.n == 14
    assert got.has_edge(0, 7)


def test_reduce_structured(tmp_path, capsys):
    path = write_fixture(
        tmp_path, "hept.txt", write_graph_text(named("two-heptagons")[0])
    )
    code, out = run(capsys, ["reduce", "--structured", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sqcolor-report 1"
    assert lines[1] == "removed=14"
    assert lines[2] == "edge=0,7"
    assert lines[3].startswith("graph=")
    assert from_graph6(lines[3].removeprefix("graph=")).n == 14


def test_reduce_finds_cut_two_vertex_beside_a_leaf(tmp_path, capsys):
    # A leaf comes first in find-config, but reduce wants a cut 2-vertex.
    path = write_fixture(tmp_path, "p5.txt", write_graph_text(named("p5")[0]))
    code, out = run(capsys, ["reduce", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["removed=1", "edge=0,2"]
    got, _ = parse_one_graph("\n".join(lines[2:]) + "\n")
    assert got == Graph(4, [(0, 1), (1, 2), (2, 3)])


def test_reduce_is_a_batch_command(tmp_path, capsys):
    # Several files, each reported as when it is reduced alone.
    paths = [write_fixture(tmp_path, f"{name}.txt", write_graph_text(named(name)[0])) for name in ("two-heptagons", "p5")]
    alone = [run(capsys, ["reduce", path])[1] for path in paths]
    code, out = run(capsys, ["reduce", "--jobs", "2", *paths])
    assert code == 0
    assert out == "".join(f"file={path}\n{text}" for path, text in zip(paths, alone))


def test_reduce_requires_cut_two_vertex(tmp_path, capsys):
    code, _ = run(capsys, ["reduce", c6_file(tmp_path)])
    assert code == 1
    path = write_fixture(
        tmp_path, "hept.txt", write_graph_text(named("two-heptagons")[0])
    )
    code, _ = run(capsys, ["reduce", "--vertex", "3", path])
    assert code == 1


@pytest.mark.parametrize("vertex", ["99", "-2"])
def test_reduce_rejects_vertex_out_of_range(tmp_path, capsys, vertex):
    # A hexagon with a pendant path 0-6-7; vertex -2 must not wrap to 6.
    path = write_fixture(tmp_path, "g.txt", "8 8\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n0 6\n6 7\n")
    code = main(["reduce", f"--vertex={vertex}", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: vertex {vertex} is out of range for n=8\n"


def test_discharge_audit_c6_golden(tmp_path, capsys):
    code, out = run(capsys, ["discharge-audit", c6_file(tmp_path)])
    assert code == 0
    assert out == (
        "vertices=6\n"
        "edges=6\n"
        "faces=2\n"
        "initial_total=-12\n"
        "final_total=-12\n"
        "negative_face face=0 length=6 charge=-6\n"
        "negative_face face=1 length=6 charge=-6\n"
        "config=sixcycle_two_vertex cycle=1,2,3,4,5,0 two_vertex=0\n"
        "claim3=skipped reason=close 2-vertices on a cycle\n"
        "dichotomy=ok\n"
    )


def test_discharge_audit_p3_golden(tmp_path, capsys):
    # A tree: negative vertices as well as the face, and claim 3 skipped.
    path = write_fixture(tmp_path, "p3.txt", "3 2\n0 1\n1 2\n")
    code, out = run(capsys, ["discharge-audit", path])
    assert code == 0
    assert out == (
        "vertices=3\n"
        "edges=2\n"
        "faces=1\n"
        "initial_total=-12\n"
        "final_total=-12\n"
        "negative_vertex v=0 charge=-4\n"
        "negative_vertex v=2 charge=-4\n"
        "negative_face face=0 length=4 charge=-4\n"
        "config=one_vertex v=0\n"
        "claim3=skipped reason=acyclic\n"
        "dichotomy=ok\n"
    )


def test_discharge_audit_prints_claim3_violations(tmp_path, capsys, monkeypatch):
    from sqcolor.discharging import Claim3Face, Claim3Report

    def violated(g, face_list):
        # c6 has two faces; a checked report holds one row for each.
        assert len(face_list) == 2
        return Claim3Report(checked=True, reason="", rows=(Claim3Face(0, 7, 2, 1), Claim3Face(1, 6, 1, 1)))

    monkeypatch.setattr("sqcolor.discharging.claim3_bound_check", violated)
    code, out = run(capsys, ["discharge-audit", c6_file(tmp_path)])
    assert code == 1
    assert "claim3_violation face=0 length=7 two_vertices=2 bound=1" in out.splitlines()


def test_discharge_audit_rejects_low_girth(tmp_path, capsys):
    path = write_fixture(tmp_path, "q3.txt", write_graph_text(named("q3")[0]))
    code, _ = run(capsys, ["discharge-audit", path])
    assert code == 1


def test_generate_count(capsys):
    code, out = run(capsys, ["generate", "--max-n", "6", "--count"])
    assert code == 0
    assert out == "count=12\n"


def test_generate_count_of_trees(capsys):
    # The subcubic trees on 1..5 vertices: 1, 1, 1, 2 and 2.
    code, out = run(capsys, ["generate", "--min-girth", "inf", "--max-n", "5", "--count"])
    assert code == 0
    assert out == "count=7\n"


def test_generate_count_with_a_huge_girth_bound(capsys):
    # No cycle fits, so this is the tree count of --min-girth inf; the
    # enumeration's distance balls stop at the graph's reach, not at the
    # bound.
    code, out = run(capsys, ["generate", "--max-n", "8", "--min-girth", "100000000", "--count"])
    assert code == 0
    assert out == "count=28\n"


def test_generate_g6_lines(capsys):
    code, out = run(capsys, ["generate", "--max-n", "6", "--g6"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    graphs = [from_graph6(line) for line in lines]
    assert [g.n for g in graphs] == [1, 2, 3, 4, 4, 5, 5, 6, 6, 6, 6, 6]


def test_generate_named(capsys):
    fixtures = ("c3", "c6", "c7", "p1", "p2", "p5", "q3", "cube", "prism6", "6-prism",
                "dodecahedron", "petersen", "honeycomb-1", "honeycomb-3", "subdivided-prism",
                "two-heptagons", "two-heptagons-sharing-a-2-vertex")
    for name in fixtures:
        code, out = run(capsys, ["generate", "--name", name])
        assert code == 0
        got, rot = parse_one_graph(out)
        assert got == named(name)[0], name
        # p1 has no edge, so no rotation line; petersen has no rotation.
        assert (rot is not None) is (got.m > 0 and name != "petersen"), name
        if rot is not None:
            sqcolor.check_rotation(got, rot)
            assert euler_genus_check(got, rot), name


def test_generate_unknown_name(capsys):
    code = main(["generate", "--name", "mystery"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: unknown fixture 'mystery'; try c<k>, p<k>, q3, prism6, dodecahedron,"
        " petersen, honeycomb-<k>, subdivided-prism, two-heptagons\n"
    )


def test_generate_refuses_a_named_fixture_over_the_vertex_limit(capsys, cpu_bound):
    # honeycomb-k has 4k + 2 vertices: 1,000,002 here, refused with the
    # readers' wording before anything is built.
    with cpu_bound(1.0, "generate --name honeycomb-250000"):
        code = main(["generate", "--name", "honeycomb-250000", "--count"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "honeycomb-250000: vertex count exceeds the limit of 1000000\n"


@pytest.mark.parametrize("family", ["c", "p", "honeycomb-"])
def test_generate_refuses_a_name_with_thousands_of_digits(capsys, family):
    # Python's int refuses a string of more than 4,300 digits; the name
    # is refused for its size before any conversion.
    name = family + "9" * 4400
    code = main(["generate", "--name", name, "--count"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"{name}: vertex count exceeds the limit of 1000000\n"


@pytest.mark.parametrize("name", ["c\u00b2", "p\u00b3", "honeycomb-\u00b9", "c\u0663", "c0\uff16"])
def test_generate_takes_only_ascii_digits_in_a_name(capsys, name):
    # str.isdigit accepts superscripts, which int refuses, and int
    # accepts other scripts' digits; a name is read in ASCII digits only.
    code = main(["generate", "--name", name])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: unknown fixture '{name}'; try c<k>,")
    assert "Traceback" not in captured.err


def test_generate_reads_leading_zeros_in_a_name(capsys):
    code, out = run(capsys, ["generate", "--name", "c" + "0" * 20 + "6", "--g6"])
    assert code == 0
    assert from_graph6(out.strip()) == named("c6")[0]


@pytest.mark.parametrize("name, bigger, n", [
    ("honeycomb-250", "honeycomb-251", 1002), ("c1002", "c1003", 1002), ("p1002", "p1003", 1002),
])
def test_generate_named_fixtures_up_to_the_vertex_limit(monkeypatch, capsys, name, bigger, n):
    # The limit is lowered to n, the fixture's own size, so the members
    # on either side of it are cheap (honeycomb-249999, the largest real
    # one, takes seconds and about 1 GB to build).
    monkeypatch.setattr(generate, "MAX_VERTICES", n)
    code, out = run(capsys, ["generate", "--name", name, "--g6"])
    assert code == 0
    assert from_graph6(out.strip()).n == n
    assert main(["generate", "--name", bigger, "--count"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{bigger}: vertex count exceeds the limit of {n}\n"
    assert "Traceback" not in captured.err


def test_generate_random_deterministic(capsys):
    code, out1 = run(capsys, ["generate", "--random", "--max-n", "10", "--seed", "3", "--g6"])
    assert code == 0
    code, out2 = run(capsys, ["generate", "--random", "--max-n", "10", "--seed", "3", "--g6"])
    assert out1 == out2
    g = from_graph6(out1.strip())
    assert g.n <= 10


def test_generate_random_beyond_the_budget_exits_3(capsys, cpu_bound):
    with cpu_bound(2, "generate --random --max-n 100000"):
        code = main(["generate", "--random", "--max-n", "100000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("budget exhausted: random instance")


def test_generate_random_beyond_the_girth_30_budget_exits_3(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("sampled past the budget")

    monkeypatch.setattr("sqcolor.generate._random_step", refuse)
    code = main(["generate", "--random", "--max-n", "4000", "--min-girth", "30"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "budget exhausted: random instance exceeded vertex budget (4000 > 800)\n"


def test_generate_beyond_the_enumeration_budget_exits_3(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated past the budget")

    monkeypatch.setattr("sqcolor.generate._enumerate_connected", refuse)
    code = main(["generate", "--max-n", "15"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "budget exhausted: class enumeration exceeded vertex budget (15 > 14)\n"


def test_multiple_graphs_in_one_file(tmp_path, capsys):
    text = write_graph_text(named("c6")[0]) + write_graph_text(named("c7")[0])
    path = write_fixture(tmp_path, "both.txt", text)
    code, out = run(capsys, ["girth", path])
    assert code == 0
    assert out == "graph=0\ngirth=6\ngraph=1\ngirth=7\n"


def test_a_file_of_graphs_lets_go_of_each_graph_once_it_is_done(tmp_path, capsys, monkeypatch):
    # Each graph keeps the facts derived from it (graph_core.derived), so
    # a file of many graphs must not hold the ones already done.
    sizes = (1001, 1002, 1003)
    path = write_fixture(tmp_path, "three.txt", "".join(write_graph_text(named(f"c{n}")[0]) for n in sizes))
    find_config = cli._RUNNERS["find-config"]
    alive = []

    def runner(g, args):
        alive.append(sorted(o.n for o in gc.get_objects() if isinstance(o, Graph) and o.n in sizes))
        return find_config(g, args)

    monkeypatch.setitem(cli._RUNNERS, "find-config", runner)
    code, out = run(capsys, ["find-config", path])
    assert code == 0
    assert out.count("config=spacing_violation") == 3
    assert alive == [[1001, 1002, 1003], [1002, 1003], [1003]]


def test_jobs_parallel_preserves_order(tmp_path, capsys):
    paths = [
        write_fixture(tmp_path, "a.txt", write_graph_text(named("c6")[0])),
        write_fixture(tmp_path, "b.txt", write_graph_text(named("c7")[0])),
        write_fixture(tmp_path, "c.txt", write_graph_text(named("p4")[0])),
    ]
    code, out = run(capsys, ["girth", "--jobs", "2", *paths])
    assert code == 0
    assert out == (
        f"file={paths[0]}\ngirth=6\n"
        f"file={paths[1]}\ngirth=7\n"
        f"file={paths[2]}\ngirth=inf\n"
    )


def test_worst_exit_code_wins_across_files(tmp_path, capsys):
    ok = write_fixture(tmp_path, "c6.txt", write_graph_text(named("c6")[0]))
    bad = write_fixture(tmp_path, "c5.txt", write_graph_text(named("c5")[0]))
    code, out = run(capsys, ["discharge-audit", ok, bad])
    assert code == 1


@pytest.mark.parametrize("name, text, line, token, message", [
    ("trunc.g6", "~AB\n", 1, "~AB", "truncated graph6 header"),
    ("big.g6", "~~ABCDEFGH\n", 1, "~~ABCDEFGH", "graph6 n > 258047 unsupported"),
    ("max.g6", "~}~~\n", 1, "~}~~", "graph6 body length mismatch for n=258047"),
    ("neg.txt", "-3 0\n", 1, "-3", "negative header value"),
    ("rot.txt", "3 2\n0 1\n1 2\nrot x: 1\n", 4, "x", "expected vertex id"),
])
def test_parse_errors_name_the_file_line_and_token(tmp_path, capsys, name, text, line, token, message):
    path = write_fixture(tmp_path, name, text)
    code = main(["girth", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"{path}:{line}: bad token '{token}': {message}\n"


def test_an_empty_input_names_the_file(tmp_path, capsys):
    # No line and no token is at fault, so the message names only the file.
    path = write_fixture(tmp_path, "empty.txt", "")
    code = main(["girth", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"{path}: no graphs in input\n"


def test_graph6_with_its_header_prefix(tmp_path, capsys):
    path = write_fixture(tmp_path, "c5.g6", ">>graph6<<Dhc\n")
    code, out = run(capsys, ["girth", path])
    assert code == 0
    assert out == "girth=5\n"


@pytest.mark.parametrize("argv, err", [
    (["choosable", "-k", "2", "--budget", "0"], "error: budget must be positive\n"),
    (["color", "--lists", "uniform:0"], "error: uniform list size must be positive\n"),
])
def test_nonpositive_sizes_are_usage_errors(tmp_path, capsys, argv, err):
    code = main([*argv, c6_file(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == err


def test_parse_error_exit_code(tmp_path, capsys):
    path = write_fixture(tmp_path, "junk.txt", "3 x\n0 1\n")
    code, _ = run(capsys, ["girth", path])
    assert code == 2


def test_a_list_file_missing_most_vertices_gets_a_short_error(tmp_path, capsys):
    graph = write_fixture(tmp_path, "empty.txt", f"{MAX_VERTICES} 0\n")
    lists = write_fixture(tmp_path, "one.txt", "0: 1\n")
    code = main(["color", "--lists", lists, graph])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"{lists}:1: bad token '1': missing list for vertices [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (999999 in all)\n"


def test_missing_file_exit_code(capsys):
    code, _ = run(capsys, ["girth", "/nonexistent/never.txt"])
    assert code == 2


def test_verify_lemma2(capsys):
    code, out = run(capsys, ["verify-lemma2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13
    assert all(line.startswith("case ") and line.endswith("OK") for line in lines[:12])
    assert lines[0] == "case {a,b}|{b,a}|{c,a} -> f=(alpha,b,a,c,b) OK"
    assert lines[12] == "situations=40511 v1=11 v5=37125 v2=2700 v3=360 v4=252 table=63 failures=0"


def test_verify_lemma2_structured_header(capsys):
    code, out = run(capsys, ["verify-lemma2", "--structured"])
    assert code == 0
    assert out.splitlines()[0] == "sqcolor-report 1"
    assert len(out.splitlines()) == 14


# sha256 of the stdout of `sqcolor verify-lemma2` with these flags, taken
# again when the command gained its line for the collapsed situations.
LEMMA2_SHA256 = {
    (): "c9ec8628e2292aef5c6b6f7000cdd991b64e25508b6474f995a7beed78892dbf",
    ("--structured",): "5885667e267770086979d6181a11bda3c9bf178b7e2710bce23a0675608f0041",
}


@pytest.mark.parametrize("flags", sorted(LEMMA2_SHA256))
def test_verify_lemma2_output_is_frozen(capsys, flags):
    code, out = run(capsys, ["verify-lemma2", *flags])
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == LEMMA2_SHA256[flags]


def child_env():
    """The environment in which a child finds the same sqcolor as this
    process, installed or not."""
    src = str(Path(sqcolor.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sqcolor.cli", "verify-lemma2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 13


def test_the_command_line_does_not_import_networkx():
    # networkx is a test dependency only: the tests use it as an oracle.
    proc = subprocess.run(
        [sys.executable, "-c", "import sqcolor.cli, sys; print('networkx' in sys.modules)"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_the_command_line_does_not_import_the_process_pool():
    # Only --jobs > 1 over files uses the pool, and imports it then.
    proc = subprocess.run(
        [sys.executable, "-c", "import sqcolor.cli, sys;"
         " print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_color_structured_large_honeycomb(tmp_path, capsys):
    path = write_fixture(tmp_path, "hc300.txt", write_graph_text(named("honeycomb-300")[0]))
    code, out = run(capsys, ["color", "--structured", path])
    assert code == 0
    assert "verified=ok" in out.splitlines()


def test_long_cycle_runs_every_class_command(tmp_path, capsys):
    path = write_fixture(tmp_path, "c3000.txt", write_graph_text(named("c3000")[0]))
    code, out = run(capsys, ["color", "--structured", path])
    assert code == 0 and "verified=ok" in out.splitlines()
    code, out = run(capsys, ["find-config", path])
    assert code == 0 and out.startswith("config=spacing_violation u=0 w=1 dist=1 cycle=0,1,2,")
    code, out = run(capsys, ["discharge-audit", path])
    assert code == 0 and out.endswith("dichotomy=ok\n")


def test_recursion_limit_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    def too_deep(g, args):
        raise RecursionError

    monkeypatch.setitem(cli._RUNNERS, "girth", too_deep)
    code = main(["girth", c6_file(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "error: resource limit reached (RecursionError)\n"


def test_choosable_on_a_long_cycle_gives_a_verdict(tmp_path, capsys):
    # Both exact searches keep explicit stacks, so a depth of 1,200
    # vertices is no recursion: the canonical assignments and the
    # coloring search run until the budget ends them.
    path = write_fixture(tmp_path, "c1200.txt", write_graph_text(named("c1200")[0]))
    code, out = run(capsys, ["choosable", "-k", "2", "--budget", "3000", path])
    assert code == 3
    assert out == "verdict=inconclusive\nnodes=3001\n"


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    def exhaust(g, args):
        raise MemoryError

    monkeypatch.setitem(cli._RUNNERS, "girth", exhaust)
    code = main(["girth", c6_file(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == "error: resource limit reached (MemoryError)\n"


def test_color_output_is_deterministic(tmp_path, capsys):
    g = named("honeycomb-50")[0]
    path = write_fixture(tmp_path, "hc50.txt", write_graph_text(g))
    lists = "".join(f"{v}: {' '.join(str((v * 3 + i) % 10 + 1) for i in range(7))}\n" for v in range(g.n))
    lists_path = write_fixture(tmp_path, "lists.txt", lists)
    argv = ["color", "--structured", "--lists", lists_path, path]
    code, first = run(capsys, argv)
    assert code == 0
    assert run(capsys, argv) == (0, first)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    code, _ = run(capsys, ["girth", "--jobs", jobs, c6_file(tmp_path)])
    assert code == 2


def test_jobs_pool_is_clamped(tmp_path, capsys, monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    paths = [write_fixture(tmp_path, f"{k}.txt", write_graph_text(named("c6")[0])) for k in range(3)]
    assert run(capsys, ["girth", "--jobs", "10000", *paths])[0] == 0
    assert run(capsys, ["girth", "--jobs", "2", *paths])[0] == 0
    assert run(capsys, ["girth", "--jobs", "10000", *paths[:1]])[0] == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert run(capsys, ["girth", "--jobs", "10000", *paths])[0] == 0
    # One file or one CPU runs in-process, with no pool.
    assert sizes == [3, 2]
