"""Acceptance gate: one test per release criterion, each printing a verdict line."""

import random
import time

import networkx as nx
import pytest

from oracles import (
    brute_colorable,
    config_holds,
    euler_genus_check,
    from_nx,
    girth_per_edge,
    naive_choosable,
    square_edges_bfs,
)
from sqcolor.cli import main
from sqcolor.coloring import (
    CHOOSABLE,
    DEFAULT_CHOOSABILITY_BUDGET,
    NOT_CHOOSABLE,
    _choosable_by_search,
    degeneracy,
    find_L_coloring,
    is_k_choosable,
    is_proper,
)
from sqcolor.discharging import discharge_audit, find_sixcycle_two_vertex
from sqcolor.formats import write_graph_text
from sqcolor.generate import named
from sqcolor.graph_core import Graph, girth, square
from sqcolor.planar_embed import faces, find_planar_embedding
from sqcolor.reducer import color_square_7lists, extend_sixcycle

TWELVE = -12
HOSTS_WITH_SIXCYCLE = 470
CORPUS_SIZE = 977
TRIALS_PER_HOST = 200
RANDOM_LISTS_PER_GRAPH = 50


def report(capsys, name, ok, detail=""):
    """Print the per-criterion verdict line past pytest's capture."""
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def without_vertex(g, v):
    """g minus v, and old_ids[new] for each vertex left."""
    old_ids = [u for u in range(g.n) if u != v]
    new_of = {u: i for i, u in enumerate(old_ids)}
    return Graph(g.n - 1, [(new_of[a], new_of[b]) for a, b in g.edges() if v not in (a, b)]), old_ids


def test_criterion_1_lemma2_tables(capsys):
    # Process CPU time, so that other load on the host cannot fail it.
    t0 = time.process_time()
    code = main(["verify-lemma2"])
    cpu = time.process_time() - t0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.endswith("OK")]
    ok = code == 0 and len(rows) == 12 and cpu < 1.0
    report(capsys, "lemma2-tables", ok, f"rows={len(rows)} cpu={cpu:.3f}s")
    assert ok


def test_criterion_2_recoloring_sweep(corpus12, capsys):
    t0 = time.perf_counter()
    hosts = 0
    trials = 0
    failures = []
    branch_two = 0
    for idx, g in enumerate(corpus12):
        cfg = find_sixcycle_two_vertex(g)
        if cfg is None:
            continue
        hosts += 1
        v_cycle = cfg.cycle
        v1, v5, v6 = v_cycle[0], v_cycle[4], v_cycle[5]
        sq_g = square(g)
        host, old_ids = without_vertex(g, v6)
        sq_host = square(host)
        rng = random.Random(1000 + idx)
        for trial in range(TRIALS_PER_HOST):
            if trial % 2 == 0:
                lists = [sorted(rng.sample(range(60), 7)) for _ in range(g.n)]
            else:
                # Force a shared scarce color on the cycle ends so the
                # exact solver lands in the recoloring branch.
                lists = [sorted(rng.sample(range(2, 60), 7)) for _ in range(g.n)]
                lists[v1] = [1] + sorted(rng.sample(range(61, 120), 6))
                lists[v5] = [1] + sorted(rng.sample(range(71, 130), 6))
            host_lists = [lists[old] for old in old_ids]
            phi_host = find_L_coloring(sq_host, host_lists)
            if phi_host is None:
                failures.append((idx, trial, "no exact coloring of the host square"))
                continue
            phi = [None] * g.n
            for i, old in enumerate(old_ids):
                phi[old] = phi_host[i]
            if phi[v1] == phi[v5]:
                branch_two += 1
            trials += 1
            f = extend_sixcycle(g, cfg.cycle, lists, phi)
            total = all(c is not None for c in f)
            respects = total and all(f[v] in lists[v] for v in range(g.n))
            proper = total and is_proper(sq_g, f)
            if not (total and respects and proper):
                failures.append((idx, trial, "extension failed verification"))
    elapsed = time.perf_counter() - t0
    ok = (
        hosts == HOSTS_WITH_SIXCYCLE
        and trials == hosts * TRIALS_PER_HOST
        and not failures
        and branch_two > 0
        and elapsed < 600.0
    )
    report(
        capsys,
        "recoloring-sweep",
        ok,
        f"hosts={hosts} trials={trials} recolor_branch={branch_two} "
        f"failures={len(failures)} elapsed={elapsed:.1f}s",
    )
    assert ok, failures[:5]


def test_criterion_3_discharging_dichotomy(corpus12, capsys):
    bad = []
    for idx, g in enumerate(corpus12):
        audit = discharge_audit(g)
        if audit.initial_total != TWELVE or audit.final_total != TWELVE:
            bad.append((idx, "total", audit.initial_total, audit.final_total))
        if audit.config is None or not config_holds(g, audit.config):
            bad.append((idx, "config"))
        if not audit.dichotomy_holds:
            bad.append((idx, "dichotomy"))
    ok = len(corpus12) == CORPUS_SIZE and not bad
    report(
        capsys,
        "discharging-dichotomy",
        ok,
        f"graphs={len(corpus12)} violations={len(bad)}",
    )
    assert ok, bad[:5]


def test_criterion_4_end_to_end_coloring(corpus12, capsys):
    t0 = time.perf_counter()
    uniform = list(range(1, 8))
    bad = []
    attempts = 0
    for idx, g in enumerate(corpus12):
        rng = random.Random(5000 + idx)
        assignments = [[uniform[:] for _ in range(g.n)]]
        for _ in range(RANDOM_LISTS_PER_GRAPH):
            assignments.append([sorted(rng.sample(range(1, 40), 7)) for _ in range(g.n)])
        for lists in assignments:
            attempts += 1
            coloring = color_square_7lists(g, lists)
            if coloring is None:
                bad.append((idx, "returned none"))
                continue
            if not is_proper(square(g), coloring):
                bad.append((idx, "improper"))
            if not all(coloring[v] in lists[v] for v in range(g.n)):
                bad.append((idx, "off list"))
    elapsed = time.perf_counter() - t0
    ok = not bad and attempts == len(corpus12) * (RANDOM_LISTS_PER_GRAPH + 1)
    report(
        capsys,
        "end-to-end-coloring",
        ok,
        f"attempts={attempts} failures={len(bad)} elapsed={elapsed:.1f}s",
    )
    assert ok, bad[:5]


def test_criterion_5_choosability_spot_checks(corpus12, capsys):
    c5 = cycle(5)
    r_c5 = is_k_choosable(c5, 2)
    c5_ok = (
        r_c5.verdict == NOT_CHOOSABLE
        and r_c5.witness is not None
        and not brute_colorable(c5, r_c5.witness)
    )
    c6_ok = is_k_choosable(cycle(6), 2).verdict == CHOOSABLE
    k4 = complete(4)
    r_k4 = is_k_choosable(k4, 3)
    k4_ok = r_k4.verdict == NOT_CHOOSABLE and not brute_colorable(k4, r_k4.witness)
    low_degeneracy = sum(1 for g in corpus12 if degeneracy(square(g))[0] <= 6)
    share = low_degeneracy / len(corpus12)
    ok = c5_ok and c6_ok and k4_ok and share >= 0.90
    report(
        capsys,
        "choosability-spot-checks",
        ok,
        f"c5={c5_ok} c6={c6_ok} k4={k4_ok} degeneracy_share={share:.3f}",
    )
    assert ok


def all_connected_small(max_n):
    out = []
    for h in nx.graph_atlas_g()[1:]:
        if 2 <= h.number_of_nodes() <= max_n and nx.is_connected(h):
            out.append(from_nx(h))
    return out


def test_criterion_6_cross_oracles(corpus12, capsys):
    named_extras = [named(name)[0] for name in ("c5", "c7", "q3", "prism6", "dodecahedron", "petersen")]
    named_extras.append(complete(4))

    square_ok = all(
        write_graph_text(square(g)) == write_graph_text(Graph(g.n, sorted(square_edges_bfs(g))))
        for g in corpus12
    )

    girth_ok = all(girth(g) == girth_per_edge(g) for g in list(corpus12) + named_extras)

    face_ok = True
    for g in corpus12:
        rs = find_planar_embedding(g)
        face_list = faces(g, rs)
        if sum(map(len, face_list)) != 2 * g.m or not euler_genus_check(g, rs):
            face_ok = False
            break

    # Naive pool sweeps stay exact only while the pool is enumerable:
    # every graph up to n=4 for k in {1,2}, every graph at n=5 for k=1,
    # and the early-exit C5 instance at k=2.
    choose_ok = True
    for g in all_connected_small(4):
        for k in (1, 2):
            want, _ = naive_choosable(g, k)
            got = _choosable_by_search(g, k, DEFAULT_CHOOSABILITY_BUDGET)
            if got.verdict != (CHOOSABLE if want else NOT_CHOOSABLE):
                choose_ok = False
    for g in all_connected_small(5):
        if g.n == 5:
            want, _ = naive_choosable(g, 1)
            got = _choosable_by_search(g, 1, DEFAULT_CHOOSABILITY_BUDGET)
            if got.verdict != (CHOOSABLE if want else NOT_CHOOSABLE):
                choose_ok = False
    want_c5, _ = naive_choosable(cycle(5), 2)
    choose_ok = choose_ok and want_c5 is False
    choose_ok = choose_ok and is_k_choosable(cycle(5), 2).verdict == NOT_CHOOSABLE

    ok = square_ok and girth_ok and face_ok and choose_ok
    report(
        capsys,
        "cross-oracles",
        ok,
        f"square={square_ok} girth={girth_ok} faces={face_ok} choosability={choose_ok}",
    )
    assert ok
