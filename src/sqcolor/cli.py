"""Command line entry point.

One binary with subcommands; inputs are graph files (text or graph6,
`-` for stdin).  Exit codes: 0 success or verified, 1 property violated,
2 usage or parse error, 3 search budget, recursion depth or memory
exhausted.  Reports are deterministic: same inputs, seeds, and budgets
give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .coloring import (
    CHOOSABLE,
    DEFAULT_CHOOSABILITY_BUDGET,
    INCONCLUSIVE,
    NOT_CHOOSABLE,
    is_k_choosable,
)
from .discharging import (
    describe_config,
    discharge_audit,
    find_reducible_config,
    least_cut_two_vertex,
    reduce_cut_two_vertex,
    render_audit,
)
from .errors import (
    BudgetExceeded,
    GenerationFailed,
    ParseError,
    PreconditionViolated,
)
from .formats import (
    parse_graphs,
    parse_lists,
    to_graph6,
    uniform_lists,
    write_coloring,
    write_graph_text,
)
from .generate import GeneratorSpec, enumerate_class, named, random_instance
from .graph_core import INF, Graph, derived, girth, square
from .reducer import color_square_7lists, verify_lemma2_situations, verify_lemma2_tables

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

HEADER = "sqcolor-report 1"


def _read_input(path: str) -> tuple[str, str]:
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    with open(path, "r", encoding="ascii") as fh:
        return fh.read(), path


def _load(path: str):
    text, source = _read_input(path)
    items = parse_graphs(text, source)
    if not items:
        raise ParseError(source, None, None, "no graphs in input")
    return items


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        if args.budget <= 0:
            raise ValueError("budget must be positive")
        return args.budget
    return DEFAULT_CHOOSABILITY_BUDGET


def _girth_str(value) -> str:
    return "inf" if value == INF else str(int(value))


def _resolve_lists(spec: str, n: int):
    if spec.startswith("uniform:"):
        k = int(spec.split(":", 1)[1])
        if k < 1:
            raise ValueError("uniform list size must be positive")
        # A coloring from sublists is one from the lists, and the proof
        # needs 7 colors: uniform:K keeps the 7 least, whatever K is.
        return uniform_lists(n, min(k, 7))
    text, source = _read_input(spec)
    return parse_lists(text, n, source)


# per-graph workers; each returns (exit_code, report_text)


def _run_square(g: Graph, args) -> tuple[int, str]:
    sq = square(g)
    if args.structured:
        return EXIT_OK, f"square={to_graph6(sq)}\n"
    return EXIT_OK, write_graph_text(sq)


def _run_girth(g: Graph, args) -> tuple[int, str]:
    return EXIT_OK, f"girth={_girth_str(girth(g))}\n"


def _run_color(g: Graph, args) -> tuple[int, str]:
    lists = _resolve_lists(args.lists, g.n)
    # color_square_7lists certifies its coloring on the square, or raises.
    coloring = color_square_7lists(g, lists)
    if args.structured:
        colors = ",".join(str(c) for c in coloring)
        return EXIT_OK, f"colors={colors}\nverified=ok\n"
    return EXIT_OK, write_coloring(coloring)


def _run_choosable(g: Graph, args) -> tuple[int, str]:
    result = is_k_choosable(g, args.k, max_nodes=_budget(args))
    lines = [f"verdict={result.verdict}", f"nodes={result.nodes_used}"]
    if result.verdict == NOT_CHOOSABLE:
        for v, colors in enumerate(result.witness):
            lines.append(f"witness v={v} list=" + ",".join(str(c) for c in sorted(colors)))
    code = {CHOOSABLE: EXIT_OK, NOT_CHOOSABLE: EXIT_VIOLATED, INCONCLUSIVE: EXIT_BUDGET}[
        result.verdict
    ]
    return code, "\n".join(lines) + "\n"


def _run_find_config(g: Graph, args) -> tuple[int, str]:
    return EXIT_OK, f"config={describe_config(find_reducible_config(g))}\n"


def _run_reduce(g: Graph, args) -> tuple[int, str]:
    u = args.vertex
    if u is None:
        u = derived(g, least_cut_two_vertex)
        if u is None:
            return EXIT_VIOLATED, "error=no cut 2-vertex found\n"
    H = reduce_cut_two_vertex(g, u)
    x, y = sorted(g.neighbors(u))
    head = f"removed={u}\nedge={x},{y}\n"
    if args.structured:
        return EXIT_OK, head + f"graph={to_graph6(H)}\n"
    return EXIT_OK, head + write_graph_text(H)


def _run_discharge(g: Graph, args) -> tuple[int, str]:
    report = discharge_audit(g)
    ok = (
        report.initial_total == -12
        and report.final_total == -12
        and report.dichotomy_holds
        and report.claim3.passed
    )
    return EXIT_OK if ok else EXIT_VIOLATED, render_audit(report, full=args.full) + "\n"


_RUNNERS = {
    "square": _run_square,
    "girth": _run_girth,
    "color": _run_color,
    "choosable": _run_choosable,
    "find-config": _run_find_config,
    "discharge-audit": _run_discharge,
    "reduce": _run_reduce,
}


def _run_file(task) -> tuple[int, str]:
    """Process every graph in one file; used by the worker pool."""
    command, path, opts = task
    args = argparse.Namespace(**opts)
    runner = _RUNNERS[command]
    out = []
    worst = EXIT_OK
    items = _load(path)
    for i, (g, _) in enumerate(items):
        items[i] = None  # a graph, and the facts kept on it, go once it is done
        if len(items) > 1:
            out.append(f"graph={i}\n")
        code, text = runner(g, args)
        worst = max(worst, code)
        out.append(text)
    return worst, "".join(out)


def _batch(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    opts = {k: v for k, v in vars(args).items() if k not in ("func", "paths", "jobs")}
    tasks = [(args.command, path, opts) for path in args.paths]
    worst = EXIT_OK
    chunks = []
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1 and all(p != "-" for p in args.paths):
        # Imported here: the pool's modules cost every other run their
        # import time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_file, tasks))
    else:
        results = [_run_file(t) for t in tasks]
    for path, (code, text) in zip(args.paths, results):
        worst = max(worst, code)
        if len(args.paths) > 1:
            chunks.append(f"file={path}\n")
        chunks.append(text)
    _emit(args, "".join(chunks))
    return worst


def _emit(args, body: str) -> None:
    if getattr(args, "structured", False):
        sys.stdout.write(HEADER + "\n")
    sys.stdout.write(body)


def _cmd_generate(args) -> int:
    rot = None
    if args.name is not None:
        g, rot = named(args.name)
        graphs = [g]
    elif args.random:
        spec = GeneratorSpec(max_n=args.max_n, min_girth=args.min_girth, seed=args.seed)
        graphs = [random_instance(spec)]
    else:
        spec = GeneratorSpec(max_n=args.max_n, min_girth=args.min_girth)
        graphs = list(enumerate_class(spec))
    out = []
    if args.count:
        out.append(f"count={len(graphs)}\n")
    elif args.g6:
        out.extend(to_graph6(g) + "\n" for g in graphs)
    else:
        out.extend(write_graph_text(g, rot) for g in graphs)
    _emit(args, "".join(out))
    return EXIT_OK


def _cmd_verify_lemma2(args) -> int:
    lines = verify_lemma2_tables()
    sweep, failures = verify_lemma2_situations()
    _emit(args, "\n".join([*lines, sweep]) + "\n")
    return EXIT_OK if not failures and all(line.endswith(" OK") for line in lines) else EXIT_VIOLATED


def _girth_arg(value: str) -> float:
    if value in ("inf", "infinity"):
        return INF
    return int(value)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on the first call (not at import) and reused
    by every later main call; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sqcolor",
        description="Square list-coloring toolkit for sparse planar graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_batch(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("paths", nargs="+", metavar="FILE", help="graph file, or - for stdin")
        p.add_argument(
            "--jobs", type=int, default=1,
            help="parallel workers over input files (at most one per file and per CPU)",
        )
        p.add_argument("--structured", action="store_true", help="key=value report with header")
        p.set_defaults(func=_batch)
        return p

    add_batch("square", "emit the square of each input graph")
    add_batch("girth", "print the girth of each input graph")

    p = add_batch("color", "color the square of each graph from 7-lists")
    p.add_argument("--lists", default="uniform:7", help="uniform:K (colors 1..min(K, 7)) or a lists file")

    p = add_batch("choosable", "decide k-choosability of each graph")
    p.add_argument("-k", type=int, required=True, help="list size")
    p.add_argument("--budget", type=int, default=None, help="search node budget")

    add_batch("find-config", "report the first reducible configuration")

    p = add_batch("discharge-audit", "run the charge audit on each graph")
    p.add_argument("--full", action="store_true", help="list all charges, not only negatives")

    p = add_batch("reduce", "splice out a cut 2-vertex")
    p.add_argument("--vertex", type=int, default=None, help="the 2-vertex to remove")

    p = sub.add_parser("generate", help="enumerate or sample class members")
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument("--min-girth", type=_girth_arg, default=6, dest="min_girth")
    p.add_argument("--g6", action="store_true", help="one graph6 line per graph")
    p.add_argument("--count", action="store_true", help="print only the number of graphs")
    p.add_argument("--random", action="store_true", help="sample one instance instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default=None, help="emit a named fixture instead")
    p.add_argument("--structured", action="store_true")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "verify-lemma2", help="run the recoloring engine on the 12 table rows and every collapsed situation"
    )
    p.add_argument("--structured", action="store_true")
    p.set_defaults(func=_cmd_verify_lemma2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (RecursionError, MemoryError) as exc:
        print(f"error: resource limit reached ({type(exc).__name__})", file=sys.stderr)
        return EXIT_BUDGET
    except (PreconditionViolated, GenerationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATED
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
