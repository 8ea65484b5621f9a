"""The import layering of the package, read from its source with ast.

graph_core sits below every other module.  discharging holds the
configurations, their detectors and the charge audit, and reducer the
colorer, which needs none of them.  So discharging imports nothing from
reducer, and reducer imports from discharging only the names that the
benchmark's span tracer (perfbench/spans.py) still looks up on reducer.
A violation here would be a circular import, or one on its way.

The same reading pins the dead code: the functions and classes that no
module of the package refers to, which only the span tracer and the
tests still use, and the methods that no module calls, of which there
should be none.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sqcolor"

TRACED_ON_REDUCER = {
    "CutTwoVertex",
    "OneVertex",
    "SixCycleTwoVertex",
    "find_reducible_config",
    "find_sixcycle_two_vertex",
    "find_spacing_violation",
    "reduce_cut_two_vertex",
}

# Each is traced by perfbench/spans.py, and test_trace_names requires
# every traced name to exist.
UNREFERENCED = {
    "cut_vertices",
    "distance",
    "find_L_coloring",
    "greedy_extend",
    "is_proper",
}

# Unreferenced too, but kept as API: the library entry point of Lemma 2,
# through which the acceptance sweep runs the six-cycle engine.
LEMMA2_ENTRY_POINT = "extend_sixcycle"

# Kept as API too: the face tracer that validates a rotation a caller
# brings (the charge audit traces the rotation it builds itself), which
# perfbench/spans.py also traces.
CHECKED_FACES_ENTRY_POINT = "faces"


def sqcolor_imports(path):
    """(module, name) for each name that the file imports from a sqcolor
    module, relative or absolute; name is None for a plain import."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "sqcolor":
                    continue
                module = module.partition(".")[2]
            for alias in node.names:
                # "from . import x" imports the module x.
                out.append((module, alias.name) if module else (alias.name, None))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sqcolor":
                    out.append((alias.name.partition(".")[2], None))
    return out


def imports_of():
    found = {path.stem: sqcolor_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {"graph_core", "discharging", "reducer"} <= set(found)
    return found


def test_graph_core_imports_no_sqcolor_module():
    assert imports_of()["graph_core"] == []


def test_discharging_imports_nothing_from_reducer():
    assert [m for m, _ in imports_of()["discharging"] if m == "reducer"] == []


def test_reducer_imports_from_discharging_only_the_traced_names():
    names = [name for m, name in imports_of()["reducer"] if m == "discharging"]
    assert set(names) <= TRACED_ON_REDUCER
    assert None not in names


def test_the_reader_sees_relative_and_absolute_imports(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import os\n"
        "from . import reducer\n"
        "from .reducer import _peel\n"
        "from sqcolor.discharging import OneVertex\n"
        "import sqcolor.graph_core\n"
        "def f():\n"
        "    from .formats import parse_graphs\n"
    )
    assert sorted(sqcolor_imports(path), key=str) == sorted(
        [("reducer", None), ("reducer", "_peel"), ("discharging", "OneVertex"),
         ("graph_core", None), ("formats", "parse_graphs")],
        key=str,
    )


def definitions_and_uses():
    """(names, methods, used): the top-level functions and classes of the
    package, its (class, method) pairs other than dunders, and the names
    its modules refer to.  A name counts as referred to where a module
    other than __init__ loads it or reads it as an attribute; imports do
    not count, since an import alone refers to nothing, and neither does
    a definition."""
    names, methods, used = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods |= {(node.name, item.name) for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("__")}
        if path.stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return names, methods, used


def test_the_unreferenced_names_are_the_traced_ones():
    names, _, used = definitions_and_uses()
    assert names - used == UNREFERENCED | {LEMMA2_ENTRY_POINT, CHECKED_FACES_ENTRY_POINT}


def test_every_method_is_referred_to():
    # A method is referred to by its name read as an attribute anywhere in
    # the package, whatever the object; the tests' oracles are no callers.
    _, methods, used = definitions_and_uses()
    assert sorted(f"{cls}.{name}" for cls, name in methods if name not in used) == []
