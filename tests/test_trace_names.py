"""The benchmark's span tracer finds every name it wraps.

perfbench/spans.py looks each traced function up by name with a bare
getattr, so renaming or deleting one of them breaks `run.py --trace 1`.
It also counts the rules by the class name of each configuration, so a
renamed or merged configuration type would silently count as fallback.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_is_a_callable_of_its_layer():
    spans = load_spans()
    assert spans.LAYERS
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"sqcolor.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"sqcolor.{layer}.{name}"


def test_every_rule_name_is_a_configuration_class():
    spans = load_spans()
    reducer = importlib.import_module("sqcolor.reducer")
    assert spans.RULES
    for name in spans.RULES:
        assert isinstance(getattr(reducer, name, None), type), f"sqcolor.reducer.{name}"
