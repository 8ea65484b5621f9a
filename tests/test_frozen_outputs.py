"""Frozen outputs of the colorer, find-config and the charge audit.

The peel's order fixes the colors and the six-cycle search's order fixes
find-config's cycle, so these hashes catch any change of order in the
graph primitives underneath them.
"""

import hashlib
from pathlib import Path

import pytest

from sqcolor.discharging import describe_config, discharge_audit, find_reducible_config, render_audit
from sqcolor.formats import from_graph6
from sqcolor.generate import named
from sqcolor.reducer import color_square_7lists

CORPUS12 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "corpus12.g6"


def _graphs(family):
    if family == "corpus12":
        return [from_graph6(line) for line in CORPUS12.read_text().split()]
    return [named(family)[0]]


def _digests(family):
    """sha256 of the colors (uniform 7-lists), the find-config line and the
    full audit text, one block per graph, for every graph of family."""
    colors, configs, audits = [], [], []
    for g in _graphs(family):
        f = color_square_7lists(g, [range(1, 8)] * g.n)
        colors.append(" ".join(map(str, f)) + "\n")
        configs.append(describe_config(find_reducible_config(g)) + "\n")
        audits.append(render_audit(discharge_audit(g), full=True) + "\n")
    return tuple(hashlib.sha256("".join(t).encode()).hexdigest() for t in (colors, configs, audits))


# (colors, find-config, audit --full), computed before the graph
# primitives were merged into one implementation each.  The corpus12
# audit hash was taken again when the audit's embedding moved from the
# whole graph to the cubic kernel, and again when it moved from the
# cubic kernel to the series-parallel reduction and its undone log; each
# move renumbers faces only, so only face-numbered lines change (see
# below).
FROZEN = {
    "corpus12": (
        "b2e182b3cdcd2576489985285a2bc690002f896ccfd29a11dac49cf8e39b40af",
        "fc72b366568e8abba420f7bd99467960fa16918c938de7d514ac41ce00d439fa",
        "ed9db2adc5741492a0051aad0e0eb300adf373a0660d58757c9f089f5f00acfc",
    ),
    "c3000": (
        "a631e5a41f68403645804b51d665da5b3b48e04427f2f8533073c92a638b92d9",
        "2167a06e2051a83192d083e5ad15e7fde2d64e484beb81401ed7975647d6dd01",
        "ed7de94d3edee2e4416fe775e935303f17d1054439f5c122215ff2c2acac398c",
    ),
    "honeycomb-50": (
        "053aa7b9f2689bd607037b096c199245f5493ac4cfbcad0ef3ef04b4a2b1d9c3",
        "d0a07fc5618b6abeac1339336de80e26408af2cdf7eb9c62973bda1f8a342fc6",
        "6c06b27d5af32ca7fb153c5c9beacac1a1185e97c470c7b07c6967f122f6773a",
    ),
}


@pytest.mark.parametrize("family", sorted(FROZEN))
def test_outputs_are_frozen(family):
    assert _digests(family) == FROZEN[family]


# Lines that name a face by its number.  Face numbers follow the order in
# which the faces are traced from the rotation, and any plane embedding
# serves the audit, so only these lines may differ between embedders.
FACE_NUMBERED = ("face_charge ", "negative_face ", "claim3_violation ")

# sha256 of every other full-audit line on corpus12, computed with the
# whole-graph networkx embedding.
CORPUS12_AUDIT_WITHOUT_FACE_NUMBERS = "8d7a1cb1f6c6f7ead2a564be8b26e9fb835daa6f1d2b7d507ffa1a4e807d3cdc"


def test_audit_lines_outside_the_face_numbering_are_frozen():
    blocks = []
    for g in _graphs("corpus12"):
        lines = render_audit(discharge_audit(g), full=True).split("\n")
        blocks.append("".join(line + "\n" for line in lines if not line.startswith(FACE_NUMBERED)))
    digest = hashlib.sha256("".join(blocks).encode()).hexdigest()
    assert digest == CORPUS12_AUDIT_WITHOUT_FACE_NUMBERS
