"""Frozen outputs of the colorer, find-config and the charge audit.

The peel's order fixes the colors and the six-cycle search's order fixes
find-config's cycle, so these hashes catch any change of order in the
graph primitives underneath them.
"""

import hashlib
import random
from pathlib import Path

import pytest

from sqcolor.discharging import describe_config, discharge_audit, find_reducible_config, render_audit
from sqcolor.formats import from_graph6
from sqcolor.generate import GeneratorSpec, named, random_instance
from sqcolor.reducer import color_square_7lists

CORPUS12 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "corpus12.g6"


def _graphs(family):
    if family == "corpus12":
        return [from_graph6(line) for line in CORPUS12.read_text().split()]
    if family.startswith("random150-s"):
        return [random_instance(GeneratorSpec(max_n=150, seed=int(family[len("random150-s"):])))]
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
# below).  The corpus12 find-config and audit hashes were taken again
# when the spacing witness became a two-path flow: only the
# config=spacing_violation lines of the four graphs whose block is not a
# cycle changed.
FROZEN = {
    "corpus12": (
        "b2e182b3cdcd2576489985285a2bc690002f896ccfd29a11dac49cf8e39b40af",
        "764bd53743209e542ece4c84a31270a03500d889550c36845a64e1e0e279c770",
        "df4545e9b59d696efa5581f987807b9bc27c7067f3f73c0fb90e75c61f0c8e42",
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
# whole-graph networkx embedding, and again for the flow-based spacing
# witness.
CORPUS12_AUDIT_WITHOUT_FACE_NUMBERS = "702dc7995cdbcd0f69fa9040ce4ad104091a07fb2d19317b92c3dd09f950c2a8"


def test_audit_lines_outside_the_face_numbering_are_frozen():
    blocks = []
    for g in _graphs("corpus12"):
        lines = render_audit(discharge_audit(g), full=True).split("\n")
        blocks.append("".join(line + "\n" for line in lines if not line.startswith(FACE_NUMBERED)))
    digest = hashlib.sha256("".join(blocks).encode()).hexdigest()
    assert digest == CORPUS12_AUDIT_WITHOUT_FACE_NUMBERS


def _random_list_colors_digest(family):
    """sha256 of the colors from random 7-of-10 lists (the benchmark's
    palette), drawn in order from one generator seeded by the family."""
    rng = random.Random(family)
    blocks = []
    for g in _graphs(family):
        lists = [frozenset(rng.sample(range(1, 11), 7)) for _ in range(g.n)]
        blocks.append(" ".join(map(str, color_square_7lists(g, lists))) + "\n")
    return hashlib.sha256("".join(blocks).encode()).hexdigest()


# Colors from random lists, which reach the recoloring branch of the
# six-cycle engine far more often than uniform lists do: on corpus12 it
# recolors at 168 of 1,077 six-cycle records, on honeycomb-50 at 11 of
# 50, and on each random150 sample at 5 or 6 of about 32.
FROZEN_RANDOM_LISTS = {
    "corpus12": "15b1e4e138edb953e27c50d280665a3cd32abefed8a5b1e9cbe95553bcaf3e48",
    "honeycomb-50": "0e52cca43880b3af50d285ca0ec588a6444887728da302ef6b9c990f3d595f10",
    "c600": "377aafa89589ed7c4d1daf18f4baf458b39b1b7b7790f909dea241a5787bc100",
    "random150-s0": "dd5f519ad753386f8aa4e6d95efbc847a67bd352a372b47e09127422be3c149c",
    "random150-s1": "4b95228bcced78dc69c79cb32040584bf90ce8cd03396cb206cbb0a4202090cc",
    "random150-s2": "4b8017a633682b434cf3f0028ec160126e55218dd3d52c98e15ffce226a0edde",
    "random150-s3": "46ce2651b23dfd99319e4aab91ecaa72889c9588a618154d3e26c2492051e4e6",
}


@pytest.mark.parametrize("family", sorted(FROZEN_RANDOM_LISTS))
def test_colors_from_random_lists_are_frozen(family):
    assert _random_list_colors_digest(family) == FROZEN_RANDOM_LISTS[family]
