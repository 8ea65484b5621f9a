"""Square list-coloring toolkit for subcubic planar graphs of girth >= 6."""

from .coloring import (
    CHOOSABLE,
    INCONCLUSIVE,
    NOT_CHOOSABLE,
    ChoosabilityResult,
    degeneracy,
    find_L_coloring,
    greedy_extend,
    is_k_choosable,
    is_proper,
)
from .discharging import (
    AuditReport,
    CutTwoVertex,
    OneVertex,
    SixCycleTwoVertex,
    SpacingViolation,
    apply_r1,
    claim3_bound_check,
    discharge_audit,
    find_reducible_config,
    reduce_cut_two_vertex,
    render_audit,
)
from .errors import (
    BudgetExceeded,
    GenerationFailed,
    InconsistentRotation,
    ListTooSmall,
    NotCutVertex,
    NotInClass,
    NotTwoVertex,
    ParseError,
    PartialColoring,
    PreconditionViolated,
    UnknownName,
)
from .formats import (
    from_graph6,
    parse_graphs,
    parse_lists,
    to_graph6,
    uniform_lists,
    write_coloring,
    write_graph_text,
)
from .generate import (
    GeneratorSpec,
    canonical_code,
    enumerate_class,
    named,
    random_instance,
)
from .graph_core import (
    INF,
    Graph,
    biconnected_components,
    cut_vertices,
    distance,
    girth,
    girth_at_least,
    is_connected,
    is_subcubic,
    max_degree,
    square,
)
from .planar_embed import (
    check_class,
    check_rotation,
    faces,
    find_planar_embedding,
    is_planar,
)
from .reducer import color_square_7lists, extend_sixcycle, verify_lemma2_tables

__version__ = "0.1.0"
