"""Graph contractions over ray-presentable directed multigraphs.

The core workflow: load or build a Graph, pick a target vertex set g0, run
check_theorem / check_proposition, then contract.  Companion moves (delays,
desingularization, skew products, ESSE splits, tail removal) produce related
graphs, and the ideal lattice plus K-theory invariants serve as oracles that
a move preserved what it should.
"""

from .conditions import (
    ContractionVerdict,
    Violation,
    check_proposition,
    check_theorem,
    induced_T,
)
from .contraction import (
    BvPath,
    ContractedGraph,
    InfiniteFamily,
    PathFamily,
    ck_expand,
    contract,
    count_Bv,
    enumerate_Bv,
)
from .errors import GraphError
from .graph import (
    Graph,
    Ray,
    VertexSet,
    build_graph,
    detect_tails,
    full_vertex_set,
    graphs_equal,
    is_row_finite,
    materialize,
    reachable_set,
    simple_cycles,
    singularities,
)
from .graphio import (
    RandomSpec,
    export_dot,
    generate_random,
    graph_record,
    parse_graph,
    serialize_graph,
)
from .ideals import SHFamily, check_fullness, closure_SH, enumerate_SH, is_hereditary, is_saturated, sh_hasse_dot
from .ktheory import KInvariants, adjacency_matrix, k_theory, smith_normal_form
from .moves import (
    CocycleLabeling,
    DelayPlan,
    desingularize,
    esse_split,
    fiber_zero,
    in_delay,
    in_slot_units,
    out_delay,
    out_slot_units,
    skew_product,
    tails_to_sinks,
)
from .multiplicity import OMEGA, ONE, ZERO, Mult, msum

__version__ = "0.1.0"

__all__ = [
    "BvPath",
    "CocycleLabeling",
    "ContractedGraph",
    "ContractionVerdict",
    "DelayPlan",
    "Graph",
    "GraphError",
    "InfiniteFamily",
    "KInvariants",
    "Mult",
    "OMEGA",
    "ONE",
    "PathFamily",
    "RandomSpec",
    "Ray",
    "SHFamily",
    "VertexSet",
    "Violation",
    "ZERO",
    "adjacency_matrix",
    "build_graph",
    "check_fullness",
    "check_proposition",
    "check_theorem",
    "ck_expand",
    "closure_SH",
    "contract",
    "count_Bv",
    "desingularize",
    "detect_tails",
    "enumerate_Bv",
    "enumerate_SH",
    "esse_split",
    "export_dot",
    "fiber_zero",
    "full_vertex_set",
    "generate_random",
    "graph_record",
    "graphs_equal",
    "in_delay",
    "in_slot_units",
    "induced_T",
    "is_hereditary",
    "is_row_finite",
    "is_saturated",
    "k_theory",
    "materialize",
    "msum",
    "out_delay",
    "out_slot_units",
    "parse_graph",
    "reachable_set",
    "serialize_graph",
    "sh_hasse_dot",
    "simple_cycles",
    "singularities",
    "skew_product",
    "smith_normal_form",
    "tails_to_sinks",
]
