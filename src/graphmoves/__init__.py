"""Graph contractions over ray-presentable directed multigraphs.

The core workflow: load or build a Graph, pick a target vertex set g0, run
check_theorem / check_proposition, then contract.  Companion moves (delays,
desingularization, skew products, ESSE splits, tail removal) produce related
graphs, and the ideal lattice plus K-theory invariants serve as oracles that
a move preserved what it should.

Each exported name is written once, in the table below.  `import graphmoves`
loads no submodule: a name is loaded from its module on first use (PEP 562)
and cached, so a caller pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "conditions": "ContractionVerdict Violation check_proposition check_theorem induced_T",
    "contraction": "BvPath ContractedGraph InfiniteFamily PathFamily ck_expand contract count_Bv enumerate_Bv",
    "errors": "GraphError",
    "graph": (
        "Graph Ray VertexSet build_graph detect_tails full_vertex_set graphs_equal is_row_finite materialize"
        " reachable_set simple_cycles singularities"
    ),
    "graphio": "RandomSpec export_dot generate_random graph_record parse_graph serialize_graph",
    "ideals": "SHFamily check_fullness closure_SH enumerate_SH is_hereditary is_saturated sh_hasse_dot",
    "ktheory": "KInvariants adjacency_matrix k_theory smith_normal_form",
    "moves": (
        "CocycleLabeling DelayPlan desingularize esse_split fiber_zero in_delay in_slot_units out_delay"
        " out_slot_units skew_product tails_to_sinks"
    ),
    "multiplicity": "OMEGA ONE ZERO Mult msum",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
