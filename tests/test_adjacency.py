"""Oracle for the adjacency index: every in- and out-query derived from the
cached edge maps must equal a brute-force scan of the edge records and ray
positions, list order included."""

from graphmoves.conditions import induced_T
from graphmoves.errors import GraphError
from graphmoves.graph import Graph, Node, in_core_sources, in_multiplicity
from graphmoves.graphio import RandomSpec, generate_random
from graphmoves.moves import in_slot_units
from graphmoves.multiplicity import Mult, OMEGA, ONE, msum

SEEDS = range(300)


def _instances():
    for seed in SEEDS:
        spec = RandomSpec(seed=seed, ray_range=(1, 3), cycle_range=(1, 3), omega_probability=0.2)
        yield generate_random(spec)


def scan_in_multiplicity(g: Graph, node: Node) -> Mult:
    if isinstance(node, str):
        total = msum(m for src, dst, m in g.edges if dst == node)
        for r in g.rays:
            total = total + msum(m for pos in r.prefix for dst, m in pos if dst == node)
            if any(dst == node for pos in r.cycle for dst, _ in pos):
                total = total + OMEGA
        return total
    rid, j = node
    if j == 0:
        return msum(m for _, m in g.ray_map[rid].entry)
    return ONE


def scan_in_core_sources(g: Graph, node: Node) -> list:
    if isinstance(node, str):
        return [(src, m) for src, dst, m in g.edges if dst == node]
    rid, j = node
    return list(g.ray_map[rid].entry) if j == 0 else []


def scan_in_slot_units(g: Graph, v: str) -> list[str]:
    pairs = []
    for src, dst, m in g.edges:
        if dst == v:
            if m.is_omega:
                raise GraphError("INFINITE_DEGREE", f"{v} receives infinitely many edges", vertex=v)
            pairs.append((src, m))
    for r in g.rays:
        if any(dst == v for pos in r.cycle for dst, _ in pos):
            raise GraphError("INFINITE_DEGREE", f"{v} is hit by ray {r.id}'s repeating cycle", vertex=v, ray=r.id)
        for j, pos in enumerate(r.prefix):
            pairs.extend((f"{r.id}.x{j}", m) for dst, m in pos if dst == v)
    units = []
    for ref, m in sorted(pairs, key=lambda pair: pair[0]):
        units.extend([ref] * m.n)
    return units


def scan_out_nodes(t, node: Node) -> list:
    """T-internal out-slots from T's own edge copies, as induced_T once built them."""
    g = t.graph
    core_edges = [(s, d, m) for s, d, m in g.edges if s in t.core and d in t.core]
    entries = [(u, r.id, m) for r in g.rays if r.id in t.ray_ids for u, m in r.entry if u in t.core]
    if isinstance(node, str):
        slots = [(dst, m) for src, dst, m in core_edges if src == node]
        slots.extend(((rid, 0), m) for src, rid, m in entries if src == node)
        return slots
    rid, j = node
    ray = g.ray_map[rid]
    slots = [((rid, ray.class_of(j + 1)), ONE)]
    slots.extend((dst, m) for dst, m in ray.targets(j) if dst in t.core)
    return slots


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except GraphError as err:
        return ("error", err.code, err.message, err.context)


def _nodes(g: Graph) -> list[Node]:
    nodes: list[Node] = list(g.vertices)
    for r in g.rays:
        nodes.extend((r.id, j) for j in range(r.period_bound + 2))
    return nodes


def test_instances_cover_rays_and_omega():
    graphs = [g for g, _ in _instances()]
    assert all(g.rays for g in graphs)
    assert sum(1 for g in graphs if any(m.is_omega for _, _, m in g.edges)) > 50
    assert sum(1 for g in graphs if any(r.prefix for r in g.rays)) > 100


def test_in_queries_match_scan():
    for g, _ in _instances():
        for node in _nodes(g):
            assert in_multiplicity(g, node) == scan_in_multiplicity(g, node), node
            assert in_core_sources(g, node) == scan_in_core_sources(g, node), node


def test_in_slot_units_match_scan():
    outcomes = {"units": 0, "core": 0, "cycle": 0}
    for g, _ in _instances():
        for v in g.vertices:
            got, want = _outcome(in_slot_units, g, v), _outcome(scan_in_slot_units, g, v)
            assert got == want, v
            if got[0] == "ok":
                outcomes["units"] += 1
            else:
                outcomes["cycle" if "ray" in got[3] else "core"] += 1
    assert min(outcomes.values()) > 50, outcomes  # lists and both error branches


def test_t_out_nodes_match_scan():
    for g, g0 in _instances():
        t = induced_T(g, g0)
        for node in sorted(t.nodes, key=str):
            assert t.out_nodes(node) == scan_out_nodes(t, node), node
