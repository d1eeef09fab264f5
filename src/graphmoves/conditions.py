"""Contractibility checks.

Given a graph and a distinguished vertex set g0, decide whether the
contraction onto g0 is admissible.  Two independent deciders are provided:
`check_theorem` works through the direct conditions (no tails, singularities
inside g0, the complement subgraph T acyclic, and four conditions a-d on
infinite paths through T), while `check_proposition` decides the equivalent
cycle/path formulation (every cycle meets g0, plus primed conditions a'-d').
Both return a ContractionVerdict listing every violation found, with concrete
finite witnesses.

All quantifiers over infinite paths reduce to finite questions: an infinite
path in a finite-core graph must eventually climb one ray forever, so a node
admits an infinite continuation inside T exactly when it reaches a full ray of
T through T-internal edges.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .errors import GraphError
from .graph import (
    Graph,
    Node,
    TailWitness,
    VertexSet,
    check_membership_args,
    cycle_witnesses,
    detect_tails,
    in_core_sources,
    in_multiplicity,
    in_slots,
    node_ref,
    out_multiplicity,
    out_slots,
    parse_ref,
    quotient_bfs,
    quotient_slots,
    reach,
    search_graph,
    singularities,
    source_nodes,
    strong_components,
)
from .multiplicity import Mult, ONE


def _check_g0(g: Graph, g0: VertexSet) -> None:
    check_membership_args(g, g0)
    for rid, k in g0.rays:
        if k != 0:
            raise GraphError(
                "UNSUPPORTED_G0",
                f"g0 may contain a ray only in full (got {rid} from position {k})",
                ray=rid,
            )


@dataclass(frozen=True)
class SubgraphT:
    """The induced complement subgraph T, plus its infinite-path markers."""

    graph: Graph
    g0: VertexSet
    core: frozenset[str]
    ray_ids: frozenset[str]

    @cached_property
    def nodes(self) -> frozenset[Node]:
        out: set[Node] = set(self.core)
        for rid in self.ray_ids:
            out.update((rid, j) for j in self.graph.ray_map[rid].positions_from(0))
        return frozenset(out)

    def contains(self, node: Node) -> bool:
        if isinstance(node, str):
            return node in self.core
        return node[0] in self.ray_ids

    def out_nodes(self, node: Node) -> list[tuple[Node, Mult]]:
        """T-internal out-slots of a T node, spine wrapped to class nodes."""
        return [(n, m) for n, m in quotient_slots(self.graph, node) if self.contains(n)]

    @cached_property
    def inf_nodes(self) -> frozenset[Node]:
        """Nodes of T admitting an infinite path that stays in T.

        With T acyclic, these are exactly the nodes reaching a full T-ray
        through T-internal edges; every spine node qualifies by climbing.
        """
        spine = (n for n in self.nodes if isinstance(n, tuple))
        return frozenset(
            reach(spine, lambda node: (src for src, _ in in_slots(self.graph, node) if self.contains(src)))
        )

    @cached_property
    def search(self) -> dict[Node, tuple[Node, ...]]:
        """T's search graph: T core vertices, then positions below period_bound."""
        return search_graph(self.graph, self.as_vertex_set())

    @cached_property
    def peel_order(self) -> list[Node]:
        """The search-graph nodes a Kahn peel removes, in removal order.

        A node is removed once all its predecessors are, so the list is a
        topological order of what it holds; it holds every node exactly when
        T is acyclic.
        """
        succ = self.search
        in_degree = dict.fromkeys(succ, 0)
        for targets in succ.values():
            for nxt in targets:
                in_degree[nxt] += 1
        ready = [n for n, d in in_degree.items() if d == 0]
        order = []
        while ready:
            node = ready.pop()
            order.append(node)
            for nxt in succ[node]:
                in_degree[nxt] -= 1
                if in_degree[nxt] == 0:
                    ready.append(nxt)
        return order

    @cached_property
    def cycles(self) -> list[tuple[str, ...]]:
        """Cycle witnesses inside T; empty exactly when T is acyclic.

        T is acyclic when the peel removes every node.  Otherwise the
        unpeeled nodes, which are closed under successors, hold every cyclic
        strong component, and each such component gives its one shortest
        cycle through its smallest ref (`cycle_witnesses`), so the list has at
        most |T| entries.
        """
        succ = self.search
        if len(self.peel_order) == len(succ):
            return []
        peeled = set(self.peel_order)
        unpeeled = {n: targets for n, targets in succ.items() if n not in peeled}
        return cycle_witnesses(unpeeled, strong_components(unpeeled))

    def as_vertex_set(self) -> VertexSet:
        return VertexSet.make(self.core, {rid: 0 for rid in self.ray_ids})


def induced_T(g: Graph, g0: VertexSet) -> SubgraphT:
    """The subgraph induced on the complement of g0."""
    _check_g0(g, g0)
    core = frozenset(g.vertex_set - g0.core)
    ray_ids = frozenset(r.id for r in g.rays if g0.ray_state(r.id) is None)
    return SubgraphT(g, g0, core, ray_ids)


# ---------------------------------------------------------------------------
# violations


@dataclass(frozen=True)
class Violation:
    """One reason g0 fails, with a finite witness; a kind sets only its fields.

    - TAILS_PRESENT: tail, a TailWitness
    - SINGULARITY_OUTSIDE_G0: vertex
    - T_CYCLE: cycle, the vertex refs of a cycle avoiding g0
    - COND_B: vertex, unreached from g0; ray, a T-ray it reaches
    - COND_C: vertex; in_degree, its in-multiplicity as JSON
    - COND_D: edge (source, target ref) from the omega emitter source
    - COND_A: vertex in g0; prefix1 and prefix2, starts of two infinite
      T-paths from it; parallel, when they leave by parallel edges
    """

    kind: str
    vertex: str = ""
    tail: TailWitness | None = None
    cycle: tuple[str, ...] = ()
    ray: str = ""
    in_degree: int | str = 0
    edge: tuple[str, ...] = ()
    source: str = ""
    prefix1: tuple[str, ...] = ()
    prefix2: tuple[str, ...] = ()
    parallel: bool = False

    def sort_key(self):
        rank, _, witness_key = _KINDS[self.kind]
        return (rank, witness_key(self))

    def to_record(self) -> dict:
        record: dict = {"kind": self.kind}
        for name in _KINDS[self.kind][1]:
            value = getattr(self, name)
            if isinstance(value, TailWitness):
                value = value.to_record()
            record[name] = list(value) if isinstance(value, tuple) else value
        return record


# kind -> (rank in a verdict, record fields in order, witness sort key)
_KINDS: dict[str, tuple[int, tuple[str, ...], Callable[[Violation], tuple]]] = {
    "TAILS_PRESENT": (0, ("tail",), lambda v: (v.tail.ray, v.tail.head)),
    "SINGULARITY_OUTSIDE_G0": (1, ("vertex",), lambda v: (v.vertex,)),
    "T_CYCLE": (2, ("cycle",), lambda v: (len(v.cycle), v.cycle)),
    "COND_B": (3, ("vertex", "ray"), lambda v: (v.vertex,)),
    "COND_C": (4, ("vertex", "in_degree"), lambda v: (v.vertex,)),
    "COND_D": (5, ("edge", "source"), lambda v: v.edge),
    "COND_A": (6, ("vertex", "prefix1", "prefix2", "parallel"), lambda v: (v.vertex, v.prefix1, v.prefix2)),
}


@dataclass(frozen=True)
class ContractionVerdict:
    passed: bool
    violations: tuple[Violation, ...]

    def kinds(self) -> tuple[str, ...]:
        return tuple(v.kind for v in self.violations)

    def to_record(self) -> dict:
        return {"pass": self.passed, "violations": [v.to_record() for v in self.violations]}


def _verdict(violations: list[Violation]) -> ContractionVerdict:
    ordered = tuple(sorted(violations, key=Violation.sort_key))
    return ContractionVerdict(passed=not ordered, violations=ordered)


# ---------------------------------------------------------------------------
# shared ambient checks


def _ambient_violations(g: Graph, g0: VertexSet) -> list[Violation]:
    out: list[Violation] = []
    for tail in detect_tails(g):
        out.append(Violation("TAILS_PRESENT", tail=tail))
    for v in sorted(singularities(g) - g0.core):
        out.append(Violation("SINGULARITY_OUTSIDE_G0", v))
    return out


def _reached_from_g0(g: Graph, g0: VertexSet) -> set[Node]:
    return quotient_bfs(g, source_nodes(g, g0))


def _in_degree_json(g: Graph, node: Node):
    return in_multiplicity(g, node).to_json()


# ---------------------------------------------------------------------------
# theorem-form checker


def _first_steps_into(g: Graph, src: Node, region: frozenset[Node]) -> list[tuple[Node, Mult]]:
    """Out-slots of a g0 vertex that land in the given T-node region."""
    return [(n, m) for n, m in quotient_slots(g, src) if n in region]


def _slot_count(slots: list[tuple[Node, Mult]]) -> int:
    """Total slots, saturating at 2 (omega counts as many)."""
    total = 0
    for _, m in slots:
        total += 2 if m.is_omega else m.n
        if total >= 2:
            return 2
    return total


def _branch(stem: list[str], slots: list[tuple[Node, Mult]]) -> Violation:
    """COND_A witness: two prefixes leaving the stem by two of the given slots."""
    refs = sorted(node_ref(n) for n, _ in slots)
    parallel = len(refs) < 2 or refs[0] == refs[1]
    last = refs[0] if parallel else refs[1]
    return Violation("COND_A", stem[0], prefix1=(*stem, refs[0]), prefix2=(*stem, last), parallel=parallel)


def _cond_a(g: Graph, t: SubgraphT, src: Node, inf: frozenset[Node]) -> Violation | None:
    """The COND_A record of a g0 vertex with two distinct infinite T-paths, else None."""
    v = node_ref(src)
    first = _first_steps_into(g, src, inf)
    if _slot_count(first) >= 2:
        return _branch([v], first)
    if not first:
        return None
    # single forced entry; search the reachable inf-region for a branch node
    start = first[0][0]
    parent: dict[Node, Node | None] = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        inf_slots = [(n, m) for n, m in t.out_nodes(node) if n in inf]
        if _slot_count(inf_slots) >= 2:
            stem = []
            back: Node | None = node
            while back is not None:
                stem.append(node_ref(back))
                back = parent[back]
            stem.append(v)
            stem.reverse()
            return _branch(stem, inf_slots)
        for n, _ in inf_slots:
            if n not in parent:
                parent[n] = node
                queue.append(n)
    return None


def check_theorem(g: Graph, g0: VertexSet) -> ContractionVerdict:
    """Direct conditions: tails, singularities, T acyclic, then (b),(c),(d),(a)."""
    return theorem_verdict(induced_T(g, g0))


def theorem_verdict(t: SubgraphT) -> ContractionVerdict:
    """check_theorem for an already induced T, reusing its cached cycle search."""
    g, g0 = t.graph, t.g0
    violations = _ambient_violations(g, g0)
    cycles = t.cycles
    violations.extend(Violation("T_CYCLE", cycle=c) for c in cycles)
    if cycles:
        return _verdict(violations)

    inf = t.inf_nodes
    reached = _reached_from_g0(g, g0)

    # (b): every start of an infinite T-path is reachable from g0
    unreached = [node for node in sorted(inf, key=node_ref) if node not in reached]
    if unreached:
        witness_rays = _nearest_rays(t)
        violations.extend(Violation("COND_B", node_ref(n), ray=witness_rays[n]) for n in unreached)

    # (c): vertices along infinite T-paths receive exactly one edge
    for node in sorted(inf, key=node_ref):
        if in_multiplicity(g, node) != ONE:
            violations.append(Violation("COND_C", node_ref(node), in_degree=_in_degree_json(g, node)))

    # (d): edges into infinite-path starts come from finite emitters
    for node in sorted(inf, key=node_ref):
        for src, _ in in_core_sources(g, node):
            if out_multiplicity(g, src).is_omega:
                violations.append(Violation("COND_D", edge=(src, node_ref(node)), source=src))

    # (a): no g0 vertex sources two distinct infinite paths through T
    for src in source_nodes(g, g0):
        witness = _cond_a(g, t, src, inf)
        if witness is not None:
            violations.append(witness)
    return _verdict(violations)


def _nearest_rays(t: SubgraphT) -> dict[Node, str]:
    """Per node of the acyclic T reaching a T-ray, the ray at the end of its
    first shortest T-path to a spine position, first in slot order.

    One pass in reverse peel order, so every successor comes first: a spine
    position gives its own ray, a core node its first successor's at the
    least distance.
    """
    nearest: dict[Node, tuple[int, str]] = {}
    for node in reversed(t.peel_order):
        if isinstance(node, tuple):
            nearest[node] = (0, node[0])
            continue
        ahead = [nearest[n] for n, _ in t.out_nodes(node) if n in nearest]
        if ahead:
            distance, ray = min(ahead, key=lambda d_ray: d_ray[0])
            nearest[node] = (distance + 1, ray)
    return {n: ray for n, (_, ray) in nearest.items()}


# ---------------------------------------------------------------------------
# proposition-form checker (independent decision route)


def _t_reaching_sets(t: SubgraphT) -> dict[str, set[Node]]:
    """Per T-ray, the T-nodes that reach that ray through T-internal edges."""
    preds: dict[Node, set[Node]] = {n: set() for n in t.nodes}
    for n in t.nodes:
        for m, _ in t.out_nodes(n):
            if m in preds:
                preds[m].add(n)
    return {
        rid: reach(((rid, j) for j in t.graph.ray_map[rid].positions_from(0)), preds.__getitem__)
        for rid in sorted(t.ray_ids)
    }


def check_proposition(g: Graph, g0: VertexSet) -> ContractionVerdict:
    """Cycle/path conditions: (1) every cycle meets g0, then (b'),(c'),(d'),(a')."""
    t = induced_T(g, g0)
    violations = _ambient_violations(g, g0)
    # (1): a cycle avoiding g0 lies in a cyclic strong component of T's
    # search graph
    bad_cycles = cycle_witnesses(t.search, strong_components(t.search))
    violations.extend(Violation("T_CYCLE", cycle=c) for c in bad_cycles)
    if bad_cycles:
        return _verdict(violations)

    reach_by_ray = _t_reaching_sets(t)
    t_inf: set[Node] = set()
    for nodes in reach_by_ray.values():
        t_inf |= nodes

    def witness_ray_for(node: Node) -> str:
        return next(rid for rid in sorted(reach_by_ray) if node in reach_by_ray[rid])

    reached = _reached_from_g0(g, g0)

    # (b'): an unreached node starting an all-T infinite path violates
    for node in sorted(t_inf, key=node_ref):
        if node not in reached:
            violations.append(Violation("COND_B", node_ref(node), ray=witness_ray_for(node)))

    # (c'): |r^-1(s(mu))| > 1 with mu avoiding g0 violates
    for node in sorted(t_inf, key=node_ref):
        if ONE < in_multiplicity(g, node):
            violations.append(Violation("COND_C", node_ref(node), in_degree=_in_degree_json(g, node)))

    # (d'): an omega emitter heading an all-T infinite tail violates
    for node in sorted(t_inf, key=node_ref):
        for src, _ in in_core_sources(g, node):
            if out_multiplicity(g, src).is_omega:
                violations.append(Violation("COND_D", edge=(src, node_ref(node)), source=src))

    # (a'): two distinct infinite paths from one g0 vertex avoiding g0 after start
    region = frozenset(t_inf)
    can_two = _two_path_nodes(t, region)
    for src in source_nodes(g, g0):
        slots = _first_steps_into(g, src, region)
        count = _slot_count(slots)
        branch = count >= 2 or (count == 1 and slots[0][0] in can_two)
        if branch:
            witness = _cond_a(g, t, src, region)
            if witness is not None:
                violations.append(witness)
    return _verdict(violations)


def _two_path_nodes(t: SubgraphT, t_inf: frozenset[Node]) -> set[Node]:
    """Least set holding every node with >= 2 slots into t_inf and every node
    whose unique slot leads into the set.

    A node outside the seeds has at most one slot, so the set is every node
    reaching a seed inside t_inf: one reverse search, linear in the slots.
    Predecessors come from the out-slots, which wrap the spine edge into a
    ray's cycle class.
    """
    slots = {n: [(m, mult) for m, mult in t.out_nodes(n) if m in t_inf] for n in t_inf}
    preds: dict[Node, list[Node]] = {n: [] for n in t_inf}
    for n, out in slots.items():
        for m, _ in out:
            preds[m].append(n)
    return reach((n for n, out in slots.items() if _slot_count(out) >= 2), preds.__getitem__)


# ---------------------------------------------------------------------------
# witness revalidation (used by the test suite's truncation oracle)


def _class_node(g: Graph, ref: str) -> Node:
    """Parse a ref, wrapping a spine position to its quotient class."""
    node = parse_ref(g, ref)
    if isinstance(node, tuple):
        node = (node[0], g.ray_map[node[0]].class_of(node[1]))
    return node


def validate_witness(g: Graph, g0: VertexSet, violation: Violation) -> bool:
    """Re-check a violation's witness against the graph it was issued for."""
    t = induced_T(g, g0)
    kind = violation.kind
    if kind == "TAILS_PRESENT":
        return any(tw == violation.tail for tw in detect_tails(g))
    if kind == "SINGULARITY_OUTSIDE_G0":
        return violation.vertex in singularities(g) and violation.vertex not in g0.core
    if kind == "T_CYCLE":
        refs = violation.cycle
        if not refs or not all(t.contains(parse_ref(g, ref)) for ref in refs):
            return False
        for i, ref in enumerate(refs):
            nxt = refs[(i + 1) % len(refs)]
            here = parse_ref(g, ref)
            step_targets = set()
            for node, _ in out_slots(g, here):
                step_targets.add(node_ref(node))
                if isinstance(node, tuple):
                    rid, j = node
                    step_targets.add(node_ref((rid, g.ray_map[rid].class_of(j))))
            if nxt not in step_targets:
                return False
        return True
    if kind == "COND_B":
        node = _class_node(g, violation.vertex)
        return node in t.inf_nodes and node not in _reached_from_g0(g, g0)
    if kind == "COND_C":
        node = _class_node(g, violation.vertex)
        degree = in_multiplicity(g, node)
        return node in t.inf_nodes and degree != ONE and degree.to_json() == violation.in_degree
    if kind == "COND_D":
        src, dst_ref = violation.edge
        node = _class_node(g, dst_ref)
        if node not in t.inf_nodes or not out_multiplicity(g, src).is_omega:
            return False
        return any(s == src for s, _ in in_core_sources(g, node))
    if kind == "COND_A":
        p1, p2 = violation.prefix1, violation.prefix2
        if violation.parallel != (p1 == p2) or not g0.contains_node(parse_ref(g, violation.vertex)):
            return False
        for prefix in (p1, p2):
            if len(prefix) < 2 or prefix[0] != violation.vertex:
                return False
            path = _t_path(g, t, prefix)
            if path is None or path[-1] not in t.inf_nodes:
                return False
        if violation.parallel:
            # one path, left by two slots of its last step
            before, last = (parse_ref(g, ref) for ref in p1[-2:])
            return _slot_count([(n, m) for n, m in quotient_slots(g, before) if n == last]) >= 2
        # two paths, which part somewhere before the shorter one ends
        n = min(len(p1), len(p2))
        return p1[:n] != p2[:n]
    return False


def _t_path(g: Graph, t: SubgraphT, refs: tuple[str, ...]) -> list[Node] | None:
    """The nodes of refs when each step follows an out-slot of the
    reachability quotient into T, else None."""
    nodes = [parse_ref(g, ref) for ref in refs]
    for here, nxt in zip(nodes, nodes[1:]):
        if not t.contains(nxt) or all(n != nxt for n, _ in quotient_slots(g, here)):
            return None
    return nodes
