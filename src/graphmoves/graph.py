"""Core data model: finite directed multigraphs with eventually-periodic tails.

A Graph has finitely many core vertices, a finite multiset of core edges with
multiplicities in the naturals extended by omega, and finitely many rays.  A
ray is a finite presentation of an infinite tail: a spine x0 -> x1 -> x2 -> ...
where every spine position also emits a finite multiset of edges back into the
core, given by a prefix list plus a nonempty repeating cycle of target
multisets.  Edges may enter a ray only at x0 (the ray's entry edges); a graph
whose tails need mid-spine in-edges must model those prefix positions as core
vertices instead.

Ray spine positions are addressed as "rayid.xk" (e.g. "L.x3").  Internally a
vertex is either a core id (str) or a spine position (ray id, index) pair;
`parse_ref` / `node_ref` convert between the two forms.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

from .errors import GraphError
from .multiplicity import Mult, OMEGA, ONE, ZERO, msum

Node = str | tuple[str, int]
Slot = tuple[Node, Mult]
Item = TypeVar("Item", bound=Hashable)

_POSITION_RE = re.compile(r"^(.+)\.x(\d+)$")


@dataclass(frozen=True)
class Ray:
    """One infinite tail: entry edges into x0, then per-position core targets."""

    id: str
    entry: tuple[tuple[str, Mult], ...]
    prefix: tuple[tuple[tuple[str, Mult], ...], ...]
    cycle: tuple[tuple[tuple[str, Mult], ...], ...]

    @property
    def period_bound(self) -> int:
        """Positions 0 .. period_bound-1 exhaust all distinct target patterns."""
        return len(self.prefix) + len(self.cycle)

    def targets(self, j: int) -> tuple[tuple[str, Mult], ...]:
        """Core-target multiset emitted by spine position j."""
        if j < len(self.prefix):
            return self.prefix[j]
        return self.cycle[(j - len(self.prefix)) % len(self.cycle)]

    def positions_from(self, k: int) -> range:
        """The quotient positions of the suffix from k: positions min(k,
        len(prefix)) .. period_bound-1, since a suffix starting inside the
        cycle still visits every cycle class."""
        return range(min(k, len(self.prefix)), self.period_bound)

    def class_of(self, j: int) -> int:
        """Quotient representative of position j (identity below period_bound)."""
        if j < self.period_bound:
            return j
        p = len(self.prefix)
        return p + (j - p) % len(self.cycle)


@dataclass(frozen=True)
class Graph:
    """Immutable graph value; all operations return new graphs."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, Mult], ...]
    rays: tuple[Ray, ...] = ()

    def __post_init__(self):
        seen: set[str] = set()
        for v in self.vertices:
            if not v:
                raise GraphError("PARSE_ERROR", "empty vertex id")
            if v in seen:
                raise GraphError("DUPLICATE_ID", f"vertex id {v!r} repeats", vertex=v)
            seen.add(v)
        ray_ids: set[str] = set()
        for r in self.rays:
            if not r.id or "." in r.id:
                raise GraphError("PARSE_ERROR", f"invalid ray id {r.id!r}", ray=r.id)
            if r.id in ray_ids or r.id in seen:
                raise GraphError("DUPLICATE_ID", f"ray id {r.id!r} repeats", ray=r.id)
            ray_ids.add(r.id)
        for v in self.vertices:
            m = _POSITION_RE.match(v)
            if m and m.group(1) in ray_ids:
                raise GraphError("DUPLICATE_ID", f"vertex id {v!r} shadows a spine position", vertex=v)
        for src, dst, mult in self.edges:
            if src not in seen:
                raise GraphError("DANGLING_ENDPOINT", f"edge source {src!r} is not a core vertex", edge=(src, dst))
            if dst not in seen:
                raise GraphError("DANGLING_ENDPOINT", f"edge target {dst!r} is not a core vertex", edge=(src, dst))
            if mult.is_zero:
                raise GraphError("ZERO_MULTIPLICITY", f"edge {src}->{dst} has multiplicity 0", edge=(src, dst))
        for r in self.rays:
            if not r.cycle:
                raise GraphError("EMPTY_CYCLE", f"ray {r.id} has an empty repeating cycle", ray=r.id)
            for u, mult in r.entry:
                if u not in seen:
                    raise GraphError("DANGLING_ENDPOINT", f"ray {r.id} entry from unknown vertex {u!r}", ray=r.id)
                if mult.is_zero:
                    raise GraphError("ZERO_MULTIPLICITY", f"ray {r.id} entry from {u} has multiplicity 0", ray=r.id)
            for part_name, part in (("prefix", r.prefix), ("cycle", r.cycle)):
                for pos in part:
                    for dst, mult in pos:
                        if dst not in seen:
                            raise GraphError(
                                "DANGLING_ENDPOINT",
                                f"ray {r.id} {part_name} targets unknown vertex {dst!r}",
                                ray=r.id,
                            )
                        if mult.is_zero:
                            raise GraphError("ZERO_MULTIPLICITY", f"ray {r.id} target {dst} has multiplicity 0", ray=r.id)
                        if mult.is_omega:
                            raise GraphError(
                                "OMEGA_RAY_TARGET",
                                f"ray {r.id} target {dst} has infinite multiplicity; spine positions emit finitely",
                                ray=r.id,
                            )

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def ray_map(self) -> Mapping[str, Ray]:
        return {r.id: r for r in self.rays}

    @cached_property
    def _out_slots(self) -> Mapping[str, tuple[tuple[Node, Mult], ...]]:
        """Out-slots of every core vertex, one per record: core edges in edge
        order, then ray entries into x0 in ray order."""
        acc: dict[str, list[tuple[Node, Mult]]] = {v: [] for v in self.vertices}
        for src, dst, mult in self.edges:
            acc[src].append((dst, mult))
        for r in self.rays:
            for u, mult in r.entry:
                acc[u].append(((r.id, 0), mult))
        return {v: tuple(slots) for v, slots in acc.items()}

    @cached_property
    def _in_slots(self) -> Mapping[Node, tuple[tuple[Node, Mult], ...]]:
        """In-slots of every core vertex and every ray's x0, one per record.

        Core edges come first in edge order, then each ray's positions in
        order.  A hit from a cycle position stands for infinitely many spine
        positions, so its slot names the class node and carries omega.
        """
        acc: dict[Node, list[tuple[Node, Mult]]] = {v: [] for v in self.vertices}
        for src, dst, mult in self.edges:
            acc[dst].append((src, mult))
        for r in self.rays:
            acc[(r.id, 0)] = list(r.entry)
            for j in range(r.period_bound):
                for dst, mult in r.targets(j):
                    acc[dst].append(((r.id, j), mult if j < len(r.prefix) else OMEGA))
        return {n: tuple(slots) for n, slots in acc.items()}


def node_ref(node: Node) -> str:
    if isinstance(node, str):
        return node
    rid, j = node
    return f"{rid}.x{j}"


def parse_ref(g: Graph, ref: str) -> Node:
    """Resolve a textual vertex reference against g."""
    if ref in g.vertex_set:
        return ref
    m = _POSITION_RE.match(ref)
    if m and m.group(1) in g.ray_map:
        return (m.group(1), int(m.group(2)))
    raise GraphError("UNKNOWN_VERTEX", f"no vertex {ref!r} in graph", vertex=ref)


def out_slots(g: Graph, node: Node) -> tuple[Slot, ...]:
    """All out-edges of node as (target node, multiplicity), one per record.
    A core vertex's slots are the graph's cached tuple; a spine position's
    start with its spine edge."""
    if isinstance(node, str):
        return g._out_slots[node]
    rid, j = node
    return (((rid, j + 1), ONE),) + g.ray_map[rid].targets(j)


def out_multiplicity(g: Graph, node: Node) -> Mult:
    return msum(m for _, m in out_slots(g, node))


def quotient_slots(g: Graph, node: Node) -> tuple[Slot, ...]:
    """out_slots in the finite reachability quotient: the spine successor is
    wrapped to its class, so every node reached lies below period_bound."""
    if isinstance(node, str):
        return g._out_slots[node]
    rid, j = node
    ray = g.ray_map[rid]
    return (((rid, ray.class_of(j + 1)), ONE),) + ray.targets(j)


def in_slots(g: Graph, node: Node) -> tuple[Slot, ...]:
    """All in-edges of node as (source node, multiplicity), one per record.

    A core vertex hit from a ray's repeating cycle gets one omega slot per hit,
    sourced at the cycle class; a spine position past x0 has only its spine
    edge, since mid-spine in-edges are excluded by the model.
    """
    if isinstance(node, tuple) and node[1] > 0:
        rid, j = node
        return (((rid, j - 1), ONE),)
    return g._in_slots[node]


def in_multiplicity(g: Graph, node: Node) -> Mult:
    """Total multiplicity received by node, over the whole graph."""
    return msum(m for _, m in in_slots(g, node))


def in_core_sources(g: Graph, node: Node) -> list[tuple[str, Mult]]:
    """Core vertices emitting into node (core edges, or ray entries for x0)."""
    return [(src, m) for src, m in in_slots(g, node) if isinstance(src, str)]


@dataclass(frozen=True)
class VertexSet:
    """A core subset plus, per ray, an all-positions-from-k suffix marker.

    Sets of this shape are exactly what the closure machinery produces: either
    no position of a ray belongs to the set, or every position from some index
    k on does.  `rays` holds sorted (ray id, k) pairs; an absent ray id means
    no position of that ray is in the set.
    """

    core: frozenset[str] = frozenset()
    rays: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def make(core: Iterable[str] = (), ray_states: Mapping[str, int] | None = None) -> VertexSet:
        states = tuple(sorted((ray_states or {}).items()))
        for rid, k in states:
            if k < 0:
                raise GraphError("BAD_ARGUMENT", f"negative ray suffix index {k} for {rid}", ray=rid)
        return VertexSet(frozenset(core), states)

    @cached_property
    def ray_states(self) -> Mapping[str, int]:
        return dict(self.rays)

    def ray_state(self, rid: str) -> int | None:
        return self.ray_states.get(rid)

    def contains_node(self, node: Node) -> bool:
        if isinstance(node, str):
            return node in self.core
        rid, j = node
        k = self.ray_states.get(rid)
        return k is not None and j >= k

    def union(self, other: VertexSet) -> VertexSet:
        states = dict(self.rays)
        for rid, k in other.rays:
            states[rid] = min(k, states.get(rid, k))
        return VertexSet.make(self.core | other.core, states)

    def intersection(self, other: VertexSet) -> VertexSet:
        states = {}
        mine = self.ray_states
        for rid, k in other.rays:
            if rid in mine:
                states[rid] = max(k, mine[rid])
        return VertexSet.make(self.core & other.core, states)

    def is_subset(self, other: VertexSet) -> bool:
        if not self.core <= other.core:
            return False
        theirs = other.ray_states
        return all(rid in theirs and theirs[rid] <= k for rid, k in self.rays)

    def is_empty(self) -> bool:
        return not self.core and not self.rays

    def render(self) -> str:
        parts = sorted(self.core)
        parts.extend(f"{rid}.x{k}+" for rid, k in self.rays)
        return "{" + ", ".join(parts) + "}"


def full_vertex_set(g: Graph) -> VertexSet:
    return VertexSet.make(g.vertices, {r.id: 0 for r in g.rays})


def check_membership_args(g: Graph, vset: VertexSet) -> None:
    for v in vset.core:
        if v not in g.vertex_set:
            raise GraphError("UNKNOWN_VERTEX", f"no core vertex {v!r} in graph", vertex=v)
    for rid, _ in vset.rays:
        if rid not in g.ray_map:
            raise GraphError("UNKNOWN_VERTEX", f"no ray {rid!r} in graph", ray=rid)


def build_graph(description: Mapping) -> Graph:
    """Validate a plain description (parsed file contents) into a Graph.

    Edge records may target a ray at position 0 (written "rayid.x0"); such
    records are folded into the ray's entry list.  Malformed input raises
    PARSE_ERROR.
    """
    if not isinstance(description, Mapping):
        raise GraphError("PARSE_ERROR", "graph description must be a mapping")
    try:
        return _build_graph(description)
    except (TypeError, KeyError, AttributeError, ValueError) as err:
        raise GraphError("PARSE_ERROR", f"malformed record: {err}") from err


def _as_list(value, what: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise GraphError("PARSE_ERROR", f"{what} must be a list, got {value!r}")
    return value


def _build_graph(description: Mapping) -> Graph:
    vertices = tuple(_as_list(description.get("vertices", ()), "vertices"))
    for v in vertices:
        if not isinstance(v, str):
            raise GraphError("PARSE_ERROR", f"vertex ids must be strings, got {v!r}")
    ray_descs = _as_list(description.get("rays", ()), "rays")
    ray_ids = []
    for rd in ray_descs:
        rid = rd.get("id")
        if not isinstance(rid, str):
            raise GraphError("PARSE_ERROR", f"ray ids must be strings, got {rid!r}")
        ray_ids.append(rid)

    extra_entries: dict[str, list[tuple[str, Mult]]] = {rid: [] for rid in ray_ids}
    edges = []
    for e in _as_list(description.get("edges", ()), "edges"):
        src, dst = e["src"], e["dst"]
        mult = Mult.from_json(e.get("mult", 1))
        m = _POSITION_RE.match(dst) if isinstance(dst, str) else None
        if m and m.group(1) in extra_entries and dst not in vertices:
            if int(m.group(2)) != 0:
                raise GraphError(
                    "DANGLING_ENDPOINT",
                    f"edge {src}->{dst}: rays accept in-edges only at position 0",
                    edge=(src, dst),
                )
            extra_entries[m.group(1)].append((src, mult))
        else:
            edges.append((src, dst, mult))

    def _slots(raw, what: str, end: str) -> tuple[tuple[str, Mult], ...]:
        return tuple((t[end], Mult.from_json(t.get("mult", 1))) for t in _as_list(raw, what))

    def _positions(rd, key: str) -> tuple[tuple[tuple[str, Mult], ...], ...]:
        return tuple(_slots(pos, f"{key} position", "dst") for pos in _as_list(rd.get(key, ()), key))

    rays = []
    for rd, rid in zip(ray_descs, ray_ids):
        entry = _slots(rd.get("entry", ()), "entry", "src") + tuple(extra_entries[rid])
        rays.append(Ray(rid, entry, prefix=_positions(rd, "prefix"), cycle=_positions(rd, "cycle")))
    return Graph(vertices=vertices, edges=tuple(edges), rays=tuple(rays))


# ---------------------------------------------------------------------------
# derived queries


def singularities(g: Graph) -> frozenset[str]:
    """Sinks and infinite emitters.  Spine positions are never singular."""
    out = set()
    for v in g.vertices:
        m = out_multiplicity(g, v)
        if m.is_zero or m.is_omega:
            out.add(v)
    return frozenset(out)


def is_row_finite(g: Graph) -> bool:
    return not any(out_multiplicity(g, v).is_omega for v in g.vertices)


def reach(seeds: Iterable[Item], step: Callable[[Item], Iterable[Item]]) -> set[Item]:
    """The seeds plus everything reached from them, where step(item) yields
    the items one move away: one worklist search, linear in the moves."""
    seen = set(seeds)
    work = list(seen)
    while work:
        for nxt in step(work.pop()):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


def quotient_bfs(g: Graph, sources: Iterable[Node]) -> set[Node]:
    return reach(sources, lambda node: (succ for succ, _ in quotient_slots(g, node)))


def source_nodes(g: Graph, vset: VertexSet) -> list[Node]:
    """The quotient nodes of vset, which must lie in g (check_membership_args)."""
    nodes: list[Node] = list(vset.core)
    for rid, k in vset.rays:
        nodes.extend((rid, j) for j in g.ray_map[rid].positions_from(k))
    return nodes


def reachable_set(g: Graph, frm: VertexSet) -> VertexSet:
    """All vertices reachable from frm, frm included (hereditary closure)."""
    check_membership_args(g, frm)
    reached = quotient_bfs(g, source_nodes(g, frm))
    core = {n for n in reached if isinstance(n, str)}
    states = dict(frm.ray_states)
    for r in g.rays:
        if any(u in core for u, _ in r.entry):
            states[r.id] = 0
    return VertexSet.make(core | set(frm.core), states)


def search_graph(g: Graph, restrict_to: VertexSet | None = None) -> dict[Node, tuple[Node, ...]]:
    """The finite graph every cycle question runs on, as a successor map.

    Nodes are restrict_to's core vertices in vertex order, then positions
    0 .. period_bound-1 of each ray whose x0 lies in restrict_to.  A node's
    successors are its out_slots that are nodes, once each, in first-record
    order.  A cycle visiting spine positions beyond one full period has a
    shorter twin exiting within the first period, so each ray is cut after
    period_bound positions: (rid, period_bound) is not a node, so there is no
    edge back into the cycle.  Cycles re-enter a ray only at x0, so rays
    whose x0 lies outside restrict_to cannot carry a cycle at all.
    """
    restrict = restrict_to if restrict_to is not None else full_vertex_set(g)
    check_membership_args(g, restrict)
    nodes: list[Node] = [v for v in g.vertices if v in restrict.core]
    for r in g.rays:
        if restrict.ray_state(r.id) == 0:
            nodes.extend((r.id, j) for j in r.positions_from(0))
    keep = set(nodes)
    return {n: tuple(dict.fromkeys(m for m, _ in out_slots(g, n) if m in keep)) for n in nodes}


def strong_components(succ: Mapping[Node, tuple[Node, ...]]) -> list[list[Node]]:
    """The strongly connected components of succ that carry a cycle: two or
    more nodes, or one node with a self-loop.

    Tarjan's algorithm with an explicit stack of (node, successor iterator)
    frames, so it runs in linear time and never recurses.  Every successor
    must itself be a key of succ.
    """
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    stack: list[Node] = []
    on_stack: set[Node] = set()
    components: list[list[Node]] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            node, pending = frames[-1]
            for nxt in pending:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    frames.append((nxt, iter(succ[nxt])))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in succ[node]:
                        components.append(component)
    return components


def cycle_witnesses(
    succ: Mapping[Node, tuple[Node, ...]], components: list[list[Node]]
) -> list[tuple[str, ...]]:
    """One shortest cycle per cyclic component, sorted by (length, refs).

    Each cycle runs through its component's smallest ref and starts there,
    which is the rotation simple_cycles lists it in.  One breadth-first
    search inside the component finds it: the first dequeued node with an
    edge back to the start closes a shortest cycle through it.
    """
    out = []
    for component in components:
        members = set(component)
        start = min(component, key=node_ref)
        parent: dict[Node, Node | None] = {start: None}
        queue = deque([start])
        last = None
        while last is None:
            node = queue.popleft()
            for nxt in succ[node]:
                if nxt == start:
                    last = node
                    break
                if nxt in members and nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        refs = []
        while last is not None:
            refs.append(node_ref(last))
            last = parent[last]
        out.append(tuple(reversed(refs)))
    out.sort(key=lambda c: (len(c), c))
    return out


def simple_cycles(g: Graph, restrict_to: VertexSet | None = None) -> list[tuple[str, ...]]:
    """Every simple cycle of search_graph(g, restrict_to), canonically ordered.

    A cycle's refs start at its smallest ref; the list is sorted by (length,
    refs).  Johnson's circuit search (Johnson 1975) over a work list of
    subgraphs: each cyclic strong component lists the cycles through its
    smallest ref, then goes back on the list without that node.  So every
    cycle is found once, from its smallest ref, in O((nodes + edges) *
    (cycles + 1)) time.  The list can grow exponentially with the graph, so
    the checkers and contract never call this; they decide acyclicity in
    linear time.
    """
    cycles: list[tuple[str, ...]] = []
    work = [search_graph(g, restrict_to)]
    while work:
        succ = work.pop()
        for component in strong_components(succ):
            members = set(component)
            start = min(component, key=node_ref)
            inner = {n: tuple(m for m in succ[n] if m in members) for n in component}
            cycles.extend(_cycles_through(inner, start))
            work.append({n: tuple(m for m in inner[n] if m != start) for n in component if n != start})
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def _cycles_through(succ: Mapping[Node, tuple[Node, ...]], start: Node) -> list[tuple[str, ...]]:
    """Johnson's search for the simple cycles of a strong component through
    start, with an explicit stack of successor iterators.

    A node stays blocked while no path from it back to start avoids the
    current path; `waiting[n]` holds the blocked nodes to release once n is.
    """
    path = [start]
    closed = [False]  # per path node: a cycle was found below it
    blocked = {start}
    waiting: dict[Node, set[Node]] = {}
    frames = [iter(succ[start])]
    out = []
    while frames:
        for nxt in frames[-1]:
            if nxt == start:
                out.append(tuple(node_ref(n) for n in path))
                closed[-1] = True
            elif nxt not in blocked:
                path.append(nxt)
                closed.append(False)
                blocked.add(nxt)
                frames.append(iter(succ[nxt]))
                break
        else:
            frames.pop()
            node = path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                release = [node]
                while release:
                    n = release.pop()
                    if n in blocked:
                        blocked.discard(n)
                        release.extend(waiting.pop(n, ()))
            else:
                for nxt in succ[node]:
                    waiting.setdefault(nxt, set()).add(node)
    return out


@dataclass(frozen=True)
class TailWitness:
    """A maximal infinite tail: head, core chain, then a bare spine suffix."""

    head: str
    core_chain: tuple[str, ...]
    ray: str
    suffix_start: int

    def to_record(self) -> dict:
        return {
            "head": self.head,
            "core_chain": list(self.core_chain),
            "ray": self.ray,
            "suffix_start": self.suffix_start,
        }


def detect_tails(g: Graph) -> list[TailWitness]:
    """Find every maximal tail (infinite path whose edges are forced both ways)."""
    witnesses = []
    for ray in sorted(g.rays, key=lambda r: r.id):
        if any(pos for pos in ray.cycle):
            continue  # spine keeps emitting into the core, never a bare tail
        j_min = len(ray.prefix)
        while j_min > 0 and not ray.prefix[j_min - 1]:
            j_min -= 1
        if j_min > 0:
            witnesses.append(TailWitness(node_ref((ray.id, j_min)), (), ray.id, j_min))
            continue
        # bare from x0: extend backwards through single-in single-out vertices
        chain: list[str] = []
        head: Node = (ray.id, 0)
        visited: set[Node] = {head}
        while True:
            if in_multiplicity(g, head) != ONE:
                break
            sources = in_core_sources(g, head)
            if len(sources) != 1:
                break  # the one in-edge comes from a spine position, which also emits its spine
            u = sources[0][0]
            if u in visited or out_multiplicity(g, u) != ONE:
                break
            if isinstance(head, str):
                chain.append(head)
            head = u
            visited.add(u)
        chain.reverse()
        witnesses.append(TailWitness(node_ref(head), tuple(chain), ray.id, 0))
    return witnesses


def assemble(vertices: Iterable[str], slots: Iterable[tuple[str, Node, Mult]], rays: Sequence[Ray]) -> Graph:
    """The graph on vertices built from (source, target node, mult) slots.

    Parallel slots between two core vertices merge into one edge, and the
    edges are sorted.  A slot into (rid, 0) becomes an entry of that ray, in
    slot order, and is never merged; each of rays keeps its id, prefix and
    cycle and takes exactly these entries.
    """
    edges: dict[tuple[str, str], Mult] = {}
    entries: dict[str, list[tuple[str, Mult]]] = {r.id: [] for r in rays}
    for src, dst, m in slots:
        if isinstance(dst, str):
            edges[(src, dst)] = edges.get((src, dst), ZERO) + m
        else:
            entries[dst[0]].append((src, m))
    return Graph(
        vertices=tuple(vertices),
        edges=tuple((src, dst, m) for (src, dst), m in sorted(edges.items())),
        rays=tuple(Ray(r.id, tuple(entries[r.id]), r.prefix, r.cycle) for r in rays),
    )


def unrolled(ray: Ray, depth: int) -> tuple[list[str], list[tuple[str, str, Mult]]]:
    """Spine positions 0 .. depth of ray as core vertices named "rayid.xk",
    with their edges: the entry edges, then each position below depth's spine
    edge and core-target edges.  Position depth is a sink."""
    names = [f"{ray.id}.x{j}" for j in range(depth + 1)]
    edges = [(u, names[0], m) for u, m in ray.entry]
    for j in range(depth):
        edges.append((names[j], names[j + 1], ONE))
        edges.extend((names[j], dst, m) for dst, m in ray.targets(j))
    return names, edges


def materialize(g: Graph, depth: int) -> Graph:
    """Finite truncation: every ray unrolled to spine positions 0 .. depth.

    Position depth emits no edge, so it is a sink.
    """
    if depth < 0:
        raise GraphError("BAD_ARGUMENT", f"materialize depth must be nonnegative, got {depth}")
    vertices = list(g.vertices)
    edges = list(g.edges)
    for ray in g.rays:
        names, ray_edges = unrolled(ray, depth)
        vertices.extend(names)
        edges.extend(ray_edges)
    return Graph(vertices=tuple(vertices), edges=tuple(edges), rays=())


# ---------------------------------------------------------------------------
# canonical form and structural equality


def _canon_multiset(pairs: Iterable[tuple[str, Mult]]) -> tuple[tuple[str, int | str], ...]:
    acc: dict[str, Mult] = {}
    for name, m in pairs:
        acc[name] = acc.get(name, ZERO) + m
    return tuple(sorted((name, m.to_json()) for name, m in acc.items()))


def _canon_ray(ray: Ray):
    prefix = [_canon_multiset(pos) for pos in ray.prefix]
    cycle = [_canon_multiset(pos) for pos in ray.cycle]
    for d in range(1, len(cycle) + 1):
        if len(cycle) % d == 0 and cycle == cycle[:d] * (len(cycle) // d):
            cycle = cycle[:d]
            break
    while prefix and prefix[-1] == cycle[-1]:
        prefix.pop()
        cycle = [cycle[-1]] + cycle[:-1]
    return (ray.id, _canon_multiset(ray.entry), tuple(prefix), tuple(cycle))


def canonical_key(g: Graph):
    """A hashable form invariant under parallel-edge splits, edge order and
    redundant ray presentations (unrolled periods, prefix tails equal to the cycle)."""
    edge_acc: dict[tuple[str, str], Mult] = {}
    for src, dst, m in g.edges:
        edge_acc[(src, dst)] = edge_acc.get((src, dst), ZERO) + m
    edges = tuple(sorted((src, dst, m.to_json()) for (src, dst), m in edge_acc.items()))
    rays = tuple(sorted((_canon_ray(r) for r in g.rays), key=lambda t: t[0]))
    return (tuple(sorted(g.vertices)), edges, rays)


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Labeled structural equality up to canonical form."""
    return canonical_key(a) == canonical_key(b)
