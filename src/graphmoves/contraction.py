"""Path families B_v and the contraction they induce.

For a graph with distinguished vertex set g0 and complement subgraph T, B_v is
the set of paths that start at v, end at a g0 vertex, and keep every interior
range inside T.  When T is acyclic `enumerate_Bv` computes these families
exactly: finite paths are listed one by one, and paths that climb a ray and
exit at a position inside the repeating cycle are grouped into infinite
families (one family per quotient pattern, each standing for countably many
paths obtained by inserting extra full loops before a climb exit).

`contract` replaces the graph by g0 with one edge per B-path.  It needs only
how many B-paths join each pair, so it counts them (`count_Bv`) instead of
listing them: one pass over T in reverse topological order, in the semiring
N plus omega, costs time linear in T's slots times the g0 vertices reached,
however many paths there are.  Each count becomes one (source, end, count)
slot, and `graph.assemble` builds the contracted graph from them, as it does
for the two delays.  The per-edge provenance, which does list every path, is
walked only when it is read.  `enumerate_Bv`, `ck_expand` (which
recomputes a finite B_v by the leaf-rewriting rule) and `count_Bv` are three
independent routes to the same counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Mapping

from .conditions import SubgraphT, _class_node, induced_T, theorem_verdict
from .errors import GraphError
from .graph import (
    Graph,
    Node,
    VertexSet,
    assemble,
    in_slots,
    node_ref,
    out_slots,
    parse_ref,
    reach,
    source_nodes,
)
from .graphio import graph_record
from .multiplicity import Mult, OMEGA, ONE, ZERO, msum


@dataclass(frozen=True)
class BvPath:
    """One finite B-path: its vertex sequence and how many parallel copies."""

    refs: tuple[str, ...]
    count: Mult

    @property
    def length(self) -> int:
        return len(self.refs) - 1


@dataclass(frozen=True)
class Climb:
    """A cycle-class exit inside a path: the free loop parameter lives here."""

    ref_index: int  # index into refs of the position the exit is taken from
    ray: str
    position: int  # real spine index of the minimal member

    def to_record(self) -> dict:
        return {"ref_index": self.ref_index, "ray": self.ray, "position": self.position}


@dataclass(frozen=True)
class InfiniteFamily:
    """Countably many B-paths: a minimal member plus its free climb parameters.

    periods[i] is the spine period of the ray behind climbs[i]; adding one to
    parameter i inserts one more full loop (periods[i] positions) before that
    climb's exit.
    """

    refs: tuple[str, ...]
    climbs: tuple[Climb, ...]
    base_count: Mult
    periods: tuple[int, ...] = ()

    def member(self, params: tuple[int, ...]) -> tuple[str, ...]:
        """The member path with params[i] extra loops before climb exit i."""
        if len(params) != len(self.climbs):
            raise GraphError("BAD_ARGUMENT", "one loop parameter per climb required")
        by_index = {
            c.ref_index: (c, period, extra)
            for c, period, extra in zip(self.climbs, self.periods, params)
        }
        out: list[str] = []
        for i, ref in enumerate(self.refs):
            if i in by_index:
                climb, period, extra = by_index[i]
                stop = climb.position + extra * period
                out.extend(f"{climb.ray}.x{j}" for j in range(climb.position, stop + 1))
            else:
                out.append(ref)
        return tuple(out)


@dataclass(frozen=True)
class PathFamily:
    """The complete B_v: finite paths plus infinite families."""

    owner: str
    finite_part: tuple[BvPath, ...]
    infinite_families: tuple[InfiniteFamily, ...]

    @property
    def cardinality(self) -> Mult:
        total = msum(p.count for p in self.finite_part)
        if self.infinite_families:
            total = total + OMEGA
        return total

    @property
    def max_length(self) -> Mult | None:
        """N(v): the supremum of member lengths; None when B_v is empty."""
        if self.infinite_families:
            return OMEGA
        if not self.finite_part:
            return None
        return Mult(max(p.length for p in self.finite_part))


def _require_acyclic_T(t: SubgraphT) -> None:
    cycles = t.cycles
    if cycles:
        raise GraphError(
            "T_NOT_ACYCLIC",
            f"complement subgraph has {len(cycles)} cyclic component(s), e.g. {' -> '.join(cycles[0])}",
            cycles=[list(c) for c in cycles],
        )


def enumerate_Bv(g: Graph, g0: VertexSet, v: str) -> PathFamily:
    """All B-paths from v, grouped into finite paths and infinite families.

    A spine position v starts from its quotient class, so its paths' refs
    start at the class ref.
    """
    t = induced_T(g, g0)
    _require_acyclic_T(t)
    return _walk_Bv(t, v)


def _walk_Bv(t: SubgraphT, v: str) -> PathFamily:
    """B_v by a depth-first walk of the acyclic T, with an explicit stack.

    A stack entry (node, refs, count, climbs) is one step onto node: refs is
    the path so far, without node.  A g0 node ends the path.  A core T node
    continues along its out-slots; a T spine position continues first along
    its core targets, then up the spine, stopping at period_bound.  Children
    are pushed in reverse, so paths are found in slot order.
    """
    g, g0 = t.graph, t.g0
    start = _class_node(g, v)
    finite: list[BvPath] = []
    families: list[InfiniteFamily] = []
    stack: list[tuple[Node, tuple[str, ...], Mult, tuple[tuple[Climb, int], ...]]] = []

    if isinstance(start, tuple) and start[0] in t.ray_ids:
        stack.append((start, (), ONE, ()))
    else:
        # a core vertex or a g0 ray position: its slots are the first steps
        here = (node_ref(start),)
        stack.extend((node, here, m, ()) for node, m in reversed(out_slots(g, start)))

    while stack:
        node, refs, cnt, climbs = stack.pop()
        here = refs + (node_ref(node),)
        if g0.contains_node(node):
            if not climbs:
                finite.append(BvPath(here, cnt))
            else:
                families.append(InfiniteFamily(
                    refs=here,
                    climbs=tuple(c for c, _ in climbs),
                    base_count=cnt,
                    periods=tuple(p for _, p in climbs),
                ))
        elif isinstance(node, str):
            stack.extend((nxt, here, cnt * m, climbs) for nxt, m in reversed(out_slots(g, node)))
        else:
            # g0 and T partition the vertices, so node is a position of a T ray
            rid, j = node
            ray = g.ray_map[rid]
            if j + 1 < ray.period_bound:
                stack.append(((rid, j + 1), here, cnt, climbs))
            if j >= len(ray.prefix):
                climbs = climbs + ((Climb(len(here) - 1, rid, j), len(ray.cycle)),)
            stack.extend((dst, here, cnt * m, climbs) for dst, m in reversed(ray.targets(j)))

    key = lambda refs: (refs[-1], len(refs), refs)
    finite.sort(key=lambda pth: key(pth.refs))
    families.sort(key=lambda fam: key(fam.refs))
    return PathFamily(owner=v, finite_part=tuple(finite), infinite_families=tuple(families))


# A count of B-paths in N plus omega, as a plain int with None for omega: the
# counting pass does one such operation per slot and end vertex, where a Mult
# would allocate and validate a dataclass each time.  An end that is present
# has count >= 1.
Count = int | None


def _step_counts(acc: dict[Node, Count], tails: Mapping[Node, dict[Node, Count]], slots, climb: bool) -> None:
    """Add to acc the B-path counts by end node of stepping along slots.

    A slot into g0 ends its paths there; a slot into T continues with that
    node's tail counts.  A climb exit (out of a ray's cycle class) counts
    omega, since every further full loop before it gives another path.
    """
    for target, mult in slots:
        m = None if climb else mult.n
        ends = tails.get(target)
        if ends is None:  # target lies in g0
            old = acc.get(target, 0)
            acc[target] = None if m is None or old is None else old + m
            continue
        for end, c in ends.items():
            old = acc.get(end, 0)
            acc[end] = None if m is None or c is None or old is None else old + m * c


def _tail_counts(t: SubgraphT) -> dict[Node, dict[Node, Count]]:
    """Per node of the acyclic T, the B-path tails from it counted by end node.

    Nodes are taken in reverse peel order, so each T successor is counted
    before its predecessors.  A core T node steps along its out-slots; a
    spine position below period_bound continues up the spine, then exits
    along its core targets.  A node with one way on, a single-edge step into
    T or a bare climb, shares that successor's dict, which is never mutated
    once stored.
    """
    g = t.graph
    tails: dict[Node, dict[Node, Count]] = {}
    for node in reversed(t.peel_order):
        if isinstance(node, str):
            slots = out_slots(g, node)
            if len(slots) == 1 and slots[0][1].n == 1 and slots[0][0] in tails:
                tails[node] = tails[slots[0][0]]
                continue
            acc: dict[Node, Count] = {}
            climb = False
        else:
            rid, j = node
            ray = g.ray_map[rid]
            slots = ray.targets(j)
            up = tails[(rid, j + 1)] if j + 1 < ray.period_bound else {}
            if not slots:
                tails[node] = up
                continue
            acc = dict(up)
            climb = j >= len(ray.prefix)
        _step_counts(acc, tails, slots, climb)
        tails[node] = acc
    return tails


def _bv_counts(t: SubgraphT, tails: Mapping[Node, dict[Node, Count]], start: Node) -> Mapping[Node, Count]:
    """B_start counted by end node: a T spine position starts inside its own
    tails, any other node takes its out-slots as first steps (as _walk_Bv)."""
    if isinstance(start, tuple) and start[0] in t.ray_ids:
        return tails.get(start, {})
    acc: dict[Node, Count] = {}
    _step_counts(acc, tails, out_slots(t.graph, start), False)
    return acc


def _mult(c: Count) -> Mult:
    return OMEGA if c is None else Mult(c)


def count_Bv(g: Graph, g0: VertexSet, v: str) -> dict[str, Mult]:
    """|B_v| per end vertex ref, counted over T without listing a path.

    Sums to enumerate_Bv(g, g0, v).cardinality; the ends are the refs its
    paths and families end at.  A spine position v counts from its quotient
    class, as in enumerate_Bv.
    """
    t = induced_T(g, g0)
    _require_acyclic_T(t)
    counts = _bv_counts(t, _tail_counts(t), _class_node(g, v))
    return {node_ref(end): _mult(c) for end, c in sorted(counts.items(), key=lambda kv: node_ref(kv[0]))}


@dataclass(frozen=True)
class ContractedGraph:
    """The contraction onto g0; its per-edge path provenance is walked from T
    on first read, since it lists every B-path."""

    graph: Graph
    t: SubgraphT = field(repr=False, compare=False)

    @cached_property
    def provenance(self) -> Mapping[tuple[str, str], tuple]:
        """(source, end ref) -> the B-path records behind that edge or entry."""
        provenance: dict[tuple[str, str], list] = {}
        for u in self.graph.vertices:  # g0's core, in the input's vertex order
            fam = _walk_Bv(self.t, u)
            for p in fam.finite_part:
                _record_path(provenance, u, p.refs, p.count, None)
            for f in fam.infinite_families:
                _record_path(provenance, u, f.refs, OMEGA, f)
        return {k: tuple(v) for k, v in provenance.items()}

    def to_record(self) -> dict:
        record = graph_record(self.graph)
        record["provenance"] = {
            f"{s}->{d}": list(recs) for (s, d), recs in sorted(self.provenance.items())
        }
        return record


def contract(g: Graph, g0: VertexSet, mode: str = "checked") -> ContractedGraph:
    """Collapse to g0 with one edge per B-path.

    The B-paths from u to a g0 end merge into one edge u -> end, or one entry
    of a kept ray when end is its x0, whose multiplicity counts them; edges
    are sorted and entries listed by source.  Checked mode demands the full
    contractibility verdict; unchecked mode (used to study what goes wrong
    without the conditions) only requires the complement subgraph to be
    acyclic.
    """
    if mode not in ("checked", "unchecked"):
        raise GraphError("BAD_ARGUMENT", f"unknown contraction mode {mode!r}")
    t = induced_T(g, g0)  # validates g0 along the way
    if mode == "checked":
        verdict = theorem_verdict(t)
        if not verdict.passed:
            raise GraphError(
                "CONDITIONS_FAILED",
                "contraction conditions do not hold: " + ", ".join(verdict.kinds()),
                verdict=verdict.to_record(),
            )
    _require_acyclic_T(t)  # in checked mode the verdict already ran this search

    kept_rays = []
    for r in g.rays:
        if g0.ray_state(r.id) != 0:
            continue
        targets = {dst for pos in (*r.prefix, *r.cycle) for dst, _ in pos}
        if not targets <= g0.core:
            raise GraphError(
                "G0_CONTAINS_RAY",
                f"ray {r.id} lies in g0 but targets vertices outside it; "
                "contract that ray's positions as core vertices instead",
                ray=r.id,
            )
        kept_rays.append(r)

    vertices = [u for u in g.vertices if u in g0.core]
    tails = _tail_counts(t)
    # one slot per (source, end) pair; B-paths into a kept ray stop at its
    # x0, so they become its entries, kept sorted by source
    slots = sorted(
        ((u, end, _mult(c)) for u in vertices for end, c in _bv_counts(t, tails, u).items()),
        key=itemgetter(0),
    )
    return ContractedGraph(graph=assemble(vertices, slots, kept_rays), t=t)


def _record_path(provenance, src: str, refs, count: Mult, family):
    rec = {"path": list(refs), "count": count.to_json()}
    if family is not None:
        rec["climbs"] = [c.to_record() for c in family.climbs]
    provenance.setdefault((src, refs[-1]), []).append(rec)


def ck_expand(g: Graph, g0: VertexSet, v: str) -> dict[tuple[str, ...], Mult]:
    """Recompute a finite B_v by repeatedly rewriting non-g0 leaves.

    Starting from the trivial path at v's quotient class, as enumerate_Bv
    does, the first sweep always rewrites; after that only leaves ending
    outside g0 are rewritten, each leaf being replaced by its one-edge
    extensions.  Leaves that can no longer reach g0 drop out:
    sinks inside T, and climbs of a T ray whose cycle never leads back to g0.
    Returns the leaf multiset, which matches enumerate_Bv's finite part.
    """
    fam = enumerate_Bv(g, g0, v)
    if fam.cardinality.is_zero:
        raise GraphError("BV_EMPTY", f"B_{v} is empty", vertex=v)
    if fam.cardinality.is_omega:
        raise GraphError("BV_INFINITE", f"B_{v} is infinite", vertex=v)

    t = induced_T(g, g0)
    rounds_max = len(t.core) + sum(g.ray_map[rid].period_bound for rid in t.ray_ids) + 2

    # one reverse search from g0 marks the nodes below period_bound that
    # reach it; a position past the prefix has the whole cycle ahead of it
    live = reach(source_nodes(g, g0), lambda node: (src for src, _ in in_slots(g, node)))

    def is_live(node: Node) -> bool:
        if isinstance(node, tuple):
            node = (node[0], min(node[1], len(g.ray_map[node[0]].prefix)))
        return node in live

    leaves: dict[tuple[str, ...], Mult] = {(node_ref(_class_node(g, v)),): ONE}

    def sweep(first: bool) -> bool:
        nonlocal leaves
        nxt: dict[tuple[str, ...], Mult] = {}
        rewrote = False
        for refs, cnt in leaves.items():
            node = parse_ref(g, refs[-1])
            if not first and g0.contains_node(node):
                nxt[refs] = nxt.get(refs, ZERO) + cnt
                continue
            rewrote = True
            for target, m in out_slots(g, node):
                if not is_live(target):
                    continue
                child = refs + (node_ref(target),)
                nxt[child] = nxt.get(child, ZERO) + cnt * m
        leaves = nxt
        return rewrote

    sweep(True)
    for _ in range(rounds_max):
        if not sweep(False):
            return dict(sorted(leaves.items(), key=lambda kv: (kv[0][-1], len(kv[0]), kv[0])))
    raise GraphError("NONTERMINATING", f"expansion at {v} exceeded {rounds_max} sweeps", vertex=v)
