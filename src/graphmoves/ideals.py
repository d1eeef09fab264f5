"""Saturated hereditary subsets: closure, predicates, enumeration, fullness.

A subset is hereditary when it contains everything its members reach, and
saturated when it already contains every vertex whose finitely many edges all
land inside it.  The closure runs a reachability pass, then unit propagation
(Dowling and Gallier 1984): a node joins once its last out-slot lands inside,
and a spine position, whose spine edge is one of its slots, obeys the same
rule, so ray states keep the canonical NONE/ALL_FROM(k) shape.

Every saturated hereditary set carries ray states k <= prefix length: a state
inside the repeating cycle would let hereditarity feed saturation around the
cycle and drag the state back to the prefix boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import GraphError
from .graph import (
    Graph,
    Node,
    VertexSet,
    check_membership_args,
    full_vertex_set,
    in_slots,
    out_multiplicity,
    out_slots,
    reach,
    reachable_set,
)
from .graphio import _dot_quote

MAX_MEMBERS = 4096  # enumerate_SH refuses a graph with more saturated hereditary subsets


def _outside_counts(g: Graph, h: VertexSet) -> dict[Node, int]:
    """How many out-slots leave h, for each node outside h that saturation
    may force: the finite, nonsink core vertices, and the last period_bound
    spine positions below each ray state (deeper ones have their spine edge
    outside, and every state _saturation passes is at most len(prefix))."""
    counts: dict[Node, int] = {}
    for v in g.vertex_set - h.core:
        slots = out_slots(g, v)
        if slots and not out_multiplicity(g, v).is_omega:
            counts[v] = sum(not h.contains_node(dst) for dst, _ in slots)
    for rid, k in h.rays:
        for j in range(max(0, k - g.ray_map[rid].period_bound), k):
            counts[(rid, j)] = sum(not h.contains_node(dst) for dst, _ in out_slots(g, (rid, j)))
    return counts


def _saturation(g: Graph, hereditary: VertexSet) -> VertexSet:
    """The smallest saturated set containing a hereditary set; it stays
    hereditary."""
    # a hereditary set holds every cycle target, so a state inside the cycle
    # is forced back to the prefix boundary at once
    h = VertexSet.make(hereditary.core, {rid: min(k, len(g.ray_map[rid].prefix)) for rid, k in hereditary.rays})
    counts = _outside_counts(g, h)

    def freed(node: Node):
        for src, _ in in_slots(g, node):
            if src in counts:
                counts[src] -= 1
                if not counts[src]:
                    yield src

    joined = reach([n for n, c in counts.items() if not c], freed)
    if not joined:
        return h
    states = dict(h.rays)
    for node in joined:
        if isinstance(node, tuple):
            states[node[0]] = min(states[node[0]], node[1])
    return VertexSet.make(h.core.union(n for n in joined if isinstance(n, str)), states)


def closure_SH(g: Graph, x: VertexSet) -> VertexSet:
    """The smallest saturated hereditary set containing x."""
    return _saturation(g, reachable_set(g, x))


def is_hereditary(g: Graph, h: VertexSet) -> bool:
    return reachable_set(g, h).is_subset(h)


def is_saturated(g: Graph, h: VertexSet) -> bool:
    check_membership_args(g, h)
    return 0 not in _outside_counts(g, h).values()


@dataclass(frozen=True)
class SHFamily:
    """All saturated hereditary subsets, with the covering pairs of inclusion."""

    members: tuple[VertexSet, ...]
    covers: tuple[tuple[int, int], ...]  # sorted (i, j): members[j] covers members[i]
    nontrivial_count: int

    @cached_property
    def order(self) -> tuple[tuple[int, int], ...]:
        """(i, j) whenever members[i] < members[j], read off the covers."""
        up: dict[int, list[int]] = {}
        for i, j in self.covers:
            up.setdefault(i, []).append(j)
        step = lambda i: up.get(i, ())
        return tuple((i, j) for i in range(len(self.members)) for j in sorted(reach(step(i), step)))

    def to_record(self) -> dict:
        return {
            "members": [m.render() for m in self.members],
            "nontrivial": self.nontrivial_count,
        }


def enumerate_SH(g: Graph) -> SHFamily:
    """Every saturated hereditary subset, walked up from the bottom along its
    covers: those of S are the minimal closures of S with one atom outside.
    Raises TOO_LARGE once the walk has found more than MAX_MEMBERS sets."""
    atoms = [VertexSet.make({v}) for v in g.vertices]
    for r in g.rays:
        atoms.extend(VertexSet.make((), {r.id: k}) for k in range(len(r.prefix) + 1))
    # s is hereditary, so the closure of s with a is the saturation of s
    # with everything a reaches: each atom's reach is found once
    reached_of = {a: reachable_set(g, a) for a in atoms}
    covers_of: dict[VertexSet, list[VertexSet]] = {}
    bottom = closure_SH(g, VertexSet.make())
    found = {bottom}

    def up(s: VertexSet) -> list[VertexSet]:
        above = {_saturation(g, s.union(reached_of[a])) for a in atoms if not a.is_subset(s)}
        covers_of[s] = [c for c in above if not any(b != c and b.is_subset(c) for b in above)]
        found.update(covers_of[s])
        if len(found) > MAX_MEMBERS:
            raise GraphError("TOO_LARGE", f"more than {MAX_MEMBERS} saturated hereditary subsets", bound=MAX_MEMBERS)
        return covers_of[s]

    seen = reach([bottom], up)
    members = tuple(sorted(seen, key=lambda vs: (len(vs.core), tuple(sorted(vs.core)), vs.rays)))
    index = {m: i for i, m in enumerate(members)}
    covers = tuple(sorted((index[s], index[c]) for s, above in covers_of.items() for c in above))
    full = full_vertex_set(g)
    nontrivial = sum(1 for m in members if not m.is_empty() and m != full)
    return SHFamily(members=members, covers=covers, nontrivial_count=nontrivial)


def check_fullness(g: Graph, g0: VertexSet) -> bool:
    """Does the closure of g0 swallow the whole vertex set?"""
    return closure_SH(g, g0) == full_vertex_set(g)


def sh_hasse_dot(family: SHFamily) -> str:
    """DOT rendering of the family's Hasse diagram (covering pairs only)."""
    lines = ["digraph sh_lattice {", "  rankdir=BT;"]
    for i, m in enumerate(family.members):
        lines.append(f"  n{i} [label={_dot_quote(m.render())}];")
    lines.extend(f"  n{i} -> n{j};" for i, j in family.covers)
    lines.append("}")
    return "\n".join(lines) + "\n"
