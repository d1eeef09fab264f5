"""Saturated hereditary subsets: closure, predicates, enumeration, fullness.

A subset is hereditary when it contains everything its members reach, and
saturated when it already contains every vertex whose finitely many edges all
land inside it.  The closure runs a reachability pass, then saturation passes;
on rays the membership states keep the canonical NONE/ALL_FROM(k) shape, and
one pass pulls k back past every spine position that saturation forces.

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
    VertexSet,
    check_membership_args,
    full_vertex_set,
    out_multiplicity,
    out_slots,
    reach,
    reachable_set,
)
from .graphio import _dot_quote

MAX_MEMBERS = 4096  # enumerate_SH refuses a graph with more saturated hereditary subsets


def _saturate(g: Graph, h: VertexSet) -> VertexSet | None:
    """h grown by every core vertex and ray position that saturation forces
    in one pass (a whole forced period forces the rest of the cycle), or None
    when it forces nothing."""
    core, states = set(h.core), dict(h.rays)
    for w in g.vertices:
        if w in core:
            continue
        slots = out_slots(g, w)
        if not slots or out_multiplicity(g, w).is_omega:
            continue  # sinks and infinite emitters are never forced
        if all(dst in core if isinstance(dst, str) else states.get(dst[0]) == 0 for dst, _ in slots):
            core.add(w)
    for rid, start in h.rays:
        ray, k = g.ray_map[rid], start
        while k and all(dst in core for dst, _ in ray.targets(k - 1)):
            k -= 1
            if k == start - len(ray.cycle) > len(ray.prefix):
                k = len(ray.prefix)
        states[rid] = k
    if len(core) == len(h.core) and states == h.ray_states:
        return None
    return VertexSet.make(core, states)


def _saturation(g: Graph, hereditary: VertexSet) -> VertexSet:
    """The smallest saturated set containing a hereditary set; it stays
    hereditary."""
    # a hereditary set holds every cycle target, so a state inside the cycle
    # is forced back to the prefix boundary at once
    current = VertexSet.make(hereditary.core, {rid: min(k, len(g.ray_map[rid].prefix)) for rid, k in hereditary.rays})
    while (grown := _saturate(g, current)) is not None:
        current = grown
    return current


def closure_SH(g: Graph, x: VertexSet) -> VertexSet:
    """The smallest saturated hereditary set containing x."""
    return _saturation(g, reachable_set(g, x))


def is_hereditary(g: Graph, h: VertexSet) -> bool:
    check_membership_args(g, h)
    for v in h.core:
        if not all(h.contains_node(node) for node, _ in out_slots(g, v)):
            return False
    for rid, k in h.rays:
        ray = g.ray_map[rid]
        # positions from k on: a state inside the cycle has every class ahead
        for j in ray.positions_from(k):
            if not all(dst in h.core for dst, _ in ray.targets(j)):
                return False
    return True


def is_saturated(g: Graph, h: VertexSet) -> bool:
    check_membership_args(g, h)
    return _saturate(g, h) is None


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
