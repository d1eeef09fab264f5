"""Saturated hereditary subsets: closure, predicates, enumeration, fullness.

A subset is hereditary when it contains everything its members reach, and
saturated when it already contains every vertex whose finitely many edges all
land inside it.  The closure interleaves a reachability pass with saturation
rounds; on rays the membership states stay in the canonical NONE/ALL_FROM(k)
shape, with saturation pulling k back one spine position at a time.

Every saturated hereditary set carries ray states k <= prefix length: a state
inside the repeating cycle would let hereditarity feed saturation around the
cycle and drag the state back to the prefix boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

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

MAX_CORE = 20  # enumerate_SH refuses graphs with more core vertices


def closure_SH(g: Graph, x: VertexSet) -> VertexSet:
    """The smallest saturated hereditary set containing x."""
    check_membership_args(g, x)
    current = reachable_set(g, x)
    while True:
        added = False
        for w in g.vertices:
            if w in current.core:
                continue
            slots = out_slots(g, w)
            if not slots or out_multiplicity(g, w).is_omega:
                continue  # sinks and infinite emitters are never forced
            if all(current.contains_node(node) for node, _ in slots):
                current = current.union(VertexSet.make({w}))
                added = True
        for r in g.rays:
            k = current.ray_state(r.id)
            if k is None or k == 0:
                continue
            if all(dst in current.core for dst, _ in r.targets(k - 1)):
                states = dict(current.ray_states)
                states[r.id] = k - 1
                current = VertexSet.make(current.core, states)
                added = True
        if not added:
            return current


def is_hereditary(g: Graph, h: VertexSet) -> bool:
    check_membership_args(g, h)
    for v in h.core:
        if not all(h.contains_node(node) for node, _ in out_slots(g, v)):
            return False
    for rid, k in h.rays:
        ray = g.ray_map[rid]
        # positions from k on: a state inside the cycle has every class ahead
        for j in range(min(k, len(ray.prefix)), ray.period_bound):
            if not all(dst in h.core for dst, _ in ray.targets(j)):
                return False
    return True


def is_saturated(g: Graph, h: VertexSet) -> bool:
    check_membership_args(g, h)
    for w in g.vertices:
        if w in h.core:
            continue
        slots = out_slots(g, w)
        if not slots or out_multiplicity(g, w).is_omega:
            continue
        if all(h.contains_node(node) for node, _ in slots):
            return False
    for r in g.rays:
        k = h.ray_state(r.id)
        if k is None or k == 0:
            continue
        if all(dst in h.core for dst, _ in r.targets(k - 1)):
            return False
    return True


@dataclass(frozen=True)
class SHFamily:
    """All saturated hereditary subsets, with their inclusion order."""

    members: tuple[VertexSet, ...]
    order: tuple[tuple[int, int], ...]  # (i, j) whenever members[i] < members[j]
    nontrivial_count: int

    def to_record(self) -> dict:
        return {
            "members": [m.render() for m in self.members],
            "nontrivial": self.nontrivial_count,
        }


def enumerate_SH(g: Graph) -> SHFamily:
    """Every saturated hereditary subset, found by closing unions with atoms."""
    if len(g.vertices) > MAX_CORE:
        raise GraphError(
            "TOO_LARGE",
            f"{len(g.vertices)} core vertices exceeds the enumeration bound {MAX_CORE}",
            bound=MAX_CORE,
        )
    atoms = [VertexSet.make({v}) for v in g.vertices]
    for r in g.rays:
        atoms.extend(VertexSet.make((), {r.id: k}) for k in range(len(r.prefix) + 1))

    seen = reach(
        [closure_SH(g, VertexSet.make())],
        lambda s: (closure_SH(g, s.union(a)) for a in atoms if not a.is_subset(s)),
    )

    members = tuple(sorted(seen, key=lambda vs: (len(vs.core), tuple(sorted(vs.core)), vs.rays)))
    order = tuple(
        (i, j)
        for i, a in enumerate(members)
        for j, b in enumerate(members)
        if i != j and a != b and a.is_subset(b)
    )
    full = full_vertex_set(g)
    nontrivial = sum(1 for m in members if not m.is_empty() and m != full)
    return SHFamily(members=members, order=order, nontrivial_count=nontrivial)


def check_fullness(g: Graph, g0: VertexSet) -> bool:
    """Does the closure of g0 swallow the whole vertex set?"""
    return closure_SH(g, g0) == full_vertex_set(g)


def sh_hasse_dot(family: SHFamily) -> str:
    """DOT rendering of the family's Hasse diagram (covering relations only)."""
    strict = set(family.order)
    lines = ["digraph sh_lattice {", "  rankdir=BT;"]
    for i, m in enumerate(family.members):
        lines.append(f"  n{i} [label={_dot_quote(m.render())}];")
    for i, j in sorted(strict):
        if any((i, k) in strict and (k, j) in strict for k in range(len(family.members))):
            continue  # not a covering pair
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
