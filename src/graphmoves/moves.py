"""Companion moves: desingularization, delays, ESSE splitting, skew products,
and tail removal.

Each move is a pure Graph -> Graph construction chosen so that the contraction
machinery can undo or analyze it: desingularization and the two delays are
inverted by contracting back onto the original vertex set, an ESSE split is
literally a pair of contractions of the bipartite middle graph, and skew
products / tail removal produce inputs the checkers accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .contraction import ContractedGraph, contract
from .errors import GraphError
from .graph import (
    Graph,
    Ray,
    VertexSet,
    assemble,
    detect_tails,
    in_slots,
    node_ref,
    out_multiplicity,
    out_slots,
    parse_ref,
    unrolled,
)
from .multiplicity import Mult, ONE


def _fresh_ids(g: Graph, wanted: Sequence[str]) -> None:
    taken = set(g.vertices) | set(g.ray_map)
    for name in wanted:
        if name in taken:
            raise GraphError("DUPLICATE_ID", f"generated id {name!r} already taken", vertex=name)


# ---------------------------------------------------------------------------
# desingularization


def desingularize(g: Graph) -> Graph:
    """Push every infinite emitter's omega edges onto a new ray.

    Each omega target w of an emitter v contributes one direct edge v -> w and
    one position {w} in the new ray's repeating cycle (targets visited round
    robin, sorted by id).  Finite edges stay at v.  The result is row finite.
    """
    tails = detect_tails(g)
    if tails:
        raise GraphError(
            "HAS_TAILS",
            "desingularization needs a tail-free graph; run tails_to_sinks first",
            tails=[t.to_record() for t in tails],
        )
    for r in g.rays:
        for u, m in r.entry:
            if m.is_omega:
                raise GraphError(
                    "OMEGA_ENTRY",
                    f"cannot desingularize the infinite entry {u} -> {r.id}.x0: "
                    "ray positions cannot carry the distributed targets",
                    ray=r.id,
                )

    emitters = sorted(v for v in g.vertices if out_multiplicity(g, v).is_omega)
    if not emitters:
        return g
    new_ray_ids = {v: f"{v}_inf" for v in emitters}
    _fresh_ids(g, list(new_ray_ids.values()))

    edges = [(src, dst, m) for src, dst, m in g.edges if not m.is_omega]
    new_rays: list[Ray] = []
    for v in emitters:
        omega_targets = sorted({dst for dst, m in out_slots(g, v) if m.is_omega})
        edges.extend((v, w, ONE) for w in omega_targets)
        new_rays.append(
            Ray(
                id=new_ray_ids[v],
                entry=((v, ONE),),
                prefix=(),
                cycle=tuple(((w, ONE),) for w in omega_targets),
            )
        )
    return Graph(vertices=g.vertices, edges=tuple(edges), rays=g.rays + tuple(new_rays))


# ---------------------------------------------------------------------------
# delays


@dataclass(frozen=True)
class DelayPlan:
    """Per-slot stage assignment for one vertex's out- or in-edges.

    stages[i] applies to the i-th slot in canonical order (see out_slot_units
    and in_slot_units); a slot at stage k attaches k steps along the gantlet.
    """

    vertex: str
    stages: tuple[int, ...]

    def __post_init__(self):
        if any(s < 0 for s in self.stages):
            raise GraphError("STAGE_MISMATCH", "stages must be nonnegative", vertex=self.vertex)


def out_slot_units(g: Graph, v: str) -> list[str]:
    """Unit out-slots of v in canonical order: one ref per multiplicity unit."""
    if v not in g.vertex_set:
        raise GraphError("UNKNOWN_VERTEX", f"no core vertex {v!r} in graph", vertex=v)
    if out_multiplicity(g, v).is_omega:
        raise GraphError("INFINITE_DEGREE", f"{v} emits infinitely many edges", vertex=v)
    return _units(out_slots(g, v))


def in_slot_units(g: Graph, v: str) -> list[str]:
    """Unit in-slots of core vertex v in canonical order (source refs)."""
    if v not in g.vertex_set:
        raise GraphError("UNKNOWN_VERTEX", f"no core vertex {v!r} in graph", vertex=v)
    slots = in_slots(g, v)
    for src, m in slots:
        if m.is_omega:
            if isinstance(src, str):
                raise GraphError("INFINITE_DEGREE", f"{v} receives infinitely many edges", vertex=v)
            raise GraphError(
                "INFINITE_DEGREE",
                f"{v} is hit by ray {src[0]}'s repeating cycle",
                vertex=v,
                ray=src[0],
            )
    return _units(slots)


def _units(slots) -> list[str]:
    """One ref per multiplicity unit of finite slots, sorted by ref."""
    pairs = sorted(((node_ref(node), m) for node, m in slots), key=lambda pair: pair[0])
    return [ref for ref, m in pairs for _ in range(m.n)]


def _validated_plans(g: Graph, plans: Sequence[DelayPlan], units_of) -> dict[str, tuple[DelayPlan, list[str]]]:
    out: dict[str, tuple[DelayPlan, list[str]]] = {}
    for plan in plans:
        if plan.vertex in out:
            raise GraphError("STAGE_MISMATCH", f"two plans for {plan.vertex}", vertex=plan.vertex)
        units = units_of(g, plan.vertex)
        if len(plan.stages) != len(units):
            raise GraphError(
                "STAGE_MISMATCH",
                f"{plan.vertex}: plan has {len(plan.stages)} stages for {len(units)} edge slots",
                vertex=plan.vertex,
            )
        out[plan.vertex] = (plan, units)
    return out


def _gantlet_names(g: Graph, v: str, depth: int) -> list[str]:
    names = [f"{v}_{k}" for k in range(1, depth + 1)]
    _fresh_ids(g, names)
    return [v] + names


def out_delay(g: Graph, plans: Sequence[DelayPlan]) -> Graph:
    """Replace each planned vertex by a gantlet re-sourcing its out-edges.

    The vertex keeps its in-edges; an out-slot at stage k leaves from the k-th
    gantlet vertex instead.
    """
    planned = _validated_plans(g, plans, out_slot_units)
    vertices = list(g.vertices)
    slots = [(src, dst, m) for src, dst, m in g.edges if src not in planned]
    slots += [(u, (r.id, 0), m) for r in g.rays for u, m in r.entry if u not in planned]
    for v in sorted(planned):
        plan, units = planned[v]
        names = _gantlet_names(g, v, max(plan.stages, default=0))
        vertices.extend(names[1:])
        slots += [(names[k], names[k + 1], ONE) for k in range(len(names) - 1)]
        slots += [(names[stage], parse_ref(g, ref), ONE) for ref, stage in zip(units, plan.stages)]
    return assemble(vertices, slots, g.rays)


def in_delay(g: Graph, plans: Sequence[DelayPlan]) -> Graph:
    """Replace each planned vertex by a gantlet re-targeting its in-edges.

    The gantlet feeds downward into the vertex; an in-slot at stage k lands k
    steps up the gantlet.  Out-edges are unaffected.
    """
    planned = _validated_plans(g, plans, in_slot_units)
    vertices = list(g.vertices)
    gantlets: dict[str, list[str]] = {}
    stages: dict[tuple[str, str], list[int]] = {}  # (source ref, v) -> its units' stages
    for v in sorted(planned):
        plan, units = planned[v]
        gantlets[v] = _gantlet_names(g, v, max(plan.stages, default=0))
        vertices.extend(gantlets[v][1:])
        for ref, stage in zip(units, plan.stages):
            stages.setdefault((ref, v), []).append(stage)
    queues = {key: iter(unit_stages) for key, unit_stages in stages.items()}

    def landing(src_ref: str, dst: str, m: Mult) -> list[tuple[str, Mult]]:
        """Where src_ref's slot into dst lands: dst itself, or for a planned
        dst one gantlet vertex per unit, at that unit's stage."""
        if dst not in planned:
            return [(dst, m)]
        queue = queues[(src_ref, dst)]
        return [(gantlets[dst][next(queue)], ONE) for _ in range(m.n)]

    def remap(rid: str, positions, base: int):
        return tuple(
            tuple(hit for dst, m in targets for hit in landing(f"{rid}.x{base + j}", dst, m))
            for j, targets in enumerate(positions)
        )

    slots = [(names[k + 1], names[k], ONE) for names in gantlets.values() for k in range(len(names) - 1)]
    slots += [(src, *hit) for src, dst, m in g.edges for hit in landing(src, dst, m)]
    slots += [(u, (r.id, 0), m) for r in g.rays for u, m in r.entry]
    rays = [Ray(r.id, r.entry, remap(r.id, r.prefix, 0), remap(r.id, r.cycle, len(r.prefix))) for r in g.rays]
    return assemble(vertices, slots, rays)


# ---------------------------------------------------------------------------
# elementary strong shift equivalence


def esse_split(g3: Graph, partition: tuple[VertexSet, VertexSet]) -> tuple[ContractedGraph, ContractedGraph]:
    """Contract a bipartite middle graph onto each side of its partition."""
    v1, v2 = partition
    if g3.rays:
        raise GraphError("HAS_RAYS", "the middle graph of a split must be finite")
    if v1.rays or v2.rays:
        raise GraphError("NOT_BIPARTITE", "partition sides must be core vertex sets")
    if v1.core & v2.core or (v1.core | v2.core) != g3.vertex_set:
        raise GraphError(
            "NOT_BIPARTITE",
            "the two sides must partition the vertex set",
            v1=sorted(v1.core),
            v2=sorted(v2.core),
        )
    for src, dst, _ in g3.edges:
        if (src in v1.core) == (dst in v1.core):
            raise GraphError(
                "NOT_BIPARTITE",
                f"edge {src} -> {dst} does not cross the partition",
                edge=(src, dst),
            )
    sides = []
    for i, side in enumerate((v1, v2), start=1):
        try:
            sides.append(contract(g3, side, "checked"))
        except GraphError as err:
            if err.code != "CONDITIONS_FAILED":
                raise
            raise GraphError(
                "CONDITIONS_FAILED",
                f"side {i} contraction fails: {err.message}",
                side=i,
                **err.context,
            ) from err
    return (sides[0], sides[1])


# ---------------------------------------------------------------------------
# skew products


@dataclass(frozen=True)
class CocycleLabeling:
    """A Z_p label per edge record, aligned with the graph's edge order."""

    p: int
    labels: tuple[int, ...]

    def __post_init__(self):
        if self.p < 1:
            raise GraphError("PARSE_ERROR", f"modulus must be >= 1, got {self.p}")
        if any(not 0 <= l < self.p for l in self.labels):
            raise GraphError("PARSE_ERROR", "labels must lie in [0, p)")


def skew_product(g: Graph, c: CocycleLabeling) -> Graph:
    """The fibered graph over Z_p: edge e sends fiber k to fiber k + c(e)."""
    if g.rays:
        raise GraphError("HAS_RAYS", "skew products are defined for finite graphs here")
    if len(c.labels) != len(g.edges):
        raise GraphError(
            "STAGE_MISMATCH",
            f"{len(c.labels)} labels for {len(g.edges)} edge records",
        )

    def at(v: str, k: int) -> str:
        return f"{v}@{k}"

    _fresh_ids(g, [at(v, k) for v in g.vertices for k in range(c.p)])
    vertices = tuple(at(v, k) for v in g.vertices for k in range(c.p))
    edges = tuple(
        (at(src, k), at(dst, (k + label) % c.p), m)
        for (src, dst, m), label in zip(g.edges, c.labels)
        for k in range(c.p)
    )
    return Graph(vertices=vertices, edges=edges)


def fiber_zero(g: Graph) -> VertexSet:
    """The canonical g0 for undoing a skew product: every fiber-0 vertex."""
    return VertexSet.make({v for v in g.vertices if v.endswith("@0")})


# ---------------------------------------------------------------------------
# tails to sinks


def tails_to_sinks(g: Graph) -> Graph:
    """Collapse every maximal tail onto its head, which becomes a sink."""
    witnesses = detect_tails(g)
    if not witnesses:
        return g
    doomed_core: set[str] = set()
    cut: dict[str, int] = {}  # ray id -> number of spine positions kept as core
    for w in witnesses:
        doomed_core.update(w.core_chain)
        node = parse_ref(g, w.head)
        if isinstance(node, str):
            cut[w.ray] = 0  # the whole ray vanishes into the core head
        else:
            cut[w.ray] = node[1] + 1  # the head position stays as the sink

    vertices = list(g.vertices)
    edges: list[tuple[str, str, Mult]] = []
    rays: list[Ray] = []
    for r in g.rays:
        if r.id not in cut:
            rays.append(r)
            continue
        if cut[r.id]:
            # the kept positions end at the sink head; no chain vertex or core
            # head enters this ray, since its one out-edge feeds its own tail
            names, ray_edges = unrolled(r, cut[r.id] - 1)
            vertices.extend(names)
            edges.extend(ray_edges)
    # a core head's single out-slot fed the tail: it enters a doomed chain
    # vertex, or the ray, whose entries vanish with it
    for src, dst, m in g.edges:
        if src in doomed_core or dst in doomed_core:
            continue
        edges.append((src, dst, m))
    vertices = [v for v in vertices if v not in doomed_core]
    return Graph(vertices=tuple(vertices), edges=tuple(edges), rays=tuple(rays))
