"""Graph file format, DOT export, and deterministic random generation.

The file format is a JSON record with keys vertices, edges, rays; multiplicity
omega is spelled "inf".  serialize_graph emits a canonical form (sorted keys,
sorted edges) so that equal graphs produce byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .errors import GraphError
from .graph import Graph, VertexSet, build_graph, singularities
from .multiplicity import Mult, OMEGA


def parse_graph(text: str) -> Graph:
    """Parse a GraphFile record; empty record means the empty graph."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as err:
        raise GraphError("PARSE_ERROR", f"line {err.lineno}: {err.msg}", line=err.lineno) from err
    if not isinstance(record, dict):
        raise GraphError("PARSE_ERROR", "top level must be a record")
    unknown = set(record) - {"vertices", "edges", "rays"}
    if unknown:
        raise GraphError("PARSE_ERROR", f"unknown keys: {sorted(unknown)}")
    return build_graph(record)


def _targets_record(positions) -> list:
    return [
        [{"dst": dst, "mult": m.to_json()} for dst, m in sorted(pos)]
        for pos in positions
    ]


def graph_record(g: Graph) -> dict:
    """The canonical GraphFile record for g (sorted everywhere)."""
    return {
        "vertices": sorted(g.vertices),
        "edges": [
            {"src": src, "dst": dst, "mult": m.to_json()}
            for src, dst, m in sorted(g.edges)
        ],
        "rays": [
            {
                "id": r.id,
                "entry": [
                    {"src": src, "mult": m.to_json()}
                    for src, m in sorted(r.entry)
                ],
                "prefix": _targets_record(r.prefix),
                "cycle": _targets_record(r.cycle),
            }
            for r in sorted(g.rays, key=lambda r: r.id)
        ],
    }


def serialize_graph(g: Graph) -> str:
    """Canonical GraphFile text: sorted vertices, edges, entries, targets."""
    return json.dumps(graph_record(g), indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def _dot_quote(name: str) -> str:
    """name as a DOT quoted string: backslashes escaped first, then quotes."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_label(m: Mult) -> str:
    if m.is_omega:
        return ' [label="∞"]'
    if m.n > 1:
        return f' [label="{m.n}"]'
    return ""


def export_dot(g: Graph, ray_depth: int = 3) -> str:
    """Render to DOT; rays unrolled to ray_depth with a dashed continuation."""
    if ray_depth < 1:
        raise GraphError("BAD_ARGUMENT", f"ray depth must be >= 1, got {ray_depth}")
    lines = ["digraph G {", "  rankdir=LR;"]
    for v in sorted(g.vertices):
        lines.append(f"  {_dot_quote(v)};")
    for src, dst, m in sorted(g.edges):
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)}{_dot_label(m)};")
    for r in sorted(g.rays, key=lambda r: r.id):
        names = [_dot_quote(f"{r.id}.x{j}") for j in range(ray_depth)]
        for name in names:
            lines.append(f"  {name};")
        more = _dot_quote(f"{r.id}.more")
        lines.append(f'  {more} [label="..." shape=plaintext];')
        for src, m in sorted(r.entry):
            lines.append(f"  {_dot_quote(src)} -> {names[0]}{_dot_label(m)};")
        for j in range(ray_depth):
            nxt = names[j + 1] if j + 1 < ray_depth else more
            style = ";" if j + 1 < ray_depth else " [style=dashed];"
            lines.append(f"  {names[j]} -> {nxt}{style}")
            for dst, m in sorted(r.targets(j)):
                lines.append(f"  {names[j]} -> {_dot_quote(dst)}{_dot_label(m)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# random generation


@dataclass(frozen=True)
class RandomSpec:
    """Deterministic generator knobs; the same spec always yields the same draw."""

    seed: int
    core_range: tuple[int, int] = (2, 6)
    edge_density: float = 0.35
    omega_probability: float = 0.1
    ray_range: tuple[int, int] = (0, 2)
    cycle_range: tuple[int, int] = (1, 2)
    passing: bool = False
    max_retries: int = 200

    def __post_init__(self):
        for lo, hi in (self.core_range, self.ray_range, self.cycle_range):
            if lo < 0 or hi < lo:
                raise GraphError("PARSE_ERROR", f"bad range ({lo}, {hi})")
        if self.core_range[0] < 1:
            raise GraphError("PARSE_ERROR", "need at least one core vertex")
        if self.cycle_range[0] < 1:
            raise GraphError("PARSE_ERROR", "ray cycles must have length >= 1")


def _draw_mult(rng: random.Random, omega_p: float) -> Mult:
    if rng.random() < omega_p:
        return OMEGA
    return Mult(rng.randint(1, 3))


def _draw(rng: random.Random, spec: RandomSpec) -> tuple[Graph, VertexSet]:
    n = rng.randint(*spec.core_range)
    vertices = tuple(f"v{i}" for i in range(n))
    edges = []
    for src in vertices:
        for dst in vertices:
            if rng.random() < spec.edge_density:
                edges.append((src, dst, _draw_mult(rng, spec.omega_probability)))
    rays = []
    description = {"vertices": list(vertices), "edges": [], "rays": rays}
    for i in range(rng.randint(*spec.ray_range)):
        entry_srcs = rng.sample(vertices, rng.randint(1, min(2, n)))
        prefix_len = rng.randint(0, 2)
        cycle_len = rng.randint(*spec.cycle_range)
        positions = [
            [
                {"dst": rng.choice(vertices), "mult": rng.randint(1, 2)}
                for _ in range(rng.randint(0, 2))
            ]
            for _ in range(prefix_len + cycle_len)
        ]
        rays.append(
            {
                "id": f"R{i}",
                "entry": [{"src": s, "mult": _draw_mult(rng, spec.omega_probability).to_json()} for s in entry_srcs],
                "prefix": positions[:prefix_len],
                "cycle": positions[prefix_len:],
            }
        )
    description["edges"] = [{"src": s, "dst": d, "mult": m.to_json()} for s, d, m in edges]
    g = build_graph(description)
    core = set(singularities(g)) | {v for v in vertices if rng.random() < 0.5}
    return g, VertexSet.make(core)


def generate_random(spec: RandomSpec) -> tuple[Graph, VertexSet]:
    """Draw a graph and a candidate g0 containing every singularity.

    In passing mode, redraw until check_theorem passes, up to max_retries.
    """
    rng = random.Random(spec.seed)
    if not spec.passing:
        return _draw(rng, spec)
    from .conditions import check_theorem  # here, so that parsing a file never loads the checkers

    for _ in range(spec.max_retries):
        g, g0 = _draw(rng, spec)
        if check_theorem(g, g0).passed:
            return g, g0
    raise GraphError(
        "GENERATION_EXHAUSTED",
        f"no passing instance within {spec.max_retries} draws (seed {spec.seed})",
        seed=spec.seed,
    )
