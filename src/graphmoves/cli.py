"""Command-line surface.

Exit codes: 0 on success or a passing check, 1 when a checker reports
violations (including a failed checked contraction), 2 on input errors.
Every subcommand takes --json for a machine-readable report.  Each subcommand
imports the library modules it runs, so a process loads nothing more.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import GraphError
from .graph import Graph, VertexSet, parse_ref
from .graphio import export_dot, graph_record, parse_graph, serialize_graph


def _load(path: str) -> Graph:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise GraphError("PARSE_ERROR", f"cannot read {path}: {err}") from err
    return parse_graph(text)


def _split_csv(arg: str) -> list[str]:
    return [tok for tok in (t.strip() for t in arg.split(",")) if tok]


def _core_set(g: Graph, arg: str) -> VertexSet:
    """A core-only vertex set from a comma-separated id list."""
    refs = _split_csv(arg)
    for ref in refs:
        if ref not in g.vertex_set:
            raise GraphError(
                "UNKNOWN_VERTEX",
                f"{ref!r} is not a core vertex (ray positions cannot go here)",
                vertex=ref,
            )
    return VertexSet.make(set(refs))


def _member_set(g: Graph, arg: str) -> VertexSet:
    """A vertex set that may include ray positions written as id.xk."""
    core: set[str] = set()
    rays: dict[str, int] = {}
    for ref in _split_csv(arg):
        node = parse_ref(g, ref)
        if isinstance(node, str):
            core.add(node)
        else:
            rid, k = node
            rays[rid] = min(k, rays.get(rid, k))
    return VertexSet.make(core, rays)


def _render_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (list, tuple)):
        return "->".join(str(x) for x in value)
    return str(value)


def _violation_lines(records: list[dict]) -> list[str]:
    lines = []
    for rec in records:
        fields = " ".join(f"{k}={_render_value(v)}" for k, v in rec.items() if k != "kind")
        lines.append(f"  {rec['kind']} {fields}".rstrip())
    return lines


def _emit_graph(g: Graph, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"graph": graph_record(g)}, indent=2, ensure_ascii=False))
    else:
        print(serialize_graph(g), end="")


def _cmd_check(args) -> int:
    from .conditions import check_proposition, check_theorem

    g = _load(args.file)
    g0 = _core_set(g, args.g0)
    thm = check_theorem(g, g0)
    prop = check_proposition(g, g0)
    if args.json:
        print(json.dumps({"theorem": thm.to_record(), "proposition": prop.to_record()}, indent=2))
    else:
        for name, verdict in (("theorem", thm), ("proposition", prop)):
            print(f"{name}: {'PASS' if verdict.passed else 'FAIL'}")
            for line in _violation_lines([v.to_record() for v in verdict.violations]):
                print(line)
    return 0 if thm.passed and prop.passed else 1


def _cmd_contract(args) -> int:
    from .contraction import contract

    g = _load(args.file)
    g0 = _core_set(g, args.g0)
    mode = "unchecked" if args.unchecked else "checked"
    result = contract(g, g0, mode)
    if args.json:
        print(json.dumps(result.to_record(), indent=2, ensure_ascii=False))
    else:
        print(serialize_graph(result.graph), end="")
    return 0


def _cmd_closure(args) -> int:
    from .ideals import closure_SH

    g = _load(args.file)
    start = _member_set(g, args.set)
    closed = closure_SH(g, start)
    if args.json:
        record = {
            "core": sorted(closed.core),
            "rays": [{"ray": rid, "from": k} for rid, k in closed.rays],
        }
        print(json.dumps(record, indent=2))
    else:
        print(closed.render())
    return 0


def _cmd_ideals(args) -> int:
    from .ideals import enumerate_SH

    g = _load(args.file)
    family = enumerate_SH(g)
    if args.json:
        print(json.dumps(family.to_record(), indent=2))
    else:
        for member in family.members:
            print(member.render())
        print(f"nontrivial: {family.nontrivial_count}")
    return 0


def _cmd_ktheory(args) -> int:
    from .ktheory import k_theory

    g = _load(args.file)
    inv = k_theory(g)
    if args.json:
        print(json.dumps(inv.to_record(), indent=2))
    else:
        print(inv.render())
        print(f"factors: {list(inv.k0_torsion)}")
    return 0


def _cmd_desingularize(args) -> int:
    from .moves import desingularize

    _emit_graph(desingularize(_load(args.file)), args.json)
    return 0


def _read_records(path: str, what: str) -> list:
    """The JSON list of records in a plan or label file."""
    try:
        records = json.loads(Path(path).read_text())
    except OSError as err:
        raise GraphError("PARSE_ERROR", f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise GraphError("PARSE_ERROR", f"line {err.lineno}: {err.msg}", line=err.lineno) from err
    if not isinstance(records, list):
        raise GraphError("PARSE_ERROR", f"{what} file must be a list of records")
    return records


def _json_int(value) -> int:
    """value when it is a JSON integer; a float, string or boolean is not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def _read_plans(path: str) -> dict[str, tuple[int, ...]]:
    """Each planned vertex's stages, slot by slot."""
    records = _read_records(path, "plan")
    by_vertex: dict[str, dict[int, int]] = {}
    for rec in records:
        try:
            vertex, slot, stage = rec["vertex"], _json_int(rec["slot"]), _json_int(rec["stage"])
        except (TypeError, KeyError, ValueError) as err:
            raise GraphError("PARSE_ERROR", f"bad plan record {rec!r}") from err
        slots = by_vertex.setdefault(vertex, {})
        if slot in slots:
            raise GraphError("PARSE_ERROR", f"slot {slot} of {vertex} assigned twice")
        slots[slot] = stage
    for vertex, slots in by_vertex.items():
        if sorted(slots) != list(range(len(slots))):
            raise GraphError("PARSE_ERROR", f"slots of {vertex} must be 0..{len(slots) - 1}")
    return {vertex: tuple(slots[i] for i in range(len(slots))) for vertex, slots in by_vertex.items()}


def _cmd_delay(args) -> int:
    from .moves import DelayPlan, in_delay, out_delay

    g = _load(args.file)
    move = out_delay if args.direction == "out" else in_delay
    plans = [DelayPlan(vertex, stages) for vertex, stages in _read_plans(args.plan).items()]
    _emit_graph(move(g, plans), args.json)
    return 0


def _read_labels(path: str, g: Graph) -> tuple[int, ...]:
    """The label of each edge slot, in slot order."""
    records = _read_records(path, "label")
    slots: dict[int, int] = {}
    for rec in records:
        try:
            slot, label = _json_int(rec["slot"]), _json_int(rec["label"])
        except (TypeError, KeyError, ValueError) as err:
            raise GraphError("PARSE_ERROR", f"bad label record {rec!r}") from err
        if slot in slots:
            raise GraphError("PARSE_ERROR", f"slot {slot} labeled twice")
        slots[slot] = label
    if sorted(slots) != list(range(len(g.edges))):
        raise GraphError("PARSE_ERROR", f"labels must cover edge slots 0..{len(g.edges) - 1}")
    return tuple(slots[i] for i in range(len(slots)))


def _cmd_skew(args) -> int:
    from .moves import CocycleLabeling, skew_product

    g = _load(args.file)
    _emit_graph(skew_product(g, CocycleLabeling(args.p, _read_labels(args.labels, g))), args.json)
    return 0


def _cmd_esse(args) -> int:
    from .moves import esse_split

    g = _load(args.file)
    left, right = esse_split(g, (_core_set(g, args.v1), _core_set(g, args.v2)))
    if args.json:
        record = {"side1": graph_record(left.graph), "side2": graph_record(right.graph)}
        print(json.dumps(record, indent=2, ensure_ascii=False))
    else:
        print("side 1:")
        print(serialize_graph(left.graph), end="")
        print("side 2:")
        print(serialize_graph(right.graph), end="")
    return 0


def _cmd_tails(args) -> int:
    from .moves import tails_to_sinks

    _emit_graph(tails_to_sinks(_load(args.file)), args.json)
    return 0


def _cmd_export_dot(args) -> int:
    print(export_dot(_load(args.file), args.depth), end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphmoves")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, **extra):
        p = sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func, **extra)
        return p

    p = cmd("check", _cmd_check)
    p.add_argument("--g0", default="")
    p = cmd("contract", _cmd_contract)
    p.add_argument("--g0", default="")
    p.add_argument("--unchecked", action="store_true")
    p = cmd("closure", _cmd_closure)
    p.add_argument("--set", default="")
    cmd("ideals", _cmd_ideals)
    cmd("ktheory", _cmd_ktheory)
    cmd("desingularize", _cmd_desingularize)
    p = cmd("delay-out", _cmd_delay, direction="out")
    p.add_argument("--plan", required=True)
    p = cmd("delay-in", _cmd_delay, direction="in")
    p.add_argument("--plan", required=True)
    p = cmd("skew", _cmd_skew)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--labels", required=True)
    p = cmd("esse", _cmd_esse)
    p.add_argument("--v1", required=True)
    p.add_argument("--v2", required=True)
    cmd("tails-to-sinks", _cmd_tails)
    p = cmd("export-dot", _cmd_export_dot)
    p.add_argument("--depth", type=int, default=3)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except GraphError as err:
        if err.code == "CONDITIONS_FAILED":
            print(f"{err.code}: {err.message}", file=sys.stderr)
            verdict = err.context.get("verdict", {})
            for line in _violation_lines(verdict.get("violations", [])):
                print(line, file=sys.stderr)
            return 1
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
