"""Output-identity harness: one canonical line per case and layer, hashed.

A refactor that promises byte-identical outputs shows it here: every layer's
lines are hashed into one sha256 digest, and `tests/golden.sha256` keeps the
digests of the committed code, so a failing comparison names the layer.

The corpus has three parts:

- the six fixtures, with every core subset as g0
- the perfbench cases of seeds 1-3, run through the op each case names
  (`perfbench/families.py` is loaded read-only)
- DRAWS `generate_random` draws: omega 0, 0.1 and 0.3, 0-3 rays, a
  passing g0 in every fourth draw and a random one otherwise; every other
  draw with rays also runs with g0 holding every ray in full

Usage, from the repository root:

    python tests/golden.py                # print the digest file
    python tests/golden.py > tests/golden.sha256
    python tests/golden.py --dump DIR     # write DIR/<layer>.txt, full lines

A line is "<case id>\\t<payload>".  The payload is compact sorted JSON of the
layer's records, or "error:<code>" where a call raises GraphError.  The
`order` layer is the exception: it holds `repr()` of every Graph that
`contract`, `out_delay` and `in_delay` return, so it sees the order of
edges, rays and entries, which `graph_record` sorts away.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import multiprocessing
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import graphmoves as gm  # noqa: E402
from graphmoves.fixtures import FIXTURES  # noqa: E402
from graphmoves.graph import Graph, VertexSet  # noqa: E402
from graphmoves.graphio import graph_record  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "golden.sha256"
DRAWS = 2000
DRAW_CHUNK = 250
PERFBENCH_SEEDS = (1, 2, 3)
PROVENANCE_MAX_VERTICES = 12  # contract records carry provenance up to here

LAYERS = (
    "graph",
    "theorem",
    "proposition",
    "contract",
    "count_Bv",
    "closure",
    "ideals",
    "ktheory",
    "desingularize",
    "out_delay",
    "in_delay",
    "esse",
    "skew",
    "tails_to_sinks",
    "export_dot",
    "order",
)


def _payload(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


class Dump:
    """Collects lines per layer; `run` records a call's result or error code."""

    def __init__(self):
        self.lines: dict[str, list[str]] = {layer: [] for layer in LAYERS}

    def add(self, layer: str, case: str, payload: str) -> None:
        self.lines[layer].append(f"{case}\t{payload}")

    def run(self, layer: str, case: str, fn, *args) -> None:
        """Record fn(*args), a JSON-able record, or the code of its GraphError."""
        try:
            record = fn(*args)
        except gm.GraphError as err:
            self.add(layer, case, f"error:{err.code}")
            return
        self.add(layer, case, _payload(record))

    def order(self, case: str, graph: Graph) -> Graph:
        """Record graph's field order in the order layer; return graph."""
        self.add("order", case, repr(graph))
        return graph

    def digests(self) -> dict[str, str]:
        return {
            layer: hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
            for layer, lines in self.lines.items()
        }


# ---------------------------------------------------------------------------
# per-layer records


def _contract_record(dump: Dump, case: str, g: Graph, g0: VertexSet) -> dict:
    out = {}
    for mode in ("checked", "unchecked"):
        try:
            result = gm.contract(g, g0, mode)
        except gm.GraphError as err:
            out[mode] = f"error:{err.code}"
            continue
        dump.order(f"{case}/{mode}", result.graph)
        small = len(g.vertices) + sum(r.period_bound for r in g.rays) <= PROVENANCE_MAX_VERTICES
        out[mode] = result.to_record() if small else graph_record(result.graph)
        break
    return out


def _order_whole(dump: Dump, case: str, g: Graph) -> Graph:
    """Record contract onto all of g, which only merges parallel edges and
    entries, in the order layer; return g."""
    dump.order(f"{case}/whole", gm.contract(g, gm.full_vertex_set(g), "unchecked").graph)
    return g


def _delay_record(dump: Dump, case: str, move, g: Graph, plans: list) -> dict:
    """graph_record of the delayed graph.  Its gantlet vertices follow the
    original ones, out of sorted order, so the order layer also takes its
    contraction onto itself."""
    return graph_record(_order_whole(dump, case, dump.order(case, move(g, plans))))


def _count_record(g: Graph, g0: VertexSet) -> dict:
    return {
        v: {end: m.to_json() for end, m in gm.count_Bv(g, g0, v).items()}
        for v in sorted(g0.core)
    }


def _closure_starts(g: Graph) -> list[VertexSet]:
    """The empty set, and ray states at 0, the prefix boundary and past the
    first period (enumerate_SH closes every core atom)."""
    starts = [VertexSet.make()]
    for r in g.rays:
        for k in sorted({0, len(r.prefix), r.period_bound + 1}):
            starts.append(VertexSet.make((), {r.id: k}))
    return starts


def _closure_record(g: Graph, starts: list[VertexSet]) -> list:
    return [[s.render(), gm.closure_SH(g, s).render()] for s in starts]


def _fullness_record(g: Graph, g0: VertexSet) -> dict:
    return {"closure": gm.closure_SH(g, g0).render(), "full": gm.check_fullness(g, g0)}


def _ideals_record(g: Graph) -> dict:
    family = gm.enumerate_SH(g)
    return {
        "record": family.to_record(),
        "order": [list(pair) for pair in family.order],
        "hasse": gm.sh_hasse_dot(family),
    }


def _ktheory_record(g: Graph) -> dict:
    """k_theory, or where it refuses a finite row-finite graph (a sink), the
    SNF diagonal of A^t - I, which k_theory would read its invariants from."""
    try:
        return {"k": gm.k_theory(g).to_record()}
    except gm.GraphError as err:
        if err.code != "HAS_SINKS":
            raise
        out = {"k": f"error:{err.code}"}
    _, a = gm.adjacency_matrix(g)
    n = len(a)
    _, d, _ = gm.smith_normal_form([[a[j][i] - int(i == j) for j in range(n)] for i in range(n)])
    out["snf"] = [d[i][i] for i in range(n)]
    return out


def _plans(g: Graph, units_of, rng: random.Random) -> list:
    plans = []
    for v in g.vertices:
        if rng.random() < 0.5:
            continue
        try:
            units = units_of(g, v)
        except gm.GraphError:
            continue
        plans.append(gm.DelayPlan(v, tuple(rng.randint(0, 2) for _ in units)))
    return plans


def _skew_record(g: Graph, rng: random.Random) -> dict:
    p = rng.randint(1, 3)
    labels = gm.CocycleLabeling(p, tuple(rng.randrange(p) for _ in g.edges))
    sk = gm.skew_product(g, labels)
    return {"graph": graph_record(sk), "fiber_zero": gm.fiber_zero(sk).render()}


def _esse_record(g: Graph, v1: VertexSet, v2: VertexSet) -> list:
    return [graph_record(side.graph) for side in gm.esse_split(g, (v1, v2))]


def _verdicts(dump: Dump, case: str, g: Graph, g0: VertexSet) -> None:
    dump.run("theorem", case, lambda: gm.check_theorem(g, g0).to_record())
    dump.run("proposition", case, lambda: gm.check_proposition(g, g0).to_record())


def all_layers(dump: Dump, case: str, g: Graph, g0s: list[VertexSet], seed: int) -> None:
    """Every layer on one small graph, with each g0 of g0s."""
    rng = random.Random(seed)
    dump.add("graph", case, _payload(gm.serialize_graph(g)))
    for i, g0 in enumerate(g0s):
        sub = f"{case}/{i}"
        _verdicts(dump, sub, g, g0)
        dump.run("contract", sub, _contract_record, dump, sub, g, g0)
        dump.run("count_Bv", sub, _count_record, g, g0)
        dump.run("closure", sub, _fullness_record, g, g0)
    dump.run("closure", case, _closure_record, g, _closure_starts(g))
    dump.run("ideals", case, _ideals_record, g)
    dump.run("ktheory", case, _ktheory_record, g)
    dump.run("desingularize", case, lambda: graph_record(gm.desingularize(g)))
    _order_whole(dump, case, g)
    for move, units_of in ((gm.out_delay, gm.out_slot_units), (gm.in_delay, gm.in_slot_units)):
        layer = move.__name__
        dump.run(layer, case, _delay_record, dump, f"{case}/{layer}", move, g, _plans(g, units_of, rng))
    side = g0s[0]
    rest = VertexSet.make(set(g.vertices) - side.core)
    dump.run("esse", case, _esse_record, g, side, rest)
    dump.run("skew", case, _skew_record, g, rng)
    dump.run("tails_to_sinks", case, lambda: graph_record(gm.tails_to_sinks(g)))
    dump.run("export_dot", case, gm.export_dot, g, 1 + seed % 3)


# ---------------------------------------------------------------------------
# corpus


def fixture_cases(dump: Dump) -> None:
    for name, build in FIXTURES.items():
        g = build()
        core = sorted(g.vertices)
        g0s = [VertexSet.make(c) for k in range(len(core) + 1) for c in combinations(core, k)]
        if g.rays:
            g0s.append(gm.full_vertex_set(g))
        all_layers(dump, name, g, g0s, 0)


def draw_cases(dump: Dump, seeds: range) -> None:
    omegas = (0.0, 0.1, 0.3)
    for i in seeds:
        spec = gm.RandomSpec(
            seed=i,
            omega_probability=omegas[i % 3],
            ray_range=(0, 3),
            core_range=(2, 5),
            cycle_range=(1, 3),
            passing=i % 4 == 1,
        )
        try:
            g, g0 = gm.generate_random(spec)
        except gm.GraphError as err:
            dump.add("graph", f"draw{i}", f"error:{err.code}")
            continue
        g0s = [g0]
        if g.rays and i % 2 == 0:
            g0s.append(VertexSet.make(g0.core, {r.id: 0 for r in g.rays}))
        all_layers(dump, f"draw{i}", g, g0s, i)


def _load_families():
    spec = importlib.util.spec_from_file_location("perfbench_families", ROOT / "perfbench" / "families.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_case(dump: Dump, case_id: str, case: dict) -> None:
    """The op a perfbench case names, as perfbench's in-process runner calls it."""
    op, a, vs = case["op"], case["args"], VertexSet.make
    try:
        g = gm.parse_graph(case["text"])
    except gm.GraphError as err:
        dump.add("graph", case_id, f"error:{err.code}")
        return
    dump.add("graph", case_id, _payload(gm.serialize_graph(g)))
    if op == "check":
        _verdicts(dump, case_id, g, vs(a["g0"]))
    elif op == "contract":
        dump.run("contract", case_id, lambda: graph_record(dump.order(case_id, gm.contract(g, vs(a["g0"]), "checked").graph)))
    elif op in ("desingularize", "out_delay", "in_delay"):
        extra = ()
        if op != "desingularize":
            extra = ([gm.DelayPlan(p["vertex"], tuple(p["stages"])) for p in a["plans"]],)

        def round_trip():
            mid = getattr(gm, op)(g, *extra)
            if op != "desingularize":
                dump.order(f"{case_id}/{op}", mid)
            if "core" not in a:  # the cli workload runs the move alone
                return [graph_record(mid)]
            back = dump.order(f"{case_id}/contract", gm.contract(mid, vs(a["core"]), "checked").graph)
            return [graph_record(mid), graph_record(back)]

        dump.run(op, case_id, round_trip)
    elif op == "esse":
        dump.run("esse", case_id, _esse_record, g, vs(a["v1"]), vs(a["v2"]))
    elif op == "ktheory":
        dump.run("ktheory", case_id, _ktheory_record, g)
    elif op == "ideals":
        dump.run("ideals", case_id, _ideals_record, g)
    elif op == "closure":
        dump.run("closure", case_id, lambda: gm.closure_SH(g, vs(a["set"])).render())
    elif op == "fullness":
        dump.run("closure", case_id, _fullness_record, g, vs(a["g0"]))
    elif op == "tails_to_sinks":
        dump.run("tails_to_sinks", case_id, lambda: graph_record(gm.tails_to_sinks(g)))
    elif op == "export_dot":
        dump.run("export_dot", case_id, gm.export_dot, g, a.get("depth", 3))
    else:
        raise ValueError(f"unknown perfbench op {op!r}")


def perfbench_cases(dump: Dump, seed: int) -> None:
    families = _load_families()
    for workload in sorted(families.WORKLOADS):
        for case in families.WORKLOADS[workload](seed):
            perfbench_case(dump, f"pb{seed}:{workload}:{case['id']}", case)


def _part(part: tuple[str, int]) -> dict[str, list[str]]:
    """The lines of one slice of the corpus: the fixtures, one perfbench
    seed, or DRAW_CHUNK draws from a start seed."""
    kind, arg = part
    dump = Dump()
    if kind == "fixtures":
        fixture_cases(dump)
    elif kind == "perfbench":
        perfbench_cases(dump, arg)
    else:
        draw_cases(dump, range(arg, min(arg + DRAW_CHUNK, DRAWS)))
    return dump.lines


def build() -> Dump:
    """The whole corpus, its slices run on two worker processes and their
    lines joined in corpus order."""
    parts = [("fixtures", 0)] + [("perfbench", seed) for seed in PERFBENCH_SEEDS]
    parts += [("draws", start) for start in range(0, DRAWS, DRAW_CHUNK)]
    dump = Dump()
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        for lines in pool.map(_part, parts):
            for layer, part_lines in lines.items():
                dump.lines[layer].extend(part_lines)
    return dump


def read_digests() -> dict[str, str]:
    out = {}
    for line in DIGESTS.read_text().splitlines():
        digest, layer = line.split()
        out[layer] = digest
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="DIR", help="write each layer's lines to DIR/<layer>.txt")
    args = parser.parse_args(argv)
    dump = build()
    if args.dump:
        out = Path(args.dump)
        out.mkdir(parents=True, exist_ok=True)
        for layer, lines in dump.lines.items():
            (out / f"{layer}.txt").write_text("".join(line + "\n" for line in lines))
    for layer, digest in dump.digests().items():
        print(f"{digest}  {layer}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
