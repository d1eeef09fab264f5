"""T_CYCLE decisions, witnesses and simple_cycles against brute-force oracles.

The oracle rebuilds the truncated search graph from the graph description
alone: core vertices outside g0, and positions 0 .. period_bound-1 of every
ray outside g0, with no edge from the last position back into the ray's
cycle.  A cycle avoiding g0 exists exactly when some node reaches itself
there, and its cyclic strong components are the classes of mutual
reachability among such nodes.  With g0 empty it is the graph simple_cycles
searches, and a plain DFS lists its simple cycles.
"""

import os
import pathlib
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import graphmoves
from graphmoves.conditions import check_proposition, check_theorem, validate_witness
from graphmoves.graph import VertexSet, build_graph, simple_cycles
from graphmoves.graphio import RandomSpec, generate_random, serialize_graph


def _position_targets(ray: dict, j: int) -> list[str]:
    prefix, cycle = ray["prefix"], ray["cycle"]
    pos = prefix[j] if j < len(prefix) else cycle[j - len(prefix)]
    return [t["dst"] for t in pos]


def _truncated_without_g0(desc: dict, g0_core: set[str], g0_rays: set[str]) -> dict[str, set[str]]:
    succ = {v: set() for v in desc["vertices"] if v not in g0_core}
    rays = [r for r in desc["rays"] if r["id"] not in g0_rays]
    for r in rays:
        for j in range(len(r["prefix"]) + len(r["cycle"])):
            succ[f"{r['id']}.x{j}"] = set()
    for e in desc["edges"]:
        if e["src"] in succ and e["dst"] in succ:
            succ[e["src"]].add(e["dst"])
    for r in rays:
        bound = len(r["prefix"]) + len(r["cycle"])
        for t in r["entry"]:
            if t["src"] in succ:
                succ[t["src"]].add(f"{r['id']}.x0")
        for j in range(bound):
            here = succ[f"{r['id']}.x{j}"]
            if j + 1 < bound:
                here.add(f"{r['id']}.x{j + 1}")
            here.update(dst for dst in _position_targets(r, j) if dst in succ)
    return succ


def _reach(succ: dict[str, set[str]], start: str) -> set[str]:
    """Nodes reached from start by one or more steps, by a plain DFS."""
    seen: set[str] = set()
    stack = list(succ[start])
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(succ[node])
    return seen


def _cyclic_classes(succ: dict[str, set[str]]) -> set[frozenset[str]]:
    reach = {n: _reach(succ, n) for n in succ}
    cyclic = [n for n in succ if n in reach[n]]
    return {frozenset(m for m in cyclic if m in reach[n] and n in reach[m]) for n in cyclic}


_MULT = st.sampled_from([1, 1, 2, "inf"])


@st.composite
def _instances(draw):
    core = [f"v{i}" for i in range(draw(st.integers(1, 7)))]
    vertex = st.sampled_from(core)
    edges = draw(st.lists(st.fixed_dictionaries({"src": vertex, "dst": vertex, "mult": _MULT}), max_size=10))
    position = st.lists(st.fixed_dictionaries({"dst": vertex, "mult": st.integers(1, 2)}), max_size=2)
    rays = []
    for i in range(draw(st.integers(0, 2))):
        rays.append({
            "id": f"R{i}",
            "entry": [{"src": u, "mult": 1} for u in draw(st.sets(vertex, min_size=1, max_size=2))],
            "prefix": draw(st.lists(position, max_size=2)),
            "cycle": draw(st.lists(position, min_size=1, max_size=2)),
        })
    desc = {"vertices": core, "edges": edges, "rays": rays}
    g0_core = draw(st.sets(vertex))
    g0_rays = {r["id"] for r in rays if draw(st.booleans())}
    return desc, g0_core, g0_rays


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_instances())
def test_t_cycle_matches_the_brute_force_oracle(instance):
    desc, g0_core, g0_rays = instance
    g = build_graph(desc)
    g0 = VertexSet.make(g0_core, {rid: 0 for rid in g0_rays})
    oracle = _truncated_without_g0(desc, g0_core, g0_rays)
    classes = _cyclic_classes(oracle)
    lists = []
    for verdict in (check_theorem(g, g0), check_proposition(g, g0)):
        cycles = [v for v in verdict.violations if v.kind == "T_CYCLE"]
        assert ("T_CYCLE" in verdict.kinds()) == bool(classes)
        assert len(cycles) == len(classes)
        hit = set()
        for v in cycles:
            assert validate_witness(g, g0, v), v
            refs = v.cycle
            assert len(set(refs)) == len(refs)
            assert all(refs[(i + 1) % len(refs)] in oracle[ref] for i, ref in enumerate(refs))
            assert refs[0] == min(refs)
            (cls,) = [c for c in classes if refs[0] in c]
            hit.add(cls)
        assert hit == classes  # one witness per cyclic component
        lists.append([v.cycle for v in cycles])
    assert lists[0] == lists[1] == sorted(lists[0], key=lambda c: (len(c), c))


def _naive_cycles(succ: dict[str, set[str]]) -> set[tuple[str, ...]]:
    """Every simple cycle, from its smallest ref: a plain DFS from each start
    over the nodes above it."""
    out = set()
    for start in succ:
        stack = [(start,)]
        while stack:
            path = stack.pop()
            for nxt in succ[path[-1]]:
                if nxt == start:
                    out.add(path)
                elif nxt > start and nxt not in path:
                    stack.append(path + (nxt,))
    return out


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_instances())
def test_simple_cycles_match_a_naive_search(instance):
    desc, _, _ = instance
    cycles = simple_cycles(build_graph(desc))
    assert set(cycles) == _naive_cycles(_truncated_without_g0(desc, set(), set()))
    assert len(set(cycles)) == len(cycles)
    assert all(c[0] == min(c) for c in cycles)
    assert cycles == sorted(cycles, key=lambda c: (len(c), c))


def _many_components() -> dict:
    # a: two shortest cycles through a; e: a self-loop; R: a cycle through a ray
    edge = lambda s, d: {"src": s, "dst": d, "mult": 1}
    return {
        "vertices": ["h", "a", "b", "c", "d", "e", "f"],
        "edges": [edge("h", "a"), edge("a", "b"), edge("b", "a"), edge("a", "c"), edge("c", "a"),
                  edge("c", "d"), edge("d", "b"), edge("d", "e"), edge("e", "e"), edge("e", "f"), edge("f", "h")],
        "rays": [{"id": "R", "entry": [{"src": "f", "mult": 1}], "prefix": [[{"dst": "h", "mult": 1}]],
                  "cycle": [[{"dst": "f", "mult": 1}], []]}],
    }


def _check_json(path: pathlib.Path, g0: str, hash_seed: str) -> str:
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": str(pathlib.Path(graphmoves.__file__).parents[1]),
    }
    argv = [sys.executable, "-m", "graphmoves.cli", "check", str(path), "--g0", g0, "--json"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1, proc.stderr
    return proc.stdout


def test_check_json_does_not_depend_on_the_hash_seed(tmp_path):
    graphs = [(build_graph(_many_components()), VertexSet.make({"h"}))]
    seed = 0
    while len(graphs) < 3:
        g, g0 = generate_random(RandomSpec(seed=seed, core_range=(5, 7), ray_range=(1, 2), cycle_range=(1, 3)))
        if check_theorem(g, g0).kinds().count("T_CYCLE") >= 2 and not g0.rays:
            graphs.append((g, g0))
        seed += 1
    for i, (g, g0) in enumerate(graphs):
        path = tmp_path / f"g{i}.graph"
        path.write_text(serialize_graph(g))
        outputs = {_check_json(path, ",".join(sorted(g0.core)), hash_seed) for hash_seed in ("1", "2")}
        assert len(outputs) == 1
        assert "T_CYCLE" in outputs.pop()
