import json
import time

import pytest

from graphmoves.conditions import (
    Violation,
    _cond_a,
    _nearest_rays,
    _two_path_nodes,
    check_proposition,
    check_theorem,
    induced_T,
    validate_witness,
)
from graphmoves.errors import GraphError
from graphmoves.fixtures import FIXTURES, fix_b2, fix_inf, fix_loop, fix_vi_e, fix_vi_f
from graphmoves.graph import VertexSet, build_graph, full_vertex_set, parse_ref, reachable_set
from graphmoves.graphio import RandomSpec, generate_random

VW = VertexSet.make({"v", "w"})


def both(g, g0):
    return check_theorem(g, g0), check_proposition(g, g0)


# ---------------------------------------------------------------------------
# frozen fixture verdicts


def test_b2_passes():
    for verdict in both(fix_b2(), VW):
        assert verdict.passed
        assert verdict.violations == ()


def test_inf_passes():
    for verdict in both(fix_inf(), VW):
        assert verdict.passed


def test_loop_full_passes():
    g = fix_loop()
    for verdict in both(g, full_vertex_set(g)):
        assert verdict.passed


def test_loop_empty_g0_cycle():
    for verdict in both(fix_loop(), VertexSet.make(set())):
        assert not verdict.passed
        assert verdict.kinds() == ("T_CYCLE",)
        (v,) = verdict.violations
        assert v.cycle == ("u",)


def test_vi_e_fails_exactly_cond_a():
    for verdict in both(fix_vi_e(), VW):
        assert not verdict.passed
        assert verdict.kinds() == ("COND_A",)
        (v,) = verdict.violations
        assert v.vertex == "v"
        assert {v.prefix1, v.prefix2} == {("v", "L.x0"), ("v", "R.x0")}
        assert v.parallel is False


def test_vi_f_fails_exactly_cond_d():
    for verdict in both(fix_vi_f(), VW):
        assert not verdict.passed
        assert verdict.kinds() == ("COND_D",)
        (v,) = verdict.violations
        assert v.edge == ("v", "X.x0")
        assert v.source == "v"


def test_singularity_outside_g0():
    g = fix_inf()  # v is an omega emitter, w a sink
    for verdict in both(g, VertexSet.make({"w"})):
        assert not verdict.passed
        assert "SINGULARITY_OUTSIDE_G0" in verdict.kinds()
        assert any(
            v.kind == "SINGULARITY_OUTSIDE_G0" and v.vertex == "v" for v in verdict.violations
        )


def test_tails_reported_before_anything_else():
    g = build_graph({
        "vertices": ["b", "u", "c1"],
        "edges": [
            {"src": "b", "dst": "u", "mult": 1},
            {"src": "b", "dst": "b", "mult": 1},
            {"src": "u", "dst": "c1", "mult": 1},
        ],
        "rays": [{"id": "T", "entry": [{"src": "c1", "mult": 1}], "prefix": [], "cycle": [[]]}],
    })
    for verdict in both(g, VertexSet.make({"b", "u", "c1"})):
        assert not verdict.passed
        assert verdict.kinds()[0] == "TAILS_PRESENT"


def test_unknown_g0_vertex():
    with pytest.raises(GraphError) as err:
        check_theorem(fix_b2(), VertexSet.make({"nope"}))
    assert err.value.code == "UNKNOWN_VERTEX"


def test_mid_ray_g0_unsupported():
    with pytest.raises(GraphError) as err:
        check_theorem(fix_vi_e(), VertexSet.make({"v", "w"}, {"L": 2}))
    assert err.value.code == "UNSUPPORTED_G0"


def test_whole_ray_in_g0_allowed():
    g = fix_vi_e()
    verdict = check_theorem(g, VertexSet.make({"v", "w"}, {"L": 0}))
    # T is now only the R tail; the two-prefix branch point is gone
    assert verdict.passed


# ---------------------------------------------------------------------------
# condition-specific constructions


def test_cond_b_unreached_infinite_node():
    # ray S climbs forever but nothing from g0 reaches it
    g = build_graph({
        "vertices": ["v", "w", "z"],
        "edges": [{"src": "v", "dst": "w", "mult": 1}],
        "rays": [{"id": "S", "entry": [{"src": "z", "mult": 1}], "prefix": [],
                  "cycle": [[{"dst": "w", "mult": 1}]]}],
    })
    verdict = check_theorem(g, VW)
    assert not verdict.passed
    assert "COND_B" in verdict.kinds()


def test_cond_c_in_degree_not_one():
    # two unit edges land on the infinite T-node t
    g = build_graph({
        "vertices": ["v", "w", "t"],
        "edges": [
            {"src": "v", "dst": "t", "mult": 2},
            {"src": "w", "dst": "w", "mult": 1},
        ],
        "rays": [{"id": "S", "entry": [{"src": "t", "mult": 1}], "prefix": [],
                  "cycle": [[{"dst": "w", "mult": 1}]]}],
    })
    verdict = check_theorem(g, VW)
    assert not verdict.passed
    assert "COND_C" in verdict.kinds()
    rec = [v for v in verdict.violations if v.kind == "COND_C"][0]
    assert rec.vertex == "t"
    assert rec.in_degree == 2


def test_cond_a_parallel_slots():
    # one T-node, entered once, but v has two parallel slots into it
    g = build_graph({
        "vertices": ["v", "w", "t"],
        "edges": [
            {"src": "v", "dst": "t", "mult": 1},
            {"src": "w", "dst": "t", "mult": 1},
            {"src": "w", "dst": "w", "mult": 1},
        ],
        "rays": [{"id": "S", "entry": [{"src": "t", "mult": 1}], "prefix": [],
                  "cycle": [[{"dst": "w", "mult": 1}]]}],
    })
    # in-degree of t is 2 -> COND_C; make it COND_A instead with one source, mult 2
    g2 = build_graph({
        "vertices": ["v", "w", "t"],
        "edges": [
            {"src": "v", "dst": "t", "mult": 2},
            {"src": "w", "dst": "w", "mult": 1},
        ],
        "rays": [{"id": "S", "entry": [{"src": "t", "mult": 1}], "prefix": [],
                  "cycle": [[{"dst": "w", "mult": 1}]]}],
    })
    verdict = check_theorem(g2, VW)
    kinds = set(verdict.kinds())
    assert "COND_A" in kinds and "COND_C" in kinds
    cond_a = [v for v in verdict.violations if v.kind == "COND_A"][0]
    assert cond_a.parallel is True
    assert validate_witness(g2, VW, cond_a)  # two slots on the one step


# ---------------------------------------------------------------------------
# checker equivalence and witness validity on random instances


def _instances(count, **overrides):
    out = []
    seed = 0
    while len(out) < count:
        out.append(generate_random(RandomSpec(seed=seed, **overrides)))
        seed += 1
    return out


def test_checkers_agree_on_fixtures():
    for name, build in FIXTURES.items():
        g = build()
        g0 = full_vertex_set(g) if name == "fix_loop" else VertexSet.make(set(g.vertices) & {"v", "w", "a", "x", "u"})
        thm, prop = both(g, g0)
        assert thm.passed == prop.passed, name


def test_checkers_agree_on_500_random_instances():
    agree = 0
    for g, g0 in _instances(500):
        thm, prop = both(g, g0)
        assert thm.passed == prop.passed, (g, g0.render())
        agree += 1
    assert agree == 500


def test_witnesses_validate_on_random_failures():
    checked = 0
    for g, g0 in _instances(300):
        for verdict in both(g, g0):
            for violation in verdict.violations:
                assert validate_witness(g, g0, violation), (violation, g0.render())
                checked += 1
    assert checked > 100  # random draws must actually exercise failures


def test_passing_T_reaches_g0():
    # every T vertex of a passing instance reaches g0 (contraction needs exits)
    seen = 0
    for g, g0 in _instances(60, passing=True):
        t = induced_T(g, g0)
        goals = VertexSet.make(g0.core, dict(g0.rays))
        for node in t.nodes:
            if isinstance(node, str):
                reached = reachable_set(g, VertexSet.make({node}))
                assert not reached.intersection(goals).is_empty(), (node, g0.render())
                seen += 1
    assert seen > 20


def test_verdict_record_shape():
    verdict = check_theorem(fix_vi_e(), VW)
    rec = verdict.to_record()
    assert rec["pass"] is False
    assert rec["violations"][0]["kind"] == "COND_A"


# ---------------------------------------------------------------------------
# the record format of each violation kind


def _edge(src, dst, mult=1):
    return {"src": src, "dst": dst, "mult": mult}


def _unit_ray(rid, src, target):
    return {"id": rid, "entry": [{"src": src, "mult": 1}], "prefix": [], "cycle": [[{"dst": target, "mult": 1}]]}


def _tails_graph():
    return build_graph({
        "vertices": ["b", "u", "c1"],
        "edges": [_edge("b", "u"), _edge("b", "b"), _edge("u", "c1")],
        "rays": [{"id": "T", "entry": [{"src": "c1", "mult": 1}], "prefix": [], "cycle": [[]]}],
    })


def _cond_b_graph():
    return build_graph({"vertices": ["v", "w", "z"], "edges": [_edge("v", "w")], "rays": [_unit_ray("S", "z", "w")]})


def _cond_c_graph():
    return build_graph({
        "vertices": ["v", "w", "t"],
        "edges": [_edge("v", "t", 2), _edge("w", "w")],
        "rays": [_unit_ray("S", "t", "w")],
    })


RECORD_CASES = [
    (
        "TAILS_PRESENT", _tails_graph, VertexSet.make({"b", "u", "c1"}),
        '{"kind": "TAILS_PRESENT", "tail": {"head": "u", "core_chain": ["c1"], "ray": "T", "suffix_start": 0}}',
    ),
    ("SINGULARITY_OUTSIDE_G0", fix_inf, VertexSet.make({"w"}), '{"kind": "SINGULARITY_OUTSIDE_G0", "vertex": "v"}'),
    ("T_CYCLE", fix_loop, VertexSet.make(), '{"kind": "T_CYCLE", "cycle": ["u"]}'),
    ("COND_B", _cond_b_graph, VW, '{"kind": "COND_B", "vertex": "S.x0", "ray": "S"}'),
    ("COND_C", _cond_c_graph, VW, '{"kind": "COND_C", "vertex": "t", "in_degree": 2}'),
    ("COND_D", fix_vi_f, VW, '{"kind": "COND_D", "edge": ["v", "X.x0"], "source": "v"}'),
    (
        "COND_A", fix_vi_e, VW,
        '{"kind": "COND_A", "vertex": "v", "prefix1": ["v", "L.x0"], "prefix2": ["v", "R.x0"], "parallel": false}',
    ),
]


@pytest.mark.parametrize("kind, build, g0, text", RECORD_CASES, ids=[c[0] for c in RECORD_CASES])
def test_violation_record_text(kind, build, g0, text):
    g = build()
    for verdict in both(g, g0):
        first = next(v for v in verdict.violations if v.kind == kind)
        assert json.dumps(first.to_record()) == text
        assert validate_witness(g, g0, first)


def test_kind_order_inside_a_verdict():
    ambient = build_graph({
        "vertices": ["b", "u", "c1", "s", "y"],
        "edges": [_edge("b", "u"), _edge("b", "b"), _edge("u", "c1"), _edge("b", "s"), _edge("y", "y"), _edge("b", "y")],
        "rays": [{"id": "T", "entry": [{"src": "c1", "mult": 1}], "prefix": [], "cycle": [[]]}],
    })
    for verdict in both(ambient, VertexSet.make({"b", "u", "c1"})):
        assert verdict.kinds() == ("TAILS_PRESENT", "SINGULARITY_OUTSIDE_G0", "T_CYCLE")
    conds = build_graph({
        "vertices": ["v", "w", "t", "z"],
        "edges": [_edge("v", "w", "inf"), _edge("v", "t", 2), _edge("w", "w")],
        "rays": [_unit_ray("X", "v", "w"), _unit_ray("S", "t", "w"), _unit_ray("Z", "z", "w")],
    })
    thm, prop = both(conds, VW)
    # the theorem route also reads in-degree 0 at z as a COND_C witness
    assert thm.kinds() == ("COND_B", "COND_B", "COND_C", "COND_C", "COND_D", "COND_D", "COND_A")
    assert prop.kinds() == ("COND_B", "COND_B", "COND_C", "COND_D", "COND_D", "COND_A")
    assert [json.dumps(v.to_record()) for v in prop.violations] == [
        '{"kind": "COND_B", "vertex": "Z.x0", "ray": "Z"}',
        '{"kind": "COND_B", "vertex": "z", "ray": "Z"}',
        '{"kind": "COND_C", "vertex": "t", "in_degree": 2}',
        '{"kind": "COND_D", "edge": ["v", "X.x0"], "source": "v"}',
        '{"kind": "COND_D", "edge": ["v", "t"], "source": "v"}',
        '{"kind": "COND_A", "vertex": "v", "prefix1": ["v", "X.x0"], "prefix2": ["v", "t"], "parallel": false}',
    ]


# ---------------------------------------------------------------------------
# infinite-node marking


def _inf_nodes_fixpoint(t):
    """The definition: ray nodes, then every T node with a T-slot into a marked node."""
    marked = {n for n in t.nodes if isinstance(n, tuple)}
    changed = True
    while changed:
        changed = False
        for n in t.nodes - marked:
            if any(m in marked for m, _ in t.out_nodes(n)):
                marked.add(n)
                changed = True
    return marked


def test_long_chain_into_a_ray_is_all_infinite():
    n = 3000
    chain = [f"c{i}" for i in range(n)]
    g = build_graph({
        "vertices": ["v", "w", *chain],
        "edges": [_edge("v", "c0")] + [_edge(a, b) for a, b in zip(chain, chain[1:])],
        "rays": [_unit_ray("R", chain[-1], "w")],
    })
    t = induced_T(g, VW)
    assert t.inf_nodes == frozenset(chain) | {("R", 0)}


def test_inf_nodes_match_fixpoint_on_random_instances():
    nonempty = 0
    for g, g0 in _instances(800, omega_probability=0.3, ray_range=(0, 3), cycle_range=(1, 3)):
        t = induced_T(g, g0)
        assert t.inf_nodes == _inf_nodes_fixpoint(t), g0.render()
        nonempty += bool(t.inf_nodes)
    assert nonempty > 100


# ---------------------------------------------------------------------------
# COND_B witness rays


def _some_ray_reached(t, node):
    """The oracle: a breadth-first search over T's out-slots from node, in
    slot order, stopping at the first spine position it dequeues."""
    seen = {node}
    queue = [node]
    while queue:
        cur = queue.pop(0)
        if isinstance(cur, tuple):
            return cur[0]
        for nxt, _ in t.out_nodes(cur):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return ""


def test_cond_b_rays_match_the_breadth_first_oracle():
    compared = records = 0
    for omega in (0.1, 0.3):
        spec = dict(omega_probability=omega, core_range=(4, 10), edge_density=0.2, ray_range=(1, 3), cycle_range=(1, 3))
        for g, g0 in _instances(1500, **spec):
            t = induced_T(g, g0)
            if t.cycles:
                continue
            nearest = _nearest_rays(t)
            assert set(nearest) == t.inf_nodes
            for node in t.inf_nodes:
                if isinstance(node, str):
                    assert nearest[node] == _some_ray_reached(t, node), (node, g0.render())
                    compared += 1
            for violation in check_theorem(g, g0).violations:
                if violation.kind == "COND_B":
                    assert violation.ray == _some_ray_reached(t, parse_ref(g, violation.vertex))
                    records += 1
    assert compared > 400 and records > 200


def test_long_unreached_chain_into_a_ray_is_linear():
    # each chain vertex is a COND_B node, so the witness rays must come from
    # one pass over T: one search per node took over 20 s at this size (2-CPU VM)
    n = 4000
    chain = [f"c{i}" for i in range(n)]
    g = build_graph({
        "vertices": ["w", *chain],
        "edges": [_edge(a, b) for a, b in zip(chain, chain[1:])],
        "rays": [_unit_ray("R", chain[-1], "w")],
    })
    start = time.perf_counter()
    verdict = check_theorem(g, VertexSet.make({"w"}))
    elapsed = time.perf_counter() - start
    cond_b = [v for v in verdict.violations if v.kind == "COND_B"]
    assert [v.vertex for v in cond_b] == sorted(["R.x0", *chain])
    assert {v.ray for v in cond_b} == {"R"}
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# two-path marking (proposition route, condition a')


def _slot_total(slots):
    return sum(2 if m.is_omega else m.n for _, m in slots)


def _two_path_fixpoint(t, t_inf):
    """The definition: >= 2 slots into t_inf, or a unique slot into a marked node."""
    slots = {n: [(m, mult) for m, mult in t.out_nodes(n) if m in t_inf] for n in t_inf}
    marked = {n for n, out in slots.items() if _slot_total(out) >= 2}
    changed = True
    while changed:
        changed = False
        for n in t_inf - marked:
            if len(slots[n]) == 1 and slots[n][0][0] in marked:
                marked.add(n)
                changed = True
    return marked


def test_two_path_nodes_match_fixpoint_on_random_instances():
    nonempty = 0
    for g, g0 in _instances(800, omega_probability=0.3, ray_range=(0, 3), cycle_range=(1, 3)):
        t = induced_T(g, g0)
        region = t.inf_nodes
        assert _two_path_nodes(t, region) == _two_path_fixpoint(t, region), g0.render()
        nonempty += bool(_two_path_nodes(t, region))
    assert nonempty > 100


def test_long_chain_into_two_rays_marks_the_whole_chain():
    n = 10_000
    chain = [f"c{i}" for i in range(n)]
    g = build_graph({
        "vertices": ["v", "w", *chain],
        "edges": [_edge("v", "c0")] + [_edge(a, b) for a, b in zip(chain, chain[1:])],
        "rays": [_unit_ray("R", chain[-1], "w"), _unit_ray("S", chain[-1], "w")],
    })
    t = induced_T(g, VW)
    start = time.perf_counter()
    marked = _two_path_nodes(t, t.inf_nodes)
    elapsed = time.perf_counter() - start
    assert marked == set(chain)
    assert elapsed < 5.0  # the quadratic fixpoint needs minutes here
    for verdict in both(g, VW):
        assert verdict.kinds() == ("COND_A",)
        (a,) = verdict.violations
        assert (a.prefix1, a.prefix2) == (("v", *chain, "R.x0"), ("v", *chain, "S.x0"))


def test_long_stem_cond_a_record():
    # the stem is collected child to parent and reversed once, so a long stem
    # costs linear time; the record is the one prepending each node gives
    n = 20_000
    chain = [f"c{i}" for i in range(n)]
    g = build_graph({
        "vertices": ["v", "w", *chain],
        "edges": [_edge("v", "c0")] + [_edge(a, b) for a, b in zip(chain, chain[1:])],
        "rays": [_unit_ray("R", chain[-1], "w"), _unit_ray("S", chain[-1], "w")],
    })
    t = induced_T(g, VW)
    start = time.perf_counter()
    record = _cond_a(g, t, "v", t.inf_nodes).to_record()
    elapsed = time.perf_counter() - start
    assert record == {
        "kind": "COND_A",
        "vertex": "v",
        "prefix1": ["v", *chain, "R.x0"],
        "prefix2": ["v", *chain, "S.x0"],
        "parallel": False,
    }
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# T_CYCLE witnesses


def test_t_cycle_witness_through_g0_is_rejected():
    # with u in g0 the loop at u meets g0, and both routes pass
    g, g0 = fix_loop(), VertexSet.make({"u"})
    for verdict in both(g, g0):
        assert verdict.passed
    assert not validate_witness(g, g0, Violation("T_CYCLE", cycle=("u",)))
    assert validate_witness(g, VertexSet.make(), Violation("T_CYCLE", cycle=("u",)))


def test_t_cycle_witnesses_validate_on_random_draws():
    checked = 0
    for omega in (0.1, 0.3):
        for g, g0 in _instances(400, omega_probability=omega, ray_range=(0, 3), cycle_range=(1, 3)):
            for verdict in both(g, g0):
                for violation in verdict.violations:
                    if violation.kind == "T_CYCLE":
                        assert validate_witness(g, g0, violation), (violation, g0.render())
                        checked += 1
    assert checked > 200


# ---------------------------------------------------------------------------
# forged witnesses: each validate_witness branch rejects a wrong one

# on fix_vi_e with g0 = {v, w}, T is the two rays L and R, both entered from v
FORGED = [
    ("COND_B reached from g0", Violation("COND_B", "L.x0", ray="L")),
    ("COND_C wrong in_degree", Violation("COND_C", "L.x0", in_degree=2)),
    ("COND_D finite emitter", Violation("COND_D", edge=("v", "L.x0"), source="v")),
    ("COND_A prefix off its vertex", Violation("COND_A", "v", prefix1=("w", "L.x0"), prefix2=("v", "R.x0"))),
    # a one-ref prefix ends at its g0 vertex, so the last-ref check would reject it too
    ("COND_A prefix shorter than 2", Violation("COND_A", "v", prefix1=(), prefix2=("v", "R.x0"))),
    ("COND_A last ref finite", Violation("COND_A", "v", prefix1=("v", "w"), prefix2=("v", "R.x0"))),
    ("COND_A equal prefixes", Violation("COND_A", "v", prefix1=("v", "L.x0"), prefix2=("v", "L.x0"))),
    # v has one slot into L.x0, so the one prefix is one path
    (
        "COND_A parallel over one slot",
        Violation("COND_A", "v", prefix1=("v", "L.x0"), prefix2=("v", "L.x0"), parallel=True),
    ),
    ("COND_A prefix not a path", Violation("COND_A", "v", prefix1=("v", "L.x0", "R.x0"), prefix2=("v", "R.x0"))),
    ("COND_C in-degree one", Violation("COND_C", "L.x0", in_degree=1)),
    ("T_CYCLE refs not a step", Violation("T_CYCLE", cycle=("L.x0", "R.x0"))),
    ("unknown kind", Violation("COND_Z", "v")),
]


@pytest.mark.parametrize("violation", [v for _, v in FORGED], ids=[name for name, _ in FORGED])
def test_validate_witness_rejects_forged_witnesses(violation):
    assert not validate_witness(fix_vi_e(), VW, violation)
