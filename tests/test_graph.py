import pytest

from graphmoves.errors import GraphError
from graphmoves.fixtures import FIXTURES, fix_b2, fix_inf, fix_loop, fix_vi_e, fix_vi_f
from graphmoves.graph import (
    Graph,
    Ray,
    VertexSet,
    assemble,
    build_graph,
    canonical_key,
    check_membership_args,
    detect_tails,
    full_vertex_set,
    graphs_equal,
    in_multiplicity,
    materialize,
    node_ref,
    out_multiplicity,
    out_slots,
    parse_ref,
    quotient_slots,
    reachable_set,
    simple_cycles,
    singularities,
)
from graphmoves.multiplicity import Mult, OMEGA, ONE

# ---------------------------------------------------------------------------
# validation


def test_duplicate_vertex_rejected():
    with pytest.raises(GraphError) as err:
        build_graph({"vertices": ["a", "a"], "edges": []})
    assert err.value.code == "DUPLICATE_ID"


def test_ray_id_shadowing_core_rejected():
    with pytest.raises(GraphError) as err:
        build_graph({
            "vertices": ["L"],
            "edges": [{"src": "L", "dst": "L", "mult": 1}],
            "rays": [{"id": "L", "entry": [{"src": "L", "mult": 1}], "prefix": [], "cycle": [[]]}],
        })
    assert err.value.code == "DUPLICATE_ID"


def test_core_id_shadowing_ray_position_rejected():
    with pytest.raises(GraphError) as err:
        build_graph({
            "vertices": ["v", "L.x0"],
            "edges": [{"src": "v", "dst": "L.x0", "mult": 1}],
            "rays": [{"id": "L", "entry": [{"src": "v", "mult": 1}], "prefix": [], "cycle": [[]]}],
        })
    assert err.value.code == "DUPLICATE_ID"


def test_non_string_ids_are_parse_errors():
    with pytest.raises(GraphError) as err:
        build_graph({"vertices": ["a", 7], "edges": []})
    assert err.value.code == "PARSE_ERROR"
    with pytest.raises(GraphError) as err:
        build_graph({"vertices": ["a"], "edges": [], "rays": [{"id": 3, "entry": [], "prefix": [], "cycle": [[]]}]})
    assert err.value.code == "PARSE_ERROR"


def test_empty_vertex_id_is_a_parse_error():
    with pytest.raises(GraphError) as err:
        build_graph({"vertices": ["a", ""], "edges": []})
    assert err.value.code == "PARSE_ERROR"


@pytest.mark.parametrize("rid", ["", "L.x"])
def test_empty_or_dotted_ray_id_is_a_parse_error(rid):
    with pytest.raises(GraphError) as err:
        build_graph({"vertices": ["a"], "edges": [], "rays": [{"id": rid, "entry": [], "prefix": [], "cycle": [[]]}]})
    assert err.value.code == "PARSE_ERROR"


def test_negative_ray_suffix_index_is_a_bad_argument():
    with pytest.raises(GraphError) as err:
        VertexSet.make({"v"}, {"L": -1})
    assert err.value.code == "BAD_ARGUMENT"


def test_negative_edge_multiplicity_is_a_parse_error():
    with pytest.raises(GraphError) as err:
        build_graph({"vertices": ["a"], "edges": [{"src": "a", "dst": "a", "mult": -1}]})
    assert err.value.code == "PARSE_ERROR"


def test_negative_materialize_depth_is_a_bad_argument():
    with pytest.raises(GraphError) as err:
        materialize(fix_vi_e(), -1)
    assert err.value.code == "BAD_ARGUMENT"


def test_dangling_endpoint_rejected():
    with pytest.raises(GraphError) as err:
        build_graph({"vertices": ["a"], "edges": [{"src": "a", "dst": "b", "mult": 1}]})
    assert err.value.code == "DANGLING_ENDPOINT"


def test_zero_multiplicity_rejected():
    with pytest.raises(GraphError) as err:
        build_graph({"vertices": ["a"], "edges": [{"src": "a", "dst": "a", "mult": 0}]})
    assert err.value.code == "ZERO_MULTIPLICITY"


def test_empty_cycle_rejected():
    with pytest.raises(GraphError) as err:
        build_graph({
            "vertices": ["v"],
            "edges": [],
            "rays": [{"id": "L", "entry": [{"src": "v", "mult": 1}], "prefix": [], "cycle": []}],
        })
    assert err.value.code == "EMPTY_CYCLE"


def test_omega_ray_target_rejected():
    with pytest.raises(GraphError) as err:
        build_graph({
            "vertices": ["v"],
            "edges": [],
            "rays": [{"id": "L", "entry": [{"src": "v", "mult": 1}], "prefix": [],
                      "cycle": [[{"dst": "v", "mult": "inf"}]]}],
        })
    assert err.value.code == "OMEGA_RAY_TARGET"


def test_edge_record_into_x0_is_read_as_an_entry():
    # the README's second form of an entry: an edge record whose dst is R.x0
    ray = {"id": "L", "prefix": [], "cycle": [[{"dst": "v", "mult": 1}]]}
    folded = build_graph({
        "vertices": ["v", "w"],
        "edges": [{"src": "v", "dst": "w", "mult": 1}, {"src": "v", "dst": "L.x0", "mult": 2}],
        "rays": [{**ray, "entry": [{"src": "w", "mult": 1}]}],
    })
    listed = build_graph({
        "vertices": ["v", "w"],
        "edges": [{"src": "v", "dst": "w", "mult": 1}],
        "rays": [{**ray, "entry": [{"src": "w", "mult": 1}, {"src": "v", "mult": 2}]}],
    })
    assert folded == listed
    assert folded.edges == (("v", "w", ONE),)
    assert folded.rays[0].entry == (("w", ONE), ("v", Mult(2)))


def test_mid_ray_edge_target_rejected():
    # only x0 can receive edges; deeper positions are not addressable as dst
    with pytest.raises(GraphError) as err:
        build_graph({
            "vertices": ["v"],
            "edges": [{"src": "v", "dst": "L.x2", "mult": 1}],
            "rays": [{"id": "L", "entry": [], "prefix": [], "cycle": [[]]}],
        })
    assert err.value.code == "DANGLING_ENDPOINT"


def _ray_graph(entry, cycle, edges=()):
    return {
        "vertices": ["v", "w"],
        "edges": list(edges),
        "rays": [{"id": "R", "entry": entry, "prefix": [], "cycle": cycle}],
    }


INVALID = [
    ("edge from unknown source", {"vertices": ["a"], "edges": [{"src": "b", "dst": "a"}]}, "DANGLING_ENDPOINT"),
    ("entry from unknown vertex", _ray_graph([{"src": "x"}], [[]]), "DANGLING_ENDPOINT"),
    ("entry multiplicity 0", _ray_graph([{"src": "v", "mult": 0}], [[]]), "ZERO_MULTIPLICITY"),
    ("ray target unknown", _ray_graph([{"src": "v"}], [[{"dst": "x"}]]), "DANGLING_ENDPOINT"),
    ("ray target multiplicity 0", _ray_graph([{"src": "v"}], [[{"dst": "w", "mult": 0}]]), "ZERO_MULTIPLICITY"),
    ("description not a mapping", ["v", "w"], "PARSE_ERROR"),
    ("edge into R.x2", _ray_graph([{"src": "v"}], [[]], [{"src": "w", "dst": "R.x2"}]), "DANGLING_ENDPOINT"),
]


@pytest.mark.parametrize("description, code", [c[1:] for c in INVALID], ids=[c[0] for c in INVALID])
def test_invalid_description_codes(description, code):
    with pytest.raises(GraphError) as err:
        build_graph(description)
    assert err.value.code == code


def test_all_fixtures_validate():
    for name, build in FIXTURES.items():
        g = build()
        assert isinstance(g, Graph), name


# ---------------------------------------------------------------------------
# refs and slots


def test_ref_round_trip():
    g = fix_vi_e()
    assert parse_ref(g, "v") == "v"
    assert parse_ref(g, "L.x0") == ("L", 0)
    assert parse_ref(g, "L.x17") == ("L", 17)
    assert node_ref(("L", 3)) == "L.x3"
    assert node_ref("w") == "w"
    for bad in ("nope", "L.x", "Q.x0"):
        with pytest.raises(GraphError) as err:
            parse_ref(g, bad)
        assert err.value.code == "UNKNOWN_VERTEX"


def test_membership_args_reject_an_unknown_ray():
    with pytest.raises(GraphError) as err:
        check_membership_args(fix_vi_e(), VertexSet.make({"v"}, {"Q": 0}))
    assert err.value.code == "UNKNOWN_VERTEX"
    assert err.value.context == {"ray": "Q"}


def test_ray_targets_and_classes():
    r = Ray(
        id="L",
        entry=(("v", ONE),),
        prefix=((("a", ONE),),),
        cycle=((("b", ONE),), (("c", Mult(2)),)),
    )
    assert r.targets(0) == (("a", ONE),)
    assert r.targets(1) == (("b", ONE),)
    assert r.targets(2) == (("c", Mult(2)),)
    assert r.targets(3) == (("b", ONE),)
    assert r.class_of(0) == 0
    assert r.class_of(1) == r.class_of(3) == 1
    assert r.class_of(2) == r.class_of(4) == 2
    assert r.period_bound == 3
    assert list(r.positions_from(0)) == [0, 1, 2]
    assert list(r.positions_from(1)) == [1, 2]
    # a suffix starting inside the cycle still visits every cycle class
    assert list(r.positions_from(2)) == list(r.positions_from(7)) == [1, 2]


def test_out_slots_and_degrees():
    g = fix_vi_e()
    assert out_multiplicity(g, "v") == Mult(3)
    assert in_multiplicity(g, "w") == OMEGA  # hit by both ray cycles
    assert out_multiplicity(g, ("L", 0)) == Mult(2)  # spine + target
    assert in_multiplicity(g, ("L", 0)) == ONE
    slot_refs = sorted(node_ref(n) for n, _ in out_slots(g, "v"))
    assert slot_refs == ["L.x0", "R.x0", "w"]
    # a core vertex's slots are the cached tuple, shared by both views
    assert out_slots(g, "v") is out_slots(g, "v") is quotient_slots(g, "v")


def test_singularities():
    assert singularities(fix_inf()) == frozenset({"v", "w"})  # omega emitter + sink
    assert singularities(fix_b2()) == frozenset({"w"})
    assert singularities(fix_loop()) == frozenset()


# ---------------------------------------------------------------------------
# VertexSet


def test_vertex_set_algebra():
    a = VertexSet.make({"v"}, {"L": 2})
    b = VertexSet.make({"w"}, {"L": 5, "R": 0})
    u = a.union(b)
    assert u.core == frozenset({"v", "w"})
    assert u.ray_state("L") == 2  # union takes the lower start
    assert u.ray_state("R") == 0
    i = a.intersection(b)
    assert i.core == frozenset()
    assert i.ray_state("L") == 5  # intersection takes the higher start
    assert i.ray_state("R") is None
    assert a.is_subset(u) and b.is_subset(u)
    assert i.is_subset(a) and i.is_subset(b)
    assert not a.is_subset(b)


def test_vertex_set_contains_and_render():
    s = VertexSet.make({"w"}, {"L": 1})
    assert s.contains_node("w")
    assert not s.contains_node("v")
    assert s.contains_node(("L", 1))
    assert s.contains_node(("L", 9))
    assert not s.contains_node(("L", 0))
    assert s.render() == "{w, L.x1+}"
    assert VertexSet.make(set()).render() == "{}"
    assert VertexSet.make(set()).is_empty()


def test_full_vertex_set():
    f = full_vertex_set(fix_vi_e())
    assert f.core == frozenset({"v", "w"})
    assert f.ray_state("L") == 0 and f.ray_state("R") == 0


# ---------------------------------------------------------------------------
# reachability against a BFS-on-materialize oracle


def _bfs_oracle(g: Graph, depth: int, start_refs, goal_refs) -> bool:
    """Plain BFS over the depth-truncated materialization; no library reuse."""
    m = materialize(g, depth)
    adj = {}
    for src, dst, _ in m.edges:
        adj.setdefault(src, set()).add(dst)
    seen = set(start_refs) & set(m.vertices)
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return bool(seen & set(goal_refs))


def test_reaches_matches_materialized_bfs():
    depth = 12  # beyond every fixture's period bound, so truncation is exact
    for name, build in FIXTURES.items():
        g = build()
        refs = list(g.vertices) + [f"{r.id}.x{k}" for r in g.rays for k in range(3)]
        for a in refs:
            for b in g.vertices:
                got = b in reachable_set(g, _singleton_set(g, a)).core
                want = _bfs_oracle(g, depth, [a], [b])
                assert got == want, (name, a, b)


def test_reaches_from_ray_suffix_set():
    g = fix_vi_e()
    assert "w" in reachable_set(g, VertexSet.make(set(), {"L": 4})).core
    assert "v" not in reachable_set(g, VertexSet.make(set(), {"L": 4})).core
    assert "w" in reachable_set(g, VertexSet.make({"v"})).core


# ---------------------------------------------------------------------------
# cycles and tails


def test_simple_cycles_fixture_values():
    assert simple_cycles(fix_loop()) == [("u",)]
    assert simple_cycles(fix_b2()) == []
    assert simple_cycles(fix_inf()) == []
    # esse: single 2-cycle
    from graphmoves.fixtures import fix_esse

    assert simple_cycles(fix_esse()) == [("a", "x")]


def test_simple_cycles_are_real_cycles():
    for name, build in FIXTURES.items():
        g = build()
        for cyc in simple_cycles(g):
            assert len(set(cyc)) == len(cyc), (name, cyc)
            for i, ref in enumerate(cyc):
                nxt = cyc[(i + 1) % len(cyc)]
                reached = reachable_set(g, _singleton_set(g, ref))
                assert not reached.intersection(_singleton_set(g, nxt)).is_empty(), (name, cyc)


def _singleton_set(g: Graph, ref: str) -> VertexSet:
    node = parse_ref(g, ref)
    if isinstance(node, str):
        return VertexSet.make({node})
    return VertexSet.make(set(), {node[0]: node[1]})


def test_ray_reentry_counts_as_cycle():
    # v -> L.x0, cycle targets v: the loop closes through the ray
    g = build_graph({
        "vertices": ["v"],
        "edges": [],
        "rays": [{"id": "L", "entry": [{"src": "v", "mult": 1}], "prefix": [],
                  "cycle": [[{"dst": "v", "mult": 1}]]}],
    })
    cycles = simple_cycles(g)
    assert cycles == [("L.x0", "v")] or cycles == [("v", "L.x0")]


def test_detect_tails_fixtures_clean():
    for name, build in FIXTURES.items():
        assert detect_tails(build()) == [], name


def test_detect_tails_finds_chain():
    g = build_graph({
        "vertices": ["b", "u", "c1"],
        "edges": [
            {"src": "b", "dst": "u", "mult": 1},
            {"src": "b", "dst": "b", "mult": 1},
            {"src": "u", "dst": "c1", "mult": 1},
        ],
        "rays": [{"id": "T", "entry": [{"src": "c1", "mult": 1}], "prefix": [], "cycle": [[]]}],
    })
    (w,) = detect_tails(g)
    assert w.head == "u"
    assert w.core_chain == ("c1",)
    assert w.ray == "T"
    assert w.suffix_start == 0


def test_detect_tails_mid_ray():
    g = build_graph({
        "vertices": ["a"],
        "edges": [{"src": "a", "dst": "a", "mult": 1}],
        "rays": [{"id": "T", "entry": [{"src": "a", "mult": 1}],
                  "prefix": [[{"dst": "a", "mult": 3}]], "cycle": [[]]}],
    })
    (w,) = detect_tails(g)
    assert w.head == "T.x1"
    assert w.suffix_start == 1


# ---------------------------------------------------------------------------
# structural equality


def test_graphs_equal_ignores_record_order():
    g1 = build_graph({
        "vertices": ["a", "b"],
        "edges": [{"src": "a", "dst": "b", "mult": 1}, {"src": "b", "dst": "a", "mult": 2}],
    })
    g2 = build_graph({
        "vertices": ["b", "a"],
        "edges": [{"src": "b", "dst": "a", "mult": 2}, {"src": "a", "dst": "b", "mult": 1}],
    })
    assert graphs_equal(g1, g2)
    assert canonical_key(g1) == canonical_key(g2)


def test_graphs_equal_merges_parallel_records():
    g1 = build_graph({
        "vertices": ["a"],
        "edges": [{"src": "a", "dst": "a", "mult": 1}, {"src": "a", "dst": "a", "mult": 1}],
    })
    g2 = build_graph({"vertices": ["a"], "edges": [{"src": "a", "dst": "a", "mult": 2}]})
    assert graphs_equal(g1, g2)


def test_graphs_equal_folds_ray_presentation():
    base = {
        "vertices": ["v", "w"],
        "edges": [{"src": "w", "dst": "w", "mult": 1}],
    }
    one = build_graph({**base, "rays": [{"id": "L", "entry": [{"src": "v", "mult": 1}],
                                         "prefix": [], "cycle": [[{"dst": "w", "mult": 1}]]}]})
    # same infinite tail written with the cycle doubled and one step unrolled
    two = build_graph({**base, "rays": [{"id": "L", "entry": [{"src": "v", "mult": 1}],
                                         "prefix": [[{"dst": "w", "mult": 1}]],
                                         "cycle": [[{"dst": "w", "mult": 1}], [{"dst": "w", "mult": 1}]]}]})
    assert graphs_equal(one, two)


def test_graphs_equal_distinguishes_mult():
    g1 = build_graph({"vertices": ["a"], "edges": [{"src": "a", "dst": "a", "mult": 2}]})
    g2 = build_graph({"vertices": ["a"], "edges": [{"src": "a", "dst": "a", "mult": "inf"}]})
    assert not graphs_equal(g1, g2)


def test_assemble_merges_parallel_slots_and_sorts_edges():
    g = assemble(["b", "a"], [("b", "a", ONE), ("a", "b", ONE), ("b", "a", Mult(2)), ("a", "a", OMEGA)], [])
    assert g.vertices == ("b", "a")
    assert g.edges == (("a", "a", OMEGA), ("a", "b", ONE), ("b", "a", Mult(3)))
    assert g.rays == ()


def test_assemble_slots_into_x0_become_entries_in_slot_order():
    r = Ray(id="R", entry=(("a", ONE),), prefix=((("a", ONE),),), cycle=((("b", Mult(2)),), ()))
    slots = [("b", ("R", 0), ONE), ("a", "b", ONE), ("a", ("R", 0), Mult(2)), ("b", ("R", 0), ONE)]
    g = assemble(["a", "b"], slots, [r])
    assert g.edges == (("a", "b", ONE),)
    (out,) = g.rays
    # the old entries are dropped; parallel entries stay separate records
    assert out.entry == (("b", ONE), ("a", Mult(2)), ("b", ONE))
    assert (out.id, out.prefix, out.cycle) == (r.id, r.prefix, r.cycle)


def test_materialize_shape():
    g = fix_vi_e()
    m = materialize(g, 1)
    assert set(m.vertices) == {"v", "w", "L.x0", "L.x1", "R.x0", "R.x1"}
    assert not m.rays
    # spine edge exists below the cut, none out of the last position's spine
    pairs = {(s, d) for s, d, _ in m.edges}
    assert ("L.x0", "L.x1") in pairs
    assert all(not (s == "L.x1" and d.startswith("L.")) for s, d in pairs)
    # every spine position of fix_vi_e emits to w; all but the last keep it
    for depth in (0, 1, 3):
        m = materialize(g, depth)
        last = {f"{r.id}.x{depth}" for r in g.rays}
        assert last <= singularities(m)
        assert not any(src in last for src, _, _ in m.edges)
        below = {(f"L.x{j}", "w") for j in range(depth)}
        assert below <= {(s, d) for s, d, _ in m.edges}
