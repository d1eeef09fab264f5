import time

import pytest

from graphmoves.conditions import check_theorem
from graphmoves.contraction import contract
from graphmoves.errors import GraphError
from graphmoves.fixtures import FIXTURES, fix_b2, fix_esse, fix_inf, fix_loop, fix_vi_e
from graphmoves.graph import Graph, VertexSet, build_graph, detect_tails, graphs_equal, is_row_finite
from graphmoves.graphio import RandomSpec, generate_random
from graphmoves.ktheory import adjacency_matrix
from graphmoves.moves import (
    CocycleLabeling,
    DelayPlan,
    desingularize,
    esse_split,
    fiber_zero,
    in_delay,
    in_slot_units,
    out_delay,
    out_slot_units,
    skew_product,
    tails_to_sinks,
)
from graphmoves.multiplicity import Mult, ONE


def _core(g: Graph) -> VertexSet:
    return VertexSet.make(set(g.vertices))


# ---------------------------------------------------------------------------
# desingularization


def test_desingularize_inf_shape():
    d = desingularize(fix_inf())
    assert d.vertices == ("v", "w")
    assert d.edges == (("v", "w", ONE),)
    (r,) = d.rays
    assert r.id == "v_inf"
    assert r.entry == (("v", ONE),)
    assert r.prefix == ()
    assert r.cycle == ((("w", ONE),),)


def test_desingularize_round_trip_inf():
    d = desingularize(fix_inf())
    assert is_row_finite(d)
    back = contract(d, VertexSet.make({"v", "w"}), "checked")
    assert graphs_equal(back.graph, fix_inf())


def test_desingularize_two_targets():
    g = build_graph({
        "vertices": ["v", "w1", "w2"],
        "edges": [
            {"src": "v", "dst": "w1", "mult": "inf"},
            {"src": "v", "dst": "w2", "mult": "inf"},
            {"src": "w1", "dst": "w1", "mult": 1},
            {"src": "w2", "dst": "w2", "mult": 1},
        ],
    })
    d = desingularize(g)
    (r,) = d.rays
    assert r.cycle == ((("w1", ONE),), (("w2", ONE),))  # round robin, sorted
    back = contract(d, _core(g), "checked")
    assert graphs_equal(back.graph, g)


def test_desingularize_row_finite_noop():
    g = fix_b2()
    assert desingularize(g) is g


def test_desingularize_checks_pass_on_result():
    # the added tails satisfy (a)-(d) with G0 = the full core
    seen = 0
    seed = 0
    while seen < 100:
        g, _ = generate_random(RandomSpec(seed=seed, ray_range=(0, 0), omega_probability=0.3, core_range=(2, 6)))
        seed += 1
        if is_row_finite(g):
            continue
        d = desingularize(g)
        assert is_row_finite(d)
        verdict = check_theorem(d, _core(g))
        assert verdict.passed, (seed, verdict.kinds())
        back = contract(d, _core(g), "checked")
        assert graphs_equal(back.graph, g), seed
        seen += 1


def test_desingularize_rejects_tails():
    g = build_graph({
        "vertices": ["v", "w"],
        "edges": [{"src": "v", "dst": "w", "mult": "inf"}, {"src": "w", "dst": "w", "mult": 1}],
        "rays": [{"id": "T", "entry": [{"src": "v", "mult": 1}], "prefix": [], "cycle": [[]]}],
    })
    with pytest.raises(GraphError) as err:
        desingularize(g)
    assert err.value.code == "HAS_TAILS"


def test_desingularize_rejects_omega_entry():
    g = build_graph({
        "vertices": ["v", "w"],
        "edges": [{"src": "w", "dst": "w", "mult": 1}],
        "rays": [{"id": "L", "entry": [{"src": "v", "mult": "inf"}], "prefix": [],
                  "cycle": [[{"dst": "w", "mult": 1}]]}],
    })
    with pytest.raises(GraphError) as err:
        desingularize(g)
    assert err.value.code == "OMEGA_ENTRY"


# ---------------------------------------------------------------------------
# delays


def test_slot_units_order():
    g = fix_vi_e()
    assert out_slot_units(g, "v") == ["L.x0", "R.x0", "w"]
    g2 = fix_b2()
    assert in_slot_units(g2, "w") == ["ta", "tb"]
    with pytest.raises(GraphError) as err:
        out_slot_units(fix_inf(), "v")
    assert err.value.code == "INFINITE_DEGREE"
    with pytest.raises(GraphError) as err:
        in_slot_units(fix_vi_e(), "w")  # hit by ray cycles
    assert err.value.code == "INFINITE_DEGREE"
    for ref in ("nope", "L.x0"):  # a ray position is no core vertex
        with pytest.raises(GraphError) as err:
            in_slot_units(fix_vi_e(), ref)
        assert err.value.code == "UNKNOWN_VERTEX"
        assert err.value.context == {"vertex": ref}


def test_out_delay_loop():
    g = fix_loop()
    d = out_delay(g, [DelayPlan("u", (1,))])
    assert d.vertices == ("u", "u_1")
    assert d.edges == (("u", "u_1", ONE), ("u_1", "u", ONE))
    back = contract(d, VertexSet.make({"u"}), "checked")
    assert graphs_equal(back.graph, g)


def test_in_delay_loop():
    g = fix_loop()
    d = in_delay(g, [DelayPlan("u", (1,))])
    assert set(d.edges) == {("u", "u_1", ONE), ("u_1", "u", ONE)}
    back = contract(d, VertexSet.make({"u"}), "checked")
    assert graphs_equal(back.graph, g)


def test_in_delay_of_one_wide_slot_is_linear():
    n = 200_000
    g = Graph(("u", "v"), (("u", "v", Mult(n)), ("v", "v", ONE)))
    stages = tuple(i % 3 for i in range(n)) + (0,)  # u's units, then the loop at v
    start = time.perf_counter()
    d = in_delay(g, [DelayPlan("v", stages)])
    assert time.perf_counter() - start < 1.5
    assert set(d.edges) == {
        ("u", "v", Mult(n // 3 + 1)),
        ("u", "v_1", Mult(n // 3 + 1)),
        ("u", "v_2", Mult(n // 3)),
        ("v", "v", ONE),
        ("v_1", "v", ONE),
        ("v_2", "v_1", ONE),
    }


def test_zero_stage_plans_are_identity():
    g = fix_b2()
    plans = [DelayPlan(v, tuple(0 for _ in out_slot_units(g, v))) for v in g.vertices]
    assert graphs_equal(out_delay(g, plans), g)
    plans = [DelayPlan(v, tuple(0 for _ in in_slot_units(g, v))) for v in g.vertices]
    assert graphs_equal(in_delay(g, plans), g)


def test_out_delay_passes_checks_and_round_trips():
    import random

    rng = random.Random(11)
    done = 0
    seed = 0
    while done < 60:
        g, _ = generate_random(RandomSpec(seed=seed, ray_range=(0, 0), omega_probability=0.0))
        seed += 1
        plans = [
            DelayPlan(v, tuple(rng.randint(0, 3) for _ in out_slot_units(g, v)))
            for v in sorted(g.vertices)
            if rng.random() < 0.6
        ]
        d = out_delay(g, plans)
        verdict = check_theorem(d, _core(g))
        assert verdict.passed, (seed, verdict.kinds())
        back = contract(d, _core(g), "checked")
        assert graphs_equal(back.graph, g), seed
        done += 1


def test_in_delay_round_trips():
    import random

    rng = random.Random(13)
    done = 0
    seed = 0
    while done < 60:
        g, _ = generate_random(RandomSpec(seed=seed, ray_range=(0, 0), omega_probability=0.0))
        seed += 1
        try:
            plans = [
                DelayPlan(v, tuple(rng.randint(0, 3) for _ in in_slot_units(g, v)))
                for v in sorted(g.vertices)
                if rng.random() < 0.6
            ]
        except GraphError as err:
            assert err.code == "INFINITE_DEGREE"
            continue
        d = in_delay(g, plans)
        back = contract(d, _core(g), "checked")
        assert graphs_equal(back.graph, g), seed
        done += 1


def test_in_delay_remaps_ray_prefix_targets():
    g = build_graph({
        "vertices": ["v", "w"],
        "edges": [{"src": "w", "dst": "w", "mult": 1}],
        "rays": [{"id": "L", "entry": [{"src": "v", "mult": 1}],
                  "prefix": [[{"dst": "w", "mult": 2}]],
                  "cycle": [[]]}],
    })
    d = in_delay(g, [DelayPlan("w", (0, 1, 1))])
    (r,) = d.rays
    assert r.prefix == ((("w", ONE), ("w_1", ONE)),)
    assert set(d.edges) == {("w", "w_1", ONE), ("w_1", "w", ONE)}


def test_plan_validation():
    g = fix_b2()
    with pytest.raises(GraphError) as err:
        out_delay(g, [DelayPlan("v", (0, 0))])
    assert err.value.code == "STAGE_MISMATCH"
    with pytest.raises(GraphError) as err:
        out_delay(g, [DelayPlan("v", (0,)), DelayPlan("v", (1,))])
    assert err.value.code == "STAGE_MISMATCH"
    with pytest.raises(GraphError):
        DelayPlan("v", (-1,))
    with pytest.raises(GraphError) as err:
        out_delay(g, [DelayPlan("ghost", (0,))])
    assert err.value.code == "UNKNOWN_VERTEX"


def test_gantlet_name_collision():
    g = build_graph({
        "vertices": ["u", "u_1"],
        "edges": [{"src": "u", "dst": "u", "mult": 1}, {"src": "u_1", "dst": "u", "mult": 1}],
    })
    with pytest.raises(GraphError) as err:
        out_delay(g, [DelayPlan("u", (1,))])
    assert err.value.code == "DUPLICATE_ID"


# ---------------------------------------------------------------------------
# ESSE


def test_esse_split_fixture():
    left, right = esse_split(fix_esse(), (VertexSet.make({"a"}), VertexSet.make({"x"})))
    assert left.graph.vertices == ("a",)
    assert left.graph.edges == (("a", "a", ONE),)
    assert right.graph.vertices == ("x",)
    assert right.graph.edges == (("x", "x", ONE),)


def test_esse_rejects_bad_partitions():
    g = fix_esse()
    with pytest.raises(GraphError) as err:
        esse_split(g, (VertexSet.make({"a", "x"}), VertexSet.make(set())))
    assert err.value.code == "NOT_BIPARTITE"
    with pytest.raises(GraphError) as err:
        esse_split(g, (VertexSet.make({"a"}), VertexSet.make({"a", "x"})))
    assert err.value.code == "NOT_BIPARTITE"
    # the middle graph has no rays, so a side that names ray positions is no
    # side of a partition of its vertices
    for sides in [
        (VertexSet.make({"a"}, {"R": 0}), VertexSet.make({"x"})),
        (VertexSet.make({"a"}), VertexSet.make({"x"}, {"R": 1})),
    ]:
        with pytest.raises(GraphError) as err:
            esse_split(g, sides)
        assert err.value.code == "NOT_BIPARTITE"
    loop = fix_loop()
    with pytest.raises(GraphError) as err:
        esse_split(loop, (VertexSet.make({"u"}), VertexSet.make(set())))
    assert err.value.code == "NOT_BIPARTITE"
    with pytest.raises(GraphError) as err:
        esse_split(fix_vi_e(), (VertexSet.make({"v"}), VertexSet.make({"w"})))
    assert err.value.code == "HAS_RAYS"


def test_esse_split_names_the_side_that_fails():
    # x is a sink, so contracting onto side 1 leaves a singularity outside it
    g = build_graph({"vertices": ["a", "x"], "edges": [{"src": "a", "dst": "x"}]})
    with pytest.raises(GraphError) as err:
        esse_split(g, (VertexSet.make({"a"}), VertexSet.make({"x"})))
    assert err.value.code == "CONDITIONS_FAILED"
    assert err.value.context["side"] == 1
    assert [v["kind"] for v in err.value.context["verdict"]["violations"]] == ["SINGULARITY_OUTSIDE_G0"]


def _random_bipartite(rng):
    n1 = rng.randint(1, 3)
    n2 = rng.randint(1, 3)
    side1 = [f"a{i}" for i in range(n1)]
    side2 = [f"x{i}" for i in range(n2)]
    edges = []
    # every vertex needs an exit so the middle graph has no sinks
    for u in side1:
        targets = rng.sample(side2, rng.randint(1, n2))
        edges.extend({"src": u, "dst": t, "mult": rng.randint(1, 3)} for t in targets)
    for u in side2:
        targets = rng.sample(side1, rng.randint(1, n1))
        edges.extend({"src": u, "dst": t, "mult": rng.randint(1, 3)} for t in targets)
    g = build_graph({"vertices": side1 + side2, "edges": edges})
    return g, VertexSet.make(set(side1)), VertexSet.make(set(side2))


def test_esse_matches_adjacency_product():
    # side i edge counts equal the (i,i) block of the bipartite product
    import random

    rng = random.Random(3)
    for _ in range(100):
        g, v1, v2 = _random_bipartite(rng)
        left, right = esse_split(g, (v1, v2))
        order, a = adjacency_matrix(g)
        idx = {v: i for i, v in enumerate(order)}
        prod = [[sum(a[i][k] * a[k][j] for k in range(len(order))) for j in range(len(order))] for i in range(len(order))]
        for side in (left, right):
            _, b = adjacency_matrix(side.graph)
            sorder = sorted(side.graph.vertices)
            for i, u in enumerate(sorder):
                for j, w in enumerate(sorder):
                    assert b[i][j] == prod[idx[u]][idx[w]], (u, w)


# ---------------------------------------------------------------------------
# skew products


def test_skew_loop_cycles():
    g = fix_loop()
    s2 = skew_product(g, CocycleLabeling(2, (1,)))
    assert s2.vertices == ("u@0", "u@1")
    assert set(s2.edges) == {("u@0", "u@1", ONE), ("u@1", "u@0", ONE)}
    s1 = skew_product(g, CocycleLabeling(1, (0,)))
    assert s1.edges == (("u@0", "u@0", ONE),)


def test_skew_label_zero_disconnects_fibers():
    g = fix_loop()
    s = skew_product(g, CocycleLabeling(3, (0,)))
    assert set(s.edges) == {(f"u@{k}", f"u@{k}", ONE) for k in range(3)}


def test_fiber_zero_contraction_undoes_skew():
    g = fix_loop()
    s = skew_product(g, CocycleLabeling(3, (1,)))
    back = contract(s, fiber_zero(s), "checked")
    renamed = build_graph({
        "vertices": ["u@0"],
        "edges": [{"src": "u@0", "dst": "u@0", "mult": 1}],
    })
    assert graphs_equal(back.graph, renamed)


def test_skew_preserves_degree_profile_fiberwise():
    import random

    rng = random.Random(5)
    for seed in range(20):
        g, _ = generate_random(RandomSpec(seed=seed, ray_range=(0, 0), omega_probability=0.0))
        p = rng.randint(1, 4)
        labels = tuple(rng.randrange(p) for _ in g.edges)
        s = skew_product(g, CocycleLabeling(p, labels))
        assert len(s.vertices) == p * len(g.vertices)
        _, a = adjacency_matrix(g)
        _, b = adjacency_matrix(s)
        assert sum(map(sum, b)) == p * sum(map(sum, a))
        order = sorted(g.vertices)
        sorder = sorted(s.vertices)
        for v in order:
            row = sum(a[order.index(v)])
            for k in range(p):
                srow = sum(b[sorder.index(f"{v}@{k}")])
                assert srow == row, (v, k)


def test_skew_product_rejects_rays():
    with pytest.raises(GraphError) as err:
        skew_product(fix_vi_e(), CocycleLabeling(2, ()))
    assert err.value.code == "HAS_RAYS"


def test_skew_label_count_checked():
    with pytest.raises(GraphError) as err:
        skew_product(fix_loop(), CocycleLabeling(2, (1, 0)))
    assert err.value.code == "STAGE_MISMATCH"
    with pytest.raises(GraphError):
        CocycleLabeling(0, ())
    with pytest.raises(GraphError):
        CocycleLabeling(2, (2,))


# ---------------------------------------------------------------------------
# tails to sinks


def test_tails_noop_on_fixtures():
    for name, build in FIXTURES.items():
        g = build()
        assert tails_to_sinks(g) is g, name


def test_tails_core_head_becomes_sink():
    g = build_graph({
        "vertices": ["b", "u", "c1"],
        "edges": [
            {"src": "b", "dst": "u", "mult": 1},
            {"src": "b", "dst": "b", "mult": 1},
            {"src": "u", "dst": "c1", "mult": 1},
        ],
        "rays": [{"id": "T", "entry": [{"src": "c1", "mult": 1}], "prefix": [], "cycle": [[]]}],
    })
    t = tails_to_sinks(g)
    assert set(t.vertices) == {"b", "u"}
    assert set(t.edges) == {("b", "u", ONE), ("b", "b", ONE)}
    assert not t.rays
    assert detect_tails(t) == []


def test_tails_x0_head_becomes_sink():
    g = build_graph({
        "vertices": ["a", "b"],
        "edges": [{"src": "a", "dst": "b", "mult": 1}, {"src": "b", "dst": "a", "mult": 1}],
        "rays": [{"id": "T", "entry": [{"src": "a", "mult": 1}, {"src": "b", "mult": 1}],
                  "prefix": [], "cycle": [[]]}],
    })
    t = tails_to_sinks(g)
    assert set(t.vertices) == {"a", "b", "T.x0"}
    assert ("a", "T.x0", ONE) in t.edges and ("b", "T.x0", ONE) in t.edges
    assert detect_tails(t) == []


def test_tails_mid_ray_head_keeps_live_positions():
    g = build_graph({
        "vertices": ["a"],
        "edges": [{"src": "a", "dst": "a", "mult": 1}],
        "rays": [{"id": "T", "entry": [{"src": "a", "mult": 1}],
                  "prefix": [[{"dst": "a", "mult": 3}]], "cycle": [[]]}],
    })
    t = tails_to_sinks(g)
    assert set(t.vertices) == {"a", "T.x0", "T.x1"}
    assert ("T.x0", "a", Mult(3)) in t.edges
    assert ("T.x0", "T.x1", ONE) in t.edges
    assert detect_tails(t) == []


def test_tails_keep_a_ray_that_is_no_tail():
    # T is a bare tail from x0; L keeps emitting into a, so it stays as it is
    g = build_graph({
        "vertices": ["a"],
        "edges": [{"src": "a", "dst": "a", "mult": 1}],
        "rays": [
            {"id": "L", "entry": [{"src": "a", "mult": 1}], "prefix": [], "cycle": [[{"dst": "a", "mult": 1}]]},
            {"id": "T", "entry": [{"src": "a", "mult": 1}], "prefix": [], "cycle": [[]]},
        ],
    })
    t = tails_to_sinks(g)
    assert t.rays == (g.ray_map["L"],)
    assert set(t.vertices) == {"a", "T.x0"}
    assert ("a", "T.x0", ONE) in t.edges
    assert detect_tails(t) == []


def test_tails_then_desingularize_composes():
    g = build_graph({
        "vertices": ["v", "w"],
        "edges": [{"src": "v", "dst": "w", "mult": "inf"}, {"src": "w", "dst": "w", "mult": 1}],
        "rays": [{"id": "T", "entry": [{"src": "w", "mult": 1}], "prefix": [], "cycle": [[]]}],
    })
    cut = tails_to_sinks(g)
    assert detect_tails(cut) == []
    d = desingularize(cut)
    assert is_row_finite(d)
