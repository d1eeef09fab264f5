import time

import pytest

from graphmoves.conditions import induced_T
from graphmoves.contraction import ck_expand, contract, count_Bv, enumerate_Bv
from graphmoves.errors import GraphError
from graphmoves.fixtures import FIXTURES, fix_b2, fix_inf, fix_loop, fix_vi_e, fix_vi_f
from graphmoves.graph import (
    Graph,
    Ray,
    VertexSet,
    build_graph,
    full_vertex_set,
    graphs_equal,
    parse_ref,
)
from graphmoves.graphio import RandomSpec, generate_random, graph_record
from graphmoves.multiplicity import Mult, OMEGA, ONE, ZERO, msum

VW = VertexSet.make({"v", "w"})


# ---------------------------------------------------------------------------
# frozen B_v values


def test_b2_paths():
    fam = enumerate_Bv(fix_b2(), VW, "v")
    assert [p.refs for p in fam.finite_part] == [("v", "t0", "ta", "w"), ("v", "t0", "tb", "w")]
    assert all(p.count == ONE for p in fam.finite_part)
    assert fam.infinite_families == ()
    assert fam.cardinality == Mult(2)
    assert fam.max_length == Mult(3)


def test_b2_w_empty():
    fam = enumerate_Bv(fix_b2(), VW, "w")
    assert fam.cardinality == ZERO
    assert fam.max_length is None


def test_vi_e_families():
    fam = enumerate_Bv(fix_vi_e(), VW, "v")
    assert [p.refs for p in fam.finite_part] == [("v", "w")]
    assert [f.refs for f in fam.infinite_families] == [("v", "L.x0", "w"), ("v", "R.x0", "w")]
    assert fam.cardinality.is_omega
    assert fam.max_length.is_omega
    left = fam.infinite_families[0]
    assert left.member((0,)) == ("v", "L.x0", "w")
    assert left.member((1,)) == ("v", "L.x0", "L.x1", "w")
    assert left.member((2,)) == ("v", "L.x0", "L.x1", "L.x2", "w")


def test_parallel_records_keep_slot_order():
    # paths with equal refs differ only in count; they appear in the order of
    # the records they use, depth first, as contract's provenance lists them
    g = build_graph({
        "vertices": ["v", "t", "w"],
        "edges": [
            {"src": "v", "dst": "t", "mult": 1},
            {"src": "v", "dst": "t", "mult": 2},
            {"src": "t", "dst": "w", "mult": 1},
            {"src": "t", "dst": "w", "mult": 3},
        ],
        "rays": [{"id": "L", "entry": [{"src": "v"}], "prefix": [[{"dst": "w", "mult": 1}, {"dst": "w", "mult": 2}]],
                  "cycle": [[{"dst": "w", "mult": 5}, {"dst": "w", "mult": 4}]]}],
    })
    fam = enumerate_Bv(g, VW, "v")
    assert [(p.refs, p.count.n) for p in fam.finite_part] == [
        (("v", "L.x0", "w"), 1), (("v", "L.x0", "w"), 2),
        (("v", "t", "w"), 1), (("v", "t", "w"), 3), (("v", "t", "w"), 2), (("v", "t", "w"), 6),
    ]
    assert [(f.refs, f.base_count.n) for f in fam.infinite_families] == [
        (("v", "L.x0", "L.x1", "w"), 5), (("v", "L.x0", "L.x1", "w"), 4),
    ]


def test_antichain_on_fixtures():
    # B_v paths exit at their first g0 vertex, so no refs extend other refs
    for name, build in FIXTURES.items():
        g = build()
        g0 = VertexSet.make(set(g.vertices))
        for v in g0.core:
            fam = enumerate_Bv(g, g0, v)
            refs = [p.refs for p in fam.finite_part] + [f.refs for f in fam.infinite_families]
            for a in refs:
                for b in refs:
                    if a is not b:
                        assert a[: len(b)] != b, (name, v, a, b)


# ---------------------------------------------------------------------------
# contraction results


def test_unknown_contraction_mode_is_a_bad_argument():
    with pytest.raises(GraphError) as err:
        contract(fix_b2(), VW, "loose")
    assert err.value.code == "BAD_ARGUMENT"


def test_wrong_loop_parameter_count_is_a_bad_argument():
    (left, _) = enumerate_Bv(fix_vi_e(), VW, "v").infinite_families
    with pytest.raises(GraphError) as err:
        left.member((1, 2))
    assert err.value.code == "BAD_ARGUMENT"


def test_contract_b2():
    out = contract(fix_b2(), VW, "checked")
    assert out.graph.vertices == ("v", "w")
    assert out.graph.edges == (("v", "w", Mult(2)),)
    assert out.graph.rays == ()


def test_contract_vi_e_unchecked_gives_inf():
    out = contract(fix_vi_e(), VW, "unchecked")
    assert graphs_equal(out.graph, fix_inf())


def test_contract_vi_e_checked_refuses():
    with pytest.raises(GraphError) as err:
        contract(fix_vi_e(), VW, "checked")
    assert err.value.code == "CONDITIONS_FAILED"
    assert "COND_A" in err.value.message


def test_identity_contraction_all_fixtures():
    for name, build in FIXTURES.items():
        g = build()
        out = contract(g, full_vertex_set(g), "checked")
        assert graphs_equal(out.graph, g), name


def test_cyclic_T_refused_unchecked():
    with pytest.raises(GraphError) as err:
        contract(fix_loop(), VertexSet.make(set()), "unchecked")
    assert err.value.code == "T_NOT_ACYCLIC"


def test_contract_runs_one_cycle_search(monkeypatch):
    from graphmoves import conditions

    calls = []
    real = conditions.search_graph
    monkeypatch.setattr(conditions, "search_graph", lambda *a, **k: calls.append(1) or real(*a, **k))
    g = fix_b2()
    for mode in ("checked", "unchecked"):
        calls.clear()
        contract(g, VW, mode)
        assert len(calls) == 1, mode
    with pytest.raises(GraphError) as err:
        contract(fix_loop(), VertexSet.make(set()), "checked")
    assert err.value.code == "CONDITIONS_FAILED"
    calls.clear()
    enumerate_Bv(g, VW, "v")  # the public walk still checks T itself
    assert len(calls) == 1


def test_long_chain_contracts_without_recursion():
    # the B_v walk keeps its own stack, so path length is not bounded by the
    # interpreter's recursion limit
    n = 2000
    names = ["v"] + [f"c{i}" for i in range(n)] + ["w"]
    g = build_graph({
        "vertices": names,
        "edges": [{"src": a, "dst": b, "mult": 1} for a, b in zip(names, names[1:])],
    })
    out = contract(g, VW, "checked")
    assert out.graph.edges == (("v", "w", ONE),)
    assert [rec["path"] for rec in out.provenance[("v", "w")]] == [names]


def test_contract_record_is_the_graph_record_plus_provenance():
    g = build_graph({
        "vertices": ["w", "t", "v"],
        "edges": [{"src": "v", "dst": "t"}, {"src": "t", "dst": "w"}, {"src": "w", "dst": "v"}],
    })
    out = contract(g, VW, "checked")
    rec = out.to_record()
    assert rec.pop("provenance") == {
        "v->w": [{"path": ["v", "t", "w"], "count": 1}],
        "w->v": [{"path": ["w", "v"], "count": 1}],
    }
    assert rec == graph_record(out.graph)
    assert rec["vertices"] == ["v", "w"]


def test_g0_with_escaping_ray_refused():
    # keeping ray L in g0 while w stays outside leaves a dangling ray target
    g = fix_vi_e()
    with pytest.raises(GraphError) as err:
        contract(g, VertexSet.make({"v"}, {"L": 0}), "unchecked")
    assert err.value.code == "G0_CONTAINS_RAY"


def test_tree_contraction_powers_of_two():
    # binary tree of depth n between v and w contracts to a single edge 2^(n-1)
    for n in range(1, 7):
        vertices = ["v", "w"]
        edges = [{"src": "v", "dst": "t", "mult": 1}]
        layers = [["t"]]
        vertices.append("t")
        for d in range(1, n):
            layer = []
            for parent in layers[-1]:
                for tag in ("a", "b"):
                    child = f"{parent}{tag}"
                    vertices.append(child)
                    edges.append({"src": parent, "dst": child, "mult": 1})
                    layer.append(child)
            layers.append(layer)
        for leaf in layers[-1]:
            edges.append({"src": leaf, "dst": "w", "mult": 1})
        edges.append({"src": "w", "dst": "w", "mult": 1})
        g = build_graph({"vertices": vertices, "edges": edges})
        assert len(g.vertices) == 2 ** n - 1 + 2
        out = contract(g, VW, "checked")
        expected = build_graph({
            "vertices": ["v", "w"],
            "edges": [{"src": "v", "dst": "w", "mult": 2 ** (n - 1)},
                      {"src": "w", "dst": "w", "mult": 1}],
        })
        assert graphs_equal(out.graph, expected), n


# ---------------------------------------------------------------------------
# provenance


def test_provenance_accounts_for_every_edge():
    g = fix_b2()
    out = contract(g, VW, "checked")
    for src, dst, m in out.graph.edges:
        recs = out.provenance[(src, dst)]
        total = msum(Mult.from_json(r["count"]) for r in recs)
        assert total == m
        for r in recs:
            path = r["path"]
            assert path[0] == src and path[-1] == dst
            # interior vertices lie outside g0
            for ref in path[1:-1]:
                assert not VW.contains_node(parse_ref(g, ref))


# ---------------------------------------------------------------------------
# ck_expand against enumerate_Bv


def test_ck_expand_b2():
    got = ck_expand(fix_b2(), VW, "v")
    assert got == {("v", "t0", "ta", "w"): ONE, ("v", "t0", "tb", "w"): ONE}
    got0 = ck_expand(fix_b2(), VW, "t0")
    assert got0 == {("t0", "ta", "w"): ONE, ("t0", "tb", "w"): ONE}


def test_ck_expand_empty_and_infinite_refused():
    with pytest.raises(GraphError) as err:
        ck_expand(fix_b2(), VW, "w")
    assert err.value.code == "BV_EMPTY"
    with pytest.raises(GraphError) as err:
        ck_expand(fix_vi_e(), VW, "v")
    assert err.value.code == "BV_INFINITE"
    with pytest.raises(GraphError) as err:
        ck_expand(fix_inf(), VW, "v")  # omega out-degree
    assert err.value.code == "BV_INFINITE"


def test_ck_expand_drops_leaves_that_cannot_reach_g0():
    # a climb of a T ray whose cycle never leads back to g0 drops out, as a
    # sink does, instead of climbing until the sweeps run out
    tail_ray = build_graph({
        "vertices": ["v0", "v1", "v2"],
        "edges": [{"src": "v0", "dst": "v2", "mult": 2}, {"src": "v1", "dst": "v2", "mult": 2},
                  {"src": "v2", "dst": "v2", "mult": 3}],
        "rays": [{"id": "R0", "entry": [{"src": "v1"}], "prefix": [], "cycle": [[]]}],
    })
    into_sink = build_graph({
        "vertices": ["a", "s", "b"],
        "edges": [{"src": "a", "dst": "b"}],
        "rays": [{"id": "R", "entry": [{"src": "a"}], "prefix": [], "cycle": [[{"dst": "s"}]]}],
    })
    # v emits omega edges into a sink of T, and one edge into g0
    omega_dead_end = build_graph({
        "vertices": ["v", "w", "s"],
        "edges": [{"src": "v", "dst": "w"}, {"src": "v", "dst": "s", "mult": "inf"}],
    })
    assert ck_expand(tail_ray, VertexSet.make({"v1", "v2"}), "v1") == {("v1", "v2"): Mult(2)}
    assert ck_expand(into_sink, VertexSet.make({"a", "b"}), "a") == {("a", "b"): ONE}
    assert ck_expand(omega_dead_end, VW, "v") == {("v", "w"): ONE}


def _passing_instances(count, **overrides):
    out = []
    seed = 0
    while len(out) < count:
        out.append(generate_random(RandomSpec(seed=seed, passing=True, **overrides)))
        seed += 1
    return out


def test_ck_expand_matches_enumeration_on_random():
    matched = 0
    for g, g0 in _passing_instances(200):
        for v in sorted(g0.core):
            fam = enumerate_Bv(g, g0, v)
            if fam.cardinality.is_zero or fam.cardinality.is_omega or fam.infinite_families:
                continue
            got = ck_expand(g, g0, v)
            want = {}
            for p in fam.finite_part:
                want[p.refs] = want.get(p.refs, ZERO) + p.count
            assert got == want, (v, g0.render())
            matched += 1
    assert matched > 100


# ---------------------------------------------------------------------------
# three routes to |B_v|: the counting pass, the walk and the rewriting


def _unit(g):
    """g with every record's multiplicity set to 1, so counts count records:
    its count of B_v is the number of paths enumerate_Bv lists for g."""
    units = lambda pairs: tuple((x, ONE) for x, _ in pairs)
    return Graph(
        vertices=g.vertices,
        edges=tuple((s, d, ONE) for s, d, _ in g.edges),
        rays=tuple(
            Ray(r.id, units(r.entry), tuple(map(units, r.prefix)), tuple(map(units, r.cycle)))
            for r in g.rays
        ),
    )


def _by_end(fam):
    """enumerate_Bv's family summed per end ref: finite counts, omega per family."""
    out = {}
    for p in fam.finite_part:
        out[p.refs[-1]] = out.get(p.refs[-1], ZERO) + p.count
    for f in fam.infinite_families:
        out[f.refs[-1]] = OMEGA
    return out


def _enumerated_contraction(g, g0):
    """(edges, ray entries) of the contraction onto g0, assembled from enumerate_Bv."""
    edges, entries = {}, {}
    for u in g.vertices:
        if u in g0.core:
            for end, m in _by_end(enumerate_Bv(g, g0, u)).items():
                node = parse_ref(g, end)
                if isinstance(node, tuple):
                    entries[(u, node[0])] = m
                else:
                    edges[(u, end)] = m
    return edges, entries


def _draws():
    """1,000 draws with 0-3 rays at omega 0.1 and 0.3, half of them passing."""
    out = []
    for omega in (0.1, 0.3):
        spec = dict(omega_probability=omega, ray_range=(0, 3), cycle_range=(1, 3))
        out.extend(generate_random(RandomSpec(seed=seed, **spec)) for seed in range(250))
        out.extend(_passing_instances(250, **spec))
    return out


def test_enumeration_counts_match_dp_on_random():
    # three routes to |B_v| (the counting pass, the walk, the rewriting), and
    # contract in both modes against a contraction assembled from the walk
    counted = finite = omega = contracted = 0
    for g, g0 in _draws():
        try:
            enumerate_Bv(g, g0, min(g.vertices))
        except GraphError as err:
            assert err.code == "T_NOT_ACYCLIC"
            with pytest.raises(GraphError) as again:
                count_Bv(g, g0, min(g.vertices))
            assert again.value.code == "T_NOT_ACYCLIC"
            continue
        for v in sorted(g0.core):
            fam = enumerate_Bv(g, g0, v)
            counts = count_Bv(g, g0, v)
            assert counts == _by_end(fam), (v, g0.render())
            assert msum(counts.values()) == fam.cardinality
            plain = msum(count_Bv(_unit(g), g0, v).values())
            assert plain == (OMEGA if fam.infinite_families else Mult(len(fam.finite_part)))
            counted += 1
            omega += fam.cardinality.is_omega
            if fam.cardinality.is_zero or fam.cardinality.is_omega:
                with pytest.raises(GraphError) as err:
                    ck_expand(g, g0, v)
                assert err.value.code == ("BV_EMPTY" if fam.cardinality.is_zero else "BV_INFINITE")
                continue
            leaves = ck_expand(g, g0, v)  # every finite, nonempty B_v gets an answer
            by_end = {}
            for refs, m in leaves.items():
                by_end[refs[-1]] = by_end.get(refs[-1], ZERO) + m
            assert by_end == counts, (v, g0.render())
            finite += 1
        want = _enumerated_contraction(g, g0)
        for mode in ("checked", "unchecked"):
            try:
                out = contract(g, g0, mode).graph
            except GraphError as err:
                assert err.code in ("CONDITIONS_FAILED", "G0_CONTAINS_RAY"), err.code
                continue
            edges = {(s, d): m for s, d, m in out.edges}
            entries = {(u, r.id): m for r in out.rays for u, m in r.entry}
            assert (edges, entries) == want, (mode, g0.render())
            contracted += 1
    assert counted > 2000 and finite > 500 and omega > 500 and contracted > 1000


def test_count_B_v_starts_like_the_walk():
    # any start: a g0 vertex, a T core vertex, a T spine position below and
    # past period_bound (counted from its class, as the walk), a position of
    # a ray in g0
    g = fix_vi_e()
    g0 = VertexSet.make({"v", "w"}, {"R": 0})
    for ref in ("v", "w", "L.x0", "L.x1", "L.x5", "R.x0", "R.x3"):
        assert count_Bv(g, g0, ref) == _by_end(enumerate_Bv(g, g0, ref)), ref
    assert count_Bv(g, g0, "L.x5") == {"w": OMEGA}
    assert count_Bv(g, g0, "v") == {"R.x0": ONE, "w": OMEGA}


def test_late_spine_positions_count_as_their_class():
    # B_{L.x1} on fix_vi_e climbs L's cycle to w infinitely often, as B_{L.x0}
    assert count_Bv(fix_vi_e(), VW, "L.x1") == {"w": OMEGA}
    with pytest.raises(GraphError) as err:
        ck_expand(fix_vi_e(), VW, "L.x1")
    assert err.value.code == "BV_INFINITE"
    cases = [(g, VertexSet.make(g.vertices)) for g in (build() for build in FIXTURES.values())]
    seed = 0
    while len(cases) < 506:
        g, g0 = generate_random(RandomSpec(seed=seed, ray_range=(1, 3), cycle_range=(1, 3),
                                           omega_probability=(0.0, 0.1, 0.3)[seed % 3]))
        seed += 1
        if not induced_T(g, g0).cycles:  # B-paths are defined for an acyclic T
            cases.append((g, g0))
    positions = 0
    for g, g0 in cases:
        for r in g.rays:
            if g0.ray_state(r.id) is not None:
                continue
            for j in range(r.period_bound, 2 * r.period_bound + 2):  # below, j is its class
                ref, cls = f"{r.id}.x{j}", f"{r.id}.x{r.class_of(j)}"
                assert count_Bv(g, g0, ref) == count_Bv(g, g0, cls), (ref, g0)
                assert enumerate_Bv(g, g0, ref).cardinality == enumerate_Bv(g, g0, cls).cardinality, ref
                positions += 1
    assert positions > 1500


# ---------------------------------------------------------------------------
# lazy provenance and scaling


def test_contract_walks_no_path_until_provenance_is_read(monkeypatch):
    from graphmoves import contraction

    walked = []
    real = contraction._walk_Bv
    monkeypatch.setattr(contraction, "_walk_Bv", lambda t, v: walked.append(v) or real(t, v))
    out = contract(fix_vi_e(), VW, "unchecked")
    contract(fix_b2(), VW, "checked").graph
    assert walked == []
    assert out.to_record() == {
        "vertices": ["v", "w"],
        "edges": [{"src": "v", "dst": "w", "mult": "inf"}],
        "rays": [],
        "provenance": {"v->w": [
            {"path": ["v", "w"], "count": 1},
            {"path": ["v", "L.x0", "w"], "count": "inf", "climbs": [{"ref_index": 1, "ray": "L", "position": 0}]},
            {"path": ["v", "R.x0", "w"], "count": "inf", "climbs": [{"ref_index": 1, "ray": "R", "position": 0}]},
        ]},
    }
    assert walked == ["v", "w"]  # one walk per g0 vertex, in vertex order
    out.to_record()
    assert walked == ["v", "w"]  # read once, then cached


def _diamonds(k):
    """v, then k diamonds in a row, then w: 2^k B-paths from v to w."""
    names, edges, prev = ["v", "w"], [], "v"
    for i in range(k):
        a, b, join = f"a{i}", f"b{i}", f"j{i}"
        names += [a, b, join]
        edges += [(prev, a), (prev, b), (a, join), (b, join)]
        prev = join
    edges += [(prev, "w"), ("w", "w")]
    return build_graph({"vertices": names, "edges": [{"src": s, "dst": d} for s, d in edges]})


def test_forty_diamonds_count_without_walking():
    g = _diamonds(40)
    start = time.perf_counter()
    out = contract(g, VW, "checked")
    elapsed = time.perf_counter() - start
    assert out.graph.edges == (("v", "w", Mult(2 ** 40)), ("w", "w", ONE))
    assert elapsed < 1.0  # listing the 2^40 paths would never finish
    assert count_Bv(g, VW, "v") == {"w": Mult(2 ** 40)}
    small = contract(_diamonds(6), VW, "checked")
    assert len(small.provenance[("v", "w")]) == 2 ** 6


def test_contract_roundtrip_double_contraction():
    # contracting in two stages equals contracting once (on a passing chain)
    g = build_graph({
        "vertices": ["v", "m", "w"],
        "edges": [
            {"src": "v", "dst": "m", "mult": 2},
            {"src": "m", "dst": "w", "mult": 3},
            {"src": "w", "dst": "w", "mult": 1},
        ],
    })
    once = contract(g, VW, "checked").graph
    via_mid = contract(contract(g, VertexSet.make({"v", "m", "w"}), "checked").graph, VW, "checked").graph
    assert graphs_equal(once, via_mid)
    assert once.edges == (("v", "w", Mult(6)), ("w", "w", ONE))
