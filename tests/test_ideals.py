import random
import re
import time
from itertools import chain, combinations

import pytest

from graphmoves.contraction import contract
from graphmoves.errors import GraphError
from graphmoves.fixtures import FIXTURES, fix_b2, fix_inf, fix_loop, fix_vi_e, fix_vi_f
from graphmoves.graph import (
    Graph,
    VertexSet,
    build_graph,
    check_membership_args,
    full_vertex_set,
    out_multiplicity,
    out_slots,
    reachable_set,
)
from graphmoves.graphio import RandomSpec, generate_random
from graphmoves.ideals import (
    MAX_MEMBERS,
    check_fullness,
    closure_SH,
    enumerate_SH,
    is_hereditary,
    is_saturated,
    sh_hasse_dot,
)
from graphmoves.multiplicity import OMEGA, ONE

VW = VertexSet.make({"v", "w"})


# ---------------------------------------------------------------------------
# closure basics


def test_closure_frozen_values():
    assert closure_SH(fix_b2(), VertexSet.make({"w"})) == full_vertex_set(fix_b2())
    assert closure_SH(fix_vi_f(), VertexSet.make({"w"})) == VertexSet.make({"w"})
    assert closure_SH(fix_b2(), VertexSet.make(set())).is_empty()
    got = closure_SH(fix_vi_e(), VertexSet.make(set(), {"L": 2}))
    assert got == VertexSet.make({"w"}, {"L": 0})


def test_hereditary_saturated_flags():
    assert is_hereditary(fix_vi_e(), VertexSet.make({"w"}))
    assert is_saturated(fix_vi_e(), VertexSet.make({"w"}))
    assert not is_hereditary(fix_b2(), VertexSet.make({"t0"}))
    assert not is_saturated(fix_b2(), VertexSet.make({"w", "ta", "tb", "t0"}))


def test_hereditary_checks_every_cycle_class_past_the_state():
    # R.x1 emits nothing, but R.x2 (the cycle's first class again) emits to w
    g = build_graph({
        "vertices": ["u", "w"],
        "edges": [],
        "rays": [{"id": "R", "entry": [{"src": "u"}], "prefix": [], "cycle": [[{"dst": "w"}], []]}],
    })
    assert not is_hereditary(g, VertexSet.make(set(), {"R": 1}))
    assert not is_hereditary(g, VertexSet.make(set(), {"R": 5}))
    assert is_hereditary(g, VertexSet.make({"w"}, {"R": 1}))


def _atoms(g: Graph):
    atoms = [VertexSet.make({v}) for v in g.vertices]
    for r in g.rays:
        for k in range(len(r.prefix) + 1):
            atoms.append(VertexSet.make(set(), {r.id: k}))
    return atoms


def _all_subsets(g: Graph):
    atoms = _atoms(g)
    sets = []
    for picks in chain.from_iterable(combinations(atoms, k) for k in range(len(atoms) + 1)):
        s = VertexSet.make(set())
        for a in picks:
            s = s.union(a)
        sets.append(s)
    return sets


def test_closure_laws_exhaustive():
    for name, build in FIXTURES.items():
        g = build()
        subsets = _all_subsets(g)
        closures = {s: closure_SH(g, s) for s in subsets}
        for s, c in closures.items():
            assert s.is_subset(c), (name, s.render())  # extensive
            assert closure_SH(g, c) == c, (name, s.render())  # idempotent
            assert is_hereditary(g, c) and is_saturated(g, c), (name, s.render())
        for a in subsets:
            for b in subsets:
                if a.is_subset(b):
                    assert closures[a].is_subset(closures[b]), (name, a.render(), b.render())


# ---------------------------------------------------------------------------
# enumerate_SH frozen families


def _family_shape(g):
    fam = enumerate_SH(g)
    return [m.render() for m in fam.members], fam.nontrivial_count


def test_families_frozen():
    assert _family_shape(fix_loop()) == (["{}", "{u}"], 0)
    assert _family_shape(fix_b2()) == (["{}", "{t0, ta, tb, v, w}"], 0)
    assert _family_shape(fix_inf()) == (["{}", "{w}", "{v, w}"], 1)
    assert _family_shape(fix_vi_e()) == (
        ["{}", "{w}", "{w, L.x0+}", "{w, R.x0+}", "{v, w, L.x0+, R.x0+}"],
        3,
    )
    members, count = _family_shape(fix_vi_f())
    assert count == 2
    assert "{w}" in members and "{w, X.x0+}" in members


def test_order_is_strict_inclusion():
    fam = enumerate_SH(fix_vi_e())
    for i, j in fam.order:
        assert fam.members[i].is_subset(fam.members[j])
        assert fam.members[i] != fam.members[j]
    # and nothing is missing
    pairs = {(i, j) for i, j in fam.order}
    for i, a in enumerate(fam.members):
        for j, b in enumerate(fam.members):
            if i != j and a.is_subset(b):
                assert (i, j) in pairs


def _covers_oracle(members):
    """The covering pairs by the cubic filter over all strict inclusions."""
    strict = {(i, j) for i, a in enumerate(members) for j, b in enumerate(members) if i != j and a.is_subset(b)}
    n = len(members)
    return tuple(sorted(
        (i, j) for i, j in strict if not any((i, k) in strict and (k, j) in strict for k in range(n))
    ))


def test_covers_match_cubic_filter():
    for name, build in FIXTURES.items():
        fam = enumerate_SH(build())
        assert fam.covers == _covers_oracle(fam.members), name
    with_rays = 0
    for seed in range(800):
        spec = RandomSpec(seed=seed, omega_probability=(0.1, 0.3)[seed % 2], ray_range=(1, 3), cycle_range=(1, 3))
        g, _ = generate_random(spec)
        fam = enumerate_SH(g)
        assert fam.covers == _covers_oracle(fam.members), seed
        with_rays += bool(g.rays)
    assert with_rays == 800


def test_closure_from_a_far_ray_state_is_immediate():
    g = fix_vi_e()
    start = time.perf_counter()
    far = closure_SH(g, VertexSet.make(set(), {"L": 1_000_000_000}))
    # a far state of a set holding every cycle target is not saturated
    assert not is_saturated(g, VertexSet.make({"w"}, {"L": 1_000_000_000}))
    assert time.perf_counter() - start < 0.1
    assert far == closure_SH(g, VertexSet.make(set(), {"L": 1}))


def test_isolated_vertices_lattice_is_fast():
    g = build_graph({"vertices": [f"v{i}" for i in range(11)], "edges": []})
    start = time.perf_counter()
    family = enumerate_SH(g)
    dot = sh_hasse_dot(family)
    assert time.perf_counter() - start < 2.0
    assert len(family.members) == 2 ** 11
    assert dot.count("->") == 11 * 2 ** 10  # each member is covered by adding one missing vertex


def test_member_bound_admits_twelve_vertices_and_stops_twenty_early():
    def isolated(n):
        return build_graph({"vertices": [f"v{i}" for i in range(n)], "edges": []})

    assert len(enumerate_SH(isolated(12)).members) == MAX_MEMBERS == 2 ** 12
    start = time.perf_counter()
    with pytest.raises(GraphError) as err:
        enumerate_SH(isolated(20))  # 2 ** 20 members, refused long before they are walked
    assert time.perf_counter() - start < 2.0
    assert err.value.code == "TOO_LARGE"
    assert err.value.context == {"bound": MAX_MEMBERS}


def test_fullness_frozen():
    assert check_fullness(fix_b2(), VW)
    assert check_fullness(fix_inf(), VertexSet.make({"v"}))
    assert not check_fullness(fix_vi_f(), VertexSet.make({"w"}))


def test_hasse_dot_chain():
    dot = sh_hasse_dot(enumerate_SH(fix_inf()))
    assert "digraph" in dot
    assert dot.count("->") == 2  # {} -> {w} -> {v, w}, covers only


def test_too_large_guard():
    g = build_graph({
        "vertices": [f"v{i}" for i in range(25)],
        "edges": [{"src": f"v{i}", "dst": f"v{i}", "mult": 1} for i in range(25)],
    })
    with pytest.raises(GraphError) as err:
        enumerate_SH(g)
    assert err.value.code == "TOO_LARGE"
    assert err.value.context == {"bound": 4096}


def test_hasse_dot_quotes_awkward_ids():
    g = build_graph({"vertices": ['a"b', "c\\"], "edges": [{"src": 'a"b', "dst": "c\\"}]})
    family = enumerate_SH(g)
    labels = re.findall(r'\[label="((?:[^"\\]|\\.)*)"\];', sh_hasse_dot(family))
    assert [re.sub(r"\\(.)", r"\1", label) for label in labels] == [m.render() for m in family.members]


# ---------------------------------------------------------------------------
# brute-force oracle over the finite quotient


def _quotient(g: Graph) -> tuple[Graph, dict]:
    """Finite stand-in: positions become core ids, last class wraps to cycle start."""
    vertices = list(g.vertices)
    edges = [{"src": s, "dst": d, "mult": m.to_json()} for s, d, m in g.edges]
    for r in g.rays:
        P, bound = len(r.prefix), r.period_bound
        names = [f"{r.id}.x{j}" for j in range(bound)]
        vertices.extend(names)
        for src, m in r.entry:
            edges.append({"src": src, "dst": names[0], "mult": m.to_json()})
        for j in range(bound):
            nxt = names[j + 1] if j + 1 < bound else names[P]
            edges.append({"src": names[j], "dst": nxt, "mult": 1})
            for dst, m in r.targets(j):
                edges.append({"src": names[j], "dst": dst, "mult": m.to_json()})
    return build_graph({"vertices": vertices, "edges": edges})


def _brute_SH(g: Graph):
    """All saturated hereditary subsets of a rayless graph, by direct filtering."""
    vs = sorted(g.vertices)
    out_map = {v: [] for v in vs}
    for s, d, m in g.edges:
        out_map[s].append((d, m))
    results = []
    for mask in range(1 << len(vs)):
        s = {vs[i] for i in range(len(vs)) if mask >> i & 1}
        hereditary = all(d in s for v in s for d, _ in out_map[v])
        saturated = True
        for v in vs:
            if v in s:
                continue
            slots = out_map[v]
            if slots and all(not m.is_omega for _, m in slots) and all(d in s for d, _ in slots):
                saturated = False
                break
        if hereditary and saturated:
            results.append(frozenset(s))
    return results


def _as_plain(g: Graph, member: VertexSet) -> frozenset:
    """A VertexSet as the quotient-vertex subset it denotes."""
    out = set(member.core)
    for r in g.rays:
        k = member.ray_state(r.id)
        if k is not None:
            out.update(f"{r.id}.x{j}" for j in range(k, r.period_bound))
    return frozenset(out)


def test_enumerate_matches_brute_force_on_quotients():
    for name, build in FIXTURES.items():
        g = build()
        fam = enumerate_SH(g)
        got = {_as_plain(g, m) for m in fam.members}
        want = set(_brute_SH(_quotient(g)))
        assert got == want, name


def test_enumerate_matches_brute_force_on_random_rayless():
    seen = 0
    for seed in range(40):
        g, _ = generate_random(RandomSpec(seed=seed, ray_range=(0, 0), core_range=(2, 9)))
        fam = enumerate_SH(g)
        got = {frozenset(m.core) for m in fam.members}
        want = set(_brute_SH(g))
        assert got == want, seed
        seen += 1
    assert seen == 40


def test_enumerate_matches_brute_force_on_random_with_rays():
    for seed in range(25):
        g, _ = generate_random(RandomSpec(seed=seed, core_range=(2, 5), ray_range=(1, 2)))
        q = _quotient(g)
        if len(q.vertices) > 14:
            continue
        fam = enumerate_SH(g)
        got = {_as_plain(g, m) for m in fam.members}
        want = set(_brute_SH(q))
        assert got == want, seed


def test_period_stability():
    base = {
        "vertices": ["v", "w"],
        "edges": [{"src": "v", "dst": "w", "mult": 1}, {"src": "w", "dst": "w", "mult": 1}],
    }
    one = build_graph({**base, "rays": [{"id": "L", "entry": [{"src": "v", "mult": 1}],
                                         "prefix": [], "cycle": [[{"dst": "w", "mult": 1}]]}]})
    two = build_graph({**base, "rays": [{"id": "L", "entry": [{"src": "v", "mult": 1}],
                                         "prefix": [[{"dst": "w", "mult": 1}]],
                                         "cycle": [[{"dst": "w", "mult": 1}], [{"dst": "w", "mult": 1}]]}]})
    fam1 = {(m.core, m.rays) for m in enumerate_SH(one).members}
    fam2 = {(m.core, m.rays) for m in enumerate_SH(two).members}
    assert fam1 == fam2


# ---------------------------------------------------------------------------
# Morita probe: checked contraction preserves the ideal lattice


def _image(member: VertexSet, g0: VertexSet) -> VertexSet:
    return VertexSet.make(member.core & g0.core)


def _assert_lattice_iso(g, g0):
    contracted = contract(g, g0, "checked").graph
    fam_g = enumerate_SH(g)
    fam_c = enumerate_SH(contracted)
    images = [_image(m, g0) for m in fam_g.members]
    assert len(set(images)) == len(images), "intersection map must be injective"
    assert set(images) == set(fam_c.members)
    assert fam_g.nontrivial_count == fam_c.nontrivial_count
    for i, a in enumerate(fam_g.members):
        for j, b in enumerate(fam_g.members):
            assert a.is_subset(b) == images[i].is_subset(images[j])


def test_morita_probe_fixtures():
    _assert_lattice_iso(fix_b2(), VW)
    _assert_lattice_iso(fix_inf(), VW)
    g = fix_loop()
    _assert_lattice_iso(g, full_vertex_set(g))


def test_morita_probe_random():
    verified = 0
    seed = 0
    while verified < 40:
        g, g0 = generate_random(RandomSpec(seed=seed, passing=True))
        seed += 1
        if not g0.core:
            continue
        _assert_lattice_iso(g, g0)
        verified += 1


# ---------------------------------------------------------------------------
# oracle: the saturation pass loop and the per-slot hereditary check that
# closure_SH, is_saturated and is_hereditary replaced


def _ref_saturate(g: Graph, h: VertexSet) -> VertexSet | None:
    """h grown by everything one saturation pass forces, or None."""
    core, states = set(h.core), dict(h.rays)
    for w in g.vertices:
        if w in core:
            continue
        slots = out_slots(g, w)
        if not slots or out_multiplicity(g, w).is_omega:
            continue
        if all(dst in core if isinstance(dst, str) else states.get(dst[0]) == 0 for dst, _ in slots):
            core.add(w)
    for rid, start in h.rays:
        ray, k = g.ray_map[rid], start
        while k and all(dst in core for dst, _ in ray.targets(k - 1)):
            k -= 1
            if k == start - len(ray.cycle) > len(ray.prefix):
                k = len(ray.prefix)
        states[rid] = k
    if len(core) == len(h.core) and states == h.ray_states:
        return None
    return VertexSet.make(core, states)


def _ref_closure(g: Graph, x: VertexSet) -> VertexSet:
    hereditary = reachable_set(g, x)
    current = VertexSet.make(hereditary.core, {rid: min(k, len(g.ray_map[rid].prefix)) for rid, k in hereditary.rays})
    while (grown := _ref_saturate(g, current)) is not None:
        current = grown
    return current


def _ref_is_saturated(g: Graph, h: VertexSet) -> bool:
    check_membership_args(g, h)
    return _ref_saturate(g, h) is None


def _ref_is_hereditary(g: Graph, h: VertexSet) -> bool:
    check_membership_args(g, h)
    for v in h.core:
        if not all(h.contains_node(node) for node, _ in out_slots(g, v)):
            return False
    for rid, k in h.rays:
        ray = g.ray_map[rid]
        for j in ray.positions_from(k):
            if not all(dst in h.core for dst, _ in ray.targets(j)):
                return False
    return True


def _random_set(g: Graph, rng: random.Random) -> VertexSet:
    """A core subset plus ray states below, inside and far past each ray's period."""
    states = {}
    for r in g.rays:
        if rng.random() < 0.6:
            states[r.id] = rng.choice((rng.randint(0, r.period_bound + 2), 1_000_000_007 + rng.randint(0, 5)))
    return VertexSet.make({v for v in g.vertices if rng.random() < 0.3}, states)


def test_saturation_matches_pass_loop_on_random_draws():
    far = 0
    for seed in range(3000):
        spec = RandomSpec(seed=seed, omega_probability=(0.0, 0.1, 0.3)[seed % 3], ray_range=(0, 3), cycle_range=(1, 3))
        g, _ = generate_random(spec)
        rng = random.Random(seed)
        for _ in range(2):
            x = _random_set(g, rng)
            far += any(k > 1_000_000 for _, k in x.rays)
            closed = closure_SH(g, x)
            assert closed == _ref_closure(g, x), (seed, x.render())
            hereditary = reachable_set(g, x)
            for h in (x, hereditary, closed):
                assert is_saturated(g, h) == _ref_is_saturated(g, h), (seed, h.render())
                assert is_hereditary(g, h) == _ref_is_hereditary(g, h), (seed, h.render())
    assert far > 1000


def _chain(n: int) -> Graph:
    """v0 -> v1 -> ... -> v{n-1}, vertices listed in edge order."""
    names = tuple(f"v{i}" for i in range(n))
    return Graph(names, tuple((names[i], names[i + 1], ONE) for i in range(n - 1)))


@pytest.mark.parametrize("n, ceiling", [(2_000, 0.05), (100_000, 3.0)])
def test_chain_closure_is_linear(n, ceiling):
    g = _chain(n)
    start = time.perf_counter()
    closed = closure_SH(g, VertexSet.make({f"v{n - 1}"}))
    assert time.perf_counter() - start < ceiling
    assert closed == full_vertex_set(g)
