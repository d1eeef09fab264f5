import math
import random
import time
from itertools import combinations

import pytest

from graphmoves.contraction import contract
from graphmoves.errors import GraphError
from graphmoves.fixtures import fix_b2, fix_esse, fix_inf, fix_loop
from graphmoves.graph import VertexSet, build_graph, out_multiplicity
from graphmoves.graphio import RandomSpec, generate_random
from graphmoves.ktheory import (
    KInvariants,
    _det,
    _pivot_column,
    _verify_snf,
    adjacency_matrix,
    k_theory,
    smith_normal_form,
)


# ---------------------------------------------------------------------------
# SNF


def test_snf_known_forms():
    _, d, _ = smith_normal_form(((0,),))
    assert d == ((0,),)
    _, d, _ = smith_normal_form(((2,),))
    assert d == ((2,),)
    _, d, _ = smith_normal_form(((2, 4), (6, 8)))
    assert d == ((2, 0), (0, 4))


def test_snf_empty_and_rectangular():
    _, d, _ = smith_normal_form(())
    assert d == ()
    _, d, _ = smith_normal_form(((1, 2, 3),))
    assert d == ((1, 0, 0),)
    _, d, _ = smith_normal_form(((0, 0), (0, 0), (0, 0)))
    assert d == ((0, 0), (0, 0), (0, 0))


def _cofactor_det(m) -> int:
    # deliberately naive: independent of the library's Bareiss determinant
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * m[0][j] * _cofactor_det(sub)
    return total


def _minor_gcd_diagonal(m, rows, cols):
    """Invariant factors via gcds of k x k minors (Smith's classical theorem)."""
    k_max = min(rows, cols)
    gcds = [1]  # gcd of 0x0 minors
    for k in range(1, k_max + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[m[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, _cofactor_det(sub))
        gcds.append(g)
        if g == 0:
            break
    diag = []
    for k in range(1, k_max + 1):
        prev = gcds[k - 1] if k - 1 < len(gcds) else 0
        cur = gcds[k] if k < len(gcds) else 0
        if cur == 0:
            diag.append(0)
        else:
            diag.append(cur // prev)
    return diag


def test_snf_matches_minor_gcd_oracle_on_500_random():
    rng = random.Random(42)
    for trial in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows))
        _, d, _ = smith_normal_form(m)
        got = [d[i][i] for i in range(min(rows, cols))]
        want = _minor_gcd_diagonal(m, rows, cols)
        assert got == want, (trial, m)


def test_snf_self_check_is_live():
    # the verifier itself must reject a wrong decomposition
    from graphmoves.ktheory import _verify_snf

    with pytest.raises(RuntimeError):
        _verify_snf(((2,),), ((1,),), ((3,),), ((1,),))


def _is_int_matrix(x, rows, cols):
    return (
        type(x) is tuple
        and len(x) == rows
        and all(type(row) is tuple and len(row) == cols for row in x)
        and all(type(v) is int for row in x for v in row)
    )


def test_probe_shapes():
    # perfbench's --trace 1 probe unpacks exactly these shapes
    for m in (((2, 4, 4), (-6, 6, 12)), ((0, 1), (1, 0)), ((0, 0), (0, 0)), ((1,), (2,), (3,))):
        r, c = len(m), len(m[0])
        out = smith_normal_form(m)
        assert type(out) is tuple and len(out) == 3
        U, D, V = out
        assert _is_int_matrix(U, r, r) and _is_int_matrix(D, r, c) and _is_int_matrix(V, c, c), m
    order, a = adjacency_matrix(fix_esse())
    assert type(order) is tuple and all(type(v) is str for v in order)
    assert _is_int_matrix(a, len(order), len(order))


def test_snf_ragged_matrix_is_bad_argument():
    with pytest.raises(GraphError) as err:
        smith_normal_form(((1, 2), (3,)))
    assert err.value.code == "BAD_ARGUMENT"


def test_snf_matches_sympy_invariant_factors_on_300_random():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(17)
    singular = 0
    for trial in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        if trial % 3 == 0:
            cols = rows
        bound = rng.choice((1, 3, 20))
        m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        if trial % 4 == 0 and rows > 1:
            m[-1] = [x - 2 * y for x, y in zip(m[0], m[rows // 2])]  # a dependent row
        m = tuple(map(tuple, m))
        _, d, _ = smith_normal_form(m)
        got = [d[i][i] for i in range(min(rows, cols))]
        want = [int(x) for x in invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)]
        assert got == want, (trial, m)
        singular += 0 in got
    assert singular >= 40  # 46 of the 300 draws are singular


def _dense_sink_free(rng, n):
    # the perfbench k_dense shape: each vertex hits about half the vertices
    edges = []
    for src in range(n):
        targets = [dst for dst in range(n) if rng.random() < 0.5] or [rng.randrange(n)]
        edges += [{"src": f"d{src}", "dst": f"d{dst}", "mult": rng.randint(1, 3)} for dst in targets]
    g = build_graph({"vertices": [f"d{i}" for i in range(n)], "edges": edges})
    _, a = adjacency_matrix(g)
    return tuple(tuple(a[j][i] - int(i == j) for j in range(n)) for i in range(n))


def test_snf_transforms_stay_within_twice_the_determinant_bits():
    # a cyclic cokernel (d_{n-1} = 1, a one-column trailing block) and others
    rng = random.Random(5)
    cyclic = other = 0
    while cyclic < 6 or other < 2:
        m = _dense_sink_free(rng, rng.randint(30, 50))
        det_bits = abs(_det(m)).bit_length()
        if det_bits == 0:
            continue
        U, d, V = smith_normal_form(m)
        bits = max(abs(x).bit_length() for t in (U, V) for row in t for x in row)
        assert bits <= 2 * det_bits, (len(m), bits, det_bits)
        if d[-2][-2] == 1:
            cyclic += 1
        else:
            other += 1


def test_pivot_column_combines_columns_to_reach_the_block_gcd():
    # column gcds 3 and 5, block gcd 1: a unit pivot needs a column combination
    rows = [[6, 0], [3, -5]]
    j, adds = _pivot_column(rows)
    col = [row[j] for row in rows]
    for k, q in adds:
        col = [x + q * row[k] for x, row in zip(col, rows)]
    assert adds and math.gcd(*col) == 1
    assert _pivot_column([[6, 1], [3, -5]]) == (1, [])
    # column gcds 2 and 3: the unit pivot of this SNF needs a column combination
    U, d, V = smith_normal_form(((2, 3), (4, 9)))
    assert d == ((1, 0), (0, 6))


def test_snf_certificate_rejects_non_unimodular_transforms():
    # determinant-product clause: m nonsingular, |d_1 d_2| = 12 but |det m| = 6
    m = ((2, 0), (0, 3))
    with pytest.raises(RuntimeError, match="not unimodular"):
        _verify_snf(m, ((1, 0), (0, 2)), ((2, 0), (0, 6)), ((1, 0), (0, 1)))
    _verify_snf(m, *smith_normal_form(m))
    # singular clause: det m = 0, so the transform determinants are taken
    with pytest.raises(RuntimeError, match="not unimodular"):
        _verify_snf(((0,),), ((2,),), ((0,),), ((1,),))
    with pytest.raises(RuntimeError, match="not unimodular"):
        _verify_snf(((1, 2),), ((1,),), ((1, 0),), ((1, -4), (0, 2)))
    # a zero diagonal product falls to that clause even for a nonsingular m
    with pytest.raises(RuntimeError, match="not unimodular"):
        _verify_snf(((1, 0), (0, 1)), ((1, 0), (0, 0)), ((1, 0), (0, 0)), ((1, 0), (0, 1)))
    _verify_snf(((1, 2),), *smith_normal_form(((1, 2),)))


def test_snf_dense_80_under_two_seconds():
    m = _dense_sink_free(random.Random(80), 80)
    start = time.perf_counter()
    U, d, V = smith_normal_form(m)  # certificate included
    elapsed = time.perf_counter() - start
    print(f"dense n=80 SNF with certificate: {elapsed:.3f} s")
    assert elapsed < 2.0
    assert math.prod(d[i][i] for i in range(80)) == abs(_det(m)) != 0


def test_snf_large_entries():
    m = ((10**12, 1), (1, 10**12))
    U, d, V = smith_normal_form(m)
    assert d[0][0] == 1
    assert d[1][1] == 10**24 - 1


# ---------------------------------------------------------------------------
# adjacency and k_theory


def test_adjacency_matrix_aggregates_parallel_records():
    g = build_graph({
        "vertices": ["a", "b"],
        "edges": [
            {"src": "a", "dst": "b", "mult": 1},
            {"src": "a", "dst": "b", "mult": 2},
            {"src": "b", "dst": "a", "mult": 1},
        ],
    })
    order, a = adjacency_matrix(g)
    assert order == ("a", "b")
    assert a == ((0, 3), (1, 0))


def test_k_theory_fixture_values():
    assert k_theory(fix_loop()) == KInvariants((), 1, 1)
    assert k_theory(fix_esse()) == KInvariants((), 1, 1)
    for n in range(2, 7):
        g = build_graph({"vertices": ["u"], "edges": [{"src": "u", "dst": "u", "mult": n}]})
        # invariant factors > 1 only: Z/1 is the trivial group, so n=2 has none
        torsion = (n - 1,) if n > 2 else ()
        assert k_theory(g) == KInvariants(torsion, 0, 0), n


def test_k_theory_render():
    assert k_theory(fix_loop()).render() == "K0 = Z; K1 = Z"
    g = build_graph({"vertices": ["u"], "edges": [{"src": "u", "dst": "u", "mult": 4}]})
    assert k_theory(g).render() == "K0 = Z/3; K1 = 0"
    assert KInvariants((), 0, 0).render() == "K0 = 0; K1 = 0"
    assert KInvariants((2, 4), 2, 2).render() == "K0 = Z^2 (+) Z/2 (+) Z/4; K1 = Z^2"


def test_k_theory_guards():
    with pytest.raises(GraphError) as err:
        k_theory(fix_b2())  # w is a sink
    assert err.value.code == "HAS_SINKS"
    with pytest.raises(GraphError) as err:
        k_theory(fix_inf())
    assert err.value.code == "NOT_ROW_FINITE"
    from graphmoves.fixtures import fix_vi_e

    for refused in (k_theory, adjacency_matrix):
        with pytest.raises(GraphError) as err:
            refused(fix_vi_e())
        assert err.value.code == "HAS_RAYS"


def test_k_theory_ranks_always_agree():
    for seed in range(60):
        g, _ = generate_random(RandomSpec(seed=seed, ray_range=(0, 0), omega_probability=0.0))
        if any(out_multiplicity(g, v).is_zero for v in g.vertices):
            continue
        inv = k_theory(g)
        assert inv.k0_free_rank == inv.k1_rank


def test_k_theory_invariant_under_checked_contraction():
    verified = 0
    seed = 0
    while verified < 60:
        g, g0 = generate_random(RandomSpec(seed=seed, passing=True, ray_range=(0, 0), omega_probability=0.0))
        seed += 1
        if not g0.core:
            continue
        if any(out_multiplicity(g, v).is_zero for v in g.vertices):
            continue
        out = contract(g, g0, "checked").graph
        if any(out_multiplicity(out, v).is_zero for v in out.vertices):
            continue
        assert k_theory(g) == k_theory(out), seed
        verified += 1
