"""Reference answers and output checks.

Most answers are known by construction and come with the case (see
families.py).  `complete` fills in the rest before the timed phase:

- random check instances: both library routes must agree, and every
  violation must pass the library's own witness revalidation;
- K-theory: sympy's invariant factors up to n = 30; beyond that the product
  of the invariant factors must equal |det(A^t - I)| and the factors must
  form a divisibility chain (sympy took 14 s on some n = 40 draws and
  0.03 s on others);
- ideals, closures and fullness: brute force over subsets, one weakly
  connected component at a time (a saturated hereditary set of a disjoint
  union is a union of such sets of the parts).

`judge` compares one op's output with its reference and returns "ok",
"error" (no usable answer: an exception, a wrong exit code, empty output)
or "wrong" (an answer that differs from the reference).
"""

from __future__ import annotations

import itertools
import json
import re

K_SYMPY_MAX = 30

_RAY_POS = re.compile(r"^(.+)\.x(\d+)$")


# ---------------------------------------------------------------------------
# graph records


def _mult_add(a, b):
    return "inf" if "inf" in (a, b) else a + b


def _canon_positions(raw) -> list:
    out = []
    for pos in raw:
        acc: dict[str, int | str] = {}
        for t in pos:
            acc[t["dst"]] = _mult_add(acc.get(t["dst"], 0), t.get("mult", 1))
        out.append(sorted([d, m] for d, m in acc.items()))
    return out


def _canon_ray(r: dict) -> list:
    entry: dict[str, int | str] = {}
    for t in r.get("entry", ()):
        entry[t["src"]] = _mult_add(entry.get(t["src"], 0), t.get("mult", 1))
    prefix = _canon_positions(r.get("prefix", ()))
    cycle = _canon_positions(r.get("cycle", ()))
    for d in range(1, len(cycle) + 1):
        if len(cycle) % d == 0 and cycle == cycle[:d] * (len(cycle) // d):
            cycle = cycle[:d]
            break
    while prefix and prefix[-1] == cycle[-1]:
        prefix.pop()
        cycle = [cycle[-1]] + cycle[:-1]
    return [r["id"], sorted([s, m] for s, m in entry.items()), prefix, cycle]


def canonical(record: dict) -> dict:
    """A graph record up to edge order, parallel-edge splits and ray presentation."""
    edges: dict[tuple[str, str], int | str] = {}
    for e in record.get("edges", ()):
        key = (e["src"], e["dst"])
        edges[key] = _mult_add(edges.get(key, 0), e.get("mult", 1))
    return {
        "vertices": sorted(record.get("vertices", ())),
        "edges": sorted([s, d, m] for (s, d), m in edges.items()),
        "rays": sorted((_canon_ray(r) for r in record.get("rays", ())), key=lambda r: r[0]),
    }


class Model:
    """A parsed graph record with the successor structure the checks need."""

    def __init__(self, record: dict):
        self.vertices = list(record.get("vertices", ()))
        self.core = set(self.vertices)
        self.rays = {}
        self.out: dict[str, list[tuple[str, int | str]]] = {v: [] for v in self.vertices}
        for e in record.get("edges", ()):
            self.out[e["src"]].append((e["dst"], e.get("mult", 1)))
        for r in record.get("rays", ()):
            prefix = [[(t["dst"], t.get("mult", 1)) for t in pos] for pos in r.get("prefix", ())]
            cycle = [[(t["dst"], t.get("mult", 1)) for t in pos] for pos in r.get("cycle", ())]
            self.rays[r["id"]] = (prefix, cycle)
            for t in r.get("entry", ()):
                self.out[t["src"]].append((f"{r['id']}.x0", t.get("mult", 1)))

    def targets(self, rid: str, j: int) -> list[tuple[str, int]]:
        prefix, cycle = self.rays[rid]
        return prefix[j] if j < len(prefix) else cycle[(j - len(prefix)) % len(cycle)]

    def period_bound(self, rid: str) -> int:
        prefix, cycle = self.rays[rid]
        return len(prefix) + len(cycle)

    def successors(self, ref: str) -> set[str]:
        """One-step successors; spine successors also by their period class."""
        if ref in self.core:
            return {d for d, _ in self.out[ref]}
        m = _RAY_POS.match(ref)
        rid, j = m.group(1), int(m.group(2))
        prefix, cycle = self.rays[rid]
        nxt = j + 1
        out = {f"{rid}.x{nxt}"}
        if nxt >= len(prefix) + len(cycle):
            out.add(f"{rid}.x{len(prefix) + (nxt - len(prefix)) % len(cycle)}")
        out.update(d for d, _ in self.targets(rid, j))
        return out

    def components(self) -> list[tuple[list[str], list[str]]]:
        """Weakly connected parts as (core vertices, ray ids)."""
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def join(a, b):
            parent[find(a)] = find(b)

        anchor = {}
        for v, slots in self.out.items():
            for d, _ in slots:
                if d in self.core:
                    join(v, d)
                else:
                    rid = _RAY_POS.match(d).group(1)
                    anchor.setdefault(rid, v)
                    join(v, anchor[rid])
        for rid, (prefix, cycle) in self.rays.items():
            for pos in prefix + cycle:
                for d, _ in pos:
                    anchor.setdefault(rid, d)
                    join(d, anchor[rid])
        parts: dict[str, tuple[list[str], list[str]]] = {}
        for v in self.vertices:
            parts.setdefault(find(v), ([], []))[0].append(v)
        for rid in self.rays:
            parts[find(anchor[rid])][1].append(rid)
        return list(parts.values())


# ---------------------------------------------------------------------------
# saturated hereditary sets by brute force


def _is_sh(model: Model, verts: list[str], core: set[str], states: dict[str, int], rays: list[str]) -> bool:
    def member(ref: str) -> bool:
        if ref in model.core:
            return ref in core
        m = _RAY_POS.match(ref)
        k = states.get(m.group(1))
        return k is not None and int(m.group(2)) >= k

    for v in core:
        if not all(member(d) for d, _ in model.out[v]):
            return False
    for rid in rays:
        k = states.get(rid)
        if k is None:
            continue
        prefix, cycle = model.rays[rid]
        for j in range(k, max(k + 1, len(prefix) + len(cycle)) + len(cycle)):
            if not all(d in core for d, _ in model.targets(rid, j)):
                return False
        if k > 0 and all(d in core for d, _ in model.targets(rid, k - 1)):
            return False  # position k-1 is forced in
    for w in verts:
        if w in core:
            continue
        slots = model.out[w]
        if not slots or any(m == "inf" for _, m in slots):
            continue  # sinks and infinite emitters are never forced
        if all(member(d) for d, _ in slots):
            return False
    return True


def sh_sets(model: Model) -> list[tuple[frozenset, frozenset]]:
    """Every saturated hereditary set as (core, ray states)."""
    parts = []
    for verts, rays in model.components():
        found = []
        choices = [[None] + list(range(model.period_bound(rid) + 1)) for rid in rays]
        for bits in range(2 ** len(verts)):
            core = {v for i, v in enumerate(verts) if bits >> i & 1}
            for combo in itertools.product(*choices):
                states = {rid: k for rid, k in zip(rays, combo) if k is not None}
                if _is_sh(model, verts, core, states, rays):
                    found.append((frozenset(core), frozenset(states.items())))
        parts.append(found)
    out = []
    for combo in itertools.product(*parts):
        core = frozenset().union(*(c for c, _ in combo))
        states = frozenset().union(*(s for _, s in combo))
        out.append((core, states))
    return out


def _parse_render(text: str) -> tuple[frozenset, frozenset]:
    body = text.strip()[1:-1]
    core, states = set(), set()
    for item in filter(None, (t.strip() for t in body.split(","))):
        m = _RAY_POS.match(item[:-1]) if item.endswith("+") else None
        if m:
            states.add((m.group(1), int(m.group(2))))
        else:
            core.add(item)
    return frozenset(core), frozenset(states)


def _full(model: Model) -> tuple[frozenset, frozenset]:
    return frozenset(model.vertices), frozenset((rid, 0) for rid in model.rays)


def _contains(big, small) -> bool:
    if not small[0] <= big[0]:
        return False
    have = dict(big[1])
    return all(rid in have and have[rid] <= k for rid, k in small[1])


def _closure(members, start):
    above = [m for m in members if _contains(m, start)]
    core = frozenset.intersection(*(c for c, _ in above))
    rays = set.intersection(*(set(dict(s)) for _, s in above))
    states = frozenset((rid, max(dict(s)[rid] for _, s in above)) for rid in rays)
    return core, states


# ---------------------------------------------------------------------------
# K-theory


def _det(rows) -> int:
    """Bareiss fraction-free determinant."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def k_matrix(record: dict) -> list[list[int]]:
    """A^t - I over the sorted vertex order."""
    order = sorted(record["vertices"])
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    a = [[0] * n for _ in range(n)]
    for e in record["edges"]:
        a[index[e["src"]]][index[e["dst"]]] += e.get("mult", 1)
    return [[a[j][i] - int(i == j) for j in range(n)] for i in range(n)]


def _k_expect(record: dict) -> dict:
    m = k_matrix(record)
    if len(m) <= K_SYMPY_MAX:
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors

        factors = [abs(int(x)) for x in invariant_factors(Matrix(m), domain=ZZ)]
        factors += [0] * (len(m) - len(factors))
        return {"factors": factors}
    return {"det": _det(m)}


def _judge_k(out: dict, expect: dict) -> bool:
    torsion = out["k0_torsion"]
    if out["k0_free_rank"] != out["k1_rank"]:
        return False
    if "factors" in expect:
        f = expect["factors"]
        return torsion == [x for x in f if x > 1] and out["k0_free_rank"] == f.count(0)
    if "k0_torsion" in expect:
        return out == expect
    det = expect["det"]
    if any(b % a for a, b in zip(torsion, torsion[1:])):
        return False
    if det == 0:
        return out["k0_free_rank"] >= 1
    product = 1
    for x in torsion:
        product *= x
    return out["k0_free_rank"] == 0 and product == abs(det)


# ---------------------------------------------------------------------------
# completing references


def complete(cases: list[dict], gm=None) -> None:
    """Fill in every case's `expect` that is not known by construction.

    `gm` is the imported graphmoves package, needed for random check
    instances (whose reference is the agreement of the two library routes).
    """
    for case in cases:
        if case["expect"] is not None:
            continue
        record = json.loads(case["text"])
        op = case["op"]
        if op == "check":
            case["expect"] = _check_reference(gm, case)
        elif op == "ktheory":
            case["expect"] = _k_expect(record)
        elif op in ("ideals", "closure", "fullness"):
            model = Model(record)
            members = sh_sets(model)
            if op == "ideals":
                trivial = {_full(model), (frozenset(), frozenset())}
                case["expect"] = {
                    "members": sorted(_key(m) for m in members),
                    "nontrivial": sum(1 for m in members if m not in trivial),
                }
            elif op == "closure":
                start = _parse_render("{" + ", ".join(case["args"]["set"]) + "}")
                case["expect"] = {"closure": _key(_closure(members, start))}
            else:
                start = _parse_render("{" + ", ".join(case["args"]["g0"]) + "}")
                case["expect"] = {"full": _closure(members, start) == _full(model)}
        elif op == "desingularize":
            case["expect"] = _desingularized(record)
        elif op == "tails_to_sinks":
            case["expect"] = _tails_cut(record)
        elif op == "export_dot":
            case["expect"] = {"lines": _dot_lines(record, case["args"]["depth"])}
        else:
            raise ValueError(f"no reference for {op}")


def _key(member) -> list:
    core, states = member
    return [sorted(core), sorted([rid, k] for rid, k in states)]


def _check_reference(gm, case: dict) -> dict:
    from graphmoves.conditions import validate_witness

    g = gm.parse_graph(case["text"])
    g0 = gm.VertexSet.make(case["args"]["g0"])
    thm = gm.check_theorem(g, g0)
    prop = gm.check_proposition(g, g0)
    if thm.passed != prop.passed:
        raise AssertionError(f"routes disagree on case {case['id']}: {thm.kinds()} vs {prop.kinds()}")
    for verdict in (thm, prop):
        for v in verdict.violations:
            if not validate_witness(g, g0, v):
                raise AssertionError(f"invalid witness on case {case['id']}: {v}")
    # The routes agree on the verdict; the kinds they list may differ (the
    # theorem route reports COND_C for in-degree 0, the proposition route
    # only for in-degree > 1), so each route keeps its own expected kinds.
    return {
        "pass": thm.passed,
        "kinds": sorted(set(thm.kinds())),
        "proposition_kinds": sorted(set(prop.kinds())),
    }


def _desingularized(record: dict) -> dict:
    """Every omega edge v->w becomes v->w plus a round-robin ray v_inf over the targets."""
    finite, rays = [], []
    by_src: dict[str, list[str]] = {}
    for e in record["edges"]:
        if e["mult"] == "inf":
            by_src.setdefault(e["src"], []).append(e["dst"])
            finite.append({"src": e["src"], "dst": e["dst"], "mult": 1})
        else:
            finite.append(e)
    for v, targets in by_src.items():
        cycle = [[{"dst": w, "mult": 1}] for w in sorted(set(targets))]
        rays.append({"id": f"{v}_inf", "entry": [{"src": v, "mult": 1}], "prefix": [], "cycle": cycle})
    return canonical({"vertices": record["vertices"], "edges": finite, "rays": record["rays"] + rays})


def _tails_cut(record: dict) -> dict:
    """The one-ray tail graph of families.cli_cases, with the tail cut to a sink.

    The ray's prefix position 0 emits into the core and the cycle is bare, so
    positions x0 and x1 stay as core vertices and x1 becomes the sink.
    """
    (ray,) = record["rays"]
    x0, x1 = f"{ray['id']}.x0", f"{ray['id']}.x1"
    edges = list(record["edges"])
    edges += [{"src": t["src"], "dst": x0, "mult": t["mult"]} for t in ray["entry"]]
    edges.append({"src": x0, "dst": x1, "mult": 1})
    edges += [{"src": x0, "dst": t["dst"], "mult": t["mult"]} for t in ray["prefix"][0]]
    return canonical({"vertices": record["vertices"] + [x0, x1], "edges": edges, "rays": []})


def _dot_lines(record: dict, depth: int) -> list[str]:
    lines = []
    for e in record["edges"]:
        lines.append(f'  "{e["src"]}" -> "{e["dst"]}";')
    for r in record["rays"]:
        names = [f"{r['id']}.x{j}" for j in range(depth)] + [f"{r['id']}.more"]
        lines += [f'  "{t["src"]}" -> "{names[0]}";' for t in r["entry"]]
        lines += [f'  "{a}" -> "{b}";' for a, b in zip(names[:-2], names[1:-1])]
        lines.append(f'  "{names[-2]}" -> "{names[-1]}" [style=dashed];')
    return sorted(lines)


# ---------------------------------------------------------------------------
# judging outputs


def _docs(text: str) -> list:
    """Consecutive JSON documents in one output."""
    dec, out, i = json.JSONDecoder(), [], 0
    text = text.strip()
    while i < len(text):
        doc, i = dec.raw_decode(text, i)
        out.append(doc)
        while i < len(text) and text[i].isspace():
            i += 1
    return out


def _cycle_ok(model: Model, g0: set[str], cycle: list[str]) -> bool:
    if not cycle or any(ref in g0 for ref in cycle):
        return False
    return all(cycle[(i + 1) % len(cycle)] in model.successors(ref) for i, ref in enumerate(cycle))


def check_answer(case: dict, out: dict) -> tuple[bool, dict]:
    """Judge a `check --json` record; also returns the layer counts it shows."""
    expect = case["expect"]
    model = Model(json.loads(case["text"]))
    g0 = set(case["args"]["g0"])
    routes = [out["theorem"], out["proposition"]]
    counts = {"violations": 0, "t_cycle_witnesses": 0, "route_disagreements": 0, "kind_disagreements": 0}
    kinds = [sorted({v["kind"] for v in r["violations"]}) for r in routes]
    counts["route_disagreements"] = int(routes[0]["pass"] != routes[1]["pass"])
    counts["kind_disagreements"] = int(kinds[0] != kinds[1])
    want = [expect["kinds"], expect.get("proposition_kinds", expect["kinds"])]
    ok = True
    for route, kind, wanted in zip(routes, kinds, want):
        ok &= route["pass"] == expect["pass"] and kind == wanted
        ok &= route["pass"] == (not route["violations"])
        for v in route["violations"]:
            counts["violations"] += 1
            if v["kind"] == "T_CYCLE":
                counts["t_cycle_witnesses"] += 1
                ok &= _cycle_ok(model, g0, v["cycle"])
    return ok, counts


def judge(case: dict, status: str, output: str) -> tuple[str, dict]:
    """Classify one op result as ok / error / wrong; returns (verdict, counts)."""
    expect = case["expect"]
    op = case["op"]
    if "error" in expect:
        if status == f"graph_error:{expect['error']}":
            return "ok", {}
        return ("wrong" if status == "ok" else "error"), {}
    if op == "check":
        want = "ok" if expect["pass"] or case["workload"] != "cli" else "exit:1"
        if status != want:
            return "error", {}
    elif status != "ok":
        return "error", {}
    if op == "export_dot":
        lines = set(output.splitlines())
        good = output.startswith("digraph") and all(line in lines for line in expect["lines"])
        return ("ok" if good else "wrong"), {}
    try:
        docs = _docs(output)
    except ValueError:
        return "error", {}
    if not docs:
        return "error", {}
    counts: dict = {}
    if op == "check":
        good, counts = check_answer(case, docs[0])
    elif op == "contract":
        good = canonical(docs[0]) == expect
        counts = {"out_edges": len(docs[0]["edges"]) + sum(len(r["entry"]) for r in docs[0]["rays"])}
    elif op in ("desingularize", "out_delay", "in_delay"):
        good = len(docs) == 2 and canonical(docs[1]) == expect
        if case["workload"] == "cli":
            good = canonical(docs[0]["graph"]) == expect
    elif op == "tails_to_sinks":
        good = canonical(docs[0]["graph"]) == expect
    elif op == "esse":
        good = len(docs) == 2 and [canonical(d) for d in docs] == [expect["side1"], expect["side2"]]
    elif op == "ktheory":
        good = _judge_k(docs[0], expect)
    elif op == "ideals":
        members = sorted(_key(_parse_render(m)) for m in docs[0]["members"])
        good = members == expect["members"] and docs[0]["nontrivial"] == expect["nontrivial"]
        counts = {"sh_members": len(members)}
    elif op == "closure":
        got = [sorted(docs[0]["core"]), sorted([r["ray"], r["from"]] for r in docs[0]["rays"])]
        good = got == expect["closure"]
    elif op == "fullness":
        good = docs[0] == expect
    else:
        raise ValueError(op)
    return ("ok" if good else "wrong"), counts
