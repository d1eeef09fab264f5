"""Seeded input families for the benchmark workloads.

Every family is a size sweep.  A case is a plain dict:

    {"id", "workload", "family", "size", "op", "text", "args", "expect"}

`text` is the graph file the program receives (JSON, edges and vertices in a
seed-dependent order, vertex and ray ids drawn from the seed), `args` holds
the op's other inputs in the program's own terms, and `expect` is the
reference answer, filled in here when it is known by construction and by
`reference.complete` otherwise.  The same seed always yields the same cases.
"""

from __future__ import annotations

import json
import random

# Sweep sizes.  One round over a workload's cases takes about 1-2 s in
# process (run.ROUND_S), so a ten-second run repeats it several times.
TREE_DEPTHS = (5, 6, 7, 8, 9, 10, 11)
# From depth 9 the proposition route's cost depends up to fivefold on the
# process's set iteration order (which vertex networkx starts its cycle
# search from), so the sweep stops at depth 8.
TREE_LOOP_DEPTHS = (4, 5, 6, 7, 8)
# Denser DAG-T draws have a heavy tail of whole-graph cycle counts (seconds
# for some seeds at n = 40), which no ten-second run can average out; the
# exponential cycle enumeration shows on tree_loop instead.
DAG_T_SIZES = (10, 20, 30, 40)
DAG_T_PER_SIZE = 4
CHECK_CHAIN_SIZES = (200, 400, 800, 1600)
RAY_PREFIX_SIZES = (125, 250, 500, 1000)
# Random small graphs, drawn in equal numbers per core size and ray count so
# that the mix of shapes, and with it the median op, is the same every seed.
SMALL_CORES = (2, 3, 4, 5, 6)
SMALL_RAYS = (0, 1, 2)
SMALL_PER_SHAPE = 6
REJECT_COPIES = (1, 4, 16, 64)

CONTRACT_TREE_DEPTHS = (4, 5, 6, 7, 8, 9, 10, 11)
DIAMOND_COUNTS = (3, 5, 7, 9, 11, 13)
# 600 is past the chain length at which contract raises RecursionError today
CONTRACT_CHAIN_SIZES = (50, 100, 200, 400, 600)
RAY_CLIMB_SIZES = (50, 100, 200, 400, 800)
ROUND_TRIP_PER_MOVE = 21
ROUND_TRIP_CORES = (4, 5, 6, 7, 8)

K_DENSE_SIZES = (20, 30, 35, 40, 45, 50)
SH_FLAT_SIZES = (6, 8, 10, 12)
# Unions of three-vertex components with rays.  With three components or
# more, enumerate_SH's cost follows the random lattice size and some seeds'
# ops outgrow the K-theory ops that op_tail_ms reads.
SH_RAY_COMPONENTS = (1, 2)
SH_PER_SIZE = 3

CLI_CHAIN = 600
CLI_TREE_DEPTH = 6
CLI_DENSE = 12


class GraphBuilder:
    """A graph description under construction, with seed-drawn ids.

    Callers name vertices by logical keys; each key gets a fresh random id the
    first time it is used, so the program sees a permutation of the ids that
    differs per seed.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.ids: dict[str, str] = {}
        self.vertices: list[str] = []
        self.edges: list[dict] = []
        self.rays: list[dict] = []

    def _fresh(self, prefix: str) -> str:
        taken = set(self.ids.values())
        while True:
            name = prefix + format(self.rng.getrandbits(24), "06x")
            if name not in taken:
                return name

    def v(self, key: str) -> str:
        if key not in self.ids:
            self.ids[key] = self._fresh("n")
            self.vertices.append(self.ids[key])
        return self.ids[key]

    def edge(self, src: str, dst: str, mult: int | str = 1) -> None:
        self.edges.append({"src": self.v(src), "dst": self.v(dst), "mult": mult})

    def ray(self, key: str, entry, prefix, cycle) -> str:
        """Add a ray; entry is [(src key, mult)], positions are [[(dst key, mult)]]."""
        rid = self.ids.setdefault("ray:" + key, self._fresh("R"))

        def positions(raw):
            return [[{"dst": self.v(d), "mult": m} for d, m in pos] for pos in raw]

        self.rays.append(
            {
                "id": rid,
                "entry": [{"src": self.v(s), "mult": m} for s, m in entry],
                "prefix": positions(prefix),
                "cycle": positions(cycle),
            }
        )
        return rid

    def text(self) -> str:
        record = {
            "vertices": self.rng.sample(self.vertices, len(self.vertices)),
            "edges": self.rng.sample(self.edges, len(self.edges)),
            "rays": self.rng.sample(self.rays, len(self.rays)),
        }
        return json.dumps(record)


def _case(family: str, size: int, op: str, b: GraphBuilder, args: dict, expect) -> dict:
    return {"family": family, "size": size, "op": op, "text": b.text(), "args": args, "expect": expect}


def _edges_expect(b: GraphBuilder, vertices, edges) -> dict:
    """An expected ray-free graph in canonical terms (see reference.canonical)."""
    return {
        "vertices": sorted(b.v(x) for x in vertices),
        "edges": sorted([b.v(s), b.v(d), m] for s, d, m in edges),
        "rays": [],
    }


# ---------------------------------------------------------------------------
# structured shapes


def _tree(b: GraphBuilder, depth: int, tag: str = "") -> tuple[str, str]:
    """v -> binary tree of `depth` levels -> w; returns the keys (v, w)."""
    v, w = f"v{tag}", f"w{tag}"
    b.edge(v, f"t{tag}")
    layer = [f"t{tag}"]
    for _ in range(1, depth):
        nxt = []
        for parent in layer:
            for side in "ab":
                b.edge(parent, parent + side)
                nxt.append(parent + side)
        layer = nxt
    for leaf in layer:
        b.edge(leaf, w)
    return v, w


def _chain(b: GraphBuilder, n: int) -> None:
    keys = ["v"] + [f"c{i}" for i in range(n)] + ["w"]
    for a, c in zip(keys, keys[1:]):
        b.edge(a, c)


def _diamonds(b: GraphBuilder, k: int) -> None:
    b.edge("v", "a0")
    for i in range(k):
        b.edge(f"a{i}", f"b{i}")
        b.edge(f"a{i}", f"c{i}")
        b.edge(f"b{i}", f"a{i + 1}")
        b.edge(f"c{i}", f"a{i + 1}")
    b.edge(f"a{k}", "w")


def _dag_t(b: GraphBuilder, n: int) -> list[str]:
    """n vertices, g0 a 20% sample, T acyclic, every T vertex emits; returns g0 keys."""
    rng = b.rng
    keys = [f"u{i}" for i in range(n)]
    g0 = sorted(rng.sample(keys, max(1, n // 5)))
    t_order = [k for k in keys if k not in g0]
    rng.shuffle(t_order)
    rank = {k: i for i, k in enumerate(t_order)}
    for k in keys:
        b.v(k)
    for src in keys:
        later = [d for d in keys if d in g0 or (src in rank and d in rank and rank[d] > rank[src])]
        if src in g0:
            later = keys
        targets = [d for d in later if rng.random() < 2.5 / n]
        if src in rank and not targets:
            targets = [rng.choice([d for d in later])]  # no sinks in T
        for d in targets:
            b.edge(src, d, rng.randint(1, 2))
    return g0


def _random_small(b: GraphBuilder, n: int, ray_count: int) -> list[str]:
    """A small graph with omega edges and rays, in the style of the library's
    own random generator; returns the g0 keys (every singularity plus a coin
    flip per vertex)."""
    rng = b.rng
    keys = [f"s{i}" for i in range(n)]
    out_total: dict[str, int | str] = {k: 0 for k in keys}
    for k in keys:
        b.v(k)
    for src in keys:
        for dst in keys:
            if rng.random() < 0.35:
                m = "inf" if rng.random() < 0.1 else rng.randint(1, 3)
                b.edge(src, dst, m)
                out_total[src] = "inf" if m == "inf" or out_total[src] == "inf" else out_total[src] + m
    for i in range(ray_count):
        srcs = rng.sample(keys, rng.randint(1, min(2, n)))
        plen, clen = rng.randint(0, 2), rng.randint(1, 2)
        positions = [
            [(rng.choice(keys), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
            for _ in range(plen + clen)
        ]
        entry = []
        for s in srcs:
            m = "inf" if rng.random() < 0.1 else 1
            entry.append((s, m))
            out_total[s] = "inf" if m == "inf" or out_total[s] == "inf" else out_total[s] + m
        b.ray(f"r{i}", entry, positions[:plen], positions[plen:])
    singular = [k for k in keys if out_total[k] in (0, "inf")]
    return sorted(set(singular) | {k for k in keys if rng.random() < 0.5})


# ---------------------------------------------------------------------------
# workload: check


def _check_expect_pass() -> dict:
    return {"pass": True, "kinds": []}


def _reject(b: GraphBuilder, variant: str, copies: int) -> tuple[list[str], list[str]]:
    """`copies` disjoint gadgets that all fail one way; returns (g0 keys, kinds)."""
    g0 = []
    for i in range(copies):
        v, w = f"v{i}", f"w{i}"
        g0 += [v, w]
        if variant == "t_cycle":
            b.edge(v, f"p{i}")
            b.edge(f"p{i}", f"q{i}")
            b.edge(f"q{i}", f"p{i}")
            b.edge(f"q{i}", w)
        elif variant == "cond_a":
            b.edge(v, w)
            for side in "LR":
                b.ray(f"{side}{i}", [(v, 1)], [], [[(w, 1)]])
        elif variant == "cond_d":
            b.edge(v, w, "inf")
            b.ray(f"X{i}", [(v, 1)], [], [[(w, 1)]])
        elif variant == "tails":
            b.edge(v, w)
            b.edge(w, v)
            b.ray(f"T{i}", [(v, 1)], [[(w, 1)]], [[]])
        else:
            raise ValueError(variant)
    kinds = {"t_cycle": ["T_CYCLE"], "cond_a": ["COND_A"], "cond_d": ["COND_D"], "tails": ["TAILS_PRESENT"]}
    return g0, kinds[variant]


REJECT_VARIANTS = ("t_cycle", "cond_a", "cond_d", "tails")


def check_cases(seed: int) -> list[dict]:
    rng = random.Random(f"check:{seed}")
    cases = []

    def add(family, size, b, g0_keys, expect):
        cases.append(_case(family, size, "check", b, {"g0": sorted(b.v(k) for k in g0_keys)}, expect))

    for d in TREE_DEPTHS:
        b = GraphBuilder(rng)
        v, w = _tree(b, d)
        add("tree", 2 ** d + 1, b, [v, w], _check_expect_pass())
    for d in TREE_LOOP_DEPTHS:
        b = GraphBuilder(rng)
        v, w = _tree(b, d)
        b.edge(w, v)
        add("tree_loop", 2 ** d + 1, b, [v, w], _check_expect_pass())
    for n in DAG_T_SIZES:
        for _ in range(DAG_T_PER_SIZE):
            b = GraphBuilder(rng)
            add("dag_t", n, b, _dag_t(b, n), _check_expect_pass())
    for n in CHECK_CHAIN_SIZES:
        b = GraphBuilder(rng)
        _chain(b, n)
        add("chain", n + 2, b, ["v", "w"], _check_expect_pass())
    for p in RAY_PREFIX_SIZES:
        b = GraphBuilder(rng)
        b.edge("v", "w")
        b.edge("w", "v")
        b.ray("L", [("v", 1)], [[]] * (p - 1) + [[("w", 1)]], [[("w", 1)]])
        add("ray_prefix", p, b, ["v", "w"], _check_expect_pass())
    for _ in range(SMALL_PER_SHAPE):
        for n in SMALL_CORES:
            for ray_count in SMALL_RAYS:
                b = GraphBuilder(rng)
                g0 = _random_small(b, n, ray_count)
                add("small", n, b, g0, None)  # reference.complete fills it
    for variant in REJECT_VARIANTS:
        for k in REJECT_COPIES:
            b = GraphBuilder(rng)
            g0, kinds = _reject(b, variant, k)
            add("reject", len(b.vertices), b, g0, {"pass": False, "kinds": kinds})
    return _numbered("check", cases)


# ---------------------------------------------------------------------------
# workload: contract


def _random_core(rng: random.Random, b: GraphBuilder, n: int, omega: float, density: float = 0.35):
    """Ray-free random graph on n vertices; returns (keys, edge triples)."""
    keys = [f"k{i}" for i in range(n)]
    for k in keys:
        b.v(k)
    triples = []
    for src in keys:
        for dst in keys:
            if rng.random() < density:
                m = "inf" if rng.random() < omega else rng.randint(1, 3)
                b.edge(src, dst, m)
                triples.append((src, dst, m))
    return keys, triples


def _round_trip(rng: random.Random, move: str, n: int) -> tuple[GraphBuilder, int, dict, dict]:
    b = GraphBuilder(rng)
    if move == "esse":
        left = [f"a{i}" for i in range(n // 2)]
        right = [f"x{i}" for i in range(n - n // 2)]
        mat = {}
        for side, other in ((left, right), (right, left)):
            for s in side:
                targets = [o for o in other if rng.random() < 0.5] or [rng.choice(other)]
                for o in targets:
                    mat[(s, o)] = rng.randint(1, 2)
                    b.edge(s, o, mat[(s, o)])

        def square(one, two):
            out = []
            for s in one:
                for d in one:
                    m = sum(mat.get((s, o), 0) * mat.get((o, d), 0) for o in two)
                    if m:
                        out.append((s, d, m))
            return _edges_expect(b, one, out)

        args = {"v1": sorted(b.v(k) for k in left), "v2": sorted(b.v(k) for k in right)}
        return b, n, args, {"side1": square(left, right), "side2": square(right, left)}
    while True:
        keys, triples = _random_core(rng, b, n, omega=0.35 if move == "desingularize" else 0.0)
        if move != "desingularize" or any(m == "inf" for _, _, m in triples):
            break
        b = GraphBuilder(rng)
    args: dict = {"core": sorted(b.v(k) for k in keys)}
    if move in ("out_delay", "in_delay"):
        plans = []
        for k in sorted(keys):
            if move == "out_delay":
                units = sum(m for s, _, m in triples if s == k)
            else:
                units = sum(m for _, d, m in triples if d == k)
            if units and rng.random() < 0.6:
                plans.append({"vertex": b.v(k), "stages": [rng.randint(0, 3) for _ in range(units)]})
        args["plans"] = plans
    return b, n, args, _edges_expect(b, keys, _aggregate(triples))


def _aggregate(triples) -> list:
    acc: dict[tuple[str, str], int | str] = {}
    for s, d, m in triples:
        old = acc.get((s, d), 0)
        acc[(s, d)] = "inf" if "inf" in (old, m) else old + m
    return [(s, d, m) for (s, d), m in acc.items()]


ROUND_TRIP_MOVES = ("desingularize", "out_delay", "in_delay", "esse")


def contract_cases(seed: int) -> list[dict]:
    rng = random.Random(f"contract:{seed}")
    cases = []

    def add(family, size, b, expect, op="contract", args=None):
        cases.append(_case(family, size, op, b, args or {"g0": sorted([b.v("v"), b.v("w")])}, expect))

    for d in CONTRACT_TREE_DEPTHS:
        b = GraphBuilder(rng)
        _tree(b, d)
        add("tree", 2 ** d + 1, b, _edges_expect(b, ("v", "w"), [("v", "w", 2 ** (d - 1))]))
    for k in DIAMOND_COUNTS:
        b = GraphBuilder(rng)
        _diamonds(b, k)
        add("diamond", 3 * k + 3, b, _edges_expect(b, ("v", "w"), [("v", "w", 2 ** k)]))
    for n in CONTRACT_CHAIN_SIZES:
        b = GraphBuilder(rng)
        _chain(b, n)
        add("chain", n + 2, b, _edges_expect(b, ("v", "w"), [("v", "w", 1)]))
    for p in RAY_CLIMB_SIZES:
        b = GraphBuilder(rng)
        b.edge("w", "v")
        b.ray("L", [("v", 1)], [[("w", 1)]] * p, [[("w", 1)], [], [("w", 2)]])
        add("ray_climb", p, b, _edges_expect(b, ("v", "w"), [("v", "w", "inf"), ("w", "v", 1)]))
    for move in ROUND_TRIP_MOVES:
        for i in range(ROUND_TRIP_PER_MOVE):
            b, n, args, expect = _round_trip(rng, move, ROUND_TRIP_CORES[i % len(ROUND_TRIP_CORES)])
            cases.append(_case("round_trip", n, move, b, args, expect))
    return _numbered("contract", cases)


# ---------------------------------------------------------------------------
# workload: invariants


def _dense_sink_free(b: GraphBuilder, n: int) -> None:
    rng = b.rng
    keys = [f"d{i}" for i in range(n)]
    for src in keys:
        targets = [d for d in keys if rng.random() < 0.5] or [rng.choice(keys)]
        for dst in targets:
            b.edge(src, dst, rng.randint(1, 3))


def _sh_component(b: GraphBuilder, tag: str) -> None:
    """A small random component: 3-5 core vertices, omega edges, maybe a ray."""
    rng = b.rng
    keys = [f"{tag}c{i}" for i in range(3)]
    for k in keys:
        b.v(k)
    for src in keys:
        for dst in keys:
            if rng.random() < 0.3:
                b.edge(src, dst, "inf" if rng.random() < 0.15 else rng.randint(1, 2))
    positions = [[(rng.choice(keys), 1) for _ in range(rng.randint(0, 1))] for _ in range(rng.randint(1, 3))]
    positions[-1] = positions[-1] or [(rng.choice(keys), 1)]  # keep the cycle emitting
    b.ray(f"{tag}L", [(rng.choice(keys), 1)], positions[:-1], positions[-1:])


def _sh_ops(shape: str, b: GraphBuilder) -> list[dict]:
    """The three ideal ops on one graph; families ideals_<shape>, closure, fullness."""
    rng = b.rng
    text = b.text()
    members = list(b.vertices)
    size = len(members)
    pick = sorted(rng.sample(members, max(1, size // 4)))
    g0 = sorted(rng.sample(members, max(1, size // 2)))
    return [
        {"family": f"ideals_{shape}", "size": size, "op": "ideals", "text": text, "args": {}, "expect": None},
        {"family": "closure", "size": size, "op": "closure", "text": text, "args": {"set": pick}, "expect": None},
        {"family": "fullness", "size": size, "op": "fullness", "text": text, "args": {"g0": g0}, "expect": None},
    ]


def invariants_cases(seed: int) -> list[dict]:
    rng = random.Random(f"invariants:{seed}")
    cases = []
    for n in K_DENSE_SIZES:
        b = GraphBuilder(rng)
        _dense_sink_free(b, n)
        cases.append(_case("k_dense", n, "ktheory", b, {}, None))
    for _ in range(SH_PER_SIZE):
        for n in SH_FLAT_SIZES:
            b = GraphBuilder(rng)
            _random_core(rng, b, n, omega=0.1, density=2.0 / n)
            cases += _sh_ops("flat", b)
        for k in SH_RAY_COMPONENTS:
            b = GraphBuilder(rng)
            for i in range(k):
                _sh_component(b, f"g{i}")
            cases += _sh_ops("rays", b)
    return _numbered("invariants", cases)


# ---------------------------------------------------------------------------
# workload: cli

# The six bundled example graphs, kept here as text so that the benchmark
# reads nothing of the repository outside its own directory.
FIXTURES = {
    "fix_loop": {"vertices": ["u"], "edges": [{"src": "u", "dst": "u", "mult": 1}], "rays": []},
    "fix_b2": {
        "vertices": ["v", "t0", "ta", "tb", "w"],
        "edges": [
            {"src": "v", "dst": "t0", "mult": 1},
            {"src": "t0", "dst": "ta", "mult": 1},
            {"src": "t0", "dst": "tb", "mult": 1},
            {"src": "ta", "dst": "w", "mult": 1},
            {"src": "tb", "dst": "w", "mult": 1},
        ],
        "rays": [],
    },
    "fix_inf": {"vertices": ["v", "w"], "edges": [{"src": "v", "dst": "w", "mult": "inf"}], "rays": []},
    "fix_vi_e": {
        "vertices": ["v", "w"],
        "edges": [{"src": "v", "dst": "w", "mult": 1}],
        "rays": [
            {"id": r, "entry": [{"src": "v", "mult": 1}], "prefix": [], "cycle": [[{"dst": "w", "mult": 1}]]}
            for r in ("L", "R")
        ],
    },
    "fix_vi_f": {
        "vertices": ["v", "w"],
        "edges": [{"src": "v", "dst": "w", "mult": "inf"}],
        "rays": [{"id": "X", "entry": [{"src": "v", "mult": 1}], "prefix": [], "cycle": [[{"dst": "w", "mult": 1}]]}],
    },
    "fix_esse": {
        "vertices": ["a", "x"],
        "edges": [{"src": "a", "dst": "x", "mult": 1}, {"src": "x", "dst": "a", "mult": 1}],
        "rays": [],
    },
}


def cli_cases(seed: int) -> list[dict]:
    """One README subcommand per case; 20 cases make a 10-second run 40 ops,
    so op_tail_ms is p75."""
    rng = random.Random(f"cli:{seed}")
    cases = []

    def fixture(name, op, args, expect=None):
        text = json.dumps(FIXTURES[name], indent=2)
        cases.append({"family": name, "size": len(text), "op": op, "text": text, "args": args, "expect": expect})

    fixture("fix_b2", "check", {"g0": ["v", "w"]}, _check_expect_pass())
    fixture("fix_vi_e", "check", {"g0": ["v", "w"]}, {"pass": False, "kinds": ["COND_A"]})
    fixture("fix_b2", "contract", {"g0": ["v", "w"]}, {"vertices": ["v", "w"], "edges": [["v", "w", 2]], "rays": []})
    fixture("fix_inf", "closure", {"set": ["w"]})
    fixture("fix_vi_f", "ideals", {})
    fixture("fix_loop", "ktheory", {}, {"k0_torsion": [], "k0_free_rank": 1, "k1_rank": 1})
    fixture("fix_inf", "desingularize", {})
    fixture("fix_vi_e", "export_dot", {"depth": 3})
    fixture("fix_esse", "check", {"g0": ["a"]}, _check_expect_pass())
    fixture("fix_vi_e", "contract", {"g0": ["v", "w"]}, {"error": "CONDITIONS_FAILED"})
    fixture("fix_vi_e", "ideals", {})
    fixture("fix_vi_e", "closure", {"set": ["w"]})
    fixture("fix_b2", "closure", {"set": ["w"]})
    fixture("fix_inf", "check", {"g0": ["v", "w"]}, _check_expect_pass())
    fixture("fix_b2", "export_dot", {"depth": 3})
    fixture("fix_esse", "ktheory", {})

    b = GraphBuilder(rng)
    _tree(b, CLI_TREE_DEPTH)
    cases.append(_case("gen_tree", 2 ** CLI_TREE_DEPTH + 1, "contract", b, {"g0": sorted([b.v("v"), b.v("w")])},
                       _edges_expect(b, ("v", "w"), [("v", "w", 2 ** (CLI_TREE_DEPTH - 1))])))
    b = GraphBuilder(rng)
    _chain(b, CLI_CHAIN)
    cases.append(_case("gen_chain", CLI_CHAIN + 2, "contract", b, {"g0": sorted([b.v("v"), b.v("w")])},
                       _edges_expect(b, ("v", "w"), [("v", "w", 1)])))
    b = GraphBuilder(rng)
    b.edge("v", "w")
    b.edge("w", "v")
    b.ray("T", [("v", 1)], [[("w", 1)]], [[]])
    cases.append(_case("gen_tails", 3, "tails_to_sinks", b, {}, None))
    b = GraphBuilder(rng)
    _dense_sink_free(b, CLI_DENSE)
    cases.append(_case("gen_dense", CLI_DENSE, "ktheory", b, {}, None))
    return _numbered("cli", cases)


def _numbered(workload: str, cases: list[dict]) -> list[dict]:
    for i, case in enumerate(cases):
        case["id"] = i
        case["workload"] = workload
    return cases


WORKLOADS = {
    "check": check_cases,
    "contract": contract_cases,
    "invariants": invariants_cases,
    "cli": cli_cases,
}
