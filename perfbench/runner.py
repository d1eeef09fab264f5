"""Rounds of ops inside a worker process: the ops, the layer probes, the
calibration units and the per-round records (see worker.py)."""

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time

from tracing import Tracer, untraced_call


class Runner:
    """Runs a job's rounds of ops.

    The first worker of an in-process workload runs one untimed warm-up
    round.  The outputs of a worker's first round are kept in full for
    checking, and every later execution keeps only a digest.  A traced round
    records a span around each op and around each public call the op makes,
    and after each op runs the layer probes for that case as separate spans.
    """

    def __init__(self, gm, job: dict):
        self.gm, self.job = gm, job
        self.cases = {c["id"]: c for c in job["cases"]}
        self.order = job["order"]
        self.tracer = Tracer()
        self.counts: list[dict] = []
        self.span_ranges: list[list[int]] = []
        self.cli = job["workload"] == "cli"
        if self.cli:
            # each CLI process draws its own hash seed, as a user's would
            self.cli_env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
            self.files = {}
            for cid, case in self.cases.items():
                path = f"{job['workdir']}/case{cid}.graph"
                with open(path, "w") as fh:
                    fh.write(case["text"])
                self.files[cid] = path

    # -- ops -----------------------------------------------------------------

    def _op(self, case: dict, call) -> tuple[str, str]:
        """Run one op; returns (status, output)."""
        if self.cli:
            return self._cli_op(case)
        gm, a, text = self.gm, case["args"], case["text"]

        def parse(t):
            return call("graphio.parse_graph", gm.parse_graph, t)

        def ser(g):
            return call("graphio.serialize_graph", gm.serialize_graph, g)

        vs = gm.VertexSet.make
        op = case["op"]
        try:
            g = parse(text)
            if op == "check":
                g0 = vs(a["g0"])
                thm = call("conditions.check_theorem", gm.check_theorem, g, g0)
                prop = call("conditions.check_proposition", gm.check_proposition, g, g0)
                rec = {
                    "theorem": call("conditions.to_record", thm.to_record),
                    "proposition": call("conditions.to_record", prop.to_record),
                }
                return "ok", json.dumps(rec, indent=2)
            if op == "contract":
                return "ok", ser(call("contraction.contract", gm.contract, g, vs(a["g0"]), "checked").graph)
            if op in ("desingularize", "out_delay", "in_delay"):
                extra = ()
                if op != "desingularize":
                    extra = ([gm.DelayPlan(p["vertex"], tuple(p["stages"])) for p in a["plans"]],)
                mid = ser(call(f"moves.{op}", getattr(gm, op), g, *extra))
                back = call("contraction.contract", gm.contract, parse(mid), vs(a["core"]), "checked")
                return "ok", mid + ser(back.graph)
            if op == "esse":
                left, right = call("moves.esse_split", gm.esse_split, g, (vs(a["v1"]), vs(a["v2"])))
                return "ok", ser(left.graph) + ser(right.graph)
            if op == "ktheory":
                return "ok", json.dumps(call("ktheory.k_theory", gm.k_theory, g).to_record(), indent=2)
            if op == "ideals":
                return "ok", json.dumps(call("ideals.enumerate_SH", gm.enumerate_SH, g).to_record(), indent=2)
            if op == "closure":
                c = call("ideals.closure_SH", gm.closure_SH, g, vs(a["set"]))
                rec = {"core": sorted(c.core), "rays": [{"ray": r, "from": k} for r, k in c.rays]}
                return "ok", json.dumps(rec, indent=2)
            if op == "fullness":
                return "ok", json.dumps({"full": call("ideals.check_fullness", gm.check_fullness, g, vs(a["g0"]))})
            raise ValueError(f"unknown op {op}")
        except gm.GraphError as err:
            return f"graph_error:{err.code}", ""
        except Exception as err:  # an op that crashes is a failed op, not a crashed benchmark
            return f"exception:{type(err).__name__}", ""

    def _argv(self, case: dict) -> list[str]:
        a, path = case["args"], self.files[case["id"]]
        return {
            "check": lambda: ["check", path, "--g0", ",".join(a.get("g0", ())), "--json"],
            "contract": lambda: ["contract", path, "--g0", ",".join(a.get("g0", ()))],
            "closure": lambda: ["closure", path, "--set", ",".join(a.get("set", ())), "--json"],
            "ideals": lambda: ["ideals", path, "--json"],
            "ktheory": lambda: ["ktheory", path, "--json"],
            "desingularize": lambda: ["desingularize", path, "--json"],
            "tails_to_sinks": lambda: ["tails-to-sinks", path, "--json"],
            "export_dot": lambda: ["export-dot", path, "--depth", str(a.get("depth", 3))],
        }[case["op"]]()

    def _cli_op(self, case: dict) -> tuple[str, str]:
        argv = [sys.executable, "-m", "graphmoves.cli"] + self._argv(case)
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=self.job["op_limit_s"], env=self.cli_env
            )
        except subprocess.TimeoutExpired:
            return "timeout", ""
        return _exit_status(proc.returncode, proc.stderr), proc.stdout

    # -- probes --------------------------------------------------------------

    def _probe(self, case: dict, counts: dict) -> None:
        gm, span = self.gm, self.tracer.span
        if self.cli:
            span("cli.main", "probe", self._in_process_main, self._argv(case))
            return
        op = case["op"]
        if op not in ("check", "contract", "ktheory"):
            return
        g = gm.parse_graph(case["text"])
        if op == "ktheory":
            _, a = gm.adjacency_matrix(g)
            n = len(a)
            m = tuple(tuple(a[j][i] - int(i == j) for j in range(n)) for i in range(n))
            u, _, v = span("ktheory.smith_normal_form", "probe", gm.smith_normal_form, m)
            bits = max((abs(x).bit_length() for mat in (u, v) for row in mat for x in row), default=0)
            _bump(counts, "ktheory.dim", n)
            counts["ktheory.max_entry_bits"] = max(counts.get("ktheory.max_entry_bits", 0), bits)
            return
        g0 = gm.VertexSet.make(case["args"]["g0"])
        t_set = gm.VertexSet.make(set(g.vertices) - g0.core, {r.id: 0 for r in g.rays})
        t_cycles = span("graph.simple_cycles", "probe", gm.simple_cycles, g, t_set)
        if op == "check":
            span("graph.detect_tails", "probe", gm.detect_tails, g)
            t = span("conditions.induced_T", "probe", gm.induced_T, g, g0)
            inf = span("conditions.inf_nodes", "probe", getattr, t, "inf_nodes")
            all_cycles = span("graph.simple_cycles", "probe", gm.simple_cycles, g)
            _bump(counts, "conditions.t_nodes", len(t.nodes))
            _bump(counts, "conditions.inf_nodes", len(inf))
            _bump(counts, "graph.simple_cycles.cycles", len(all_cycles))
            _bump(counts, "graph.cycles_avoiding_g0", len(t_cycles))
            return
        for v in sorted(g0.core):
            try:
                fam = span("contraction.enumerate_Bv", "probe", gm.enumerate_Bv, g, g0, v)
            except RecursionError:  # the long chain; its op already counts the failure
                continue
            _bump(counts, "contraction.bv_paths", len(fam.finite_part) + len(fam.infinite_families))

    def _in_process_main(self, argv: list[str]) -> None:
        from graphmoves import cli

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.main(argv)
            except Exception:  # the long-chain contract escapes main today
                pass

    def _process_probes(self) -> None:
        for name, code in (
            ("cli.interpreter", "pass"),
            ("cli.import_networkx", "import networkx"),
            ("cli.import", "import graphmoves"),
        ):
            argv = [sys.executable, "-c", code]
            self.tracer.span(name, "probe", lambda: subprocess.run(argv, check=True, env=self.cli_env))

    def _peak_rss_kb(self) -> int:
        """Peak RSS of this process, or on `cli` of its largest child.

        getrusage's own figure is kept across exec, so a worker would inherit
        its parent's peak; the kernel's VmHWM starts afresh with the new
        image.  A CLI child's figure includes this worker's size at the time
        of the exec, which is below the child's own.
        """
        if self.cli:
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM in /proc/self/status")

    # -- rounds --------------------------------------------------------------

    def _round(self, traced: bool, keep_output: bool, outputs: dict) -> tuple[list, float, dict]:
        """One pass over the cases; returns (records, wall s without calibration
        and collection, slowdown by calibration kind)."""
        call = self.tracer.call if traced else untraced_call
        records = []
        counts: dict = {}
        first_span = len(self.tracer.spans)
        cal = Calibration()
        collected = 0.0
        start = time.perf_counter()
        for cid in self.order:
            case = self.cases[cid]
            t = time.perf_counter()
            gc.collect()  # each op starts from a clean heap, as in a fresh process
            collected += time.perf_counter() - t
            t = time.perf_counter()
            if traced:
                self.tracer.op_id = cid
                status, out = self.tracer.span(f"op.{case['family']}", "op", self._op, case, call)
                elapsed = time.perf_counter() - t
                self._probe(case, counts)
            else:
                status, out = self._op(case, call)
                elapsed = time.perf_counter() - t
            cal.sample(time.perf_counter() - t, calibration_kind(self.job["workload"], case["op"]))
            if keep_output:
                outputs[cid] = [status, out]
            digest = hashlib.sha1(out.encode()).hexdigest()[:16]
            records.append([cid, elapsed, status, digest])
        if traced:
            if self.cli:
                self.tracer.op_id = -1
                self._process_probes()
            self.counts.append(counts)
            self.span_ranges.append([first_span, len(self.tracer.spans)])
        kinds = {calibration_kind(self.job["workload"], c["op"]) for c in self.cases.values()} | {"graph"}
        return records, time.perf_counter() - start - cal.total_spent() - collected, cal.slowdowns(kinds)

    def run(self) -> dict:
        """An untimed warm-up round when the job asks for one, then the job's
        number of iterations: an untimed round, followed by a traced one when
        tracing.  On a very slow machine the worker stops after MAX_STRETCH
        times the planned wall time."""
        job = self.job
        outputs: dict = {}
        if job["warmup"]:
            self._round(False, True, outputs)
        # Objects alive now (cases, modules, the calibration graph) stay out of
        # every later collection, so an op's collections see only its own heap.
        gc.collect()
        gc.freeze()
        rounds, walls, slowdowns, traced_slowdowns = [], [], [], []
        start = time.perf_counter()
        while not rounds or (
            len(rounds) < job["iterations"] and time.perf_counter() - start < MAX_STRETCH * job["seconds"]
        ):
            records, wall, slow = self._round(False, not outputs, outputs)
            rounds.append(records)
            walls.append(wall)
            slowdowns.append(slow)
            if job["trace"]:
                traced_slowdowns.append(self._round(True, False, outputs)[2])
        return {
            "outputs": outputs,
            "rounds": rounds,
            "round_walls": walls,
            "round_slowdowns": slowdowns,
            "traced_slowdowns": traced_slowdowns,
            "spans": self.tracer.spans,
            "span_ranges": self.span_ranges,
            "probe_counts": self.counts,
            "peak_rss_kb": self._peak_rss_kb(),
        }


class Calibration:
    """Fixed pure-Python work units run between ops, to measure machine speed.

    On a shared host the machine runs slower for seconds at a time, by up to
    a factor of two, and not evenly: memory-bound code slows more than
    arithmetic.  So there are three units.  "graph" is a breadth-first
    search over a fixed random graph of a few megabytes; its cache and
    allocation behaviour is close to most ops'.  "bigint" is a row operation
    on 3000-bit integers, close to the Smith normal form behind `k_theory`.
    "process" starts an interpreter that imports two stdlib modules, close
    to the start-up that dominates a CLI op.
    After each op the worker owes the op's unit SHARE of the op's time and
    runs it whenever the debt is positive, so samples follow the ops in time.
    slowdown(kind) is the unit's measured time over its NOMINAL_S; the parent
    divides each op's time by the slowdown of its kind in its round.
    """

    SHARE = 0.1
    NOMINAL_S = {"graph": 0.0006, "bigint": 0.0003, "process": 0.07}
    _graph: list = []
    _rows: list = []

    def __init__(self):
        self.rng = random.Random(0)
        self.units = dict.fromkeys(self.NOMINAL_S, 0)
        self.spent = dict.fromkeys(self.NOMINAL_S, 0.0)
        self.debt = dict.fromkeys(self.NOMINAL_S, 0.0)
        if not self._graph:
            rng = random.Random(5)
            self._graph.extend([rng.randrange(20000) for _ in range(3)] for _ in range(20000))
            self._rows.extend([rng.getrandbits(3000) for _ in range(64)] for _ in range(2))

    def _graph_unit(self) -> int:
        graph = self._graph
        start = self.rng.randrange(len(graph))
        seen = {start}
        frontier = [start]
        while frontier and len(seen) < 600:
            nxt = []
            for u in frontier:
                for w in graph[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append((w, len(seen)))
            frontier = [w for w, _ in sorted(nxt)]
        return len(seen)

    def _bigint_unit(self) -> int:
        top, bottom = self._rows
        q = 12345678901234567
        total = 0
        for k in range(6):
            total += [a - q * b for a, b in zip(top, bottom)][k] & 1
        return total

    @staticmethod
    def _process_unit() -> None:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
        subprocess.run([sys.executable, "-c", "import argparse, json"], check=True, env=env)

    def _run_unit(self, kind: str) -> None:
        t = time.perf_counter()
        {"graph": self._graph_unit, "bigint": self._bigint_unit, "process": self._process_unit}[kind]()
        took = time.perf_counter() - t
        self.debt[kind] -= took
        self.spent[kind] += took
        self.units[kind] += 1

    def sample(self, op_seconds: float, kind: str = "graph") -> None:
        self.debt[kind] += self.SHARE * op_seconds
        while self.debt[kind] > 0:
            self._run_unit(kind)

    def total_spent(self) -> float:
        return sum(self.spent.values())

    def slowdown(self, kind: str = "graph") -> float:
        if not self.units[kind]:
            self._run_unit(kind)
        return self.spent[kind] / (self.units[kind] * self.NOMINAL_S[kind])

    def slowdowns(self, kinds) -> dict:
        return {kind: self.slowdown(kind) for kind in kinds}


def calibration_kind(workload: str, op: str) -> str:
    """The calibration unit an op's time is scaled by."""
    if workload == "cli":
        return "process"
    return "bigint" if op == "ktheory" else "graph"


IMPORT_CALIBRATION_S = 0.05
MAX_STRETCH = 2.0


def _bump(counts: dict, key: str, n: int) -> None:
    counts[key] = counts.get(key, 0) + n


def _exit_status(code: int, stderr: str) -> str:
    """Status of a CLI process: ok, graph_error:CODE, exception:TYPE or exit:N."""
    if code == 0:
        return "ok"
    lines = stderr.strip().splitlines()
    if lines and lines[0].startswith("Traceback"):
        return "exception:" + lines[-1].split(":")[0]
    head = lines[0].split(":")[0] if lines else ""
    if head.startswith("error"):
        head = lines[0].split(":")[1].strip()
    if head.isupper() and head.replace("_", "").isalpha():
        return f"graph_error:{head}"
    return f"exit:{code}"
