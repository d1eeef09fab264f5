"""The graphmoves benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload check --seed 1 --seconds 10 --trace 0

Workloads are `check`, `contract`, `invariants` and `cli` (see
families.py and NOTES.md).  The run generates the workload's cases from the
seed, computes every reference answer, measures set-up time in fresh
interpreters, then hands the cases to a fresh worker process (worker.py)
that runs whole rounds over them for --seconds.  Every op is checked against
its reference.  With --trace 0 the last stdout line carries the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run.

The program is imported from `src/` next to this directory; the run exits
with status 2 and prints no result when it is not there.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import families
import reference
from tracing import self_times
from runner import calibration_kind

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
# The program's cost on some inputs depends on set iteration order, so the
# in-process workloads split the run over processes with different hash seeds.
RUN_PROCESSES = {"check": 3, "contract": 3, "invariants": 3, "cli": 1}
# Scaled time of one round at the commit that introduced the benchmark.  The
# number of rounds is --seconds over this, not a time limit, so the op count,
# and with it the tail percentile chosen, is the same on every commit; a run
# on faster code finishes sooner.  A traced iteration costs about three rounds.
ROUND_S = {"check": 1.1, "contract": 0.75, "invariants": 1.0, "cli": 4.0}
RUN_LIMIT_S = 170
OP_LIMIT_S = {"check": 5.0, "contract": 5.0, "invariants": 5.0, "cli": 30.0}
# coarse steps, so that run-to-run changes in the op count rarely move the choice
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)

LAYER_MS = (
    "graphio.parse_graph",
    "graphio.serialize_graph",
    "graph.simple_cycles",
    "graph.detect_tails",
    "conditions.check_theorem",
    "conditions.check_proposition",
    "conditions.induced_T",
    "conditions.inf_nodes",
    "contraction.contract",
    "contraction.enumerate_Bv",
    "moves.desingularize",
    "moves.out_delay",
    "moves.in_delay",
    "moves.esse_split",
    "ideals.enumerate_SH",
    "ideals.closure_SH",
    "ideals.check_fullness",
    "ktheory.k_theory",
    "ktheory.smith_normal_form",
)
GROWTH_FAMILIES = {
    "check": ("tree", "tree_loop", "dag_t", "chain", "ray_prefix", "small", "reject"),
    "contract": ("tree", "diamond", "chain", "ray_climb", "round_trip"),
    "invariants": ("k_dense", "ideals_flat", "ideals_rays", "closure", "fullness"),
    "cli": (),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(families.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "graphmoves" / "__init__.py").is_file():
        print(f"perfbench: no graphmoves package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphmoves as gm

    if not Path(gm.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: graphmoves resolved to {gm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cases = families.WORKLOADS[args.workload](args.seed)
    reference.complete(cases, gm)
    order = [c["id"] for c in cases]
    random.Random(f"order:{args.seed}").shuffle(order)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        job = {
            "workload": args.workload,
            "mode": "import",
            "cases": [{k: v for k, v in c.items() if k != "expect"} for c in cases],
            "order": order,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "op_limit_s": OP_LIMIT_S[args.workload],
            "workdir": str(workdir),
        }
        procs = RUN_PROCESSES[args.workload]
        hash_seeds = [args.seed * SETUP_SAMPLES + i for i in range(SETUP_SAMPLES)]
        imports = [_worker(job, workdir, started, h) for h in hash_seeds[procs:]]
        share = args.seconds / procs
        iteration_s = ROUND_S[args.workload] * (3 if args.trace else 1)
        job.update(mode="run", seconds=share, iterations=max(1, round(share / iteration_s)))
        runs = [
            _worker(dict(job, warmup=i == 0 and args.workload != "cli"), workdir, started, h)
            for i, h in enumerate(hash_seeds[:procs])
        ]
        imports = [r["import_s"] / r["import_slowdown"] for r in imports + runs]
        for r in runs:
            if not Path(r["graphmoves_file"]).resolve().is_relative_to(SRC.resolve()):
                raise RuntimeError(f"worker imported graphmoves from {r['graphmoves_file']}")
        res = _merge(runs)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    by_id = {c["id"]: c for c in cases}
    judged = _judge_all(by_id, res, OP_LIMIT_S[args.workload])
    if args.trace:
        metrics, extra = _layer_metrics(args.workload, by_id, res, judged)
        _write_trace(args, res, metrics, extra)
    else:
        metrics = _end_to_end(judged, res, statistics.median(imports))
        WORK.mkdir(exist_ok=True)
        (WORK / f"ops-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "execs": judged["execs"], "round_walls": res["round_walls"], "round_proc": res["round_proc"],
            "imports": imports, "families": {c["id"]: [c["family"], c["size"]] for c in cases}}))
    attempted = len(judged["execs"])
    failed = sum(1 for e in judged["execs"] if e["verdict"] != "ok")
    _print_table(args, judged, metrics)
    print(json.dumps({
        "correct": judged["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _worker(job: dict, workdir: Path, started: float, hash_seed: int) -> dict:
    job_path, out_path = workdir / "job.json", workdir / "result.json"
    job_path.write_text(json.dumps(job))
    out_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    budget = max(10.0, RUN_LIMIT_S - (time.perf_counter() - started))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")), str(job_path), str(out_path)],
        env=env, capture_output=True, text=True, timeout=budget,
    )
    if proc.returncode != 0 or not out_path.is_file():
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(out_path.read_text())


def _merge(runs: list[dict]) -> dict:
    """One result from several worker processes; rounds keep their process index."""
    res = {"outputs": [], "rounds": [], "round_proc": [], "round_walls": [], "round_slowdowns": [],
           "traced_slowdowns": [], "spans": [], "span_ranges": [], "probe_counts": [], "peak_rss_kb": 0}
    for proc, r in enumerate(runs):
        offset = len(res["spans"])
        res["outputs"].append(r["outputs"])
        res["rounds"] += r["rounds"]
        res["round_proc"] += [proc] * len(r["rounds"])
        res["round_walls"] += r["round_walls"]
        res["round_slowdowns"] += r["round_slowdowns"]
        res["traced_slowdowns"] += r["traced_slowdowns"]
        res["spans"] += [s[:3] + [s[3] + offset if s[3] >= 0 else -1] + s[4:] for s in r["spans"]]
        res["span_ranges"] += [[lo + offset, hi + offset] for lo, hi in r["span_ranges"]]
        res["probe_counts"] += r["probe_counts"]
        res["peak_rss_kb"] = max(res["peak_rss_kb"], r["peak_rss_kb"])
    return res


# ---------------------------------------------------------------------------
# judging


def _judge_all(by_id: dict, res: dict, limit_s: float) -> dict:
    """Judge every timed execution: each process's first output of a case
    against the reference, then each later execution's status and digest
    against that first output."""
    first = {}
    counts: dict = {}
    wrong = 0
    for proc, outputs in enumerate(res["outputs"]):
        for cid, (status, output) in outputs.items():
            verdict, case_counts = reference.judge(by_id[int(cid)], status, output)
            first[proc, int(cid)] = (verdict, status, hashlib.sha1(output.encode()).hexdigest()[:16])
            if proc == 0:
                for k, n in case_counts.items():
                    counts[k] = counts.get(k, 0) + n
    execs = []
    for rnd, records in enumerate(res["rounds"]):
        slow = res["round_slowdowns"][rnd]
        for cid, raw_seconds, status, digest in records:
            case = by_id[cid]
            seconds = raw_seconds / slow[calibration_kind(case["workload"], case["op"])]
            verdict, first_status, first_digest = first[res["round_proc"][rnd], cid]
            if status != first_status or digest != first_digest:
                verdict = "wrong" if status == "ok" else "error"
            if verdict == "ok" and seconds > limit_s:
                verdict = "overrun"
            wrong += verdict == "wrong"
            execs.append({"id": cid, "round": rnd, "seconds": seconds, "raw_seconds": raw_seconds,
                          "status": status, "verdict": verdict})
    return {"execs": execs, "counts": counts, "wrong": wrong}


# ---------------------------------------------------------------------------
# end-to-end metrics


def _quantile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of values beyond it."""
    rank = max(1, math.ceil(q / 100 * len(values)))
    return values[rank - 1], len(values) - rank


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with a finite value and >= 10 ops beyond it."""
    best = (50.0,) + _quantile(latencies, 50)
    for q in TAIL_LADDER:
        value, beyond = _quantile(latencies, q)
        if beyond >= 10 and math.isfinite(value):
            best = (q, value, beyond)
    return best


def _round_quantile(execs: list[dict], q: float, key: str = "seconds") -> float:
    """The median over rounds of each round's q-th percentile op time.

    Every round runs the same cases, so a round's percentile is the time of
    (nearly) the same op each round; the median over rounds damps the
    machine's speed changes within a run.
    """
    by_round: dict[int, list[float]] = {}
    for e in execs:
        by_round.setdefault(e["round"], []).append(e[key] if e["verdict"] == "ok" else math.inf)
    return statistics.median(_quantile(sorted(v), q)[0] for v in by_round.values())


def _scaled_walls(execs: list[dict], res: dict) -> list[float]:
    """Each round's wall time, scaled by the ratio of its scaled to raw op time."""
    raw = [0.0] * len(res["round_walls"])
    scaled = [0.0] * len(res["round_walls"])
    for e in execs:
        raw[e["round"]] += e["raw_seconds"]
        scaled[e["round"]] += e["seconds"]
    return [w * s / r for w, s, r in zip(res["round_walls"], scaled, raw)]


def _end_to_end(judged: dict, res: dict, setup_s: float) -> dict:
    execs = judged["execs"]
    ok = [e for e in execs if e["verdict"] == "ok"]
    slowdown = statistics.median(s["graph"] for s in res["round_slowdowns"])
    q, _, beyond = _tail(sorted(e["seconds"] if e["verdict"] == "ok" else math.inf for e in execs))
    judged["notes"] = [
        f"op_tail_ms is p{q:g}, with {beyond} of {len(execs)} ops beyond it",
        f"machine slowdown on the graph unit: median {slowdown:.3f} over the rounds"
        f" (unscaled: {len(ok) / sum(res['round_walls']):.2f} ops/s,"
        f" p50 {_round_quantile(execs, 50, 'raw_seconds') * 1000:.4f} ms,"
        f" p{q:g} {_round_quantile(execs, q, 'raw_seconds') * 1000:.4f} ms)",
    ]
    return {
        "ops_per_s": {"value": len(ok) / sum(_scaled_walls(execs, res)), "unit": "ops/s"},
        "op_p50_ms": {"value": _round_quantile(execs, 50) * 1000, "unit": "ms"},
        "op_tail_ms": {"value": _round_quantile(execs, q) * 1000, "unit": "ms"},
        "ok_frac": {"value": len(ok) / len(execs), "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
    }


# ---------------------------------------------------------------------------
# per-layer metrics


def _growth(by_id: dict, judged: dict) -> dict[str, dict[int, float]]:
    """Median op time (s) by family and size, over correct untraced executions."""
    times: dict[str, dict[int, list[float]]] = {}
    for e in judged["execs"]:
        if e["verdict"] == "ok":
            case = by_id[e["id"]]
            times.setdefault(case["family"], {}).setdefault(case["size"], []).append(e["seconds"])
    return {fam: {n: statistics.median(ts) for n, ts in sorted(by.items())} for fam, by in times.items()}


def _slope(points: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(size), over the larger
    half of the sizes, where fixed per-op costs no longer hide the growth."""
    top = sorted(points)[(len(points) - 1) // 2:]
    xs = [math.log(n) for n in top]
    ys = [math.log(max(points[n], 1e-9)) for n in top]
    if len(xs) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


def _layer_metrics(workload: str, by_id: dict, res: dict, judged: dict) -> tuple[dict, dict]:
    spans = res["spans"]
    own = self_times(spans)
    per_round_ms: dict[str, list[float]] = {name: [] for name in LAYER_MS}
    op_ms, cli_main, cli_procs = [], {}, {}
    for r, (lo, hi) in enumerate(res["span_ranges"]):
        slow = res["traced_slowdowns"][r]
        sums = dict.fromkeys(LAYER_MS, 0.0)
        total_op = 0.0
        for i in range(lo, hi):
            name, start, end, _, op_id, kind = spans[i]
            op = by_id[op_id]["op"] if op_id >= 0 else ""
            ms = 1000 / slow[calibration_kind(workload, op)]
            if name in sums:
                sums[name] += own[i] * ms
            if kind == "op":
                total_op += (end - start) * ms
                cli_main.setdefault((r, op_id), [0.0, 0.0])[0] = (end - start) * ms
            elif name == "cli.main":
                cli_main.setdefault((r, op_id), [0.0, 0.0])[1] = (end - start) * ms
            elif name.startswith("cli."):
                cli_procs.setdefault(name, []).append((end - start) * ms)
        for name in LAYER_MS:
            per_round_ms[name].append(sums[name])
        op_ms.append(total_op)
    rounds = len(res["rounds"])
    round_ms: dict[int, float] = {}
    for e in judged["execs"]:
        round_ms[e["round"]] = round_ms.get(e["round"], 0.0) + e["seconds"] * 1000
    untraced_ms = statistics.median(round_ms.values())
    metrics = {f"{name}.ms": _m(statistics.median(v), "ms") for name, v in per_round_ms.items()}

    counts = dict(judged["counts"])
    probe = res["probe_counts"][0] if res["probe_counts"] else {}
    cases = by_id.values()
    records = [json.loads(c["text"]) for c in cases]
    recursion = sum(1 for e in judged["execs"] if e["status"] == "exception:RecursionError") / rounds
    bv_paths = probe.get("contraction.bv_paths", 0)
    out_edges = counts.get("out_edges", 0)
    all_cycles = probe.get("graph.simple_cycles.cycles", 0)
    main_pairs = [pair for pair in cli_main.values() if pair[1] > 0]
    metrics.update({
        "graphio.input_kb": _m(sum(len(c["text"]) for c in cases) / 1024, "kB"),
        "graph.simple_cycles.cycles": _m(all_cycles, "count"),
        "graph.cycles_useful_ratio": _m(
            probe.get("graph.cycles_avoiding_g0", 0) / all_cycles if all_cycles else 0.0, "ratio"),
        "graph.vertices": _m(sum(len(r["vertices"]) for r in records), "count"),
        "graph.edges": _m(sum(len(r["edges"]) + sum(len(y["entry"]) for y in r["rays"]) for r in records), "count"),
        "conditions.t_nodes": _m(probe.get("conditions.t_nodes", 0), "count"),
        "conditions.inf_nodes": _m(probe.get("conditions.inf_nodes", 0), "count"),
        "conditions.violations": _m(counts.get("violations", 0), "count"),
        "conditions.t_cycle_witnesses": _m(counts.get("t_cycle_witnesses", 0), "count"),
        "conditions.route_disagreements": _m(counts.get("route_disagreements", 0), "count"),
        "conditions.kind_disagreements": _m(counts.get("kind_disagreements", 0), "count"),
        "contraction.bv_paths": _m(bv_paths, "count"),
        "contraction.out_edges": _m(out_edges, "count"),
        "contraction.paths_per_edge": _m(bv_paths / out_edges if out_edges else 0.0, "ratio"),
        "contraction.recursion_errors": _m(recursion, "count"),
        "ideals.sh_members": _m(counts.get("sh_members", 0), "count"),
        "ktheory.dim": _m(probe.get("ktheory.dim", 0), "count"),
        "ktheory.max_entry_bits": _m(probe.get("ktheory.max_entry_bits", 0), "bits"),
        "cli.interpreter_ms": _m(_median0(cli_procs.get("cli.interpreter", [])), "ms"),
        "cli.import_ms": _m(_median0(cli_procs.get("cli.import", [])), "ms"),
        "cli.import_networkx_ms": _m(_median0(cli_procs.get("cli.import_networkx", [])), "ms"),
        "cli.main.ms": _m(_median0([p[1] for p in main_pairs]), "ms"),
        "cli.startup_ms": _m(_median0([p[0] - p[1] for p in main_pairs]), "ms"),
        "trace.round_ms": _m(untraced_ms, "ms"),
        "trace.overhead_ms": _m(statistics.median(op_ms) - untraced_ms if op_ms else 0.0, "ms"),
    })
    growth = _growth(by_id, judged)
    for wl, fams in GROWTH_FAMILIES.items():
        for fam in fams:
            value = _slope(growth.get(fam, {})) if wl == workload else 0.0
            metrics[f"{wl}.{fam}.growth"] = _m(value, "exponent")
    return metrics, {"op_seconds_by_size": growth}


def _m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median0(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _write_trace(args, res: dict, metrics: dict, extra: dict) -> None:
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    fields = ("name", "start", "end", "parent", "op_id", "kind")
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "metrics": metrics,
        **extra,
        "spans": [dict(zip(fields, s)) for s in res["spans"]],
    }))
    print(f"trace written to {path.relative_to(ROOT)}")


def _print_table(args, judged: dict, metrics: dict) -> None:
    execs = judged["execs"]
    bad = collections.Counter((e["id"], e["status"], e["verdict"]) for e in execs if e["verdict"] != "ok")
    rounds = 1 + max(e["round"] for e in execs)
    print(f"workload {args.workload} seed {args.seed}: {len(execs)} ops in {rounds} rounds, "
          f"{sum(bad.values())} failed")
    for (cid, status, verdict), n in sorted(bad.items()):
        print(f"  failed op {cid}: {verdict} ({status}) x{n}")
    for note in judged.get("notes", ()):
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
