"""Tests of the benchmark itself: seeded generators, references, metric names.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import families
import reference
import run
import runner

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(run.SRC))
import graphmoves as gm  # noqa: E402
from graphmoves import cli  # noqa: E402


@pytest.mark.parametrize("workload", sorted(families.WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    make = families.WORKLOADS[workload]
    assert make(3) == make(3)
    texts = [c["text"] for c in make(3) if not c["family"].startswith("fix_")]
    assert texts and texts != [c["text"] for c in make(4) if not c["family"].startswith("fix_")]


def _smallest_per_family(cases):
    best = {}
    for c in cases:
        key = (c["family"], c["op"])
        if key not in best or c["size"] < best[key]["size"]:
            best[key] = c
    return list(best.values())


def _cli_status(ops, case):
    """Run one CLI case in-process; returns (status, stdout) as the worker would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(ops._argv(case))
        except RecursionError:
            return "exception:RecursionError", ""
    return runner._exit_status(code, err.getvalue()), out.getvalue()


@pytest.mark.parametrize("workload", sorted(families.WORKLOADS))
def test_references_match_library_at_smallest_size(workload, tmp_path):
    cases = _smallest_per_family(families.WORKLOADS[workload](0))
    reference.complete(cases, gm)
    job = {"workload": workload, "cases": cases, "order": [], "workdir": str(tmp_path)}
    ops = runner.Runner(gm, job)
    for case in cases:
        if workload == "cli":
            status, output = _cli_status(ops, case)
        else:
            status, output = ops._op(case, lambda name, fn, *a: fn(*a))
        verdict, _ = reference.judge(case, status, output)
        if status == "exception:RecursionError":
            assert case["size"] >= 500, case["family"]  # the long-chain failure the benchmark counts
            continue
        assert verdict == "ok", (case["family"], case["op"], status, output[:300])


def test_reject_variants_report_their_kinds():
    for variant in families.REJECT_VARIANTS:
        b = families.GraphBuilder(random.Random(1))
        g0, kinds = families._reject(b, variant, 2)
        g = gm.parse_graph(b.text())
        g0set = gm.VertexSet.make([b.v(k) for k in g0])
        for check in (gm.check_theorem, gm.check_proposition):
            assert sorted(set(check(g, g0set).kinds())) == kinds, variant


def test_brute_force_ideals_match_known_counts():
    for name, nontrivial in (("fix_vi_e", 3), ("fix_vi_f", 2), ("fix_inf", 1)):
        model = reference.Model(families.FIXTURES[name])
        trivial = {reference._full(model), (frozenset(), frozenset())}
        assert sum(1 for m in reference.sh_sets(model) if m not in trivial) == nontrivial, name


def test_tail_is_highest_percentile_with_ten_beyond():
    lat = sorted([0.001] * 180 + [0.5] * 15 + [float("inf")] * 5)
    q, value, beyond = run._tail(lat)
    assert (q, value) == (95, 0.5) and beyond == 10


def _run_main(monkeypatch, capsys, trace):
    small = families.WORKLOADS["check"](1)[:6]
    monkeypatch.setitem(families.WORKLOADS, "check", lambda seed: small)
    monkeypatch.setattr(run, "WORK", run.WORK.with_name(".perfbench_work_test"))
    try:
        assert run.main(["--workload", "check", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_exactly_those_in_benchmark_json(monkeypatch, capsys, trace, key):
    result = _run_main(monkeypatch, capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "check", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout
