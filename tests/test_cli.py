import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import graphmoves
from graphmoves.cli import main
from graphmoves.fixtures import fix_b2
from graphmoves.graph import graphs_equal
from graphmoves.graphio import parse_graph, serialize_graph

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.graph")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_pass(capsys):
    code, out, _ = run(capsys, "check", fx("fix_b2"), "--g0", "v,w")
    assert code == 0
    assert out == "theorem: PASS\nproposition: PASS\n"


def test_check_cond_a_report(capsys):
    code, out, _ = run(capsys, "check", fx("fix_vi_e"), "--g0", "v,w")
    assert code == 1
    assert out.splitlines()[0] == "theorem: FAIL"
    assert "COND_A vertex=v prefix1=v->L.x0 prefix2=v->R.x0 parallel=false" in out
    assert "proposition: FAIL" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", fx("fix_vi_f"), "--g0", "v,w", "--json")
    assert code == 1
    rec = json.loads(out)
    assert rec["theorem"]["pass"] is False
    assert rec["theorem"]["violations"][0]["kind"] == "COND_D"
    assert rec["proposition"]["violations"][0]["kind"] == "COND_D"


def test_check_empty_g0(capsys):
    code, out, _ = run(capsys, "check", fx("fix_loop"), "--g0", "")
    assert code == 1
    assert "T_CYCLE" in out


# ---------------------------------------------------------------------------
# contract


def test_contract_b2(capsys):
    code, out, _ = run(capsys, "contract", fx("fix_b2"), "--g0", "v,w")
    assert code == 0
    g = parse_graph(out)
    assert [(e[0], e[1], e[2].to_json()) for e in g.edges] == [("v", "w", 2)]


def test_contract_checked_failure(capsys):
    code, out, err = run(capsys, "contract", fx("fix_vi_e"), "--g0", "v,w")
    assert code == 1
    assert "CONDITIONS_FAILED" in err
    assert "COND_A" in err


def test_contract_unchecked(capsys):
    code, out, _ = run(capsys, "contract", fx("fix_vi_e"), "--g0", "v,w", "--unchecked")
    assert code == 0
    got = parse_graph(out)
    assert graphs_equal(got, parse_graph(pathlib.Path(fx("fix_inf")).read_text()))


def test_contract_json_provenance(capsys):
    code, out, _ = run(capsys, "contract", fx("fix_b2"), "--g0", "v,w", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["edges"] == [{"src": "v", "dst": "w", "mult": 2}]
    assert "provenance" in rec


# ---------------------------------------------------------------------------
# closure / ideals / ktheory


def test_closure(capsys):
    code, out, _ = run(capsys, "closure", fx("fix_b2"), "--set", "w")
    assert code == 0
    assert out == "{t0, ta, tb, v, w}\n"


def test_closure_ray_position(capsys):
    code, out, _ = run(capsys, "closure", fx("fix_vi_e"), "--set", "L.x2")
    assert code == 0
    assert out == "{w, L.x0+}\n"


def test_ideals_inf(capsys):
    code, out, _ = run(capsys, "ideals", fx("fix_inf"))
    assert code == 0
    assert out == "{}\n{w}\n{v, w}\nnontrivial: 1\n"


def test_ideals_json(capsys):
    code, out, _ = run(capsys, "ideals", fx("fix_vi_e"), "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["nontrivial"] == 3


def test_ktheory_loop(capsys):
    code, out, _ = run(capsys, "ktheory", fx("fix_loop"))
    assert code == 0
    assert out == "K0 = Z; K1 = Z\nfactors: []\n"


def test_ktheory_guard(capsys):
    code, _, err = run(capsys, "ktheory", fx("fix_b2"))
    assert code == 2
    assert "HAS_SINKS" in err


# ---------------------------------------------------------------------------
# moves


def test_desingularize_cli(capsys):
    code, out, _ = run(capsys, "desingularize", fx("fix_inf"))
    assert code == 0
    g = parse_graph(out)
    assert [r.id for r in g.rays] == ["v_inf"]


def test_delay_out_cli(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('[{"vertex": "u", "slot": 0, "stage": 1}]')
    code, out, _ = run(capsys, "delay-out", fx("fix_loop"), "--plan", str(plan))
    assert code == 0
    g = parse_graph(out)
    assert sorted(g.vertices) == ["u", "u_1"]


def test_delay_in_cli(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('[{"vertex": "u", "slot": 0, "stage": 1}]')
    code, out, _ = run(capsys, "delay-in", fx("fix_loop"), "--plan", str(plan))
    assert code == 0
    g = parse_graph(out)
    assert sorted(g.vertices) == ["u", "u_1"]


def test_delay_plan_errors(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('[{"vertex": "u", "slot": 1, "stage": 0}]')
    code, _, err = run(capsys, "delay-out", fx("fix_loop"), "--plan", str(plan))
    assert code == 2
    assert "slots of u" in err
    plan.write_text('[{"vertex": "u", "slot": 0, "stage": 0}, {"vertex": "u", "slot": 0, "stage": 1}]')
    code, _, err = run(capsys, "delay-out", fx("fix_loop"), "--plan", str(plan))
    assert code == 2
    assert "assigned twice" in err


PLAN = ("delay-out", "--plan")
LABELS = ("skew", "--p", "2", "--labels")
RECORD_FILE_ERRORS = [
    ("unreadable", PLAN, None),
    ("invalid JSON", PLAN, "[{"),
    ("not a list", PLAN, '{"vertex": "u", "slot": 0, "stage": 1}'),
    ("plan without stage", PLAN, '[{"vertex": "u", "slot": 0}]'),
    ("label slot twice", LABELS, '[{"slot": 0, "label": 0}, {"slot": 0, "label": 1}]'),
    ("fractional stage", PLAN, '[{"vertex": "u", "slot": 0, "stage": 1.7}]'),
    ("string slot", PLAN, '[{"vertex": "u", "slot": "0", "stage": 1}]'),
    ("string stage", PLAN, '[{"vertex": "u", "slot": 0, "stage": "2"}]'),
    ("boolean stage", PLAN, '[{"vertex": "u", "slot": 0, "stage": true}]'),
    ("fractional label slot", LABELS, '[{"slot": 0.9, "label": 1}]'),
    ("string label", LABELS, '[{"slot": 0, "label": "1"}]'),
    ("boolean label slot", LABELS, '[{"slot": false, "label": 1}]'),
]


@pytest.mark.parametrize("argv, text", [c[1:] for c in RECORD_FILE_ERRORS], ids=[c[0] for c in RECORD_FILE_ERRORS])
def test_record_file_errors(tmp_path, capsys, argv, text):
    records = tmp_path / "records.json"
    if text is not None:
        records.write_text(text)
    command, *flags = argv
    code, _, err = run(capsys, command, fx("fix_loop"), *flags, str(records))
    assert code == 2
    assert "PARSE_ERROR" in err


def test_skew_cli(tmp_path, capsys):
    labels = tmp_path / "labels.json"
    labels.write_text('[{"slot": 0, "label": 1}]')
    code, out, _ = run(capsys, "skew", fx("fix_loop"), "--p", "2", "--labels", str(labels))
    assert code == 0
    g = parse_graph(out)
    assert sorted(g.vertices) == ["u@0", "u@1"]
    assert len(g.edges) == 2


def test_skew_label_coverage_checked(tmp_path, capsys):
    labels = tmp_path / "labels.json"
    labels.write_text("[]")
    code, _, err = run(capsys, "skew", fx("fix_loop"), "--p", "2", "--labels", str(labels))
    assert code == 2
    assert "cover edge slots" in err


def test_esse_cli(capsys):
    code, out, _ = run(capsys, "esse", fx("fix_esse"), "--v1", "a", "--v2", "x")
    assert code == 0
    assert out.startswith("side 1:\n")
    assert "side 2:\n" in out


def test_esse_json(capsys):
    code, out, _ = run(capsys, "esse", fx("fix_esse"), "--v1", "a", "--v2", "x", "--json")
    rec = json.loads(out)
    assert rec["side1"]["edges"] == [{"src": "a", "dst": "a", "mult": 1}]
    assert rec["side2"]["edges"] == [{"src": "x", "dst": "x", "mult": 1}]


def test_tails_to_sinks_cli(capsys):
    code, out, _ = run(capsys, "tails-to-sinks", fx("fix_b2"))
    assert code == 0
    assert graphs_equal(parse_graph(out), fix_b2())


def test_export_dot_cli(capsys):
    code, out, _ = run(capsys, "export-dot", fx("fix_inf"), "--depth", "2")
    assert code == 0
    assert out.startswith("digraph G {")
    assert '"v" -> "w" [label="∞"];' in out


# ---------------------------------------------------------------------------
# error paths


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "/no/such/file.graph", "--g0", "v")
    assert code == 2
    assert "error:" in err


def test_unknown_g0_vertex(capsys):
    code, _, err = run(capsys, "check", fx("fix_b2"), "--g0", "v,bogus")
    assert code == 2
    assert "UNKNOWN_VERTEX" in err


def test_ray_position_rejected_in_g0(capsys):
    code, _, err = run(capsys, "check", fx("fix_vi_e"), "--g0", "v,L.x0")
    assert code == 2
    assert "UNKNOWN_VERTEX" in err


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_cli_outputs_reparse_canonically(capsys):
    # serialized CLI output is the canonical form: parse + serialize is stable
    code, out, _ = run(capsys, "contract", fx("fix_b2"), "--g0", "v,w")
    assert serialize_graph(parse_graph(out)) == out


def _python(code: str, *flags: str) -> str:
    """The standard output of a fresh interpreter running code on this package."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(graphmoves.__file__).parents[1])}
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


GRAPH_IO = {"errors", "graph", "graphio", "multiplicity"}


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import graphmoves", set()),
        ("import graphmoves.cli", {"cli"} | GRAPH_IO),
        (f"main(['check', {fx('fix_b2')!r}, '--g0', 'v,w'])", {"cli", "conditions"} | GRAPH_IO),
        (f"main(['contract', {fx('fix_b2')!r}, '--g0', 'v,w'])", {"cli", "conditions", "contraction"} | GRAPH_IO),
        (f"main(['closure', {fx('fix_b2')!r}, '--set', 'w'])", {"cli", "ideals"} | GRAPH_IO),
        (f"main(['desingularize', {fx('fix_inf')!r}])", {"cli", "conditions", "contraction", "moves"} | GRAPH_IO),
        (f"main(['ktheory', {fx('fix_loop')!r}])", {"cli", "ktheory"} | GRAPH_IO),
        (f"main(['export-dot', {fx('fix_inf')!r}])", {"cli"} | GRAPH_IO),
    ],
    ids=["import", "import-cli", "check", "contract", "closure", "desingularize", "ktheory", "export-dot"],
)
def test_cli_import_leaves_networkx_unloaded(statement, loaded):
    # the package resolves its names on first use and each subcommand imports
    # what it runs, so no process pays for a module it never calls; no
    # module needs networkx
    if statement.startswith("main("):
        statement = f"from graphmoves.cli import main\nassert {statement} == 0"
    code = (
        f"import sys\n{statement}\n"
        "print(sorted(m for m in sys.modules if m.startswith('graphmoves.')), 'networkx' in sys.modules)\n"
    )
    last = _python(code).splitlines()[-1]
    assert last == f"{sorted(f'graphmoves.{m}' for m in loaded)} False"


def test_package_loads_no_third_party_module():
    # -S keeps site-packages off the path, so nothing the site hooks load
    # counts, and a third-party import would fail outright; every exported
    # name is resolved first, so every module behind them is loaded
    code = (
        "import sys, graphmoves, graphmoves.cli\n"
        "for name in graphmoves.__all__:\n"
        "    getattr(graphmoves, name)\n"
        "from graphmoves.fixtures import fix_loop\n"
        "assert graphmoves.simple_cycles(fix_loop()) == [('u',)]\n"
        "for m in ('conditions', 'contraction', 'ideals', 'ktheory', 'moves'):\n"
        "    assert f'graphmoves.{m}' in sys.modules\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} - set(sys.stdlib_module_names)))\n"
    )
    assert _python(code, "-S").strip() == "['__main__', 'graphmoves']"


def test_package_exports_resolve_to_their_modules():
    names = graphmoves.__all__
    assert len(set(names)) == len(names) == 59
    for name in names:
        module = importlib.import_module(f"graphmoves.{graphmoves._MODULE_OF[name]}")
        assert getattr(graphmoves, name) is getattr(module, name), name
    with pytest.raises(AttributeError):
        graphmoves.no_such_name
    # a fresh process, where no name is resolved yet: dir lists them all and
    # the star import binds them all
    code = (
        "import graphmoves\n"
        "unlisted = set(graphmoves.__all__) - set(dir(graphmoves))\n"
        "from graphmoves import *\n"
        "print(sorted(unlisted), sum(name in globals() for name in graphmoves.__all__))\n"
    )
    assert _python(code).strip() == "[] 59"


def test_version_has_one_source():
    pyproject = (pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]*)"$', pyproject, re.M).group(1) == graphmoves.__version__
