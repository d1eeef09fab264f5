"""The README's graph example and command lines must work as written."""

import json
import pathlib
import re
import shlex

from graphmoves.cli import main
from graphmoves.multiplicity import Mult
from graphmoves.graphio import parse_graph

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_graph_example_parses():
    (block,) = _blocks("json")
    g = parse_graph(block)
    assert g.vertices == ("v", "w")
    assert g.edges == (("v", "w", Mult(2)),)
    (ray,) = g.rays
    assert ray.entry == (("v", Mult(1)),)
    assert ray.targets(5) == (("w", Mult(1)),)


def test_every_command_line_runs(tmp_path, monkeypatch, capsys):
    # in.graph stands for any input graph; fix_b2 suits every line using it
    plan = [{"vertex": "ta", "slot": 0, "stage": 1}]  # ta has one out- and one in-slot
    labels = [{"slot": i, "label": i % 2} for i in range(5)]  # one per fix_b2 edge
    files = {
        "in.graph": str(ROOT / "fixtures" / "fix_b2.graph"),
        "plan.json": str(tmp_path / "plan.json"),
        "labels.json": str(tmp_path / "labels.json"),
    }
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    (tmp_path / "labels.json").write_text(json.dumps(labels))
    monkeypatch.chdir(ROOT)
    lines = [ln for block in _blocks("sh") for ln in block.splitlines() if ln.startswith("graphmoves ")]
    assert len(lines) >= 12
    for line in lines:
        argv = [files.get(tok, tok) for tok in shlex.split(line)[1:]]
        code = main(argv)
        _, err = capsys.readouterr()
        assert code != 2, (line, err)
