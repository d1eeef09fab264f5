"""Small named graphs used throughout the test suite and docs.

Each is parsed from its shipped file `fixtures/<name>.graph`:

- fix_loop: one vertex with a loop.
- fix_b2: binary tree with two generations, leaves feeding a sink w.
- fix_inf: two vertices joined by a single edge of infinite multiplicity.
- fix_vi_e: core {v,w} with two rays from v; every spine position also emits to w.
- fix_vi_f: core {v,w} with v emitting infinitely to w plus one ray whose spine emits to w.
- fix_esse: a two-cycle a -> x -> a, bipartite with parts {a} and {x}.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

from .graph import Graph
from .graphio import parse_graph

_DIR = Path(__file__).resolve().parents[2] / "fixtures"


def _load(name: str) -> Graph:
    return parse_graph((_DIR / f"{name}.graph").read_text())


FIXTURES = {
    name: partial(_load, name)
    for name in ("fix_loop", "fix_b2", "fix_inf", "fix_vi_e", "fix_vi_f", "fix_esse")
}
fix_loop, fix_b2, fix_inf, fix_vi_e, fix_vi_f, fix_esse = FIXTURES.values()
