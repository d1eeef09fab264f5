import json
import pathlib
import re

import pytest

from graphmoves.conditions import check_theorem
from graphmoves.errors import GraphError
from graphmoves.fixtures import FIXTURES, fix_b2, fix_inf, fix_vi_e
from graphmoves.graph import build_graph, graphs_equal, is_row_finite, singularities
from graphmoves.graphio import (
    RandomSpec,
    export_dot,
    generate_random,
    graph_record,
    parse_graph,
    serialize_graph,
)

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# parse / serialize


def test_round_trip_fixtures():
    for name, build in FIXTURES.items():
        g = build()
        assert graphs_equal(parse_graph(serialize_graph(g)), g), name


def test_shipped_fixture_files_match_builders():
    # FIXTURES loads the shipped files: no file lacks a name, no name a file
    assert set(FIXTURES) == {path.stem for path in FIXTURE_DIR.glob("*.graph")}


def test_serialization_is_canonical():
    g1 = parse_graph('{"vertices": ["b", "a"], "edges": [{"src": "b", "dst": "a", "mult": 1}]}')
    g2 = parse_graph('{"edges": [{"src": "b", "dst": "a", "mult": 1}], "vertices": ["a", "b"]}')
    assert serialize_graph(g1) == serialize_graph(g2)


def test_empty_record_is_empty_graph():
    g = parse_graph("{}")
    assert g.vertices == () and g.edges == () and g.rays == ()


def test_parse_error_reports_line():
    with pytest.raises(GraphError) as err:
        parse_graph('{"vertices": [\n  "a",\n]}')
    assert err.value.code == "PARSE_ERROR"
    assert "line" in str(err.value)


def test_parse_rejects_unknown_keys_and_shapes():
    with pytest.raises(GraphError) as err:
        parse_graph('{"nodes": []}')
    assert err.value.code == "PARSE_ERROR"
    with pytest.raises(GraphError) as err:
        parse_graph("[1, 2]")
    assert err.value.code == "PARSE_ERROR"
    with pytest.raises(GraphError) as err:
        parse_graph('{"vertices": ["a"], "edges": [{"src": "a", "dst": "a", "mult": "lots"}]}')
    assert err.value.code == "PARSE_ERROR"


def _ray(**fields):
    return {"id": "R", "entry": [{"src": "a"}], "prefix": [], "cycle": [[]], **fields}


MALFORMED = [
    ("edge without dst", {"vertices": ["a"], "edges": [{"src": "a"}]}),
    ("edge as a list", {"vertices": ["a"], "edges": [["a", "a"]]}),
    ("ray as a string", {"vertices": ["a"], "rays": ["R"]}),
    ("vertices as a string", {"vertices": "ab"}),
    ("edges as a record", {"vertices": ["a"], "edges": {"src": "a", "dst": "a"}}),
    ("rays as a string", {"vertices": ["a"], "rays": "R"}),
    ("entry as a string", {"vertices": ["a"], "rays": [_ray(entry="")]}),
    ("prefix as a string", {"vertices": ["a"], "rays": [_ray(prefix="")]}),
    ("cycle as a string", {"vertices": ["a"], "rays": [_ray(cycle="")]}),
    ("position as a string", {"vertices": ["a"], "rays": [_ray(cycle=[""])]}),
]


@pytest.mark.parametrize("description", [d for _, d in MALFORMED], ids=[name for name, _ in MALFORMED])
@pytest.mark.parametrize("load", [build_graph, lambda d: parse_graph(json.dumps(d))], ids=["build", "parse"])
def test_malformed_description_is_a_parse_error(load, description):
    with pytest.raises(GraphError) as err:
        load(description)
    assert err.value.code == "PARSE_ERROR"


def test_round_trip_500_random():
    for seed in range(500):
        g, _ = generate_random(RandomSpec(seed=seed))
        text = serialize_graph(g)
        again = parse_graph(text)
        assert graphs_equal(again, g), seed
        assert serialize_graph(again) == text, seed


# ---------------------------------------------------------------------------
# DOT export


def test_dot_inf_edge():
    dot = export_dot(fix_inf(), 3)
    assert '"v" -> "w" [label="∞"];' in dot
    assert dot.startswith("digraph G {")


def test_dot_b2_shape():
    dot = export_dot(fix_b2(), 3)
    for v in ("v", "t0", "ta", "tb", "w"):
        assert f'"{v}";' in dot
    assert '[label="' not in dot.replace('[label="..."', "")  # all mults are 1


def test_dot_unrolls_rays_with_dashed_tail():
    dot = export_dot(fix_vi_e(), 3)
    for j in range(3):
        assert f'"L.x{j}"' in dot
    assert '"L.x3"' not in dot
    assert '"L.x2" -> "L.more" [style=dashed];' in dot
    assert '"v" -> "L.x0";' in dot
    assert dot.count("[style=dashed]") == 2  # one per ray


def test_dot_depth_validated():
    with pytest.raises(GraphError) as err:
        export_dot(fix_vi_e(), 0)
    assert err.value.code == "BAD_ARGUMENT"


_DOT_STRING = r'"(?:[^"\\]|\\.)*"'
_DOT_STATEMENT = re.compile(rf"  ({_DOT_STRING})(?: -> ({_DOT_STRING}))?(?: \[.*\])?;")


def _dot_unquote(token: str) -> str:
    return re.sub(r"\\(.)", r"\1", token[1:-1])


def test_dot_quotes_awkward_ids():
    ids = ['a"b', "c\\", 'd\\"e', "f"]
    g = build_graph({
        "vertices": ids,
        "edges": [{"src": 'a"b', "dst": "c\\"}, {"src": "c\\", "dst": 'd\\"e', "mult": 2}],
        "rays": [{"id": 'R"', "entry": [{"src": "f"}], "cycle": [[{"dst": 'a"b'}]]}],
    })
    lines = export_dot(g, 2).splitlines()
    names = set()
    for line in lines[2:-1]:
        m = _DOT_STATEMENT.fullmatch(line)
        assert m, line
        names.update(_dot_unquote(tok) for tok in m.groups() if tok is not None)
    assert names == {*ids, 'R".x0', 'R".x1', 'R".more'}


# ---------------------------------------------------------------------------
# random generation


def test_generator_deterministic():
    spec = RandomSpec(seed=1)
    g1, s1 = generate_random(spec)
    g2, s2 = generate_random(spec)
    assert serialize_graph(g1) == serialize_graph(g2)
    assert s1 == s2


def test_generator_golden_seed_one():
    g, g0 = generate_random(RandomSpec(seed=1))
    assert g.vertices == ("v0", "v1", "v2")
    assert g0.core == frozenset({"v1", "v2"})


def test_candidate_g0_covers_singularities():
    for seed in range(200):
        g, g0 = generate_random(RandomSpec(seed=seed))
        assert singularities(g) <= g0.core, seed


def test_omega_free_spec_is_row_finite():
    for seed in range(50):
        g, _ = generate_random(RandomSpec(seed=seed, omega_probability=0.0, ray_range=(0, 0)))
        assert is_row_finite(g)
        assert not g.rays


def test_passing_mode_passes():
    for seed in range(200):
        g, g0 = generate_random(RandomSpec(seed=seed, passing=True))
        assert check_theorem(g, g0).passed, seed


@pytest.mark.parametrize("knobs", [{"core_range": (0, 3)}, {"ray_range": (2, 1)}, {"cycle_range": (0, 2)}])
def test_random_spec_rejects_bad_ranges(knobs):
    with pytest.raises(GraphError) as err:
        RandomSpec(seed=0, **knobs)
    assert err.value.code == "PARSE_ERROR"


def test_generation_exhausted():
    with pytest.raises(GraphError) as err:
        generate_random(RandomSpec(seed=0, passing=True, max_retries=0))
    assert err.value.code == "GENERATION_EXHAUSTED"


def test_record_round_trip_via_json():
    g = fix_vi_e()
    rec = graph_record(g)
    again = parse_graph(json.dumps(rec))
    assert graphs_equal(again, g)
