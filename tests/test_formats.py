"""Text, DOT, and JSON round trips for graphs, trees, and reports."""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from rep132.constructions import RootedTree
from rep132.formats import (
    catalog_to_json,
    dumps,
    emit_dot,
    emit_graph_text,
    emit_tree_text,
    graph_from_json,
    graph_to_json,
    parse_dot,
    parse_graph_text,
    parse_tree_text,
    report_to_json,
)
from rep132.graphs import LabeledGraph, canonical_form, cycle, star, wheel
from rep132.search import SearchConfig, scan_order, search_all_labelings, search_fixed
from rep132.words import Word


def random_graph(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return LabeledGraph(n, edges)


graphs = st.composite(random_graph)()


# ---------------------------------------------------------------- GraphFile


def test_parse_graph_text():
    g = parse_graph_text("# a star\nn 4\n\n1 4\n2 4\n3 4  # trailing comment\n")
    assert g == star(3)
    assert parse_graph_text("n 1\n") == LabeledGraph(1, [])


@pytest.mark.parametrize("bad", [
    "",                       # missing header
    "n\n",                    # header without count
    "m 3\n1 2\n",             # wrong keyword
    "n 3\n2 1\n",             # u >= v
    "n 3\n1 1\n",             # loop
    "n 3\n1 4\n",             # out of range
    "n 3\n1 2\n1 2\n",        # duplicate edge
    "n 3\n1 2 3\n",           # malformed edge line
])
def test_parse_graph_text_rejects(bad):
    with pytest.raises(ValueError):
        parse_graph_text(bad)


@settings(max_examples=80)
@given(graphs)
def test_graph_text_round_trip(g):
    assert parse_graph_text(emit_graph_text(g)) == g


# ---------------------------------------------------------------- tree files


def test_parse_tree_text_child_order_is_line_order():
    t = parse_tree_text("n 3\nroot 1\n1 3\n1 2\n")
    assert t.children(1) == (3, 2)


def test_tree_text_round_trip():
    t = RootedTree(8, 1, [(1, 2), (2, 3), (2, 4), (1, 5), (1, 6), (6, 7), (6, 8)])
    again = parse_tree_text(emit_tree_text(t))
    assert again.edges() == t.edges()
    assert again.root == t.root


@pytest.mark.parametrize("bad", [
    "root 1\n1 2\n",           # missing n
    "n 2\n1 2\n",              # missing root
    "n 2\nroot 3\n1 2\n",      # root out of range
    "n 3\nroot 1\n1 2\n",      # too few edges
    "n 2\nroot 1\nx y\n",      # malformed line
])
def test_parse_tree_text_rejects(bad):
    with pytest.raises(ValueError):
        parse_tree_text(bad)


# --------------------------------------------------------------------- DOT


def test_emit_dot_shape():
    text = emit_dot(star(3), witness=Word("3432141"), name="star")
    assert text.startswith("graph star {")
    assert "// witness: 3432141" in text
    assert "3 -- 4;" in text
    assert text.count(";") == 4 + 3     # every vertex and edge once


def test_emit_dot_without_witness():
    assert "witness" not in emit_dot(cycle(3))


@settings(max_examples=60)
@given(graphs)
def test_dot_round_trip(g):
    assert parse_dot(emit_dot(g)) == g


# -------------------------------------------------------------------- JSON


@settings(max_examples=60)
@given(graphs)
def test_graph_json_round_trip(g):
    assert graph_from_json(json.loads(dumps(graph_to_json(g)))) == g


def test_graph_json_rejects_a_float_endpoint():
    with pytest.raises(TypeError):
        graph_from_json({"n": 3, "edges": [[1, 2.0]]})


def test_report_json_representable():
    obj = report_to_json(search_all_labelings(cycle(5)))
    assert set(obj) == {"graph", "outcome", "witness", "labeling",
                        "stats", "budget_exhausted", "complete_decision"}
    assert obj["outcome"] == "representable"
    assert obj["complete_decision"] is False
    assert set(obj["stats"]) == {"nodes", "words_tested", "labelings_tried"}
    assert "wall_time" not in obj["stats"]


def test_report_json_not_representable():
    obj = report_to_json(search_all_labelings(wheel(5)))
    assert obj["outcome"] == "not-representable"
    assert "witness" not in obj and "labeling" not in obj
    assert obj["budget_exhausted"] is False
    assert obj["complete_decision"] is True


def test_report_json_budget_exceeded():
    obj = report_to_json(
        search_all_labelings(wheel(5), SearchConfig(node_budget=500)))
    assert obj["outcome"] == "budget-exceeded"
    assert obj["budget_exhausted"] is True
    assert obj["complete_decision"] is False


def test_report_json_find_all():
    obj = report_to_json(search_fixed(star(3), SearchConfig(find_all=True)))
    assert "witnesses" in obj
    first = obj["witnesses"][0]
    assert set(first) == {"labeling", "word"}
    assert obj["witness"] == first["word"]
    assert obj["labeling"] == first["labeling"]


def test_catalog_json_summary():
    entries = scan_order(4)
    cat = catalog_to_json(4, entries)
    assert cat["order"] == 4
    assert cat["summary"]["classes"] == 7
    assert cat["summary"]["representable"] == 7
    assert cat["summary"]["not_representable"] == 0
    assert cat["summary"]["budget_exceeded"] == 0
    entry = cat["entries"][1]
    assert entry["outcome"] == "representable"
    assert "witness" in entry and "labeling" in entry
    assert entry["two_uniform"] in (True, False)
    assert entry["word_length"] == len(entry["witness"].replace(".", ""))


def test_catalog_json_wheel_flags():
    entries = scan_order(6)
    cat = catalog_to_json(6, entries, wheel5_canonical=canonical_form(wheel(5)))
    assert cat["summary"]["wheel5_found_non_representable"] is True
    assert cat["summary"]["wheel5_only_non_representable"] is False
    assert cat["summary"]["not_representable"] == 4


def test_dumps_is_stable():
    obj = {"b": 1, "a": [1, 2]}
    text = dumps(obj)
    assert text.endswith("\n")
    assert text == dumps(json.loads(text))
