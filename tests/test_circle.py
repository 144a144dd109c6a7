"""Chord diagrams, crossing graphs, and 2-uniform witnesses."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import LOAD_PACKAGE, brute_edges
from rep132 import circle
from rep132.circle import (
    ChordDiagram,
    chords_from_word,
    circle_witness,
    intersection_graph,
)
from rep132.graphs import LabeledGraph, complete, cycle, prism, relabel, star, wheel
from rep132.represent import graph_from_word
from rep132.words import Word, is_k_uniform


def two_uniform_words(k):
    """All 2-uniform words over {1..k}, as tuples."""
    letters = [c for c in range(1, k + 1) for _ in range(2)]
    return set(itertools.permutations(letters))


# ------------------------------------------------------------------ diagrams


def test_chord_diagram_basics():
    d = ChordDiagram((1, 2, 1, 2))
    assert d.n == 2
    assert d.chord(1) == (0, 2)
    assert d.chord(2) == (1, 3)
    assert d.word() == Word("1212")


def test_chord_diagram_requires_two_of_each():
    with pytest.raises(ValueError):
        ChordDiagram((1, 2, 1))
    with pytest.raises(ValueError):
        chords_from_word(Word("1231"))
    d = chords_from_word(Word("123123"))
    assert d.chord(3) == (2, 5)


# --------------------------------------------------------------- crossings


def test_intersection_graph_examples():
    assert intersection_graph(ChordDiagram((1, 2, 3, 1, 2, 3))) == complete(3)
    assert intersection_graph(ChordDiagram((1, 1, 2, 2, 3, 3))) == LabeledGraph(3, [])
    assert intersection_graph(ChordDiagram((1, 2, 1, 2, 3, 3))) == LabeledGraph(
        3, [(1, 2)])


def test_intersection_graph_requires_contiguous_letters():
    with pytest.raises(ValueError):
        intersection_graph(ChordDiagram((1, 3, 1, 3)))


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=4), st.randoms())
def test_intersection_graph_is_rotation_invariant(k, rnd):
    letters = [c for c in range(1, k + 1) for _ in range(2)]
    rnd.shuffle(letters)
    g = intersection_graph(ChordDiagram(tuple(letters)))
    for shift in range(1, 2 * k):
        rotated = tuple(letters[shift:] + letters[:shift])
        assert intersection_graph(ChordDiagram(rotated)) == g


def test_crossing_equals_alternation_exhaustively():
    # for 2-uniform words the chord-crossing graph and the represented
    # graph coincide; checked over every diagram with up to 4 chords
    for k in range(1, 5):
        for w in two_uniform_words(k):
            d = ChordDiagram(w)
            g = intersection_graph(d)
            assert g == graph_from_word(Word(w))
            assert {tuple(e) for e in g.edge_list()} == brute_edges(w)


# ---------------------------------------------------------------- witnesses


def test_circle_witness_finds_diagrams():
    for g in [complete(3), cycle(5), star(3), complete(4), cycle(6)]:
        d = circle_witness(g)
        assert d is not None
        assert is_k_uniform(d.word(), 2)
        assert intersection_graph(d) == g


def test_circle_witness_is_labeling_free():
    base = star(3)
    for sigma in itertools.permutations(range(1, 5)):
        d = circle_witness(relabel(base, sigma))
        assert d is not None


def test_circle_witness_first_diagram_is_dfs_least():
    assert circle_witness(complete(3)).endpoints == (1, 2, 3, 1, 2, 3)
    assert circle_witness(LabeledGraph(1, [])).endpoints == (1, 1)


def test_non_circle_graphs_have_no_witness():
    assert circle_witness(prism(3)) is None
    assert circle_witness(wheel(5)) is None


def test_some_non_representable_graphs_are_still_circle():
    k33 = LabeledGraph(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
    octa = LabeledGraph(6, [p for p in itertools.combinations(range(1, 7), 2)
                            if p not in ((1, 2), (3, 4), (5, 6))])
    for g in (k33, octa):
        d = circle_witness(g)
        assert d is not None
        assert intersection_graph(d) == g


def test_circle_witness_bounds():
    with pytest.raises(ValueError):
        circle_witness(LabeledGraph(8, []))


def test_circle_witness_exhaustive_against_brute_force():
    # for every isolate-free class on <= 4 vertices, the witness exists iff
    # some 2-uniform permutation represents the graph
    from rep132.graphs import enumerate_graphs
    for n in (1, 2, 3, 4):
        for g in enumerate_graphs(n, isolate_free=True):
            target = {tuple(e) for e in g.edge_list()}
            brute = any(brute_edges(w) == target for w in two_uniform_words(g.n))
            assert (circle_witness(g) is not None) == brute


# circle_witness in a child process run with python -O, its witness check
# failing: it must raise, not return an unchecked diagram.
UNSOUND_DIAGRAM = LOAD_PACKAGE + """
from rep132 import circle
from rep132.graphs import LabeledGraph, cycle
circle.graph_from_word = lambda word: LabeledGraph(5, [])
print("debug" if __debug__ else "optimized")
try:
    circle.circle_witness(cycle(5))
except RuntimeError as e:
    print(e)
else:
    print("unchecked")
"""


def test_circle_witness_check_holds_under_optimize():
    package = Path(circle.__file__).parent
    done = subprocess.run(
        [sys.executable, "-O", "-c", UNSOUND_DIAGRAM, str(package), str(package)],
        env=dict(os.environ, REP132_BACKEND="python"),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "optimized"
    assert done.stdout.splitlines()[1:] == [
        f"unsound circle witness {circle_witness(cycle(5)).word()}"]
