"""Acceptance suite: one test per shipped guarantee, run with ``pytest -v``.

Each test states a user-visible promise of the package — enumeration
counts, oracle equivalence, constructive words, exhaustive-search verdicts,
catalog sizes, circle-graph witnesses, machine-checked occurrence bounds,
and the order-6 research scan — together with its runtime budget.

One check is expected to fail: the claim that the star K_{1,3} labeled
with hub 4 admits no 132-avoiding representant is false (the exhaustive
search finds the unique witness 3432141, verified independently here).
The test fails loudly with the analysis rather than encoding a wrong
expected value; see the ledger in the repository notes for the write-up.
"""

import itertools
import random
import time
from collections import Counter

import pytest

from rep132.circle import ChordDiagram, circle_witness, intersection_graph
from rep132.constructions import (
    RootedTree,
    cycle_representant,
    kn_count,
    kn_enumerate,
    path_representant,
    preorder_label,
    tree_representant,
)
from rep132.formats import catalog_to_json
from rep132.graphs import LabeledGraph, canonical_form, complete, cycle, path, prism, wheel
from rep132.represent import graph_from_word, is_132_representant, represents
from rep132.search import SearchConfig, scan_order, search_all_labelings, search_fixed
from rep132.words import Word, has_132, occurrences

STAR_HUB1 = LabeledGraph(4, [(1, 2), (1, 3), (1, 4)])
STAR_HUB4 = LabeledGraph(4, [(1, 4), (2, 4), (3, 4)])


def test_01_complete_graph_enumeration_counts():
    start = time.perf_counter()
    expected = {3: 12, 4: 27, 5: 72, 6: 213, 7: 670, 8: 2190}
    for n, count in expected.items():
        rep = kn_enumerate(n)
        assert rep.total == count
        assert len(set(rep.words)) == count
        assert kn_count(n) == count

    assert [str(w) for w in kn_enumerate(3).words] == [
        "231231",                           # (n-1) n 1..n 1
        "23123",                            # (n-1) n w' (n-1) n
        "31231",                            # n 1..n 1
        "3123", "3213",                     # n w' n
        "123", "213", "231", "312", "321",  # permutations
        "1231", "2312",                     # i..n w' i
    ]
    assert time.perf_counter() - start < 10.0


def test_02_search_agrees_with_complete_graph_enumeration():
    start = time.perf_counter()
    for n in (3, 4, 5):
        report = search_fixed(complete(n), SearchConfig(find_all=True))
        found = {str(w) for _, w in report.all_witnesses}
        assert found == {str(w) for w in kn_enumerate(n).words}
    assert time.perf_counter() - start < 120.0


def test_03_constructive_words_for_trees_paths_and_cycles():
    start = time.perf_counter()
    assert str(path_representant(4)) == "4342312"
    assert str(cycle_representant(4)) == "342312"
    assert str(cycle_representant(5)) == "45342312"
    eight = RootedTree(8, 1, [(1, 2), (2, 3), (2, 4), (1, 5), (1, 6), (6, 7), (6, 8)])
    assert str(tree_representant(eight)) == "876785432341256"

    for n in range(3, 13):
        assert is_132_representant(cycle_representant(n), cycle(n))

    rnd = random.Random(20260814)
    for _ in range(500):
        n = rnd.randint(1, 12)
        edges = [(rnd.randint(1, v - 1), v) for v in range(2, n + 1)]
        t = preorder_label(RootedTree(n, 1, edges))
        w = tree_representant(t)
        assert not has_132(w)
        assert represents(w, LabeledGraph(n, t.edges())).verdict
        assert occurrences(w, 1) == 1
        assert all(occurrences(w, v) == 2 for v in range(2, n + 1))
    assert time.perf_counter() - start < 30.0


def test_04_star_labeling_sensitivity():
    start = time.perf_counter()
    hub1 = search_fixed(STAR_HUB1, SearchConfig(find_all=True))
    assert hub1.outcome == "representable"
    assert is_132_representant(hub1.witness, STAR_HUB1)
    assert "43212341" in {str(w) for _, w in hub1.all_witnesses}

    hub4 = search_fixed(STAR_HUB4)
    assert time.perf_counter() - start < 5.0

    if hub4.outcome == "representable":
        w = hub4.witness
        assert str(w) == "3432141"
        assert not has_132(w)
        assert graph_from_word(w) == STAR_HUB4
        pytest.fail(
            "expected the star with hub 4 (edges 1-4, 2-4, 3-4) to be"
            " non-representable under its own labeling, but the search"
            " returns the witness 3432141, and direct verification"
            " confirms it: projections 3434 / 424 / 4141 alternate for"
            " the three edges, 211 / 3311 / 332 do not for the three"
            " non-edges, and the word contains no subsequence a..b..c"
            " with a < c < b. The search space is exhaustive for this"
            " graph — a letter with two or more neighbors occurs at most"
            " twice in any 132-avoiding representant and a pendant letter"
            " at most three times — so the verdict is a fact about the"
            " graph, not a search artifact. The usual impossibility"
            " argument assumes the two doubled leaves both straddle the"
            " same copy of the hub letter 4, which would force a"
            " subsequence x..4..y with x < y < 4, an occurrence of 132."
            " In 3432141 the leaf 3 straddles the first copy of 4, the"
            " leaf 1 straddles the second, and the leaf 2 occurs once,"
            " so no such subsequence exists."
        )
    assert hub4.outcome == "not-representable"


def test_05_wheel_and_prism_are_not_representable():
    start = time.perf_counter()
    for g in (wheel(5), prism(3)):
        full = search_all_labelings(g)
        assert full.outcome == "not-representable"
        assert full.is_complete_decision
        assert full.stats.labelings_tried == 720
    assert time.perf_counter() - start < 600.0


def test_06_catalogs_of_orders_four_and_five():
    start = time.perf_counter()
    four = scan_order(4)
    five = scan_order(5)
    assert len(four) == 7
    assert len(five) == 23
    for g, report in four + five:
        assert report.outcome == "representable"
        relabeled = LabeledGraph(g.n, [
            (min(report.labeling[u - 1], report.labeling[v - 1]),
             max(report.labeling[u - 1], report.labeling[v - 1]))
            for u, v in g.edges
        ])
        assert is_132_representant(report.witness, relabeled)
    assert time.perf_counter() - start < 900.0


def test_07_representable_graphs_have_circle_witnesses():
    start = time.perf_counter()
    graphs = [STAR_HUB1, STAR_HUB4]
    graphs += [g for g, _ in scan_order(4) + scan_order(5)]
    for g in graphs:
        diagram = circle_witness(g)
        assert diagram is not None, g
        assert intersection_graph(diagram) == g
    assert circle_witness(prism(3)) is None
    assert time.perf_counter() - start < 600.0


def _avoiding_words(max_letter, max_length):
    """Every nonempty 132-avoiding word over 1..max_letter, as tuples."""

    def extend(word, prefix_minima):
        yield word
        if len(word) == max_length:
            return
        for c in range(1, max_letter + 1):
            # appending c creates a 132 iff some earlier b > c has an
            # a < c before it; prefix minima make that a single scan
            if any(b > c and m < c
                   for b, m in zip(word, prefix_minima)):
                continue
            low = min(prefix_minima[-1], c) if word else c
            yield from extend(word + (c,), prefix_minima + (low,))

    for first in range(1, max_letter + 1):
        yield from extend((first,), (first,))


def test_08_occurrence_bounds_and_chord_equality_hold_everywhere():
    start = time.perf_counter()
    checked = 0
    for word in _avoiding_words(5, 9):
        top = max(word)
        if set(word) != set(range(1, top + 1)):
            continue                       # not a word on 1..n
        checked += 1
        g = graph_from_word(Word(word))
        degree = Counter(itertools.chain.from_iterable(g.edges))
        counts = Counter(word)
        for x in range(1, top + 1):
            if degree[x] >= 2:
                assert counts[x] <= 2, (word, x)
        for u, v in g.edges:
            for leaf, hub in ((u, v), (v, u)):
                if degree[leaf] == 1 and degree[hub] >= 2:
                    assert counts[leaf] <= 3, (word, leaf)
    assert checked == 128063               # pins the enumeration itself

    for k in range(1, 5):
        for word in set(itertools.permutations(sorted(range(1, k + 1)) * 2)):
            diagram = ChordDiagram(word)
            assert intersection_graph(diagram) == graph_from_word(Word(word))
    assert time.perf_counter() - start < 300.0


def test_09_order_six_scan_answers_the_wheel_question():
    start = time.perf_counter()
    entries = scan_order(6)
    catalog = catalog_to_json(6, entries, wheel5_canonical=canonical_form(wheel(5)))
    summary = catalog["summary"]

    assert summary["classes"] == len(entries) == 122
    assert summary["budget_exceeded"] <= 0.05 * summary["classes"]
    assert summary["wheel5_found_non_representable"] is True
    # research answer: the wheel is NOT alone — prism(3), K_{3,3}, and the
    # octahedron are the other non-representable isolate-free classes
    assert summary["wheel5_only_non_representable"] is False
    assert summary["not_representable"] == 4
    assert time.perf_counter() - start < 43200.0
