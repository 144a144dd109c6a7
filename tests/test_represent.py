"""Word <-> graph representation checks and the word surgery helpers."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_edges, brute_has_132
from rep132.graphs import LabeledGraph, complete, cycle, star
from rep132.represent import (
    ALPHABET_MISMATCH,
    EDGE_NOT_ALTERNATING,
    NONEDGE_ALTERNATING,
    Violation,
    _nonalternating,
    add_isolated,
    combine_components,
    graph_from_word,
    is_132_representant,
    remove_vertex_word,
    represents,
)
from rep132.words import Word, alternates, has_132

short_words = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=10)


# ------------------------------------------------------------ graph_from_word


def test_graph_from_word_examples():
    g = graph_from_word(Word("43451251"))
    assert g.edge_list() == [(1, 2), (1, 5), (2, 3), (2, 5), (3, 4)]
    g2 = graph_from_word(Word("6645342312"))
    assert g2.edge_list() == [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]
    assert g2.neighbors(6) == ()
    assert graph_from_word(Word("1")) == LabeledGraph(1, [])


def test_graph_from_word_rejects_gaps():
    with pytest.raises(ValueError) as e:
        graph_from_word(Word("3474"))
    msg = str(e.value)
    assert "1" in msg and "2" in msg and "5" in msg and "6" in msg


@given(short_words)
def test_graph_from_word_matches_brute_force(letters):
    word = Word(letters)
    k = max(letters)
    if word.alphabet() != frozenset(range(1, k + 1)):
        return
    g = graph_from_word(word)
    assert {tuple(e) for e in g.edge_list()} == brute_edges(letters)


# ----------------------------------------------------------------- represents


def test_represents_positive():
    chk = represents(Word("43212341"), LabeledGraph(4, [(1, 2), (1, 3), (1, 4)]))
    assert chk.verdict and chk.first_violation is None


def test_represents_reports_lex_first_violation():
    # C_4 under the round labeling; 1234 represents K_4 instead
    chk = represents(Word("1234"), cycle(4))
    assert not chk.verdict
    assert chk.first_violation.pair == (1, 3)
    assert chk.first_violation.reason == NONEDGE_ALTERNATING


def test_represents_edge_not_alternating():
    chk = represents(Word("1122"), LabeledGraph(2, [(1, 2)]))
    assert not chk.verdict
    assert chk.first_violation.pair == (1, 2)
    assert chk.first_violation.reason == EDGE_NOT_ALTERNATING


def test_represents_alphabet_mismatch():
    chk = represents(Word("121"), LabeledGraph(3, [(1, 2)]))
    assert not chk.verdict
    assert chk.first_violation.reason == ALPHABET_MISMATCH
    assert chk.first_violation.pair is None


@given(short_words)
def test_every_gapless_word_represents_its_own_graph(letters):
    word = Word(letters)
    k = max(letters)
    if word.alphabet() != frozenset(range(1, k + 1)):
        return
    assert represents(word, graph_from_word(word)).verdict


def test_is_132_representant():
    g = LabeledGraph(4, [(1, 2), (1, 3), (1, 4)])
    assert is_132_representant(Word("43212341"), g)
    assert not is_132_representant(Word("1234"), g)      # wrong graph
    # represents the star but contains 132
    w = Word("2341214")
    assert represents(w, g).verdict is False or has_132(w)


# ------------------------------------------------------ one-pass alternation


def test_nonalternating_agrees_with_alternates():
    # every pair of letters that occur, in every word of length <= 7 over
    # {1..4}
    for length in range(1, 8):
        for letters in itertools.product(range(1, 5), repeat=length):
            nonalt = _nonalternating(letters, 4)
            for x, y in itertools.permutations(sorted(set(letters)), 2):
                assert (not nonalt[x] >> y & 1) == alternates(letters, x, y), (letters, x, y)


def pairwise_represents(letters, g):
    """represents(letters, g)'s verdict and first violation, from
    words.alternates one pair at a time, pairs in lexicographic order."""
    if set(letters) != set(range(1, g.n + 1)):
        return False, Violation(None, ALPHABET_MISMATCH)
    for x, y in itertools.combinations(range(1, g.n + 1), 2):
        alt = alternates(letters, x, y)
        if g.has_edge(x, y) and not alt:
            return False, Violation((x, y), EDGE_NOT_ALTERNATING)
        if not g.has_edge(x, y) and alt:
            return False, Violation((x, y), NONEDGE_ALTERNATING)
    return True, None


def test_represents_matches_the_pairwise_reference():
    # seeded random words, some with gapped alphabets, each against a random
    # graph on 1..n - 1, 1..n or 1..n + 1 and, when its alphabet is {1..n},
    # against its own graph
    rnd = random.Random(132)
    seen = set()
    for _ in range(20_000):
        n = rnd.randint(1, 6)
        letters = tuple(rnd.randint(1, n) for _ in range(rnd.randint(1, 2 * n + 2)))
        m = max(1, n + rnd.choice((-1, 0, 0, 1)))
        graphs = [LabeledGraph(m, [e for e in itertools.combinations(range(1, m + 1), 2)
                                   if rnd.random() < 0.5])]
        if set(letters) == set(range(1, max(letters) + 1)):
            graphs.append(LabeledGraph(max(letters), brute_edges(letters)))
        for g in graphs:
            verdict, violation = pairwise_represents(letters, g)
            chk = represents(letters, g)
            assert (chk.verdict, chk.first_violation) == (verdict, violation), (letters, g)
            assert is_132_representant(letters, g) == (verdict and not brute_has_132(letters))
            seen.add(violation.reason if violation else verdict)
    assert seen == {True, ALPHABET_MISMATCH, EDGE_NOT_ALTERNATING, NONEDGE_ALTERNATING}


# ---------------------------------------------------------------- components


def test_combine_components_examples():
    assert combine_components([Word("1212"), Word("1212")]) == Word("34341212")
    assert combine_components([Word("231231"), Word("1212")]) == Word("4545231231")
    assert combine_components([Word("3434")]) == Word("1212")  # single: reduce


def test_combine_components_validates():
    with pytest.raises(ValueError):
        combine_components([])
    with pytest.raises(ValueError):
        combine_components([Word("132132")])   # 2-uniform but contains 132
    with pytest.raises(ValueError):
        combine_components([Word("1212"), Word("121")])  # not 2-uniform


def test_combine_components_builds_disjoint_union():
    out = combine_components([Word("1212"), Word("231231")])
    g = graph_from_word(out)
    assert not has_132(out)
    assert g.n == 5
    # first component keeps labels 1..2, second is shifted to 3..5
    assert g.has_edge(1, 2)
    assert not any(g.has_edge(u, v) for u in (1, 2) for v in (3, 4, 5))
    sub = graph_from_word(Word("231231"))
    for u, v in itertools.combinations(range(3, 6), 2):
        assert g.has_edge(u, v) == sub.has_edge(u - 2, v - 2)


@settings(max_examples=50)
@given(st.lists(st.sampled_from(["11", "1212", "1221", "112233", "231231"]),
                min_size=1, max_size=4))
def test_combine_components_always_avoids_132(texts):
    out = combine_components([Word(t) for t in texts])
    assert not has_132(out)
    assert graph_from_word(out).n == sum(len(set(Word(t).letters)) for t in texts)


# ------------------------------------------------------------- add_isolated


def test_add_isolated():
    assert add_isolated(Word("45342312")) == Word("6645342312")
    assert add_isolated(Word()) == Word("11")
    assert add_isolated(Word("11")) == Word("2211")


def test_add_isolated_keeps_representation():
    w = Word("45342312")
    g_before = graph_from_word(w)
    g_after = graph_from_word(add_isolated(w))
    assert g_after.n == g_before.n + 1
    assert g_after.neighbors(g_after.n) == ()
    assert not has_132(add_isolated(w))


def test_add_isolated_rejects_pattern():
    with pytest.raises(ValueError):
        add_isolated(Word("132"))


# -------------------------------------------------------- remove_vertex_word


def test_remove_vertex_word():
    assert remove_vertex_word(Word("43451251"), 4) == Word("351251")
    with pytest.raises(ValueError):
        remove_vertex_word(Word("121"), 3)


@given(short_words)
def test_remove_vertex_preserves_other_pairs(letters):
    word = Word(letters)
    k = max(letters)
    if word.alphabet() != frozenset(range(1, k + 1)) or k < 2:
        return
    g = graph_from_word(word)
    shorter = remove_vertex_word(word, k)   # delete the top letter: still gapless
    if len(shorter) == 0:
        return
    h = graph_from_word(shorter)
    for u, v in itertools.combinations(range(1, k), 2):
        assert h.has_edge(u, v) == g.has_edge(u, v)
