"""Constructive representants: trees, paths, cycles, and the K_n repertoire."""

import random

import pytest

from rep132.constructions import (
    CASE_TAGS,
    RootedTree,
    av132_permutations,
    cycle_representant,
    kn_count,
    kn_enumerate,
    path_representant,
    preorder_label,
    tree_representant,
)
from rep132.graphs import LabeledGraph, complete, cycle, path
from rep132.represent import graph_from_word, is_132_representant, represents
from rep132.words import Word, catalan, has_132, occurrences


# ---------------------------------------------------------------- RootedTree


def test_rooted_tree_accessors():
    t = RootedTree(8, 1, [(1, 2), (2, 3), (2, 4), (1, 5), (1, 6), (6, 7), (6, 8)])
    assert t.preorder() == (1, 2, 3, 4, 5, 6, 7, 8)
    assert t.children(1) == (2, 5, 6)
    assert t.children(6) == (7, 8)
    assert t.parent(7) == 6
    assert t.parent(1) is None


def test_rooted_tree_child_order_follows_edge_order():
    a = RootedTree(3, 1, [(1, 2), (1, 3)])
    b = RootedTree(3, 1, [(1, 3), (1, 2)])
    assert a.children(1) == (2, 3)
    assert b.children(1) == (3, 2)


def test_rooted_tree_validation():
    with pytest.raises(ValueError):
        RootedTree(3, 4, [(1, 2), (1, 3)])          # root out of range
    with pytest.raises(ValueError):
        RootedTree(3, 1, [(1, 2)])                  # too few edges
    with pytest.raises(ValueError):
        RootedTree(3, 1, [(1, 2), (1, 2)])          # duplicate child
    with pytest.raises(ValueError):
        RootedTree(4, 1, [(1, 2), (3, 4), (4, 3)])  # cycle, unreachable


# -------------------------------------------------------------- tree words


def test_tree_representant_eight_vertex_example():
    t = RootedTree(8, 1, [(1, 2), (2, 3), (2, 4), (1, 5), (1, 6), (6, 7), (6, 8)])
    assert str(tree_representant(t)) == "876785432341256"


def test_tree_representant_smallest_cases():
    assert str(tree_representant(RootedTree(1, 1, []))) == "1"
    assert str(tree_representant(RootedTree(2, 1, [(1, 2)]))) == "212"


def test_tree_representant_requires_preorder_labels():
    crooked = RootedTree(4, 2, [(2, 4), (4, 1), (2, 3)])
    with pytest.raises(ValueError):
        tree_representant(crooked)
    fixed = preorder_label(crooked)
    assert fixed.preorder() == (1, 2, 3, 4)
    w = tree_representant(fixed)
    assert is_132_representant(w, LabeledGraph(4, fixed.edges()))


def test_tree_representant_of_a_deep_path():
    # The word is built with an explicit stack: a path of 3,000 vertices,
    # far past Python's recursion limit, gets the path word, as small ones do.
    for n in (1, 2, 5, 9, 3000):
        t = RootedTree(n, 1, [(k, k + 1) for k in range(1, n)])
        assert tree_representant(t) == path_representant(n), n


def test_preorder_label_is_identity_on_preorder_trees():
    t = RootedTree(4, 1, [(1, 2), (2, 3), (1, 4)])
    assert preorder_label(t).edges() == t.edges()


def test_random_trees_have_valid_words():
    rnd = random.Random(20260814)
    for _ in range(120):
        n = rnd.randint(1, 12)
        edges = [(rnd.randint(1, v - 1), v) for v in range(2, n + 1)]
        t = preorder_label(RootedTree(n, 1, edges))
        w = tree_representant(t)
        assert not has_132(w)
        chk = represents(w, LabeledGraph(n, t.edges()))
        assert chk.verdict, (t.edges(), str(w), chk.first_violation)
        assert occurrences(w, 1) == 1
        assert all(occurrences(w, v) == 2 for v in range(2, n + 1))


# ------------------------------------------------------------ paths, cycles


def test_path_words():
    assert str(path_representant(1)) == "1"
    assert str(path_representant(2)) == "212"
    assert str(path_representant(4)) == "4342312"
    for n in range(1, 13):
        w = path_representant(n)
        assert len(w) == 2 * n - 1
        assert is_132_representant(w, path(n))


def test_cycle_words():
    assert str(cycle_representant(4)) == "342312"
    assert str(cycle_representant(5)) == "45342312"
    for n in range(3, 13):
        w = cycle_representant(n)
        assert len(w) == 2 * n - 2
        assert is_132_representant(w, cycle(n))
    with pytest.raises(ValueError):
        cycle_representant(2)


def test_cycle_word_drops_first_path_letter():
    for n in range(3, 8):
        assert cycle_representant(n).letters == path_representant(n).letters[1:]


# ------------------------------------------------- 132-avoiding permutations


def test_av132_permutations_small():
    assert [str(w) for w in av132_permutations(3)] == [
        "123", "213", "231", "312", "321",
    ]
    assert [str(w) for w in av132_permutations(1)] == ["1"]


def test_av132_permutations_counts_and_order():
    for n in range(1, 8):
        perms = list(av132_permutations(n))
        assert len(perms) == catalan(n)
        letters = [w.letters for w in perms]
        assert letters == sorted(letters)          # lexicographic
        assert all(not has_132(w) for w in perms)
        assert all(sorted(w.letters) == list(range(1, n + 1)) for w in perms)


# --------------------------------------------------------------- K_n words


def test_kn_count_sequence():
    assert [kn_count(n) for n in range(3, 9)] == [12, 27, 72, 213, 670, 2190]


def test_kn_enumerate_k3_exact_word_list():
    rep = kn_enumerate(3)
    assert rep.total == 12
    assert {str(w) for w in rep.words} == {
        "231231", "23123", "31231", "3123", "3213",
        "123", "213", "231", "312", "321", "1231", "2312",
    }
    by_case = {tag: {str(w) for w in ws} for tag, ws in rep.by_case.items()}
    assert by_case["1.1"] == {"231231"}
    assert by_case["1.2"] == {"23123"}
    assert by_case["1.3"] == {"31231"}
    assert by_case["1.4"] == {"3123", "3213"}
    assert by_case["2.1"] == {"123", "213", "231", "312", "321"}
    assert by_case["2.2"] == {"1231", "2312"}


def test_kn_enumerate_case_counts():
    for n in (4, 5, 6):
        rep = kn_enumerate(n)
        sizes = {tag: len(ws) for tag, ws in rep.by_case.items()}
        assert sizes["1.1"] == 1
        assert sizes["1.2"] == catalan(n - 2)
        assert sizes["1.3"] == 1
        assert sizes["1.4"] == catalan(n - 1)
        assert sizes["2.1"] == catalan(n)
        assert sizes["2.2"] == sum(catalan(i) for i in range(n - 1))
        assert rep.total == kn_count(n) == len(set(rep.words))
        assert set(rep.by_case) == set(CASE_TAGS)


def test_kn_enumerate_words_are_valid():
    for n in (3, 4, 5):
        for w in kn_enumerate(n).words:
            assert is_132_representant(w, complete(n))


def test_kn_enumerate_small_n_needs_length_bound():
    with pytest.raises(ValueError):
        kn_enumerate(2)
    rep = kn_enumerate(2, length_bound=3)
    assert {str(w) for w in rep.words} == {"12", "21", "121", "212"}
    assert rep.by_case == {}
    rep1 = kn_enumerate(1, length_bound=4)
    assert {str(w) for w in rep1.words} == {"1", "11", "111", "1111"}
    with pytest.raises(ValueError):
        kn_enumerate(3, length_bound=9)   # bound only applies to n <= 2
    assert kn_enumerate(2, length_bound=0).words == ()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kn_enumerate_rejects_a_negative_length_bound(n):
    with pytest.raises(ValueError, match=r"^length_bound must be >= 0$"):
        kn_enumerate(n, length_bound=-3)
