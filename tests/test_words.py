"""Words, reduction, alternation, and pattern containment."""

import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import brute_alternates, brute_has_132
from rep132.words import (
    BUILTIN_PATTERNS,
    P21,
    P123,
    P132,
    Pattern,
    Word,
    alternates,
    catalan,
    contains_pattern,
    format_word,
    has_132,
    is_k_uniform,
    occurrences,
    reduce_word,
)

short_words = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=10)


# ---------------------------------------------------------------- Word basics


def test_word_from_digit_string():
    w = Word("3474")
    assert w.letters == (3, 4, 7, 4)
    assert len(w) == 4
    assert str(w) == "3474"
    assert w.alphabet() == frozenset({3, 4, 7})


def test_word_from_iterable():
    assert Word([1, 2, 1]).letters == (1, 2, 1)
    assert Word((5,)).letters == (5,)


def test_word_big_letters_use_dots():
    w = Word([10, 1, 11])
    assert str(w) == "10.1.11"
    assert Word("10.1.11") == w
    assert Word("10").letters == (10,)  # bare integer = one letter


def test_format_word_matches_str():
    for letters in [(1, 2, 3), (9, 10), (12,)]:
        assert format_word(letters) == str(Word(letters))


def test_word_equality_and_hash():
    assert Word("121") == Word([1, 2, 1])
    assert hash(Word("121")) == hash(Word([1, 2, 1]))
    assert Word("121") != Word("122")


@pytest.mark.parametrize("bad", ["0", "abc", "1..2", ".12", "12.", "1.x"])
def test_word_parse_rejects(bad):
    with pytest.raises(ValueError):
        Word(bad)


def test_empty_word_is_allowed():
    assert Word().letters == ()
    assert Word("").letters == ()
    assert len(Word([])) == 0


def test_word_rejects_nonpositive_letters():
    with pytest.raises(ValueError):
        Word([1, 0, 2])
    with pytest.raises(ValueError):
        Word([-3])


@pytest.mark.parametrize("letters", [[1.5], [2.9, 1], ["12"]])
def test_word_rejects_letters_that_are_not_integers(letters):
    # not truncated to 1 or 2, and "12" is not read as the letter 12
    with pytest.raises(TypeError):
        Word(letters)


@pytest.mark.parametrize("letters", [[True, 2], [2, 1, False], iter([1, True])])
def test_word_rejects_bool_letters(letters):
    # a bool is an int, so True used to be the letter 1: Word([True, 2])
    # printed 12
    with pytest.raises(TypeError, match="not a bool"):
        Word(letters)


# ------------------------------------------------------------------ reduction


def test_reduce_word_keeps_relative_order():
    assert reduce_word(Word("14661476212")) == Word("13441354212")
    assert reduce_word(Word("3474")) == Word("1232")
    assert reduce_word(Word("123")) == Word("123")


@given(short_words)
def test_reduce_word_is_idempotent_and_gapless(letters):
    r = reduce_word(Word(letters))
    assert reduce_word(r) == r
    assert r.alphabet() == frozenset(range(1, len(set(letters)) + 1))


@given(short_words)
def test_reduce_word_preserves_comparisons(letters):
    r = reduce_word(Word(letters)).letters
    for i, j in itertools.combinations(range(len(letters)), 2):
        assert (letters[i] < letters[j]) == (r[i] < r[j])
        assert (letters[i] == letters[j]) == (r[i] == r[j])


def test_occurrences():
    assert occurrences(Word("43451251"), 4) == 2
    assert occurrences(Word("43451251"), 2) == 1
    assert occurrences(Word("43451251"), 9) == 0


# ----------------------------------------------------------------- alternation


def test_alternates_examples():
    w = Word("43451251")
    assert alternates(w, 2, 5)      # projection 525
    assert alternates(w, 1, 5)      # projection 5151
    assert alternates(w, 3, 4)      # projection 434
    assert not alternates(w, 1, 3)  # projection 311
    assert not alternates(w, 4, 5)  # projection 4455


def test_alternates_rejects_bad_pairs():
    w = Word("1212")
    with pytest.raises(ValueError):
        alternates(w, 1, 1)
    with pytest.raises(ValueError):
        alternates(w, 1, 7)


@given(short_words)
def test_alternates_matches_brute_force(letters):
    w = Word(letters)
    for x, y in itertools.combinations(sorted(set(letters)), 2):
        assert alternates(w, x, y) == brute_alternates(letters, x, y)


def test_is_k_uniform():
    assert is_k_uniform(Word("123123"), 2)
    assert is_k_uniform(Word("123"), 1)
    assert not is_k_uniform(Word("1231"), 2)
    assert is_k_uniform((4, 4), 2)


# -------------------------------------------------------------------- patterns


def test_pattern_must_be_reduced():
    assert Pattern("132").letters == (1, 3, 2)
    with pytest.raises(ValueError):
        Pattern("143")          # reduces to 132, so not itself a pattern
    with pytest.raises(ValueError):
        Pattern("")


def test_builtin_patterns():
    assert P132 == Pattern("132")
    assert P123 == Pattern("123")
    assert P21 == Pattern("21")
    assert P132 in BUILTIN_PATTERNS.values()


def test_contains_pattern_positions_are_lex_first():
    # 3474: the occurrence is letters 3,7,4 at 0-based positions 0,2,3
    assert contains_pattern(Word("3474"), P132) == (0, 2, 3)
    assert contains_pattern(Word("43451251"), P132) is None
    assert contains_pattern(Word("123"), P123) == (0, 1, 2)
    assert contains_pattern(Word("123"), P21) is None
    assert contains_pattern(Word("321"), P21) == (0, 1)


def test_contains_pattern_repeated_letters_never_match():
    # pattern letters are distinct values; equal word letters cannot embed
    assert contains_pattern(Word("1122"), P21) is None
    assert contains_pattern(Word("11"), P21) is None


def test_has_132_examples():
    assert not has_132(Word("43451251"))
    assert has_132(Word("3474"))
    assert has_132(Word("132"))
    assert not has_132(Word("1"))
    assert not has_132(Word("3432141"))


@given(short_words)
def test_has_132_matches_brute_force(letters):
    assert has_132(Word(letters)) == brute_has_132(letters)


@given(short_words)
def test_has_132_matches_contains_pattern(letters):
    w = Word(letters)
    assert has_132(w) == (contains_pattern(w, P132) is not None)


def test_exhaustive_small_words_against_brute_force():
    for length in range(1, 7):
        for letters in itertools.product((1, 2, 3), repeat=length):
            w = Word(letters)
            assert has_132(w) == brute_has_132(letters)


# --------------------------------------------------------------------- catalan


def test_catalan_values():
    assert [catalan(n) for n in range(10)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862,
    ]
