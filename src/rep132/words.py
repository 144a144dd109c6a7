"""Words over a totally ordered alphabet of positive integer letters.

A word is a finite sequence of letters; its alphabet is the set of distinct
letters. Two letters x and y alternate in a word when the projection onto
{x, y} is strictly alternating (xyxy... or yxyx...). A word contains a
classical pattern p when some subsequence is order-isomorphic to p; the
pattern 132 for instance is any subsequence a..b..c with a < c < b.

Letters are always >= 1. Alphabetic examples (like bcdad) are encoded
a=1, b=2, ... at the I/O boundary.

Text format: a word whose letters are all <= 9 is written as a digit string
("45342312"); otherwise letters are dot-separated ("10.2.10.1.2"). Parsers
accept both, plus a bare integer like "10" for a single letter >= 10.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator, Optional, Sequence, Union

WordLike = Union["Word", Sequence[int]]


class Word:
    """An immutable word of positive integer letters.

    Accepts an iterable of letters or a text form: Word("43212341"),
    Word("10.2.10.1.2"), Word([4, 3, 2, 1]). A letter of an iterable that
    is not an integer, such as 1.5, "12" or True, raises TypeError.
    """

    __slots__ = ("_letters",)

    def __init__(self, letters: Union[str, Iterable[int]] = ()):
        if isinstance(letters, str):
            self._letters = _parse_text(letters)
        else:
            letters = tuple(letters)
            if bool in map(type, letters):  # a bool is an int: True would be 1
                raise TypeError("a letter must be an integer, not a bool")
            self._letters = tuple(map(operator.index, letters))
        for x in self._letters:
            if x < 1:
                raise ValueError(f"letters must be >= 1, got {x}")

    @property
    def letters(self) -> tuple[int, ...]:
        return self._letters

    def alphabet(self) -> frozenset[int]:
        """The set of distinct letters occurring in the word."""
        return frozenset(self._letters)

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self._letters)

    def __getitem__(self, i):
        return self._letters[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Word):
            return self._letters == other._letters
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._letters)

    def __str__(self) -> str:
        return format_word(self._letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def _parse_text(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text == "":
        return ()
    if "." in text:
        tokens = text.split(".")
        if not all(t.isdigit() for t in tokens):
            raise ValueError(f"cannot parse word {text!r}: empty or non-numeric segment")
        return tuple(int(t) for t in tokens)
    if all(c in "123456789" for c in text):
        return tuple(int(c) for c in text)
    if text.isdigit():
        # single letter >= 10 written without dots
        return (int(text),)
    raise ValueError(f"cannot parse word {text!r} (use dots for letters >= 10)")


def format_word(letters: Sequence[int]) -> str:
    """Digit string when every letter is <= 9, dot-separated otherwise."""
    if all(x <= 9 for x in letters):
        return "".join(str(x) for x in letters)
    return ".".join(str(x) for x in letters)


def _letters_of(w: WordLike) -> tuple[int, ...]:
    if isinstance(w, Word):
        return w.letters
    return tuple(w)


class Pattern:
    """A classical pattern: a word that equals its own reduced form."""

    __slots__ = ("_letters",)

    def __init__(self, letters: Union[str, Iterable[int]]):
        w = Word(letters)
        if len(w) == 0:
            raise ValueError("empty pattern")
        if reduce_word(w).letters != w.letters:
            raise ValueError(f"{w} is not reduced, cannot be a pattern")
        self._letters = w.letters

    @property
    def letters(self) -> tuple[int, ...]:
        return self._letters

    def __len__(self) -> int:
        return len(self._letters)

    def __eq__(self, other) -> bool:
        if isinstance(other, Pattern):
            return self._letters == other._letters
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Pattern", self._letters))

    def __str__(self) -> str:
        return format_word(self._letters)

    def __repr__(self) -> str:
        return f"Pattern({str(self)!r})"


def reduce_word(w: WordLike) -> Word:
    """Reduced form: replace the i-th smallest letter value by i.

    Order-isomorphic to the input and of the same length; the result is a
    word over {1..k} where k is the alphabet size.
    """
    letters = _letters_of(w)
    rank = {v: i for i, v in enumerate(sorted(set(letters)), start=1)}
    return Word(rank[v] for v in letters)


P132 = Pattern("132")
P123 = Pattern("123")
P21 = Pattern("21")

BUILTIN_PATTERNS = {"132": P132, "123": P123, "21": P21}


def occurrences(w: WordLike, x: int) -> int:
    """Number of copies of letter x in w (0 when x is absent)."""
    return _letters_of(w).count(x)


def alternates(w: WordLike, x: int, y: int) -> bool:
    """Do x and y alternate in w?

    True iff the projection of w onto {x, y} is xyxy... or yxyx...; in
    particular true when each occurs exactly once. Raises when x == y or
    either letter does not occur (caller bug, not a verdict).
    """
    if x == y:
        raise ValueError(f"alternation needs two distinct letters, got {x} twice")
    letters = _letters_of(w)
    proj = [c for c in letters if c == x or c == y]
    seen = set(proj)
    if x not in seen or y not in seen:
        missing = x if x not in seen else y
        raise ValueError(f"letter {missing} does not occur in the word")
    return all(a != b for a, b in zip(proj, proj[1:]))


def is_k_uniform(w: WordLike, k: int) -> bool:
    """True iff every letter of the alphabet occurs exactly k times."""
    letters = _letters_of(w)
    return all(letters.count(x) == k for x in set(letters))


_MAX_PATTERN_LEN = 4


def contains_pattern(w: WordLike, p: Pattern) -> Optional[tuple[int, ...]]:
    """Leftmost occurrence of the classical pattern p in w, or None.

    Returns the lexicographically smallest tuple of 0-based positions whose
    subsequence is order-isomorphic to p (strict inequalities, equal pattern
    letters demand equal word letters). None iff w avoids p.
    """
    pat = p.letters
    k = len(pat)
    if k > _MAX_PATTERN_LEN:
        raise ValueError(f"patterns longer than {_MAX_PATTERN_LEN} are not supported")
    letters = _letters_of(w)
    avoids = _AVOIDS.get(pat)
    if avoids is not None and avoids(letters):
        return None  # a built-in pattern's one-pass test: no backtracking
    n = len(letters)
    chosen: list[int] = []

    def extend(start: int) -> bool:
        j = len(chosen)
        if j == k:
            return True
        for i in range(start, n - (k - j) + 1):
            c = letters[i]
            if all(
                _cmp(c, letters[chosen[t]]) == _cmp(pat[j], pat[t])
                for t in range(j)
            ):
                chosen.append(i)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    found = extend(0)
    extend = None  # extend refers to itself: break the cycle
    return tuple(chosen) if found else None


def _cmp(a: int, b: int) -> int:
    return (a > b) - (a < b)


def has_132(w: WordLike) -> bool:
    """One-pass 132 test by forbidden-interval maintenance.

    Scanning left to right, a letter b preceded by a smaller letter forbids
    every future letter strictly inside (m, b), where m is the prefix
    minimum before b: such a letter would complete a 132. Intervals are kept
    on a stack; later intervals have smaller lower ends, so an interval is
    dropped once a later one covers it. This is the same check the search
    kernels maintain incrementally.
    """
    intervals: list[tuple[int, int]] = []  # open (lo, hi), both ends decreasing toward top
    cur_min: Optional[int] = None
    for c in _letters_of(w):
        for lo, hi in intervals:
            if lo < c < hi:
                return True
        if cur_min is not None and cur_min < c:
            while intervals and intervals[-1][1] <= c:
                intervals.pop()
            intervals.append((cur_min, c))
        if cur_min is None or c < cur_min:
            cur_min = c
    return False


def _avoids_123(letters: Sequence[int]) -> bool:
    """One-pass 123 test: low is the prefix minimum, and top the smallest
    letter that follows a smaller one; a letter above top completes a 123."""
    low = top = math.inf
    for c in letters:
        if c > top:
            return False
        if c > low:
            top = c
        else:
            low = c
    return True


# One-pass avoidance tests of the built-in patterns, by pattern letters
_AVOIDS = {
    P132.letters: lambda letters: not has_132(letters),
    P123.letters: _avoids_123,
    P21.letters: lambda letters: all(map(operator.le, letters, letters[1:])),
}


def catalan(n: int) -> int:
    """The n-th Catalan number (exact): binom(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)
