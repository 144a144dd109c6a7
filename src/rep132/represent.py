"""Semantics tying words to graphs.

A word w over alphabet {1..n} represents the graph on vertices 1..n whose
edges are exactly the alternating pairs of w. A 132-representant is a
word-representant that additionally avoids the pattern 132. Labels are
significant: these functions never relabel on their own.

words.alternates defines alternation one pair at a time. graph_from_word,
represents and is_132_representant instead read every pair off one pass
over the word (_nonalternating), as the search kernels do: a pair {x, y}
fails to alternate iff some letter of it recurs with no copy of the other
in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import LabeledGraph
from .words import Word, WordLike, has_132, is_k_uniform, reduce_word

EDGE_NOT_ALTERNATING = "edge-not-alternating"
NONEDGE_ALTERNATING = "nonedge-alternating"
ALPHABET_MISMATCH = "alphabet-mismatch"


@dataclass(frozen=True)
class Violation:
    pair: Optional[tuple[int, int]]  # None for alphabet mismatches
    reason: str


@dataclass(frozen=True)
class RepresentationCheck:
    word: Word
    graph: LabeledGraph
    verdict: bool
    first_violation: Optional[Violation]


def _as_word(w: WordLike) -> Word:
    return w if isinstance(w, Word) else Word(w)


def _nonalternating(letters: Sequence[int], n: int) -> list[int]:
    """Per letter x in 1..n, the mask of the letters that do not alternate
    with x in the word letters, a word over {1..n}: for two letters x != y
    that both occur, bit y of masks[x] is set iff
    words.alternates(letters, x, y) is false.

    One pass: since holds n + 1 lanes of n + 1 bits, lane c the letters
    seen since c's last copy. A copy of c after its first puts two c's next
    to each other in the projection onto {c, y} for every y outside lane c.
    """
    width = n + 1
    lane = (1 << width) - 1
    every = sum(1 << (width * y) for y in range(1, n + 1))  # bit 0 of lanes 1..n
    since = 0
    occurred = 0
    masks = [0] * (n + 1)
    for c in letters:
        bit = 1 << c
        sh = width * c
        if occurred & bit:
            masks[c] |= lane & ~(since >> sh | bit | 1)
        occurred |= bit
        since = (since | every << c) & ~(lane << sh)
    for x in range(1, n + 1):  # a repeat of either letter breaks the pair
        for y in range(x + 1, n + 1):
            if (masks[x] >> y | masks[y] >> x) & 1:
                masks[x] |= 1 << y
                masks[y] |= 1 << x
    return masks


def graph_from_word(w: WordLike) -> LabeledGraph:
    """The graph represented by w: edge {x,y} iff x and y alternate in w.

    The alphabet must be exactly {1..n}; a gapped alphabet raises instead of
    being silently reduced, since relabeling changes which graphs admit
    132-avoiding representants.
    """
    word = _as_word(w)
    alpha = word.alphabet()
    n = max(alpha) if alpha else 0
    if alpha != frozenset(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - alpha)
        raise ValueError(f"alphabet has gaps (missing {missing}); reduce the word first")
    nonalt = _nonalternating(word.letters, n)
    edges = [
        (x, y)
        for x in range(1, n + 1)
        for y in range(x + 1, n + 1)
        if not nonalt[x] >> y & 1
    ]
    return LabeledGraph(n, edges)


def represents(w: WordLike, g: LabeledGraph) -> RepresentationCheck:
    """Does w represent g, letter x standing for vertex x?

    Failures are verdicts, not errors. The first offending pair in
    lexicographic order is reported; an alphabet different from {1..n} is
    reported as a violation with no pair.
    """
    word = _as_word(w)
    n = g.n
    if word.alphabet() != frozenset(range(1, n + 1)):
        v = Violation(None, ALPHABET_MISMATCH)
        return RepresentationCheck(word, g, False, v)
    nonalt = _nonalternating(word.letters, n)
    adj = g.adjacency_masks()
    full = (1 << (n + 1)) - 2  # bits 1..n
    for x in range(1, n):
        wrong = ((full & ~nonalt[x]) ^ adj[x]) >> (x + 1) << (x + 1)  # pairs {x, y > x}
        if wrong:
            y = (wrong & -wrong).bit_length() - 1
            reason = EDGE_NOT_ALTERNATING if adj[x] >> y & 1 else NONEDGE_ALTERNATING
            v = Violation((x, y), reason)
            return RepresentationCheck(word, g, False, v)
    return RepresentationCheck(word, g, True, None)


def is_132_representant(w: WordLike, g: LabeledGraph) -> bool:
    """represents(w, g) and w avoids 132."""
    word = _as_word(w)
    return not has_132(word) and represents(word, g).verdict


def combine_components(words: Sequence[WordLike]) -> Word:
    """Join 2-uniform 132-avoiding representants of disjoint graphs.

    Each word is reduced, then shifted up by the total alphabet size of the
    words before it; the shifted blocks are concatenated in reverse order
    (largest labels first), which keeps the result 132-avoiding. The result
    represents the disjoint union with component i relabeled to the block
    just above the alphabets of components 1..i-1.
    """
    if not words:
        raise ValueError("need at least one component word")
    blocks: list[tuple[int, ...]] = []
    offset = 0
    for w in words:
        word = _as_word(w)
        if len(word) == 0:
            raise ValueError("empty component word")
        if not is_k_uniform(word, 2):
            raise ValueError(f"{word} is not 2-uniform")
        if has_132(word):
            raise ValueError(f"{word} contains 132")
        reduced = reduce_word(word)
        blocks.append(tuple(x + offset for x in reduced))
        offset += len(set(reduced.letters))
    out: list[int] = []
    for block in reversed(blocks):
        out.extend(block)
    return Word(out)


def add_isolated(w: WordLike) -> Word:
    """Prepend n·n for a fresh maximal letter n, adding an isolated vertex.

    The doubled fresh letter alternates with nothing and, being maximal and
    leftmost, cannot take part in a new 132.
    """
    word = _as_word(w)
    if has_132(word):
        raise ValueError("input must avoid 132")
    n = max(word.alphabet(), default=0) + 1
    return Word((n, n) + word.letters)


def remove_vertex_word(w: WordLike, x: int) -> Word:
    """Delete every copy of letter x."""
    word = _as_word(w)
    if x not in word.alphabet():
        raise ValueError(f"letter {x} does not occur")
    return Word(c for c in word if c != x)
