"""Chord diagrams and circle-graph witnesses.

A 2-uniform word read around a circle is a chord diagram: each letter's two
positions are the ends of a chord. Two chords cross iff their letters
interleave, which for 2-uniform words is exactly alternation — so the
intersection graph of the diagram is the graph represented by the word.
Consequently a graph is a circle graph iff it has a 2-uniform
word-representant, which circle_witness searches for exhaustively (no
pattern constraint: single-occurrence letters of a 132-representant have no
chord reading, so witnesses are searched independently of avoidance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import kernels
from .graphs import LabeledGraph
from .represent import graph_from_word
from .words import Word, WordLike, is_k_uniform

_MAX_WITNESS_N = 7


@dataclass(frozen=True)
class ChordDiagram:
    """2n circle positions labeled by letters, each letter on two of them."""

    endpoints: tuple[int, ...]

    def __post_init__(self):
        if not is_k_uniform(self.endpoints, 2):
            raise ValueError("endpoint sequence must use every letter exactly twice")

    @property
    def n(self) -> int:
        return len(self.endpoints) // 2

    def chord(self, x: int) -> tuple[int, int]:
        """The two positions of letter x, in order."""
        pos = [i for i, c in enumerate(self.endpoints) if c == x]
        if len(pos) != 2:
            raise ValueError(f"letter {x} is not a chord of this diagram")
        return (pos[0], pos[1])

    def word(self) -> Word:
        return Word(self.endpoints)


def chords_from_word(w: WordLike) -> ChordDiagram:
    """Read a 2-uniform word around the circle."""
    word = w if isinstance(w, Word) else Word(w)
    if not is_k_uniform(word, 2):
        raise ValueError(f"{word} is not 2-uniform")
    return ChordDiagram(word.letters)


def intersection_graph(d: ChordDiagram) -> LabeledGraph:
    """Edge {x,y} iff the chords of x and y cross.

    Crossing means exactly one endpoint of y lies strictly between x's two
    positions in the endpoint sequence; the condition is symmetric and
    invariant under rotating the sequence. Letters must be 1..n.
    """
    alpha = set(d.endpoints)
    n = max(alpha, default=0)
    if len(alpha) != n or min(alpha, default=1) < 1:
        raise ValueError("chord letters must be exactly 1..n")
    edges = []
    for x in range(1, n + 1):
        a, b = d.chord(x)
        for y in range(x + 1, n + 1):
            inside = sum(1 for p in d.chord(y) if a < p < b)
            if inside == 1:
                edges.append((x, y))
    return LabeledGraph(n, edges)


def circle_witness(g: LabeledGraph) -> Optional[ChordDiagram]:
    """A chord diagram whose intersection graph is g, if one exists.

    Exhaustive DFS over 2-uniform words over {1..n} pruned by alternation;
    a fixed labeling suffices because relettering a 2-uniform word is free
    (no pattern constraint to break). Returns None iff g has no 2-uniform
    representant, i.e. iff g is not a circle graph.
    """
    if not (1 <= g.n <= _MAX_WITNESS_N):
        raise ValueError(f"circle_witness supports 1 <= n <= {_MAX_WITNESS_N}")
    witnesses, _, _, _ = kernels.run_search(
        g.n,
        g.adjacency_masks(),
        2,
        2,
        False,
        False,
        None,
    )
    if not witnesses:
        return None
    diagram = ChordDiagram(witnesses[0])
    if graph_from_word(diagram.word()) != g:
        raise RuntimeError(f"unsound circle witness {diagram.word()}")
    return diagram
