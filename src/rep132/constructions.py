"""Constructive 132-representants: trees, paths, cycles, and complete graphs.

Trees are handled by a recursion over a pre-order labeling: the word for a
subtree rooted at v with children c_1..c_r (left to right) is

    w(c_r) w(c_{r-1}) ... w(c_1) . v . c_1 c_2 ... c_r

so the root's label occurs once and every other label twice. Paths and
cycles get explicit words. For K_n the full repertoire of 132-representants
is produced by a six-way case split, and its cardinality by a closed
formula in Catalan numbers; the two are asserted against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .words import Word, catalan

CASE_TAGS = ("1.1", "1.2", "1.3", "1.4", "2.1", "2.2")


class RootedTree:
    """A rooted tree on vertices 1..n with an explicit left-to-right child order.

    Built from (parent, child) pairs; the order of the pairs fixes the order
    of each vertex's children, which the word construction is sensitive to.
    """

    __slots__ = ("_n", "_root", "_children", "_parent", "_preorder")

    def __init__(self, n: int, root: int, edges: Sequence[tuple[int, int]]):
        if n < 1:
            raise ValueError("tree needs at least one vertex")
        if not (1 <= root <= n):
            raise ValueError(f"root {root} out of range 1..{n}")
        # nothing per vertex until the pair count bounds n by the input's size
        children: dict[int, list[int]] = {}
        parent: dict[int, int] = {}
        for p, c in edges:
            if not (1 <= p <= n and 1 <= c <= n):
                raise ValueError(f"edge ({p},{c}) leaves 1..{n}")
            if c == root:
                raise ValueError("root cannot have a parent")
            if c in parent:
                raise ValueError(f"vertex {c} has two parents")
            parent[c] = p
            children.setdefault(p, []).append(c)
        if len(parent) != n - 1:
            raise ValueError(f"a tree on {n} vertices needs {n - 1} parent-child pairs")
        self._n = n
        self._root = root
        self._children = {v: tuple(children.get(v, ())) for v in range(1, n + 1)}
        self._parent = parent

        order: list[int] = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self._children[v]))
        if len(order) != n:
            raise ValueError("edges do not form a tree reaching every vertex")
        self._preorder = tuple(order)

    @property
    def n(self) -> int:
        return self._n

    @property
    def root(self) -> int:
        return self._root

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    def parent(self, v: int) -> Optional[int]:
        return self._parent.get(v)

    def preorder(self) -> tuple[int, ...]:
        """Vertices in pre-order (root first, subtrees left to right)."""
        return self._preorder

    def edges(self) -> list[tuple[int, int]]:
        """(parent, child) pairs, parents in pre-order, children in order."""
        return [(p, c) for p in self._preorder for c in self._children[p]]

    def __repr__(self) -> str:
        return f"RootedTree({self._n}, root={self._root}, edges={self.edges()})"


def preorder_label(t: RootedTree) -> RootedTree:
    """Relabel so the pre-order traversal reads 1, 2, ..., n."""
    new = {old: i for i, old in enumerate(t.preorder(), start=1)}
    edges = [(new[p], new[c]) for p in t.preorder() for c in t.children(p)]
    return RootedTree(t.n, 1, edges)


def tree_representant(t: RootedTree) -> Word:
    """The recursive word for a pre-order labeled tree.

    Rejects trees that are not pre-order labeled (apply preorder_label
    first): with any other labeling the construction's avoidance and
    alternation guarantees do not hold.
    """
    if t.preorder() != tuple(range(1, t.n + 1)):
        raise ValueError("tree is not pre-order labeled; apply preorder_label first")

    # v's word is its children's words, last child first, then v and its
    # children; an explicit stack, so a deep tree cannot overflow Python's
    # recursion limit. ~v on the stack emits v and its children.
    letters: list[int] = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        if v < 0:
            letters.append(~v)
            letters.extend(t.children(~v))
        else:
            stack.append(~v)
            stack.extend(t.children(v))  # popped last child first
    return Word(letters)


def path_representant(n: int) -> Word:
    """n (n-1) n (n-2) (n-1) ... 1 2 — length 2n-1, pre-order path word."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    letters = [n]
    for k in range(n - 1, 0, -1):
        letters.extend((k, k + 1))
    return Word(letters)


def cycle_representant(n: int) -> Word:
    """The path word with its first letter removed — length 2n-2."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Word(path_representant(n).letters[1:])


def av132_permutations(n: int) -> Iterator[Word]:
    """All 132-avoiding permutations of 1..n in lexicographic order.

    DFS in ascending-letter order; a prefix with minimum m and a later
    letter b > m forbids every future letter strictly inside (m, b), kept
    as a bitmask. Yields catalan(n) words.
    """
    if n < 0:
        raise ValueError("n must be >= 0")

    def rec(prefix: list[int], used: int, forbidden: int, cur_min: int) -> Iterator[Word]:
        if len(prefix) == n:
            yield Word(prefix)
            return
        for c in range(1, n + 1):
            if used >> c & 1 or forbidden >> c & 1:
                continue
            nf = forbidden
            nm = cur_min
            if 0 < cur_min < c:
                nf |= ((1 << c) - 1) & ~((1 << (cur_min + 1)) - 1)
            if cur_min == 0 or c < cur_min:
                nm = c
            prefix.append(c)
            yield from rec(prefix, used | 1 << c, nf, nm)
            prefix.pop()

    try:
        yield from rec([], 0, 0, 0)
    finally:
        rec = None  # as in tree_representant, also if the caller stops early


def kn_count(n: int) -> int:
    """Number of 132-representants of K_n: 2 + C(n-2) + sum_{i=0..n} C(i)."""
    if n < 3:
        raise ValueError("closed count needs n >= 3 (K_1, K_2 have infinite families)")
    return 2 + catalan(n - 2) + sum(catalan(i) for i in range(n + 1))


@dataclass(frozen=True, eq=False)
class KnRepertoire:
    """All 132-representants of K_n, grouped by construction case."""

    n: int
    by_case: dict[str, tuple[Word, ...]]
    words: tuple[Word, ...]
    total: int


def kn_enumerate(n: int, length_bound: Optional[int] = None) -> KnRepertoire:
    """Every 132-representant of K_n.

    For n >= 3 the set is finite and produced by six cases (w' below ranges
    over 132-avoiding permutations of the stated interval):

      1.1  (n-1) n 1 2 ... n 1
      1.2  (n-1) n w' (n-1) n      over [n-2]
      1.3  n 1 2 ... n 1
      1.4  n w' n                  over [n-1]
      2.1  w'                      over [n]
      2.2  i (i+1) ... n w' i      over [i-1], for i = 1..n-1

    The case outputs are checked to be disjoint and to match kn_count(n);
    a collision raises rather than deduplicating silently. For n <= 2 the
    families are infinite (1, 11, 111, ... and 1212..., 2121...) and are
    truncated at length_bound, which is then required; by_case is empty.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if length_bound is not None and length_bound < 0:
        raise ValueError("length_bound must be >= 0")
    if n <= 2:
        if length_bound is None:
            raise ValueError(f"length_bound is required for n = {n} (infinite family)")
        words: list[Word] = []
        if n == 1:
            for length in range(1, length_bound + 1):
                words.append(Word([1] * length))
        else:
            for length in range(2, length_bound + 1):
                for first in (1, 2):
                    other = 3 - first
                    letters = [first if i % 2 == 0 else other for i in range(length)]
                    words.append(Word(letters))
        return KnRepertoire(n, {}, tuple(words), len(words))
    if length_bound is not None:
        raise ValueError("length_bound only applies to n <= 2")

    ladder = list(range(1, n + 1))
    by_case: dict[str, tuple[Word, ...]] = {}
    by_case["1.1"] = (Word([n - 1, n] + ladder + [1]),)
    by_case["1.2"] = tuple(
        Word([n - 1, n] + list(w) + [n - 1, n]) for w in av132_permutations(n - 2)
    )
    by_case["1.3"] = (Word([n] + ladder + [1]),)
    by_case["1.4"] = tuple(Word([n] + list(w) + [n]) for w in av132_permutations(n - 1))
    by_case["2.1"] = tuple(av132_permutations(n))
    by_case["2.2"] = tuple(
        Word(list(range(i, n + 1)) + list(w) + [i])
        for i in range(1, n)
        for w in av132_permutations(i - 1)
    )

    words_list = [w for tag in CASE_TAGS for w in by_case[tag]]
    if len(set(words_list)) != len(words_list):
        raise AssertionError("case outputs collide; the count argument assumes disjointness")
    expected = kn_count(n)
    if len(words_list) != expected:
        raise AssertionError(f"enumerated {len(words_list)} words, formula says {expected}")
    return KnRepertoire(n, by_case, tuple(words_list), len(words_list))
