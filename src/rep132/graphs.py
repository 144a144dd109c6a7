"""Labeled simple graphs on vertex sets {1..n}.

Labels matter throughout this package: the same abstract graph can admit or
refuse a pattern-avoiding representant depending on how its vertices are
numbered, so graphs here are labeled values and isomorphism is handled
explicitly (canonical_form / enumerate_graphs) rather than baked in.

A Labeling is a tuple sigma of length n, sigma[v-1] = new label of old
vertex v; it must be a permutation of 1..n.

Canonical forms are found by one pruned search over labelings, good enough
for n <= 10. Isomorphism-free enumeration is orderly generation over that
search, one canonicity test per candidate; scans stop at n = 7.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

Labeling = tuple[int, ...]

_MAX_CANON_N = 10
_MAX_ENUM_N = 7


class LabeledGraph:
    """Immutable simple graph with vertices exactly 1..n.

    n and every edge endpoint must be integers: 2.5, an edge (1.5, 2) or
    an edge (True, 2) raises TypeError.
    """

    __slots__ = ("_n", "_edges")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if type(n) is bool:  # a bool is an int: True would be 1
            raise TypeError("a vertex count must be an integer, not a bool")
        n = operator.index(n)
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        norm = set()
        for e in edges:
            u, v = e
            if type(u) is bool or type(v) is bool:
                raise TypeError("an edge endpoint must be an integer, not a bool")
            u, v = operator.index(u), operator.index(v)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge {{{u},{v}}} leaves 1..{n}")
            norm.add((u, v) if u < v else (v, u))
        self._n = n
        self._edges = frozenset(norm)

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges as sorted (u, v) pairs with u < v."""
        return sorted(self._edges)

    def vertices(self) -> range:
        return range(1, self._n + 1)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        _check_vertex(self, v)
        return tuple(sorted(u for u in self.vertices() if self.has_edge(u, v)))

    def adjacency_masks(self) -> tuple[int, ...]:
        """masks[v] has bit u set iff {u,v} is an edge; masks[0] unused."""
        masks = [0] * (self._n + 1)
        for u, v in self._edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def __eq__(self, other) -> bool:
        if isinstance(other, LabeledGraph):
            return self._n == other._n and self._edges == other._edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"LabeledGraph({self._n}, {self.edge_list()})"


def _check_vertex(g: LabeledGraph, v: int) -> None:
    if not (1 <= v <= g.n):
        raise ValueError(f"vertex {v} out of range 1..{g.n}")


def degree(g: LabeledGraph, v: int) -> int:
    """Number of edges incident with v."""
    _check_vertex(g, v)
    return sum(1 for u in g.vertices() if g.has_edge(u, v))


# ---------------------------------------------------------------------------
# family builders (default labelings are part of the contract: several
# representant constructions assume them)


def complete(n: int) -> LabeledGraph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return LabeledGraph(n, itertools.combinations(range(1, n + 1), 2))


def path(n: int) -> LabeledGraph:
    """Path 1-2-...-n."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return LabeledGraph(n, ((i, i + 1) for i in range(1, n)))


def cycle(n: int) -> LabeledGraph:
    """Cycle 1-2-...-n-1, labeled around."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n)]
    edges.append((1, n))
    return LabeledGraph(n, edges)


def wheel(n: int) -> LabeledGraph:
    """Rim cycle 1..n plus the apex n+1 adjacent to every rim vertex."""
    if n < 3:
        raise ValueError("wheel needs rim size >= 3")
    edges = list(cycle(n).edges)
    edges.extend((i, n + 1) for i in range(1, n + 1))
    return LabeledGraph(n + 1, edges)


def prism(n: int) -> LabeledGraph:
    """Cycles 1..n and n+1..2n joined by rungs i -- n+i."""
    if n < 3:
        raise ValueError("prism needs cycle length >= 3")
    edges = list(cycle(n).edges)
    edges.extend((u + n, v + n) for u, v in cycle(n).edges)
    edges.extend((i, n + i) for i in range(1, n + 1))
    return LabeledGraph(2 * n, edges)


def star(k: int) -> LabeledGraph:
    """k leaves 1..k attached to the center k+1 (same hub convention as wheel)."""
    if k < 1:
        raise ValueError("star needs at least one leaf")
    return LabeledGraph(k + 1, ((i, k + 1) for i in range(1, k + 1)))


# ---------------------------------------------------------------------------
# relabeling and isomorphism


def identity_labeling(n: int) -> Labeling:
    return tuple(range(1, n + 1))


def inverse_labeling(sigma: Labeling) -> Labeling:
    inv = [0] * len(sigma)
    for old, new in enumerate(sigma, start=1):
        inv[new - 1] = old
    return tuple(inv)


def _check_labeling(sigma: Sequence[int], n: int) -> None:
    if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of 1..{n}")


def relabel(g: LabeledGraph, sigma: Sequence[int]) -> LabeledGraph:
    """Map every edge {u,v} to {sigma[u-1], sigma[v-1]}."""
    _check_labeling(sigma, g.n)
    return LabeledGraph(g.n, ((sigma[u - 1], sigma[v - 1]) for u, v in g.edges))


def _pair_rank(a: int, b: int, n: int) -> int:
    # rank of (a, b), a < b, in lexicographic pair order
    return (a - 1) * (2 * n - a) // 2 + (b - a - 1)


def edge_bitset(g: LabeledGraph) -> int:
    """Edge set as an integer; pair (1,2) is the most significant bit.

    With this encoding, among graphs with equal edge counts, a larger
    integer means a lexicographically smaller sorted edge list — so the
    canonical form below is the bitset maximum.
    """
    n = g.n
    top = n * (n - 1) // 2 - 1
    bits = 0
    for u, v in g.edges:
        bits |= 1 << (top - _pair_rank(u, v, n))
    return bits


def graph_from_bitset(n: int, bits: int) -> LabeledGraph:
    """The graph on 1..n with edge bitset bits (edge_bitset), an int, not a
    bool, in 0 .. 2**C(n, 2) - 1: TypeError for a non-int, else ValueError."""
    if type(bits) is not int:
        raise TypeError(f"bits must be an int, not {type(bits).__name__}")
    top = n * (n - 1) // 2 - 1
    if bits < 0 or bits.bit_length() > top + 1:
        raise ValueError(f"bits must be in 0 .. 2**{top + 1} - 1 at n = {n}")
    pairs = itertools.combinations(range(1, n + 1), 2)
    edges = [(a, b) for a, b in pairs if bits >> (top - _pair_rank(a, b, n)) & 1]
    return LabeledGraph(n, edges)


@lru_cache(maxsize=None)
def _pair_tables(n: int):
    """bit[a][b] = bit[b][a]: the edge bitset's bit of the pair {a, b}, the
    one table of that bit order, which the search's keys and the kernel's
    rows read too; low[d]: the pairs (a, b) with d < a; head[d][i][r]: the
    pairs (i, d+1..d+r)."""
    top = n * (n - 1) // 2 - 1
    bit = [[0] * (n + 1) for _ in range(n + 1)]
    for a, b in itertools.combinations(range(1, n + 1), 2):
        bit[a][b] = bit[b][a] = 1 << (top - _pair_rank(a, b, n))
    low = [sum(bit[b][a] for a, b in itertools.combinations(range(d + 1, n + 1), 2))
           for d in range(n + 1)]
    head = [[[0] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    for d, i, r in itertools.product(range(n), range(1, n), range(1, n + 1)):
        if i <= d and d + r <= n:
            head[d][i][r] = head[d][i][r - 1] | bit[d + r][i]
    return bit, low, head


def _best_relabeling(n: int, adj: Sequence[int], best: int, first: bool) -> int:
    """The largest edge bitset of a relabeling of adj (adjacency masks), or
    best if none beats it; with first, the first one found that beats it.

    Labels go to vertices in order: label 1 to a max-degree vertex, labels
    2..d+1 to its neighborhood (the largest first row is 1^d 0^...). A
    partial labeling is cut when it cannot beat best even if each labeled
    vertex's unlabeled neighbors take the next labels and all else is edges.
    A label skips a vertex that is a twin of one it was tried on (the same
    neighbors, apart from each other): swapping the two is an automorphism
    that fixes every placed label, so both give the same bitsets.
    """
    bit, low, head = _pair_tables(n)
    degs = [m.bit_count() for m in adj]
    maxdeg = max(degs)
    if maxdeg == 0:
        return max(best, 0)
    # old vertex -> new label (0 while unplaced), new label -> old vertex
    label, order = [0] * (n + 1), [0] * (n + 1)
    nbrs = [[u for u in range(1, n + 1) if m >> u & 1] for m in adj]
    tops = [v for v in range(1, n + 1) if degs[v] == maxdeg]
    twins = [0] * (n + 1)  # twins[v]: the vertices with v's neighbors, v aside
    for u, v in itertools.combinations(range(1, n + 1), 2):
        if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
            twins[u] |= 1 << v
            twins[v] |= 1 << u

    def extend(d: int, placed: int, bits: int) -> bool:
        nonlocal best
        bound = bits | low[d]
        for i in range(1, d + 1):
            bound |= head[d][i][(adj[order[i]] & ~placed).bit_count()]
        if bound <= best:
            return False
        if d == n:
            best = bits
            return first
        col = bit[d + 1]
        tried = 0
        for v in tops if d == 0 else nbrs[order[1]] if d <= maxdeg else range(1, n + 1):
            if label[v] or twins[v] & tried:
                continue
            tried |= 1 << v
            nb, m = bits, adj[v] & placed
            while m:
                one = m & -m
                m ^= one
                nb |= col[label[one.bit_length() - 1]]
            label[v], order[d + 1] = d + 1, v
            if extend(d + 1, placed | 1 << v, nb):
                return True
            label[v] = 0
        return False

    extend(0, 0, 0)
    extend = None  # extend refers to itself: break the cycle
    return best


def canonical_form(g: LabeledGraph) -> LabeledGraph:
    """The relabeling of g whose sorted edge list is lexicographically least.

    Two graphs are isomorphic iff their canonical forms are equal. It is the
    relabeling with the largest edge bitset (see edge_bitset).
    """
    n = g.n
    if n > _MAX_CANON_N:
        raise ValueError(f"canonical_form supports n <= {_MAX_CANON_N}, got {n}")
    return graph_from_bitset(n, _best_relabeling(n, g.adjacency_masks(), -1, False))


def automorphisms(g: LabeledGraph) -> list[Labeling]:
    """All labelings sigma with relabel(g, sigma) == g, by backtracking."""
    n = g.n
    if n > _MAX_CANON_N:
        raise ValueError(f"automorphisms supports n <= {_MAX_CANON_N}, got {n}")
    degs = [0] + [degree(g, v) for v in g.vertices()]
    found: list[Labeling] = []
    sigma: list[int] = []
    used = [False] * (n + 1)

    def extend() -> None:
        v = len(sigma) + 1
        if v > n:
            found.append(tuple(sigma))
            return
        for image in range(1, n + 1):
            if used[image] or degs[image] != degs[v]:
                continue
            if any(g.has_edge(u, v) != g.has_edge(sigma[u - 1], image) for u in range(1, v)):
                continue
            used[image] = True
            sigma.append(image)
            extend()
            sigma.pop()
            used[image] = False

    extend()
    extend = None  # as in _best_relabeling
    return found


def enumerate_graphs(n: int, isolate_free: bool = False) -> Iterator[LabeledGraph]:
    """One canonically labeled graph per isomorphism class on n vertices.

    Yields canonical forms ordered by edge count, then edge list, by
    orderly generation (Read, 1978): clearing the lowest set bit of a
    canonical edge bitset leaves a canonical one, so each class is found
    once, as a canonical graph plus an edge below its lowest set bit that
    no relabeling beats. n is capped at 7, the largest order a scan can
    finish; memory is one level of classes of equal edge count.
    """
    if not (1 <= n <= _MAX_ENUM_N):
        raise ValueError(f"enumerate_graphs supports 1 <= n <= {_MAX_ENUM_N}, got {n}")
    return _enumerate_graphs(n, isolate_free)


def _enumerate_graphs(n: int, isolate_free: bool) -> Iterator[LabeledGraph]:
    pairs = list(itertools.combinations(range(1, n + 1), 2))[::-1]  # by bit
    level = [(0, [0] * (n + 1))]  # canonical (bitset, adjacency masks)
    while level:
        for bits, adj in sorted(level, reverse=True):
            if not isolate_free or all(adj[1:]):
                yield graph_from_bitset(n, bits)
        children = []
        for bits, adj in level:
            for pos in range((bits & -bits).bit_length() - 1 if bits else len(pairs)):
                (a, b), child, masks = pairs[pos], bits | 1 << pos, adj[:]
                masks[a] |= 1 << b
                masks[b] |= 1 << a
                if _best_relabeling(n, masks, child, True) == child:
                    children.append((child, masks))
        level = children


def components(g: LabeledGraph) -> list[tuple[int, ...]]:
    """Vertex sets of connected components, each sorted, ordered by minimum."""
    remaining = set(g.vertices())
    out = []
    while remaining:
        root = min(remaining)
        comp = {root}
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for u in g.neighbors(v):
                if u in remaining and u not in comp:
                    comp.add(u)
                    frontier.append(u)
        remaining -= comp
        out.append(tuple(sorted(comp)))
    return out
