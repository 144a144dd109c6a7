"""Labeled simple graphs on vertex sets {1..n}.

Labels matter throughout this package: the same abstract graph can admit or
refuse a pattern-avoiding representant depending on how its vertices are
numbered, so graphs here are labeled values and isomorphism is handled
explicitly (canonical_form / enumerate_graphs) rather than baked in.

A Labeling is a tuple sigma of length n, sigma[v-1] = new label of old
vertex v; it must be a permutation of 1..n.

Canonical forms are found by one pruned search over labelings, good enough
for n <= 10. Isomorphism-free enumeration is orderly generation; it tests
each candidate against every labeling at once, a block of (n - 1)! at a
time, on packed per-pair columns (_columns) that the search's keys
(rep132._keys) read too; scans stop at n = 7.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
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
        return tuple(sorted(u + w - v for u, w in self._edges if v in (u, w)))

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
    return sum(v in e for e in g.edges)


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
    # digit i of bits in binary, top bit first, is the pair of rank skip + i
    digits = format(bits, "b")
    skip = top + 1 - len(digits)
    return LabeledGraph(n, [_rank_pair(skip + one.start(), n)
                            for one in re.finditer("1", digits)])


def _rank_pair(r: int, n: int) -> tuple[int, int]:
    """The pair (a, b), a < b, of rank r in lexicographic pair order: the
    inverse of _pair_rank."""
    # pairs (a, .) start at rank m * (d - m) // 2, m = a - 1, d = 2n - 1; the
    # root of m * (d - m) = 2r, rounded down, is the last row to start at or
    # before r, or one past it where isqrt rounds the root down
    d = 2 * n - 1
    m = (d - math.isqrt(d * d - 8 * r)) // 2
    if m * (d - m) // 2 > r:
        m -= 1
    return m + 1, m + 2 + r - m * (d - m) // 2


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


@lru_cache(maxsize=None)
def _lanes(n: int) -> tuple[str, int]:
    """The memoryview format of a lane of _columns(n), and its item size in
    bytes: 16-bit lanes up to n = 6, 32-bit ones above.

    A lane holds a key's C(n, 2) bits plus a spare top bit, which the
    canonicity test of _enumerate_graphs reads (see _lane_tables): 15 bits
    in 16 at n = 6, 21 and 28 bits in 32 at n = 7 and 8. An order whose
    C(n, 2) reaches the lane width, n >= 9, raises ValueError.
    """
    code = "H" if n <= 6 else "I"
    width = memoryview(b"").cast(code).itemsize
    if n * (n - 1) // 2 >= 8 * width:
        raise ValueError(f"a key of order {n} leaves no spare top bit in a "
                         f"{8 * width}-bit lane")
    return code, width


@lru_cache(maxsize=None)
def _columns(n: int) -> list[list[int]]:
    """Per block of labelings of 1..n, the (n - 1)! that share sigma[0], in
    itertools.permutations order; then per vertex pair {u, v}, u < v, in
    combinations order: the edge bitset bit of {sigma[u], sigma[v]} under
    each labeling sigma of the block, packed into one int, the j-th
    labeling's in lane j (lanes of _lanes(n)'s width, in this machine's
    byte order).

    The edge bitset of relabel(g, sigma) is the sum of its edges' bits, and
    no lane of a sum of distinct edges' columns carries into the next, so
    the bitsets of a block of relabelings of g are one sum of the columns
    of g's edges: the keys a search reads (rep132._keys) and the canonicity
    test of orderly generation (_lane_tables). At n = 7: 7 blocks of 21
    columns of 720 lanes of 32 bits, 423 KB; at n = 8, 4.5 MB.
    """
    _, width = _lanes(n)
    bit = _pair_tables(n)[0]
    sigmas = itertools.permutations(range(1, n + 1))
    blocks = []
    for _ in range(n):
        block = list(itertools.islice(sigmas, math.factorial(n - 1)))
        blocks.append([
            int.from_bytes(b"".join([bit[s[u]][s[v]].to_bytes(width, sys.byteorder)
                                     for s in block]), sys.byteorder)
            for u, v in itertools.combinations(range(n), 2)])
    return blocks


def _best_relabeling(n: int, adj: Sequence[int]) -> int:
    """The largest edge bitset of a relabeling of adj (adjacency masks).

    Labels go to vertices in order: label 1 to a max-degree vertex, labels
    2..d+1 to its neighborhood (the largest first row is 1^d 0^...). A
    partial labeling is cut when it cannot beat the best bitset found so far
    even if each labeled vertex's unlabeled neighbors take the next labels
    and all else is edges. A label skips a vertex that is a twin of one it
    was tried on (the same neighbors, apart from each other): swapping the
    two is an automorphism that fixes every placed label, so both give the
    same bitsets.
    """
    bit, low, head = _pair_tables(n)
    degs = [m.bit_count() for m in adj]
    maxdeg = max(degs)
    if maxdeg == 0:
        return 0
    best = -1
    # old vertex -> new label (0 while unplaced), new label -> old vertex
    label, order = [0] * (n + 1), [0] * (n + 1)
    nbrs = [[u for u in range(1, n + 1) if m >> u & 1] for m in adj]
    tops = [v for v in range(1, n + 1) if degs[v] == maxdeg]
    twins = [0] * (n + 1)  # twins[v]: the vertices with v's neighbors, v aside
    for u, v in itertools.combinations(range(1, n + 1), 2):
        if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
            twins[u] |= 1 << v
            twins[v] |= 1 << u

    def extend(d: int, placed: int, bits: int) -> None:
        nonlocal best
        bound = bits | low[d]
        for i in range(1, d + 1):
            bound |= head[d][i][(adj[order[i]] & ~placed).bit_count()]
        if bound <= best:
            return
        if d == n:
            best = bits
            return
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
            extend(d + 1, placed | 1 << v, nb)
            label[v] = 0

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
    return graph_from_bitset(n, _best_relabeling(n, g.adjacency_masks()))


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
    no relabeling beats. Each such candidate is tested a block of (n - 1)!
    labelings at a time, one packed-lane comparison per block
    (_lane_tables). n is capped at 7, the largest order a scan can finish.
    The first graph comes once the whole tree of canonical graphs has been
    walked, depth first; memory is the lane tables, one path of block sums
    and every class's edge bitset.
    """
    if not (1 <= n <= _MAX_ENUM_N):
        raise ValueError(f"enumerate_graphs supports 1 <= n <= {_MAX_ENUM_N}, got {n}")
    return _enumerate_graphs(n, isolate_free)


def _enumerate_graphs(n: int, isolate_free: bool) -> Iterator[LabeledGraph]:
    """enumerate_graphs without its cap on n, which _lanes sets at 8.

    Walks the tree of canonical graphs depth first (each child a canonical
    graph plus one edge below its lowest set bit, found by _children) and
    files each bitset under its edge count; then yields each edge count's
    bitsets in descending order, as graphs. The walk holds one path of block
    sums, about 4.5 MB at its deepest at n = 8, where _columns(8) and the
    offsets of _lane_tables take 4.5 MB each.
    """
    empty, offsets, high = _lane_tables(n)
    levels: list[list[int]] = [[] for _ in range(n * (n - 1) // 2 + 1)]

    def walk(bits: int, sums: list[int]) -> None:
        levels[bits.bit_count()].append(bits)
        for child, child_sums in _children(bits, sums, offsets, high):
            walk(child, child_sums)

    walk(0, empty)
    walk = None  # as in _best_relabeling
    bit = _pair_tables(n)[0]
    stars = [sum(bit[v]) for v in range(1, n + 1)]  # each vertex's pairs
    for level in levels:
        for bits in sorted(level, reverse=True):
            if not isolate_free or all(bits & star for star in stars):
                yield graph_from_bitset(n, bits)


def _lane_tables(n: int) -> tuple[list[int], list[list[int]], int]:
    """The tables of the packed-lane canonicity test at order n: the empty
    graph's block sums, the offsets and the mask high.

    Lanes are _columns(n)'s, L bits each; top is 2^(L - 1) - 1 and ones the
    int with 1 in every lane. A graph with edge bitset bits has, per block
    b of labelings, the block sum P_b: the sum of its edges' columns plus
    (top - bits) * ones, so the lane of labeling sigma holds
    key_sigma + top - bits, key_sigma being the bitset of the relabeling.
    It lies in 0 .. 2^L - 1, as _lanes leaves the top bit spare, so the
    lanes do not carry, and its top bit is set iff key_sigma > bits: iff
    sigma beats the graph. high has the top bit of every lane. Adding pair
    bit 1 << pos adds that pair's column and takes ones << pos off each
    lane; offsets[b][pos] is the two in one int, so the child's P_b is
    P_b + offsets[b][pos].
    """
    _, width = _lanes(n)
    top_bit = 8 * width - 1
    ones = int.from_bytes((1).to_bytes(width, sys.byteorder) * math.factorial(n - 1),
                          sys.byteorder)
    offsets = [[col - (ones << pos) for pos, col in enumerate(reversed(block))]
               for block in _columns(n)]
    return [((1 << top_bit) - 1) * ones] * n, offsets, ones << top_bit


def _children(bits: int, sums: Sequence[int], offsets: Sequence[Sequence[int]],
              high: int) -> Iterator[tuple[int, list[int]]]:
    """The canonical children of the canonical graph with edge bitset bits
    and block sums sums (see _lane_tables), each with its own block sums.

    A candidate adds one pair below bits' lowest set bit. It is canonical
    iff no block's sum has a lane with its top bit set; the blocks are
    tested in order, and the first with such a lane rejects it.
    """
    for pos in range((bits & -bits).bit_length() - 1 if bits else len(offsets[0])):
        child = []
        for s, block in zip(sums, offsets):
            s += block[pos]
            if s & high:
                break
            child.append(s)
        else:
            yield bits | 1 << pos, child


def components(g: LabeledGraph) -> list[tuple[int, ...]]:
    """Vertex sets of connected components, each sorted, ordered by minimum,
    in O(n + edges)."""
    nbrs: list[list[int]] = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    comp = [-1] * (g.n + 1)  # v's component, numbered in order of least vertex
    count = 0
    for root in g.vertices():
        if comp[root] < 0:
            comp[root], frontier = count, [root]
            while frontier:
                for u in nbrs[frontier.pop()]:
                    if comp[u] < 0:
                        comp[u] = count
                        frontier.append(u)
            count += 1
    out: list[list[int]] = [[] for _ in range(count)]
    for v in g.vertices():
        out[comp[v]].append(v)
    return list(map(tuple, out))
