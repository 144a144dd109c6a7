"""The keys of labeled graphs in a search's walk.

A labeled graph's key is its edge bitset (graphs.edge_bitset): bit
C(n, 2) - 1 - i for the i-th vertex pair in itertools.combinations order,
below 2^21 through order 7, read off graphs' one pair table. It is the sum
of its edges' keys, and it is what kernels.run_batch takes for the graph.
A search walks its labelings in blocks (Keys): through order 7 a block is
the (n - 1)! labelings that share sigma[0], and its keys are one big-int
sum of per-pair columns that hold every labeling's bit of that pair in a
lane of its own (_columns), read out at once.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .graphs import LabeledGraph, Labeling, _pair_tables, edge_bitset

# Largest order whose labelings read their keys off per-pair columns (see
# _columns), built at the first search of that order: n blocks of C(n, 2)
# columns, one lane per labeling, 423 KB at n = 7, the largest order
# scan_order runs, where a key's 21 bits still fit a 32-bit lane. Above it
# only single searches run, where the kernel dwarfs the cost of the keys.
COLUMNS_MAX_N = 7


def _labeling_keys(adj: Sequence[int], sigmas: Iterable[Labeling]) -> Iterator[int]:
    """The key of relabel(g, sigma) for each sigma, in order, adj being g's
    adjacency masks: each the sum of its edges' keys, so no relabeled graph
    is built."""
    n = len(adj) - 1
    bit = _pair_tables(n)[0]
    edges = [(u - 1, v - 1) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if adj[u] >> v & 1]
    for sig in sigmas:
        yield sum([bit[sig[u]][sig[v]] for u, v in edges])


@lru_cache(maxsize=None)
def _lanes(n: int) -> tuple[str, int]:
    """The memoryview format of a key block at order n <= COLUMNS_MAX_N (see
    _columns), and its item size in bytes: 16-bit lanes hold a key's C(n, 2)
    bits up to n = 6, and 32-bit ones at n = 7."""
    code = "H" if n <= 6 else "I"
    return code, memoryview(b"").cast(code).itemsize


@lru_cache(maxsize=None)
def _columns(n: int) -> list[list[int]]:
    """Per block of labelings of 1..n, the (n - 1)! that share sigma[0], in
    walk order; then per vertex pair {u, v}, u < v, in combinations order:
    the key of the edge {sigma[u], sigma[v]} under each labeling sigma of
    the block, packed into one int, the j-th labeling's in lane j (lanes of
    _lanes(n)'s width, in this machine's byte order).

    A labeled graph's key is the sum of its edges' keys, and no lane of a
    sum of distinct edges' columns carries into the next, so the keys of a
    block of labelings of g are one sum of the columns of g's edges, read
    out in one go (Keys). At n = 7: 7 blocks of 21 columns of 720 lanes of
    32 bits, 423 KB.
    """
    bit = _pair_tables(n)[0]
    _, width = _lanes(n)
    sigmas = itertools.permutations(range(1, n + 1))
    blocks = []
    for _ in range(n):
        block = list(itertools.islice(sigmas, math.factorial(n - 1)))
        blocks.append([
            int.from_bytes(b"".join([bit[s[u]][s[v]].to_bytes(width, sys.byteorder)
                                     for s in block]), sys.byteorder)
            for u, v in itertools.combinations(range(n), 2)])
    return blocks


class Keys:
    """The keys of the labeled graphs that a search of g walks, one per
    labeling in walk order (the identity only if fixed, else every labeling
    in itertools.permutations order), in blocks of size labelings.

    Up to COLUMNS_MAX_N, block b holds the (n - 1)! labelings with
    sigma[0] = b + 1, one sum of the columns of g's edges (_columns) read
    as a memoryview of lanes. A fixed search's one block is its one key;
    beyond COLUMNS_MAX_N each key, a block of its own, is summed from its
    edges (_labeling_keys). The walk and its lookahead read the same
    blocks, so each key is computed once: the walk iterates over the blocks
    (iter(keys)), and the lookahead reads blocks ahead of it (block). Only
    the blocks from the walk's own on are held, and no generator, so a
    search waiting for its next round holds little more than one block.
    """

    __slots__ = ("size", "_n", "_edges", "_source", "_first", "_held", "_walking")

    def __init__(self, g: LabeledGraph, fixed: bool):
        self._n = g.n
        self._edges: list[int] = []  # the column of each edge of g
        self._source: Optional[Iterator[Sequence[int]]] = None
        if fixed:
            self._source, self.size = iter([[edge_bitset(g)]]), 1
        elif g.n > COLUMNS_MAX_N:
            sigmas = itertools.permutations(range(1, g.n + 1))
            keys = _labeling_keys(g.adjacency_masks(), sigmas)
            self._source, self.size = ([key] for key in keys), 1
        else:
            adj = g.adjacency_masks()
            pairs = itertools.combinations(range(1, g.n + 1), 2)
            self._edges = [i for i, (u, v) in enumerate(pairs) if adj[u] >> v & 1]
            self.size = math.factorial(g.n - 1)
        self._first = 0  # the block that _held starts with
        self._held: list[Sequence[int]] = []
        self._walking = False  # whether the walk has taken block _first

    def block(self, b: int) -> Optional[Sequence[int]]:
        """Block b, b at least the walk's, or None past the last block."""
        held = self._held
        while self._first + len(held) <= b:
            if self._source is not None:
                block = next(self._source, None)
            else:
                block = self._summed(self._first + len(held))
            if block is None:
                return None
            held.append(block)
        return held[b - self._first]

    def _summed(self, b: int) -> Optional[Sequence[int]]:
        blocks = _columns(self._n)
        if b == len(blocks):
            return None
        code, width = _lanes(self._n)
        total = sum([blocks[b][i] for i in self._edges])
        return memoryview(total.to_bytes(self.size * width, sys.byteorder)).cast(code)

    def __iter__(self):
        return self

    def __next__(self) -> Sequence[int]:
        """The walk's next block; the one it has read is let go."""
        if self._walking:
            del self._held[0]
            self._first += 1
        self._walking = True
        block = self.block(self._first)
        if block is None:
            raise StopIteration
        return block
