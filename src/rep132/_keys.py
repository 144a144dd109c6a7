"""The keys of labeled graphs in a search's walk.

A labeled graph's key is its edge bitset (graphs.edge_bitset): bit
C(n, 2) - 1 - i for the i-th vertex pair in itertools.combinations order,
read off graphs' one pair table. It is the sum of its edges' keys, and it
is what kernels.run_batch takes for the graph. A search reads its keys
from one sequence that grows as far as it is read (Keys): through order 7
a block of (n - 1)! labelings at a time, one big-int sum of per-pair
columns that hold every labeling's bit of that pair in a lane of its own
(graphs._columns, which orderly generation reads too); past it a key at a
time.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Iterable, Iterator, Sequence

from .graphs import LabeledGraph, Labeling, _columns, _lanes, _pair_tables, edge_bitset

# Largest order whose labelings read their keys off per-pair columns (see
# graphs._columns), built at the first search or class enumeration of that
# order: 423 KB at n = 7, the largest order scan_order runs. Above it each
# key is summed from its edges when read (_labeling_keys): 0.04 s for all
# 40,320 of wheel(7) at n = 8 on a 2-core x86_64 machine under Python 3.11,
# where the columns took 0.11 s and 4.5 MB to build. They pay only over
# many searches of one order.
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


class Keys:
    """The keys of the labeled graphs that a search of g walks, one per
    labeling in walk order (the identity only if fixed, else every labeling
    in itertools.permutations order), as one sequence that grows as far as
    it is read: keys[i], and keys[i:j] for 0 <= i <= j, cut at the last
    labeling. The walk reads it by index and the lookahead in slices ahead
    of the walk, so each key is computed once, and held from then on.

    Up to COLUMNS_MAX_N it grows a block at a time, the (n - 1)! labelings
    that share sigma[0], in one bytes-backed memoryview of lanes (_summed);
    beyond it by exactly the keys read (_labeling_keys). A fixed search's
    sequence is its one key. Nothing it holds refers back to it, so
    reference counting alone frees it.
    """

    __slots__ = ("_computed", "_rest")

    def __init__(self, g: LabeledGraph, fixed: bool):
        # _rest gives the keys after _computed: up to COLUMNS_MAX_N each
        # time a longer view of them, beyond it the next keys
        if fixed:
            self._computed, self._rest = [edge_bitset(g)], iter(())
        elif g.n > COLUMNS_MAX_N:
            sigmas = itertools.permutations(range(1, g.n + 1))
            self._computed, self._rest = [], _labeling_keys(g.adjacency_masks(), sigmas)
        else:
            self._computed, self._rest = (), _summed(g)

    def __getitem__(self, index):
        # the walk reads a key at a time, nearly always one computed already
        if isinstance(index, slice):
            self._grow(index.stop)
        else:
            try:
                return self._computed[index]
            except IndexError:
                self._grow(index + 1)
        return self._computed[index]

    def _grow(self, end: int) -> None:
        """Compute the keys before key end, as far as there are keys."""
        if isinstance(self._computed, list):
            more = max(0, end - len(self._computed))
            self._computed.extend(itertools.islice(self._rest, more))
            return
        while len(self._computed) < end:
            longer = next(self._rest, None)
            if longer is None:
                break
            self._computed = longer


def _summed(g: LabeledGraph) -> Iterator[memoryview]:
    """The keys of the labelings of g, n <= COLUMNS_MAX_N, in _lanes(n)'s
    lanes of one bytes object, a block longer each time: each block one sum
    of the columns of g's edges (graphs._columns)."""
    n = g.n
    adj = g.adjacency_masks()
    pairs = itertools.combinations(range(1, n + 1), 2)
    edges = [i for i, (u, v) in enumerate(pairs) if adj[u] >> v & 1]
    code, width = _lanes(n)
    keys = b""
    for columns in _columns(n):
        keys += sum([columns[i] for i in edges]).to_bytes(
            math.factorial(n - 1) * width, sys.byteorder)
        yield memoryview(keys).cast(code)
