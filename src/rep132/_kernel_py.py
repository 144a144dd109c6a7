"""Pure-Python DFS kernel for word searches.

This is the reference implementation; rep132._kernel (_kernel.c) is a
compiled twin with the same traversal order and statistics, byte for byte.
The kernel contract, run_batch and run_search with their checks in order,
is stated in rep132.kernels and implemented here alone: driver(backend)
gives the pair over a backend's two traversals, with every check of a call
(batch_shape, check_keys, masks_key), the building of the traversals' rows
from the keys (_rows), the fallback past a budget and the cut at each
group's first witness. Each backend module holds just the two traversals,
with one signature on both: _search_graph searches one row, and
_union_search searches a batch of distinct rows, or returns None once the
union would pass its one budget. This module binds the driver to its own
traversals, and the compiled module's init binds it to its C ones. So what
must be mirrored in the twin (tests compare the two call by call) is the
traversals alone.

The search walks words over {1..n}, each letter used min_copies..max_copies
times, children in ascending letter order. A node is a successfully
appended letter. State per prefix:

  counts[c]      copies of c used so far
  seen_since[c]  mask of letters occurring strictly after c's last copy
  nonalt[c]      mask of letters y whose pair {c,y} already shows a repeat
                 in the 2-letter projection (the pair can never alternate)
  forbidden      mask of letters that would complete a 132 if appended
                 (union of open intervals (prefix-min-before-b, b))
  cur_min        minimum letter so far (n + 1 for the empty prefix)
  exhausted      mask of letters whose max_copies are all used

Appending c puts a repeat on exactly the pairs {c,y} whose last projection
letter was c, i.e. every y (occurred or not) outside seen_since[c] — when c
has occurred at all. A finished word represents the graph iff nonalt[c]
equals the non-neighbor mask of c for every c.

Packed state. seen_since and nonalt are each one int, with a 16-bit lane
per letter: lane c (bits 16c..16c+15) holds the mask for letter c, and
MAX_N < 16 keeps every mask inside its lane. Each node passes the two ints
down to its children as arguments, so nothing is copied or restored on the
way back. Appending c costs two expressions over per-letter constants:

  seen_since   ss = (ss & clear[c]) | repeat[c]
               (empty lane c, bit c into every other letter's lane)
  nonalt       na |= (bad << 16c) | (lanes[bad] << c)
               (bad into lane c, bit c into the lane of each letter of bad)

where bad is the set of letters outside seen_since[c] and lanes[mask] has
bit 16y set for every bit y of mask. So the leaf test is one comparison,
na == target, with target the non-neighbor masks packed the same way.

Prunes, always on, each cutting only subtrees that hold no witness:
  pattern    skip c when it would complete a 132 (only if forbid_132)
  edges      skip c when it puts a repeat on an edge pair
  exhausted  skip c when, c's copies now spent, some non-edge pair
             {c,y} with y also spent still alternates — unfixable
With forbid_132, the pattern prune builds no word that contains a 132, so
the leaf test needs no check for one.

The traversals take packed rows, which only the driver builds from the
keys, ROW_BYTES bytes each: mask v in bits 16v..16v+15 of the row read as
a little-endian int, the lanes of target above with edges in place of
non-edges. The compiled twin's _union_search walks the same union with the
same child order, prunes, budget rule and drops, and gives the same
results.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import operator
import sys
from functools import lru_cache
from typing import Optional, Sequence

from .graphs import _pair_tables

MAX_N = 15
MAX_DEPTH = 64  # longest word, n * max_copies: the compiled twin's prefix array
LANE = 16  # bits per letter in the packed seen_since and nonalt; MAX_N < LANE
ROW_BYTES = 2 * (MAX_N + 1)  # a traversal's row: masks 0..MAX_N, one lane each
# Union nodes between two folds of a union search's tallies into the
# per-graph totals: each node's graph set, an int of one bit per graph of
# the batch, is held until the next fold, so this bounds the tallies'
# memory: the rounds of an order-6 scan peak at 0.92 MB with 512, and past
# a megabyte with 1,024.
TALLY_NODES = 512


def _index(value) -> int:
    """An n, copy count, budget or group size as an int, else TypeError."""
    if type(value) is bool:  # a bool is an int: True would be 1
        raise TypeError("a count, budget or group size must be an int, not bool")
    return operator.index(value)


def _check_search(n, min_copies, max_copies) -> None:
    n, min_copies, max_copies = map(_index, (n, min_copies, max_copies))
    if not (1 <= n <= MAX_N):
        raise ValueError(f"n must be in 1..{MAX_N}")
    if not (1 <= min_copies <= max_copies):
        raise ValueError("need 1 <= min_copies <= max_copies")
    if n * max_copies > MAX_DEPTH:
        raise ValueError(f"n * max_copies must be at most {MAX_DEPTH}")


def _check_budget(node_budget) -> None:
    if node_budget is not None and _index(node_budget) < 0:
        raise ValueError("node_budget must not be negative")


def masks_key(n, adj, min_copies, max_copies, node_budget) -> int:
    """run_search's masks as one run_batch key, their edge bitset, after
    run_search's checks (see rep132.kernels), on both kernels."""
    _check_search(n, min_copies, max_copies)
    _check_budget(node_budget)
    if len(adj) != n + 1:
        raise ValueError(f"need n + 1 = {n + 1} adjacency masks, got {len(adj)}")
    full = (1 << (n + 1)) - 2  # bits 1..n
    masks = [0]
    for v in range(1, n + 1):
        masks.append(operator.index(adj[v]))
        if masks[v] & ~full:
            raise ValueError(f"adjacency mask {v} has bits outside 1..{n}")
    if operator.index(adj[0]):
        raise ValueError("adjacency mask 0 must be empty")
    bit = _pair_tables(n)[0]
    key = 0
    for v in range(1, n + 1):
        if masks[v] >> v & 1:
            raise ValueError(f"adjacency mask {v} has a self-loop")
        for u in range(v + 1, n + 1):
            if (masks[v] >> u & 1) != (masks[u] >> v & 1):
                raise ValueError(f"adjacency masks {v} and {u} disagree")
            if masks[v] >> u & 1:
                key |= bit[v][u]
    return key


def check_keys(n, keys, min_copies, max_copies, node_budgets, group_sizes) -> None:
    """The checks of a nonempty run_batch call's entries, on batch_shape's
    lists, on both kernels: n and the copy counts, then group by group its
    budget and its keys, then that no key repeats (see rep132.kernels)."""
    _check_search(n, min_copies, max_copies)
    end = 1 << n * (n - 1) // 2
    at = 0
    for budget, size in zip(node_budgets, group_sizes):
        _check_budget(budget)
        for key in keys[at:at + size]:
            if type(key) is not int:
                raise TypeError(f"a key must be an int, not {type(key).__name__}")
            if not 0 <= key < end:
                raise ValueError(f"a key must be in 0..{end - 1} at n = {n}")
        at += size
    if len(set(keys)) != len(keys):
        raise ValueError("a batch's keys must be distinct")


@lru_cache(maxsize=None)
def _row_tables(n: int) -> list[list[bytes]]:
    """tables[j][x]: the row (ROW_BYTES bytes, mask v in bits 16v..16v+15)
    of the graph on 1..n whose key is x << 8j: one table per byte of a key
    at order n, 2 tables of at most 256 rows at n = 6 and 3 at n = 7."""
    bit = _pair_tables(n)[0]
    masks = {}  # bit p of a key -> the row of its one edge
    for a, b in itertools.combinations(range(1, n + 1), 2):
        masks[bit[a][b].bit_length() - 1] = (1 << (LANE * a + b)) | (1 << (LANE * b + a))
    tables = []
    for low in range(0, len(masks), 8):
        table = [0]
        for p in range(low, min(low + 8, len(masks))):
            table += [row | masks[p] for row in table]
        tables.append([row.to_bytes(ROW_BYTES, "little") for row in table])
    return tables


def _rows(n: int, keys: list[int]) -> bytes:
    """The rows of the graphs on 1..n with these checked keys, in order, as
    the traversals take them: each byte of every key looked up in its table
    (_row_tables), a table at a time, and the rows ORed."""
    tables = _row_tables(n)
    width = len(tables)
    packed = b"".join([key.to_bytes(width, "little") for key in keys])
    total = 0
    for j, table in enumerate(tables):
        total |= int.from_bytes(b"".join(map(table.__getitem__, packed[j::width])),
                                "little")
    return total.to_bytes(ROW_BYTES * len(keys), "little")


@lru_cache(maxsize=None)
def _bit_digits() -> tuple[bytes, ...]:
    """digits[t]: a bytes.translate table taking each byte to b"1" if its bit
    t is set, else b"0"."""
    return tuple(bytes(b"01"[b >> t & 1] for b in range(256)) for t in range(8))


@lru_cache(maxsize=None)
def _tables(n: int):
    """Constants of the search over {1..n} that do not depend on the graph.

    Lists are indexed by letter, by a minimum letter (between) or by a mask
    over bits 0..n (lanes, letters); at n = 15 the mask tables have 65,536
    entries each.
    """
    full = (1 << (n + 1)) - 2  # bits 1..n
    bit = [1 << c for c in range(n + 1)]
    shift = [LANE * c for c in range(n + 1)]
    not_bit = [full & ~b for b in bit]
    clear = [~(((1 << LANE) - 1) << s) for s in shift]
    repeat = [0] * (n + 1)
    for c in range(1, n + 1):
        for y in range(1, n + 1):
            if y != c:
                repeat[c] |= bit[c] << shift[y]
    # between[m][c]: the letters strictly between m and c, which become
    # forbidden once c follows a prefix whose minimum is m < c
    between = [
        [((1 << c) - 1) & ~((1 << (m + 1)) - 1) if m < c else 0 for c in range(n + 1)]
        for m in range(n + 2)
    ]
    lanes = [0] * (1 << (n + 1))
    letters = [()] * (1 << (n + 1))  # letters[mask]: a mask's letters, ascending
    for mask in range(1, 1 << (n + 1)):
        low = mask & -mask
        rest = mask ^ low
        lanes[mask] = lanes[rest] | 1 << (shift[low.bit_length() - 1])
        if not mask & 1:
            letters[mask] = (low.bit_length() - 1,) + letters[rest]
    return full, bit, shift, not_bit, clear, repeat, between, lanes, letters


def _search_graph(n, row, min_copies, max_copies, forbid_132, find_all, node_budget):
    """One graph's search, from its checked row: run_batch's path for a
    batch of one and its fallback past a budget."""
    packed = int.from_bytes(row, "little")
    adj = [packed >> (LANE * c) & 0xFFFF for c in range(n + 1)]
    full, bit, shift, not_bit, clear, repeat, between, lanes, letters = _tables(n)
    nonedge = [full & ~adj[c] & ~bit[c] for c in range(n + 1)]
    target = 0
    for c in range(1, n + 1):
        target |= nonedge[c] << shift[c]
    last_copy = max_copies - 1  # counts[c] before c's last copy
    skip_132 = -1 if forbid_132 else 0
    limit = node_budget or -1  # nodes never reaches -1

    counts = [0] * (n + 1)
    prefix: list[int] = []
    witnesses: list[tuple[int, ...]] = []
    nodes = 0
    tested = 0
    exceeded = False

    def rec(forbidden: int, cur_min: int, exhausted: int, deficient: int,
            ss: int, na: int) -> bool:
        nonlocal nodes, tested, exceeded
        between_min = between[cur_min]
        for c in letters[full & ~(exhausted | forbidden & skip_132)]:
            k = counts[c]
            sh = shift[c]
            bad = not_bit[c] & ~(ss >> sh) if k else 0
            if bad & adj[c]:
                continue
            if k == last_copy and exhausted & nonedge[c] & ~((na >> sh) | bad):
                continue
            if nodes == limit:
                exceeded = True
                return True
            nodes += 1
            ch_na = na | (bad << sh) | (lanes[bad] << c) if bad else na

            counts[c] = k + 1
            prefix.append(c)
            ch_def = deficient - 1 if k + 1 == min_copies else deficient
            if ch_def == 0:
                tested += 1
                if ch_na == target:
                    witnesses.append(tuple(prefix))
                    if not find_all:
                        return True
            if rec(
                forbidden | between_min[c],
                c if c < cur_min else cur_min,
                exhausted | bit[c] if k == last_copy else exhausted,
                ch_def,
                (ss & clear[c]) | repeat[c],
                ch_na,
            ):
                return True
            counts[c] = k
            prefix.pop()
        return False

    rec(0, n + 1, 0, n, 0, 0)
    rec = None  # rec refers to itself: break the cycle, so the tables go now
    return witnesses, nodes, tested, exceeded


def batch_shape(n, keys, min_copies, max_copies, node_budgets, group_sizes):
    """A run_batch call's keys, budgets and group sizes as lists, after the
    checks before its entries', on both kernels: the types, the group sizes
    and one budget per group (see rep132.kernels)."""
    _index(n)
    if isinstance(keys, (bytes, bytearray, memoryview)):
        raise TypeError(f"keys must be ints, not {type(keys).__name__}")
    keys = list(keys)
    _index(min_copies)
    _index(max_copies)
    count = len(keys)
    if group_sizes is None:
        sizes = [1] * count
    else:
        sizes = [_index(size) for size in group_sizes]
        if min(sizes, default=1) < 1 or sum(sizes) != count:
            raise ValueError(f"need group sizes of at least 1 that add up to {count} graphs")
    node_budgets = list(node_budgets)
    if len(node_budgets) != len(sizes):
        raise ValueError(f"need one node budget per group: {len(sizes)} groups, "
                         f"{len(node_budgets)} budgets")
    return keys, node_budgets, sizes


def driver(backend):
    """The run_batch and run_search over backend's two traversals, which are
    looked up on backend at each call. This module's own are the pair over
    its traversals, and the compiled module's init sets the pair over its.
    """

    def run_search(
        n: int,
        adj: Sequence[int],
        min_copies: int,
        max_copies: int,
        forbid_132: bool,
        find_all: bool,
        node_budget: Optional[int] = None,
    ) -> tuple[list[tuple[int, ...]], int, int, bool]:
        """(witnesses, nodes, words_tested, budget_exceeded) of the graph of
        adj's masks: run_batch over their one key (see masks_key)."""
        key = masks_key(n, adj, min_copies, max_copies, node_budget)
        return run_batch(n, [key], min_copies, max_copies, forbid_132, find_all,
                         [node_budget])[0]

    def run_batch(
        n: int,
        keys: Sequence[int],
        min_copies: int,
        max_copies: int,
        forbid_132: bool,
        find_all: bool,
        node_budgets: Sequence[Optional[int]],
        group_sizes: Optional[Sequence[int]] = None,
    ) -> list[Optional[tuple[list[tuple[int, ...]], int, int, bool]]]:
        """run_search over the graph of each key, one node budget per group
        (see rep132.kernels): batch_shape's and check_keys' checks, the rows
        (_rows), then one backend._union_search under the smallest nonzero
        group budget, or, for a batch of one or past that budget, one
        backend._search_graph per graph under its group's budget, up to each
        group's first witness without find_all."""
        keys, node_budgets, group_sizes = batch_shape(n, keys, min_copies, max_copies,
                                                      node_budgets, group_sizes)
        if not keys:
            return []
        check_keys(n, keys, min_copies, max_copies, node_budgets, group_sizes)
        rows = _rows(n, keys)
        common = (min_copies, max_copies, forbid_132, find_all)
        if len(keys) > 1:
            node_budget = min(filter(None, node_budgets), default=None)
            out = backend._union_search(n, rows, node_budget, group_sizes, *common)
            if out is not None:
                return out
        out = []
        for budget, end in zip(node_budgets, itertools.accumulate(group_sizes)):
            for i in range(len(out), end):
                row = rows[ROW_BYTES * i:ROW_BYTES * (i + 1)]
                out.append(backend._search_graph(n, row, *common, budget))
                if out[-1][0] and not find_all:
                    break
            out += [None] * (end - len(out))  # the entries after the group's hit
        return out

    return run_batch, run_search


run_batch, run_search = driver(sys.modules[__name__])


def _union_search(
    n, rows, node_budget, group_sizes, min_copies, max_copies, forbid_132, find_all
):
    """The batch's results from one DFS over the union of the graphs'
    searches, or None if the union would pass node_budget (None or 0: no
    limit), which the driver sets to the smallest nonzero group budget.

    A prefix's state does not depend on the graph; only the edges prune,
    the exhausted prune and the leaf test do. So one DFS walks the union of
    the graphs' search trees, in the same child order, and each node
    carries the set of graphs whose own search visits it, as an int with
    bit i for entry i. A child's set is its parent's, less the graphs the
    two prunes cut there (per-pair sets of the graphs with and without the
    edge, read off the rows in bulk), less those that found their witness
    or were dropped when find_all is false; a child whose set is empty is
    no node. The leaf test looks up the packed nonalt in a dict from packed
    target to the one entry that has it: the rows are distinct, and so are
    their targets. Each graph's nodes and words tested are the number of
    union nodes and leaves whose set holds it, so each graph sees exactly
    its own search. A node is a leaf iff every letter has its min_copies,
    so the union files each node's set once, as an interior node's or as a
    leaf's; a graph's words tested are its leaf total, and its nodes its
    interior total plus its leaf total. Every TALLY_NODES nodes, and at the
    end, each list of sets is counted (collections.Counter) and the counts
    are added into bit-sliced per-graph totals (_add_tallies), so the
    tallies' memory stays bounded. Witness lists are kept only for the
    entries that hit.

    Without find_all, a hit takes its entry out of the union and drops
    every later entry of its group, hit already or not, as None. A group's
    first entry with a witness is never dropped, so it drops all the
    others after it. Taking graphs out of the union changes no other
    graph's search.
    """
    full, bit, shift, not_bit, clear, repeat, between, lanes, letters = _tables(n)
    count = len(rows) // ROW_BYTES
    everyone = (1 << count) - 1
    digits = _bit_digits()
    # with_edge[c][y] / without_edge[c][y]: the graphs that have / lack {c, y}.
    # Bit y of mask c is bit 16c + y of a row: its byte, one per graph, read
    # as binary digits, graph 0 last.
    with_edge = [[0] * (n + 1) for _ in range(n + 1)]
    without_edge = [[0] * (n + 1) for _ in range(n + 1)]
    any_edge = [0] * (n + 1)
    any_nonedge = [0] * (n + 1)
    for c in range(1, n + 1):
        for y in range(1, n + 1):
            if y == c:
                continue
            b = LANE * c + y
            graphs = int(rows[b >> 3::ROW_BYTES].translate(digits[b & 7])[::-1], 2)
            with_edge[c][y] = graphs
            without_edge[c][y] = everyone & ~graphs
            if graphs:
                any_edge[c] |= bit[y]
            if graphs != everyone:
                any_nonedge[c] |= bit[y]
    # valid: the bits a graph on 1..n may set, in masks 1..n, bits 1..n, off
    # the diagonal
    valid = sum(not_bit[c] << shift[c] for c in range(1, n + 1))
    limit = node_budget or -1  # nodes never reaches -1
    # targets[t]: the entry whose target is t, its non-neighbour masks
    # packed as nonalt is
    targets = {valid & ~int.from_bytes(rows[at:at + ROW_BYTES], "little"): i
               for i, at in enumerate(range(0, len(rows), ROW_BYTES))}
    # group_end[g]: one past the last entry of group g, in entry order
    group_end = list(itertools.accumulate(group_sizes))
    # kept_by_edge[c][mask]: the graphs with no edge from c into mask, which
    # the edges prune keeps; kept_by_nonedge[c][mask]: those with no
    # non-edge from c into mask, which the exhausted prune keeps
    kept_by_edge = [{} for _ in range(n + 1)]
    kept_by_nonedge = [{} for _ in range(n + 1)]

    def graphs_kept(cache, by_letter, mask):
        cut = 0
        for y in letters[mask]:
            cut |= by_letter[y]
        cache[mask] = kept = everyone & ~cut
        return kept

    last_copy = max_copies - 1
    skip_132 = -1 if forbid_132 else 0

    counts = [0] * (n + 1)
    prefix: list[int] = []
    witnesses: dict[int, list[tuple[int, ...]]] = {}  # entry -> its witnesses
    # the graph sets of the interior nodes and of the leaves since the last
    # fold, and the per-entry totals they fold into, bit-sliced (see
    # _add_tallies)
    inner_sets: list[int] = []
    leaf_sets: list[int] = []
    inner_planes: list[int] = []
    leaf_planes: list[int] = []
    nodes = 0

    def fold():
        for sets, planes in ((inner_sets, inner_planes), (leaf_sets, leaf_planes)):
            _add_tallies(planes, collections.Counter(sets), nodes)
            sets.clear()

    # the node count at which the next node folds the tallies or, if it is
    # limit, aborts the union
    stop = TALLY_NODES if limit < 0 or TALLY_NODES < limit else limit
    live = everyone  # graphs still searching
    drops = 0  # hits that have changed live so far
    dropped = 0  # graphs dropped by an earlier hit in their group
    aborted = False

    def rec(forbidden: int, cur_min: int, exhausted: int, deficient: int,
            ss: int, na: int, alive: int) -> bool:
        nonlocal nodes, stop, live, drops, dropped, aborted
        between_min = between[cur_min]
        seen = drops  # alive is up to date with live as of this many drops
        for c in letters[full & ~(exhausted | forbidden & skip_132)]:
            k = counts[c]
            sh = shift[c]
            bad = not_bit[c] & ~(ss >> sh) if k else 0
            sub = alive
            cut = bad & any_edge[c]
            if cut:
                cache = kept_by_edge[c]
                kept = cache.get(cut)
                sub &= graphs_kept(cache, with_edge[c], cut) if kept is None else kept
                if not sub:
                    continue
            if k == last_copy:
                cut = exhausted & any_nonedge[c] & ~((na >> sh) | bad)
                if cut:
                    cache = kept_by_nonedge[c]
                    kept = cache.get(cut)
                    sub &= graphs_kept(cache, without_edge[c], cut) if kept is None else kept
                    if not sub:
                        continue
            if nodes == stop:
                if nodes == limit:
                    aborted = True
                    return True
                fold()
                stop = nodes + TALLY_NODES
                if 0 < limit < stop:
                    stop = limit
            nodes += 1
            ch_na = na | (bad << sh) | (lanes[bad] << c) if bad else na

            counts[c] = k + 1
            prefix.append(c)
            ch_def = deficient - 1 if k + 1 == min_copies else deficient
            if ch_def:
                inner_sets.append(sub)
            else:
                leaf_sets.append(sub)
                i = targets.get(ch_na)
                if i is not None and sub >> i & 1:
                    witnesses.setdefault(i, []).append(tuple(prefix))
                    if not find_all:  # drop i and every later entry of its group
                        end = group_end[bisect.bisect_right(group_end, i)]
                        dropped |= (1 << end) - (2 << i)
                        drops += 1
                        live &= ~((1 << i) | dropped)
                        sub &= live
            if sub and rec(
                forbidden | between_min[c],
                c if c < cur_min else cur_min,
                exhausted | bit[c] if k == last_copy else exhausted,
                ch_def,
                (ss & clear[c]) | repeat[c],
                ch_na,
                sub,
            ):
                return True
            counts[c] = k
            prefix.pop()
            if drops != seen:
                seen = drops
                alive &= live
                if not alive:
                    break
        return False

    rec(0, n + 1, 0, n, 0, 0, live)
    rec = None  # as in _search_graph
    # free the search's tables before the results are built, which is when
    # a round's memory peaks
    del targets, with_edge, without_edge, kept_by_edge, kept_by_nonedge
    if aborted:
        return None
    fold()
    inner_counts = _totals(inner_planes, count)
    leaf_counts = _totals(leaf_planes, count)
    drop = format(dropped, f"0{count}b")[::-1]  # entry i's bit of dropped at i
    return [
        None if drop[i] == "1"
        else (witnesses.get(i, []), inner_counts[i] + leaf_counts[i], leaf_counts[i],
              False)
        for i in range(count)
    ]


def _add_tallies(planes: list[int], tally: dict[int, int], most: int) -> None:
    """Add each set's tally in tally to the per-index totals, then empty tally.

    The totals are bit-sliced: planes[p] is the set of indices whose total
    has bit p. Adding t to every member of a set adds the set into plane p
    for each bit p of t, whole sets at a time instead of member by member,
    each with a ripple carry into the planes above, as the compiled twin's
    tally() adds 1. most bounds every total after the addition.
    """
    planes.extend([0] * (most.bit_length() - len(planes)))
    for graphs, times in tally.items():
        p = 0
        while times:
            if times & 1:
                carry, q = graphs, p
                while carry:
                    plane = planes[q]
                    planes[q] = plane ^ carry
                    carry &= plane
                    q += 1
            times >>= 1
            p += 1
    tally.clear()


# _DIGIT_BITS[t]: a bytes.translate table taking the digit b"0" to byte 0
# and b"1" to the byte with bit t set
_DIGIT_BITS = tuple(bytes.maketrans(b"01", bytes([0, 1 << t])) for t in range(8))


def _totals(planes: list[int], count: int) -> list[int]:
    """Per index 0..count-1, its total in the bit-sliced planes.

    Read out in bulk, eight planes at a time. Plane p written out in binary
    has one digit per index, index i at column count - 1 - i. Each digit is
    translated to a byte holding bit p % 8 when the digit is 1, and the
    eight planes of one byte of the totals are ORed: that gives this byte of
    every total, one per index. It is slice-assigned into 8-byte lanes, one
    per index, in this machine's byte order, and one memoryview cast reads
    the lanes out. A total fits its lane: it is at most the union's node
    count.
    """
    lanes = bytearray(8 * count)
    for low in range(0, len(planes), 8):
        byte = 0
        for t, plane in enumerate(planes[low:low + 8]):
            digits = format(plane, f"0{count}b").encode()
            byte |= int.from_bytes(digits.translate(_DIGIT_BITS[t]), "big")
        at = low // 8 if sys.byteorder == "little" else 7 - low // 8
        lanes[at::8] = byte.to_bytes(count, "big")
    totals = memoryview(lanes).cast("Q").tolist()
    totals.reverse()  # the lanes run from index count - 1 down to index 0
    return totals
