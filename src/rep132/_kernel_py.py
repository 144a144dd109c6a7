"""Pure-Python DFS kernel for word searches.

This is the reference implementation; rep132._kernel (_kernel.c) is a
compiled twin with the same traversal order and statistics, byte for byte.
Any change to the traversal here must be mirrored there (tests compare the
two call by call), and so must pack_row, batch_shape and check_row, whose
checks the twin makes in the same order and with the same messages.

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

run_batch answers for several graphs on the same letters in one DFS over
the union of their search trees (run_batch_unchecked); run_search is
run_batch over one graph. The graphs come as packed rows, ROW_BYTES bytes
each: mask v in bits 16v..16v+15 of the row read as a little-endian int,
the lanes of target above with edges in place of non-edges. They form
groups of consecutive entries; without find_all, a hit drops the later
entries of its group that have not found a witness, and those come back
as None. The compiled twin's run_batch walks the same union with the same
child order, prunes, budget rule, drops and per-graph fallback, and gives
the same results.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import operator
from functools import lru_cache
from typing import Optional, Sequence

MAX_N = 15
MAX_DEPTH = 64  # longest word, n * max_copies: the compiled twin's prefix array
LANE = 16  # bits per letter in the packed seen_since and nonalt; MAX_N < LANE
ROW_BYTES = 2 * (MAX_N + 1)  # a run_batch row: masks 0..MAX_N, one lane each
# Union nodes between two folds of a union search's tallies into the
# per-graph totals: each node's graph set, an int of one bit per graph of
# the batch, is held until the next fold, so this bounds the tallies'
# memory (at 1,024 an order-6 scan peaks past a megabyte).
TALLY_NODES = 256


def pack_row(n, adj, min_copies, max_copies, node_budget) -> bytes:
    """run_search's masks as one run_batch row, after the checks that a row
    cannot express, in the compiled twin's order and with its messages: n
    and the copy counts, the budget, n + 1 masks, and int masks with bits in
    1..n. Mask 0 stays empty, since no search reads it.
    """
    _check_search(n, min_copies, max_copies, node_budget)
    if len(adj) != n + 1:
        raise ValueError(f"need n + 1 = {n + 1} adjacency masks, got {len(adj)}")
    full = (1 << (n + 1)) - 2  # bits 1..n
    key = 0
    for v in range(1, n + 1):
        mask = operator.index(adj[v])
        if mask & ~full:
            raise ValueError(f"adjacency mask {v} has bits outside 1..{n}")
        key |= mask << (LANE * v)
    return key.to_bytes(ROW_BYTES, "little")


def check_row(n, key, min_copies, max_copies, node_budget) -> None:
    """The checks of one run_batch entry, its row read as the int key.

    Mask v sits in bits 16v..16v+15 of key. Masks 1..n must hold no bits
    outside 1..n, and masks n+1..MAX_N must be empty.
    """
    _check_search(n, min_copies, max_copies, node_budget)
    full = (1 << (n + 1)) - 2
    for v in range(1, MAX_N + 1):
        mask = key >> (LANE * v) & 0xFFFF
        if v <= n and mask & ~full:
            raise ValueError(f"adjacency mask {v} has bits outside 1..{n}")
        if v > n and mask:
            raise ValueError(f"adjacency mask {v} is past n = {n}")


def _check_search(n, min_copies, max_copies, node_budget) -> None:
    # TypeError for a non-int, as the compiled twin's argument parsing gives
    n, min_copies, max_copies = map(operator.index, (n, min_copies, max_copies))
    if not (1 <= n <= MAX_N):
        raise ValueError(f"n must be in 1..{MAX_N}")
    if not (1 <= min_copies <= max_copies):
        raise ValueError("need 1 <= min_copies <= max_copies")
    if n * max_copies > MAX_DEPTH:
        raise ValueError(f"n * max_copies must be at most {MAX_DEPTH}")
    if node_budget is not None and operator.index(node_budget) < 0:
        raise ValueError("node_budget must not be negative")


def row_key(rows: bytes, i: int) -> int:
    """Row i of a run_batch's rows, read as one int: mask v in bits 16v..16v+15."""
    return int.from_bytes(rows[ROW_BYTES * i:ROW_BYTES * (i + 1)], "little")


def row_masks(key: int, n: int) -> tuple[int, ...]:
    """The adjacency masks 0..n of the row read as the int key."""
    return tuple(key >> (LANE * v) & 0xFFFF for v in range(n + 1))


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


def run_search(
    n: int,
    adj: Sequence[int],
    min_copies: int,
    max_copies: int,
    forbid_132: bool,
    find_all: bool,
    node_budget: Optional[int] = None,
) -> tuple[list[tuple[int, ...]], int, int, bool]:
    """Returns (witnesses, nodes, words_tested, budget_exceeded).

    Witnesses appear in DFS order, which is lexicographic with prefixes
    first, so the head of the list is the lexicographically least witness.
    With find_all false the search stops at the first witness. A
    node_budget of None or 0 means unlimited.

    This is run_batch over the one row of adj's masks (see pack_row).
    """
    row = pack_row(n, adj, min_copies, max_copies, node_budget)
    return run_batch(n, row, min_copies, max_copies, forbid_132, find_all, [node_budget])[0]


def _search_graph(n, adj, min_copies, max_copies, forbid_132, find_all, node_budget):
    """One graph's search, from its checked masks: run_batch_unchecked's
    path for a batch of one and its fallback past a budget."""
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


def run_batch(
    n: int,
    rows,
    min_copies: int,
    max_copies: int,
    forbid_132: bool,
    find_all: bool,
    node_budgets: Sequence[Optional[int]],
    group_sizes: Optional[Sequence[int]] = None,
) -> list[Optional[tuple[list[tuple[int, ...]], int, int, bool]]]:
    """run_search over several graphs on {1..n}, entry for entry.

    rows is a bytes-like object of ROW_BYTES bytes per graph: its masks
    0..MAX_N, 16 bits each, little-endian (masks n+1..MAX_N empty). The
    graphs form groups of group_sizes consecutive entries (default: each
    entry alone). Entry i is run_search(n, masks of row i, ..., budget i),
    with the same checks on every entry, except that without find_all an
    entry that has not found a witness when an earlier entry of its group
    finds one is dropped, and is None. See run_batch_unchecked for how one
    DFS serves them all. The checks are batch_shape's, then each entry's.
    """
    rows, node_budgets, group_sizes = batch_shape(n, rows, min_copies, max_copies,
                                                  node_budgets, group_sizes)
    for i, budget in enumerate(node_budgets):
        check_row(n, row_key(rows, i), min_copies, max_copies, budget)
    return run_batch_unchecked(
        n, rows, min_copies, max_copies, forbid_132, find_all, node_budgets,
        group_sizes,
    )


def batch_shape(n, rows, min_copies, max_copies, node_budgets, group_sizes):
    """A run_batch call's rows as bytes, its budgets and its group sizes as
    lists, after the checks that come before its entries', in the compiled
    twin's order (its argument parsing): n, the rows object and the copy
    counts, each of the right type (TypeError); then the rows' length, one
    budget per row, and the group sizes.
    """
    operator.index(n)
    if not isinstance(rows, bytes):
        rows = memoryview(rows).cast("B").tobytes()
    operator.index(min_copies)
    operator.index(max_copies)
    if len(rows) % ROW_BYTES:
        raise ValueError(f"need {ROW_BYTES} bytes per graph, got {len(rows)} bytes")
    count = len(rows) // ROW_BYTES
    node_budgets = list(node_budgets)
    if len(node_budgets) != count:
        raise ValueError(f"need one node budget per graph: {count} graphs, "
                         f"{len(node_budgets)} budgets")
    if group_sizes is None:
        return rows, node_budgets, [1] * count
    sizes = [operator.index(size) for size in group_sizes]
    if min(sizes, default=1) < 1 or sum(sizes) != count:
        raise ValueError(f"need group sizes of at least 1 that add up to {count} graphs")
    return rows, node_budgets, sizes


def run_batch_unchecked(
    n: int,
    rows: bytes,
    min_copies: int,
    max_copies: int,
    forbid_132: bool,
    find_all: bool,
    node_budgets: Sequence[Optional[int]],
    group_sizes: Sequence[int],
) -> list[Optional[tuple[list[tuple[int, ...]], int, int, bool]]]:
    """run_batch for arguments that already passed batch_shape and check_row.

    A prefix's state does not depend on the graph; only the edges prune,
    the exhausted prune and the leaf test do. So one DFS walks the union of
    the graphs' search trees, in the same child order, and each node
    carries the set of graphs whose own search visits it, as an int with
    bit i for entry i. A child's set is its parent's, less the graphs the
    two prunes cut there (per-pair sets of the graphs with and without the
    edge, read off the rows in bulk), less those that found their witness
    or were dropped when find_all is false; a child whose set is empty is
    no node. The leaf test looks up the packed nonalt in a dict from packed
    target to the first entry that has it, and to the set of all entries
    that have it for a target that several share. Each graph's nodes and
    words tested are the number of union nodes and leaves whose set holds
    it, so each graph sees exactly its own search. A node is a leaf iff
    every letter has its min_copies, so the union files each node's set
    once, as an interior node's or as a leaf's; a graph's words tested are
    its leaf total, and its nodes its interior total plus its leaf total.
    Every TALLY_NODES nodes, and at the end, each list of sets is counted
    (collections.Counter) and the counts are added into bit-sliced
    per-graph totals (_add_tallies), so the tallies' memory stays bounded.
    Witness lists are kept only for the entries that hit.

    Without find_all, the graphs of one group drop out together: when
    entries hit at a leaf, every later entry of a hit's group that has not
    found a witness leaves the union, and its result is None. Entries that
    hit at that same leaf keep theirs. Taking graphs out of the union
    changes no other graph's search.

    Budgets: a graph's search stays under its budget while the union's
    node count does. When the union would pass the smallest budget, the
    batch is searched again one graph at a time, each with its own budget,
    and no entry is dropped.
    """
    common = (min_copies, max_copies, forbid_132, find_all)
    if len(node_budgets) > 1:
        limit = min((b for b in node_budgets if b), default=-1)
        out = _union_search(n, rows, group_sizes, *common, limit)
        if out is not None:
            return out
    return [
        _search_graph(n, row_masks(row_key(rows, i), n), *common, budget)
        for i, budget in enumerate(node_budgets)
    ]


@lru_cache(maxsize=None)
def _bit_digits() -> tuple[bytes, ...]:
    """digits[t]: a bytes.translate table taking each byte to b"1" if its bit
    t is set, else b"0"."""
    return tuple(bytes(b"01"[b >> t & 1] for b in range(256)) for t in range(8))


def _union_search(
    n, rows, group_sizes, min_copies, max_copies, forbid_132, find_all, limit
):
    """The batch's results from one DFS, or None if the union would pass limit."""
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
    # a row's target: its non-neighbour masks, packed as nonalt is.
    # targets[t]: the first entry whose target is t; twins[t]: the set of
    # all entries with target t, for the targets that more than one has.
    valid = sum(not_bit[c] << shift[c] for c in range(1, n + 1))
    targets: dict[int, int] = {}
    twins: dict[int, int] = {}
    for i in range(count):
        target = valid & ~row_key(rows, i)
        first = targets.setdefault(target, i)
        if first != i:
            twins[target] = twins.get(target, 1 << first) | 1 << i
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
                hit = 0
                first = targets.get(ch_na)
                if first is not None:
                    hit = sub & (twins[ch_na] if ch_na in twins else 1 << first)
                if hit:
                    word = tuple(prefix)
                    for i in _members(hit):
                        witnesses.setdefault(i, []).append(word)
                    if not find_all:
                        drops += 1
                        live &= ~hit
                        # drop the entries after each hit in its group
                        for i in _members(hit):
                            end = group_end[bisect.bisect_right(group_end, i)]
                            dropped |= live & ((1 << end) - (2 << i))
                        live &= ~dropped
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
    del targets, twins, with_edge, without_edge, kept_by_edge, kept_by_nonedge
    if aborted:
        return None
    fold()
    inner_counts = _totals(inner_planes, count)
    leaf_counts = _totals(leaf_planes, count)
    return [
        None if dropped >> i & 1
        else (witnesses.get(i, []), inner_counts[i] + leaf_counts[i], leaf_counts[i],
              False)
        for i in range(count)
    ]


def _members(graphs: int):
    """The indices of a graph set's bits, ascending."""
    while graphs:
        low = graphs & -graphs
        yield low.bit_length() - 1
        graphs ^= low


def _add_tallies(planes: list[int], tally: dict[int, int], most: int) -> None:
    """Add each set's tally in tally to the per-index totals, then empty tally.

    The totals are bit-sliced: planes[p] is the set of indices whose total
    has bit p. Adding t to every member of a set puts the set among plane
    p's addends for each bit p of t, whole sets at a time instead of member
    by member. Each plane's addends are then summed carry-save: a running
    sum takes them two at a time through a full adder, whose carry joins
    the next plane's addends. most bounds every total after the addition.
    """
    planes.extend([0] * (most.bit_length() - len(planes)))
    addends = [[plane] for plane in planes]
    for graphs, times in tally.items():
        for p in range(times.bit_length()):
            if times >> p & 1:
                addends[p].append(graphs)
    for p, column in enumerate(addends):
        if not len(column) & 1:
            column.append(0)  # the addends after the first go in pairs
        pairs = iter(column)
        total = next(pairs)
        for a, b in zip(pairs, pairs):
            half = total ^ a
            carry = (total & a) | (half & b)
            if carry:
                addends[p + 1].append(carry)
            total = half ^ b
        planes[p] = total
    tally.clear()


def _totals(planes: list[int], count: int) -> list[int]:
    """Per index 0..count-1, its total in the bit-sliced planes."""
    if not planes:
        return [0] * count
    # index i's total in binary is bit i of each plane, the top plane first;
    # a plane written out in binary has index i at column count - 1 - i
    columns = zip(*[format(plane, f"0{count}b") for plane in reversed(planes)])
    return [int("".join(bits), 2) for bits in columns][::-1]
