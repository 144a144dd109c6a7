"""Pure-Python DFS kernel for word searches.

This is the reference implementation; rep132._kernel (_kernel.c) is a
compiled twin with the same traversal order and statistics, byte for byte.
Any change to the traversal here must be mirrored there (tests compare the
two call by call), and so must check_arguments, whose checks the twin makes
with the same messages.

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
bit 16y set for every bit y of mask. A word containing a 132, when 132s are
forbidden but not pruned, sets bit 0 of na, in lane 0, which no letter
uses. So the leaf test is one comparison, na == target, with target the
packed non-neighbor masks and lane 0 empty.

Optional prunes (each sound: disabling changes statistics, never verdicts):
  prune_pattern   skip c when it would complete a 132 (only if forbid_132)
  prune_edges     skip c when it puts a repeat on an edge pair
  prune_exhausted skip c when, c's copies now spent, some non-edge pair
                  {c,y} with y also spent still alternates — unfixable

run_batch answers run_search for several graphs on the same letters in one
DFS over the union of their search trees (run_batch_unchecked). The
compiled twin's run_batch walks the same union with the same child order,
prunes, budget rule and per-graph fallback, and gives the same results.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

MAX_N = 15
MAX_DEPTH = 64  # longest word, n * max_copies: the compiled twin's prefix array
LANE = 16  # bits per letter in the packed seen_since and nonalt; MAX_N < LANE


def check_arguments(
    n: int,
    adj: Sequence[int],
    min_copies: int,
    max_copies: int,
    node_budget: Optional[int],
) -> None:
    """Raise ValueError for arguments the search cannot run on.

    These are the checks the compiled twin's fixed-size arrays rely on; it
    makes them by itself, in this order and with these messages.
    """
    if not (1 <= n <= MAX_N):
        raise ValueError(f"n must be in 1..{MAX_N}")
    if not (1 <= min_copies <= max_copies):
        raise ValueError("need 1 <= min_copies <= max_copies")
    if n * max_copies > MAX_DEPTH:
        raise ValueError(f"n * max_copies must be at most {MAX_DEPTH}")
    if node_budget is not None and node_budget < 0:
        raise ValueError("node_budget must not be negative")
    if len(adj) != n + 1:
        raise ValueError(f"need n + 1 = {n + 1} adjacency masks, got {len(adj)}")
    full = (1 << (n + 1)) - 2  # bits 1..n
    for v in range(1, n + 1):
        if adj[v] & ~full:
            raise ValueError(f"adjacency mask {v} has bits outside 1..{n}")


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
    prune_pattern: bool = True,
    prune_edges: bool = True,
    prune_exhausted: bool = True,
) -> tuple[list[tuple[int, ...]], int, int, bool]:
    """Returns (witnesses, nodes, words_tested, budget_exceeded).

    Witnesses appear in DFS order, which is lexicographic with prefixes
    first, so the head of the list is the lexicographically least witness.
    With find_all false the search stops at the first witness. A
    node_budget of None or 0 means unlimited.
    """
    check_arguments(n, adj, min_copies, max_copies, node_budget)
    return run_search_unchecked(
        n, adj, min_copies, max_copies, forbid_132, find_all, node_budget,
        prune_pattern, prune_edges, prune_exhausted,
    )


def run_search_unchecked(
    n: int,
    adj: Sequence[int],
    min_copies: int,
    max_copies: int,
    forbid_132: bool,
    find_all: bool,
    node_budget: Optional[int] = None,
    prune_pattern: bool = True,
    prune_edges: bool = True,
    prune_exhausted: bool = True,
) -> tuple[list[tuple[int, ...]], int, int, bool]:
    """run_search for arguments that already passed check_arguments.

    rep132.kernels.run_search makes those checks before it calls this.
    """
    full, bit, shift, not_bit, clear, repeat, between, lanes, letters = _tables(n)
    nonedge = [full & ~adj[c] & ~bit[c] for c in range(n + 1)]
    target = 0
    for c in range(1, n + 1):
        target |= nonedge[c] << shift[c]
    # A prune that is off becomes a test that never holds.
    edges = list(adj) if prune_edges else [0] * (n + 1)
    last_copy = max_copies - 1  # counts[c] before c's last copy
    exhaust_check = last_copy if prune_exhausted else -1
    skip_132 = -1 if prune_pattern and forbid_132 else 0
    poison_132 = 1 if forbid_132 else 0
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
            bitc = bit[c]
            ch_na = na
            if forbidden & bitc:
                ch_na |= poison_132
            k = counts[c]
            sh = shift[c]
            bad = not_bit[c] & ~(ss >> sh) if k else 0
            if bad & edges[c]:
                continue
            if k == exhaust_check and exhausted & nonedge[c] & ~((na >> sh) | bad):
                continue
            if nodes == limit:
                exceeded = True
                return True
            nodes += 1
            if bad:
                ch_na |= (bad << sh) | (lanes[bad] << c)

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
                exhausted | bitc if k == last_copy else exhausted,
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
    masks_list: Sequence[Sequence[int]],
    min_copies: int,
    max_copies: int,
    forbid_132: bool,
    find_all: bool,
    node_budgets: Sequence[Optional[int]],
    prune_pattern: bool = True,
    prune_edges: bool = True,
    prune_exhausted: bool = True,
) -> list[tuple[list[tuple[int, ...]], int, int, bool]]:
    """run_search over several graphs on {1..n}, entry for entry.

    The result is [run_search(n, adj, ..., budget) for adj, budget in
    zip(masks_list, node_budgets)], with the same checks on every entry;
    see run_batch_unchecked for how one DFS serves them all.
    """
    masks_list, node_budgets = batch_lists(masks_list, node_budgets)
    for adj, budget in zip(masks_list, node_budgets):
        check_arguments(n, adj, min_copies, max_copies, budget)
    return run_batch_unchecked(
        n, masks_list, min_copies, max_copies, forbid_132, find_all, node_budgets,
        prune_pattern, prune_edges, prune_exhausted,
    )


def batch_lists(masks_list, node_budgets):
    """The two sequences of a run_batch call as lists of equal length."""
    masks_list, node_budgets = list(masks_list), list(node_budgets)
    if len(masks_list) != len(node_budgets):
        raise ValueError(
            f"need one node budget per graph: {len(masks_list)} graphs, "
            f"{len(node_budgets)} budgets"
        )
    return masks_list, node_budgets


def run_batch_unchecked(
    n: int,
    masks_list: Sequence[Sequence[int]],
    min_copies: int,
    max_copies: int,
    forbid_132: bool,
    find_all: bool,
    node_budgets: Sequence[Optional[int]],
    prune_pattern: bool = True,
    prune_edges: bool = True,
    prune_exhausted: bool = True,
) -> list[tuple[list[tuple[int, ...]], int, int, bool]]:
    """run_batch for entries that already passed check_arguments.

    A prefix's state does not depend on the graph; only the edges prune,
    the exhausted prune and the leaf test do. So one DFS walks the union of
    the graphs' search trees, in the same child order, and each node
    carries the set of graphs whose own search visits it, as an int with
    bit i for entry i. A child's set is its parent's, less the graphs the
    two prunes cut there (per-letter tables of graphs by edge and by
    non-edge), less those that found their witness when find_all is false;
    a child whose set is empty is no node. The leaf test looks up the
    packed nonalt in a dict from packed target to the graphs that have it.
    Each graph's nodes and words tested are the number of union nodes and
    leaves whose set holds it, so each graph sees exactly its own search;
    the union tallies each distinct set and adds the tallies up per graph
    at the end (_per_member).

    Budgets: a graph's search stays under its budget while the union's
    node count does. When the union would pass the smallest budget, the
    batch is searched again one graph at a time, each with its own budget.
    """
    common = (min_copies, max_copies, forbid_132, find_all)
    prunes = (prune_pattern, prune_edges, prune_exhausted)
    if len(masks_list) > 1:
        limit = min((b for b in node_budgets if b), default=-1)
        out = _union_search(n, masks_list, *common, limit, *prunes)
        if out is not None:
            return out
    return [
        run_search_unchecked(n, adj, *common, budget, *prunes)
        for adj, budget in zip(masks_list, node_budgets)
    ]


def _union_search(
    n, masks_list, min_copies, max_copies, forbid_132, find_all, limit,
    prune_pattern, prune_edges, prune_exhausted,
):
    """The batch's results from one DFS, or None if the union would pass limit."""
    full, bit, shift, not_bit, clear, repeat, between, lanes, letters = _tables(n)
    count = len(masks_list)
    # with_edge[c][y] / without_edge[c][y]: the graphs that have / lack {c, y}
    with_edge = [[0] * (n + 1) for _ in range(n + 1)]
    without_edge = [[0] * (n + 1) for _ in range(n + 1)]
    any_edge = [0] * (n + 1)
    any_nonedge = [0] * (n + 1)
    targets: dict[int, int] = {}
    for i, adj in enumerate(masks_list):
        me = 1 << i
        target = 0
        for c in range(1, n + 1):
            nonedge = full & ~adj[c] & ~bit[c]
            target |= nonedge << shift[c]
            for y in letters[adj[c]]:
                with_edge[c][y] |= me
            for y in letters[nonedge]:
                without_edge[c][y] |= me
            any_edge[c] |= adj[c]
            any_nonedge[c] |= nonedge
        targets[target] = targets.get(target, 0) | me
    # A prune that is off cuts no graph.
    if not prune_edges:
        any_edge = [0] * (n + 1)
    if not prune_exhausted:
        any_nonedge = [0] * (n + 1)
    # cut_by_edge[c][mask]: the graphs with an edge from c into mask
    cut_by_edge = [{} for _ in range(n + 1)]
    cut_by_nonedge = [{} for _ in range(n + 1)]

    def graphs_cut(cache, by_letter, mask):
        out = 0
        for y in letters[mask]:
            out |= by_letter[y]
        cache[mask] = out
        return out

    last_copy = max_copies - 1
    exhaust_check = last_copy if prune_exhausted else -1
    skip_132 = -1 if prune_pattern and forbid_132 else 0
    poison_132 = 1 if forbid_132 else 0

    counts = [0] * (n + 1)
    prefix: list[int] = []
    witnesses: list[list[tuple[int, ...]]] = [[] for _ in range(count)]
    node_sets: dict[int, int] = {}  # graph set -> union nodes with that set
    leaf_sets: dict[int, int] = {}  # graph set -> words tested with that set
    nodes = 0
    live = (1 << count) - 1  # graphs still searching
    aborted = False

    def rec(forbidden: int, cur_min: int, exhausted: int, deficient: int,
            ss: int, na: int, alive: int) -> bool:
        nonlocal nodes, live, aborted
        between_min = between[cur_min]
        for c in letters[full & ~(exhausted | forbidden & skip_132)]:
            bitc = bit[c]
            ch_na = na
            if forbidden & bitc:
                ch_na |= poison_132
            k = counts[c]
            sh = shift[c]
            bad = not_bit[c] & ~(ss >> sh) if k else 0
            sub = alive
            cut = bad & any_edge[c]
            if cut:
                cache = cut_by_edge[c]
                sub &= ~(cache.get(cut) or graphs_cut(cache, with_edge[c], cut))
                if not sub:
                    continue
            if k == exhaust_check:
                cut = exhausted & any_nonedge[c] & ~((na >> sh) | bad)
                if cut:
                    cache = cut_by_nonedge[c]
                    sub &= ~(cache.get(cut) or graphs_cut(cache, without_edge[c], cut))
                    if not sub:
                        continue
            if nodes == limit:
                aborted = True
                return True
            nodes += 1
            node_sets[sub] = node_sets.get(sub, 0) + 1
            if bad:
                ch_na |= (bad << sh) | (lanes[bad] << c)

            counts[c] = k + 1
            prefix.append(c)
            ch_def = deficient - 1 if k + 1 == min_copies else deficient
            if ch_def == 0:
                leaf_sets[sub] = leaf_sets.get(sub, 0) + 1
                hit = targets.get(ch_na, 0) & sub
                if hit:
                    word = tuple(prefix)
                    for i in _members(hit):
                        witnesses[i].append(word)
                    if not find_all:
                        live &= ~hit
                        sub &= ~hit
            if sub and rec(
                forbidden | between_min[c],
                c if c < cur_min else cur_min,
                exhausted | bitc if k == last_copy else exhausted,
                ch_def,
                (ss & clear[c]) | repeat[c],
                ch_na,
                sub,
            ):
                return True
            counts[c] = k
            prefix.pop()
            alive &= live
            if not alive:
                break
        return False

    rec(0, n + 1, 0, n, 0, 0, live)
    rec = None  # as in run_search_unchecked
    if aborted:
        return None
    node_counts = _per_member(node_sets, count)
    leaf_counts = _per_member(leaf_sets, count)
    return [
        (witnesses[i], node_counts[i], leaf_counts[i], False) for i in range(count)
    ]


def _members(graphs: int):
    """The indices of a graph set's bits, ascending."""
    while graphs:
        low = graphs & -graphs
        yield low.bit_length() - 1
        graphs ^= low


def _per_member(tally: dict[int, int], count: int) -> list[int]:
    """Per index, the total of the tallies of the sets that hold it.

    The totals are bit-sliced: planes[p] is the set of indices whose total
    has bit p. Adding t to every member of a set is then one binary
    addition per bit of t, with the set as the carry, over whole sets at a
    time instead of member by member.
    """
    # no total exceeds the sum of the tallies
    planes = [0] * sum(tally.values()).bit_length()
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
    out = [0] * count
    for p, plane in enumerate(planes):
        for i in _members(plane):
            out[i] += 1 << p
    return out
