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
    return witnesses, nodes, tested, exceeded
