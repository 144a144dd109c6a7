"""Pure-Python DFS kernel for word searches.

This is the reference implementation; rep132._kernel (_kernel.c) is a
compiled twin with the same traversal order and statistics, byte for byte.
Any change here must be mirrored there (tests enforce equivalence), and so
must check_arguments, whose checks the twin makes with the same messages.

The search walks words over {1..n}, each letter used min_copies..max_copies
times, children in ascending letter order. A node is a successfully
appended letter. State per prefix:

  counts[c]      copies of c used so far
  seen_since[c]  mask of letters occurring strictly after c's last copy
  nonalt[c]      mask of letters y whose pair {c,y} already shows a repeat
                 in the 2-letter projection (the pair can never alternate)
  forbidden      mask of letters that would complete a 132 if appended
                 (union of open intervals (prefix-min-before-b, b))
  cur_min        minimum letter so far (0 for the empty prefix)

Appending c puts a repeat on exactly the pairs {c,y} whose last projection
letter was c, i.e. every y (occurred or not) outside seen_since[c] — when c
has occurred at all. A finished word represents the graph iff nonalt[c]
equals the non-neighbor mask of c for every c.

Optional prunes (each sound: disabling changes statistics, never verdicts):
  prune_pattern   skip c when it would complete a 132 (only if forbid_132)
  prune_edges     skip c when it puts a repeat on an edge pair
  prune_exhausted skip c when, c's copies now spent, some non-edge pair
                  {c,y} with y also spent still alternates — unfixable
"""

from __future__ import annotations

from typing import Optional, Sequence

MAX_N = 15
MAX_DEPTH = 64  # longest word, n * max_copies: the compiled twin's prefix array


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
    full = (1 << (n + 1)) - 2  # bits 1..n
    nonedge = [0] * (n + 1)
    for c in range(1, n + 1):
        nonedge[c] = full & ~adj[c] & ~(1 << c)
    budget = node_budget if node_budget is not None else 0

    counts = [0] * (n + 1)
    seen_since = [0] * (n + 1)
    nonalt = [0] * (n + 1)
    prefix: list[int] = []
    witnesses: list[tuple[int, ...]] = []
    nodes = 0
    tested = 0
    exceeded = False

    def rec(forbidden: int, cur_min: int, has132: bool, exhausted: int, deficient: int) -> bool:
        nonlocal nodes, tested, exceeded
        for c in range(1, n + 1):
            if counts[c] == max_copies:
                continue
            bitc = 1 << c
            creates132 = bool(forbidden & bitc)
            if prune_pattern and forbid_132 and creates132:
                continue
            bad = full & ~bitc & ~seen_since[c] if counts[c] else 0
            if prune_edges and bad & adj[c]:
                continue
            if (
                prune_exhausted
                and counts[c] + 1 == max_copies
                and exhausted & nonedge[c] & ~(nonalt[c] | bad)
            ):
                continue
            if budget and nodes >= budget:
                exceeded = True
                return True
            nodes += 1

            counts[c] += 1
            prefix.append(c)
            old_ss = seen_since.copy()
            seen_since[c] = 0
            for y in range(1, n + 1):
                if y != c:
                    seen_since[y] |= bitc
            old_na = None
            if bad:
                old_na = nonalt.copy()
                nonalt[c] |= bad
                t = bad
                while t:
                    low = t & -t
                    t ^= low
                    nonalt[low.bit_length() - 1] |= bitc

            ch_has132 = has132 or creates132
            ch_forb = forbidden
            if 0 < cur_min < c:
                ch_forb |= ((1 << c) - 1) & ~((1 << (cur_min + 1)) - 1)
            ch_min = c if (cur_min == 0 or c < cur_min) else cur_min
            ch_exh = exhausted | (bitc if counts[c] == max_copies else 0)
            ch_def = deficient - 1 if counts[c] == min_copies else deficient

            stop = False
            if ch_def == 0:
                tested += 1
                ok = not (forbid_132 and ch_has132)
                if ok:
                    for x in range(1, n + 1):
                        if nonalt[x] != nonedge[x]:
                            ok = False
                            break
                if ok:
                    witnesses.append(tuple(prefix))
                    if not find_all:
                        stop = True
            if not stop:
                stop = rec(ch_forb, ch_min, ch_has132, ch_exh, ch_def)

            counts[c] -= 1
            prefix.pop()
            seen_since[:] = old_ss
            if old_na is not None:
                nonalt[:] = old_na
            if stop:
                return True
        return False

    rec(0, 0, False, 0, n)
    return witnesses, nodes, tested, exceeded
