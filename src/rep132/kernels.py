"""Selection between the compiled and pure-Python search kernels, and the
one kernel contract that both honour.

The package ships two interchangeable DFS kernels: rep132._kernel
(_kernel.c, compiled) and rep132._kernel_py (the pure-Python reference).
They implement the identical traversal, with the same witnesses and counts,
so which one runs is purely a speed question, and this module only picks
one: run_search and run_batch here are the chosen kernel's. The compiled
kernel is preferred when it imports; REP132_BACKEND=python or c forces a
choice (forcing c raises ImportError if the extension is missing instead
of falling back silently; another value raises ValueError). The backend is
chosen at the process's first run_search, run_batch or backend_name call,
not at import; the CLI calls backend_name before any command, so a bad
value fails every command alike.

run_batch(n, keys, min_copies, max_copies, forbid_132, find_all,
node_budgets, group_sizes=None) searches the words over letters 1..n (n
in 1..MAX_N), each used min_copies..max_copies times, at most MAX_DEPTH
letters, 132-avoiding if forbid_132, that represent the graphs of keys:
- a key is a graph's edge bitset (graphs.edge_bitset), an int in
  0 .. 2 ** C(n, 2) - 1 with bit C(n, 2) - 1 - i for the i-th vertex pair
  of itertools.combinations order, so every such int is a graph. A batch's
  keys are distinct, so each graph is one entry;
- the entries form groups of group_sizes consecutive entries (None: each
  entry alone), and node_budgets holds a node budget for each group, None
  or 0 for no limit.
Entry i is (witnesses, nodes, words_tested, budget_exceeded), the search
of key i's graph under its group's budget, its witnesses in DFS order,
lexicographic with prefixes first: all of them with find_all, else the
first. Without find_all, the entries of a group after its first entry with
a witness are dropped, and are None. So a batch has one answer, which
depends only on the per-graph searches. Every search has its three prunes
on (a 132, a repeat on an edge pair, a spent non-edge pair that still
alternates); no entry point can turn one off. run_search(n, adj,
min_copies, max_copies, forbid_132, find_all, node_budget=None) takes one
graph's adjacency masks (bit u of adj[v] for an edge {u, v}), which can
spell a non-graph, so it checks them and returns run_batch over their key
with [node_budget], entry 0.

A prefix's state does not depend on the graph, so a batch of two or more
graphs is searched in one DFS over the union of their searches, under the
smallest nonzero group budget, which keeps each graph's search within its
own. A hit takes its graph out of the union and drops the later graphs of
its group. A batch of one, or a union that would pass that budget, is
searched graph by graph, each under its group's budget, up to each group's
first witness without find_all.

The checks, in this order on every layer, the first fault's error raised:
types (n an int, keys iterable but not bytes-like, the copy counts ints:
TypeError); the group sizes, ints of at least 1 that add up to the number
of keys, and then one budget per group; for a nonempty batch, n in
1..MAX_N, min_copies from 1 up to max_copies, and n * max_copies at most
MAX_DEPTH; group by group, its budget (None or an int of at least 0) and
then its keys (an int, not a bool: TypeError; in range); last, that no key
repeats. A bool is refused with one TypeError wherever an int count is
taken. run_search checks n, the copy counts and its budget, then its
masks: n + 1 int masks, masks 1..n with bits in 1..n, mask 0 empty, no
self-loop, and no edge in one of its two masks only. All of this is
written once, in _kernel_py.driver, which each kernel binds over its two
traversals. search._decide_classes calls run_batch in rounds, one group
per class under the class's remaining budget.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Optional, Sequence

from ._kernel_py import MAX_DEPTH, MAX_N


def load_backend(name: str):
    """Return the kernel module for an explicit backend name."""
    if name == "python":
        from . import _kernel_py

        return _kernel_py
    if name == "c":
        try:
            from . import _kernel  # type: ignore[attr-defined]
        except ImportError as e:
            raise ImportError(
                f"cannot load the compiled kernel rep132._kernel ({e}); build it "
                "with `python setup.py build_ext --inplace`"
            ) from e
        return _kernel
    raise ValueError(f"unknown backend {name!r} (expected 'c' or 'python')")


@lru_cache(maxsize=None)
def _backend():
    """The kernel module this process uses.

    Chosen at the first call; a call that raises chooses nothing, so the
    next one raises the same error.
    """
    forced = os.environ.get("REP132_BACKEND", "").strip().lower()
    if forced:
        try:
            return load_backend(forced)
        except (ImportError, ValueError) as e:
            raise type(e)(f"REP132_BACKEND={forced}: {e}") from e
    try:
        return load_backend("c")
    except ImportError:
        return load_backend("python")


def run_search(
    n: int,
    adj: Sequence[int],
    min_copies: int,
    max_copies: int,
    forbid_132: bool,
    find_all: bool,
    node_budget: Optional[int] = None,
):
    """The active backend's run_search: run_batch over the one graph of
    adj's masks. Returns (witnesses, nodes, words_tested, budget_exceeded).
    """
    return _backend().run_search(n, adj, min_copies, max_copies, forbid_132,
                                 find_all, node_budget)


def run_batch(
    n: int,
    keys: Sequence[int],
    min_copies: int,
    max_copies: int,
    forbid_132: bool,
    find_all: bool,
    node_budgets: Sequence[Optional[int]],
    group_sizes: Optional[Sequence[int]] = None,
):
    """The active backend's run_batch: run_search over the graph of each
    key, the keys distinct, in groups of group_sizes consecutive entries
    (default: each alone), under a node budget for each group. Without
    find_all, the entries of a group after its first entry with a witness
    are dropped, and are None.
    """
    return _backend().run_batch(n, keys, min_copies, max_copies, forbid_132,
                                find_all, node_budgets, group_sizes)


def backend_name() -> str:
    """Which kernel this process is using: 'c' or 'python'; the first call
    chooses it, if no kernel call has."""
    return "python" if _backend() is load_backend("python") else "c"
