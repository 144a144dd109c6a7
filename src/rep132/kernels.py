"""Selection between the compiled and pure-Python search kernels.

The package ships two interchangeable DFS kernels: rep132._kernel (compiled
extension) and rep132._kernel_py (pure-Python reference). They implement
the identical traversal — same witnesses, same node/test counts — so which
one runs is purely a speed question. The compiled one is preferred when it
imported successfully; set REP132_BACKEND=python or REP132_BACKEND=c to
force a choice (forcing c raises if the extension is missing instead of
falling back silently).

Argument checks are split by what relies on them. Each backend checks, by
itself and with the same messages, what its own memory relies on: n in
1..MAX_N, 1 <= min_copies <= max_copies, a word of at most MAX_DEPTH
letters (n * max_copies), a node budget that is None or at least 0, and
n + 1 masks with bits in 1..n (see _kernel_py.check_arguments). run_search
here checks that contract in front of either backend and adds what makes
the masks a graph: mask 0 empty, no self-loop, every edge in both masks.
It then enters the pure-Python kernel past its own checks, so each check
runs once per call; the compiled kernel's checks cost nothing next to a
search and stay in place.

run_batch is the contract's second call: run_search over several graphs on
the same n, entry for entry, with the same checks and messages for every
entry. Both backends answer it with one DFS over the union of the graphs'
searches, which share every prefix up to the first prune or leaf that
tells them apart (see _kernel_py.run_batch_unchecked), and search graph by
graph only when the union would pass the smallest budget. A scan decides
its classes in rounds of run_batch calls, over the graphs each class's
walk needs and the ones it is likely to need next.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from ._kernel_py import MAX_DEPTH, batch_lists, check_arguments


def load_backend(name: str):
    """Return the kernel module for an explicit backend name."""
    if name == "python":
        from . import _kernel_py

        return _kernel_py
    if name == "c":
        from . import _kernel  # type: ignore[attr-defined]

        return _kernel
    raise ValueError(f"unknown backend {name!r} (expected 'c' or 'python')")


def _select():
    forced = os.environ.get("REP132_BACKEND", "").strip().lower()
    if forced:
        return load_backend(forced), forced
    try:
        return load_backend("c"), "c"
    except ImportError:
        return load_backend("python"), "python"


_impl, BACKEND = _select()
if BACKEND == "python":
    _search, _batch = _impl.run_search_unchecked, _impl.run_batch_unchecked
else:
    _search, _batch = _impl.run_search, _impl.run_batch

MAX_N = _impl.MAX_N


def _check_arguments(
    n: int,
    adj: Sequence[int],
    min_copies: int,
    max_copies: int,
    node_budget: Optional[int],
) -> None:
    check_arguments(n, adj, min_copies, max_copies, node_budget)
    if adj[0] != 0:
        raise ValueError("adjacency mask 0 must be empty")
    for v in range(1, n + 1):
        mask = adj[v]
        if mask >> v & 1:
            raise ValueError(f"adjacency mask {v} has a self-loop")
        for u in range(v + 1, n + 1):
            if (mask >> u & 1) != (adj[u] >> v & 1):
                raise ValueError(f"adjacency masks {v} and {u} disagree")


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
):
    """The active backend's run_search, after checking the arguments.

    Returns (witnesses, nodes, words_tested, budget_exceeded); see
    rep132._kernel_py.run_search for the search itself.
    """
    _check_arguments(n, adj, min_copies, max_copies, node_budget)
    return _search(
        n, adj, min_copies, max_copies, forbid_132, find_all, node_budget,
        prune_pattern, prune_edges, prune_exhausted,
    )


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
):
    """run_search over several graphs on {1..n}, after checking every entry.

    Returns [run_search(n, adj, ..., budget) for adj, budget in
    zip(masks_list, node_budgets)], entry for entry. Either backend answers
    in one DFS over the union of the graphs' searches; see
    rep132._kernel_py.run_batch_unchecked.
    """
    masks_list, node_budgets = batch_lists(masks_list, node_budgets)
    for adj, budget in zip(masks_list, node_budgets):
        _check_arguments(n, adj, min_copies, max_copies, budget)
    return _batch(
        n, masks_list, min_copies, max_copies, forbid_132, find_all, node_budgets,
        prune_pattern, prune_edges, prune_exhausted,
    )


def backend_name() -> str:
    """Which kernel this process is using: 'c' or 'python'."""
    return BACKEND
