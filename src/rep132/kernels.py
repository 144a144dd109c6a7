"""Selection between the compiled and pure-Python search kernels.

The package ships two interchangeable DFS kernels: rep132._kernel (compiled
extension) and rep132._kernel_py (pure-Python reference). They implement
the identical traversal — same witnesses, same node/test counts — so which
one runs is purely a speed question. The compiled one is preferred when it
imported successfully; set REP132_BACKEND=python or REP132_BACKEND=c to
force a choice (forcing c raises if the extension is missing instead of
falling back silently).

run_search checks its arguments before either backend sees them, so both
reject the same calls with the same ValueError; the compiled kernel keeps
the word in a fixed array of MAX_DEPTH letters and trusts its masks.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

MAX_DEPTH = 64


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

MAX_N = _impl.MAX_N


def _check_arguments(n: int, adj: Sequence[int], max_copies: int) -> None:
    if not (1 <= n <= MAX_N):
        raise ValueError(f"n must be in 1..{MAX_N}")
    if n * max_copies > MAX_DEPTH:
        raise ValueError(f"n * max_copies must be at most {MAX_DEPTH}")
    if len(adj) != n + 1:
        raise ValueError(f"need n + 1 = {n + 1} adjacency masks, got {len(adj)}")
    full = (1 << (n + 1)) - 2  # bits 1..n
    if adj[0] != 0:
        raise ValueError("adjacency mask 0 must be empty")
    for v in range(1, n + 1):
        mask = adj[v]
        if mask & ~full:
            raise ValueError(f"adjacency mask {v} has bits outside 1..{n}")
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
    _check_arguments(n, adj, max_copies)
    return _impl.run_search(
        n, adj, min_copies, max_copies, forbid_132, find_all, node_budget,
        prune_pattern, prune_edges, prune_exhausted,
    )


def backend_name() -> str:
    """Which kernel this process is using: 'c' or 'python'."""
    return BACKEND
