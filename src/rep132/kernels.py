"""Selection between the compiled and pure-Python search kernels.

The package ships two interchangeable DFS kernels: rep132._kernel (compiled
extension) and rep132._kernel_py (pure-Python reference). They implement
the identical traversal — same witnesses, same node/test counts — and
honour one contract: the same parameters, and the same checks in the same
order with the same errors (see _kernel_py.driver). Each kernel holds just
two traversals, one search per graph and one over a batch's union; their
run_batch and run_search are one pair of functions, _kernel_py.driver's,
bound to each kernel's traversals, so every check, the fallback past a
budget and the first-witness cut are written once. So which one runs is
purely a speed question, and this module only picks one: run_search and
run_batch here are the chosen kernel's.

The compiled kernel is preferred when it imports; set REP132_BACKEND=python
or REP132_BACKEND=c to force a choice (forcing c raises ImportError if the
extension is missing instead of falling back silently; another value raises
ValueError). The backend is chosen at the process's first run_search,
run_batch or backend_name call, not at import, so importing this module
never fails on REP132_BACKEND; the CLI calls backend_name before any
command, so a bad value fails every command alike. Both backends take
letters 1..MAX_N.

run_batch is the one call: it answers for several graphs on the same n,
entry for entry, each given by its key, its edge bitset
(graphs.edge_bitset: an int in 0 .. 2 ** C(n, 2) - 1, bit C(n, 2) - 1 - i
for the i-th vertex pair of itertools.combinations order), in one DFS over
the union of their searches. Every such key is a graph. The entries form
groups of consecutive graphs: without find_all, the entries of a group
after its first entry with a witness are dropped and returned as None, on
every path of both kernels. A scan decides its classes in rounds of
run_batch calls, one group per class, so a class stops searching its later
labelings at its first hit. run_search is run_batch over the key of one
graph's adjacency masks, which it checks are a graph.
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
    key, in groups of group_sizes consecutive entries (default: each
    alone). Without find_all, the entries of a group after its first entry
    with a witness are dropped, and are None.
    """
    return _backend().run_batch(n, keys, min_copies, max_copies, forbid_132,
                                find_all, node_budgets, group_sizes)


def backend_name() -> str:
    """Which kernel this process is using: 'c' or 'python'; the first call
    chooses it, if no kernel call has."""
    return "python" if _backend() is load_backend("python") else "c"
