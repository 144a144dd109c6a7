"""Selection between the compiled and pure-Python search kernels.

The package ships two interchangeable DFS kernels: rep132._kernel (compiled
extension) and rep132._kernel_py (pure-Python reference). They implement
the identical traversal — same witnesses, same node/test counts — so which
one runs is purely a speed question. There is one traversal per call, with
every prune on: run_search and run_batch take the same parameters here and
on both backends, and no option changes how they search.

The compiled kernel is preferred when it imports; set REP132_BACKEND=python
or REP132_BACKEND=c to force a choice (forcing c raises ImportError if the
extension is missing instead of falling back silently; another value raises
ValueError). The backend is chosen at the process's first run_search,
run_batch or backend_name call, not at import, so importing this module
never fails on REP132_BACKEND; the CLI calls backend_name before any
command, so a bad value fails every command alike. Both backends take
letters 1..MAX_N.

run_batch is the one call: it answers for several graphs on the same n,
entry for entry, from rows of ROW_BYTES bytes per graph (masks 0..MAX_N of
16 bits, little-endian), the layout of the scan's memo keys. run_search is
run_batch over one row, here and on both backends: it checks what a row
cannot express (see _kernel_py.pack_row), and here also that mask 0 is
empty, then returns run_batch's one entry, so the two calls cannot
disagree on an argument.

run_batch checks in the compiled kernel's order on every layer: its
argument parsing (n, the rows object and the copy counts as ints), the
rows' length, budgets and groups (_kernel_py.batch_shape), then each entry
(_kernel_py.check_row). Here it also checks that each row is a graph: mask
0 empty, no self-loop, every edge in both masks. It tests CHECK_ROWS rows
at a time, each as a bit matrix compared with its transpose, and checks
entry by entry only a batch that fails, so it raises the first faulty
entry's error. It then enters the pure-Python kernel past its own checks,
so each check runs once per call; the compiled kernel's checks cost
nothing next to a search and stay in place.

Both backends answer with one DFS over the union of the graphs' searches
(see _kernel_py.run_batch_unchecked), and search graph by graph when the
batch holds one graph or the union would pass the smallest budget. The
entries form groups of consecutive graphs: without find_all, an entry that
has not found a witness when an earlier entry of its group finds one is
dropped and returned as None. A scan decides its classes in rounds of
run_batch calls, one group per class, so a class stops searching its
later labelings at its first hit.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Optional, Sequence

from ._kernel_py import (
    MAX_DEPTH,
    MAX_N,
    ROW_BYTES,
    batch_shape,
    check_row,
    pack_row,
    row_key,
    row_masks,
)

# Rows that _batch_passes checks in one go: enough to spread the cost of the
# interpreter over many rows, few enough that its big-int temporaries stay
# at 8 KB each, where a whole batch's would grow with the batch.
CHECK_ROWS = 256


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
    """(name, run_batch) of the backend this process uses.

    Chosen at the first call; a call that raises chooses nothing, so the
    next one raises the same error.
    """
    forced = os.environ.get("REP132_BACKEND", "").strip().lower()
    if forced:
        try:
            impl, name = load_backend(forced), forced
        except (ImportError, ValueError) as e:
            raise type(e)(f"REP132_BACKEND={forced}: {e}") from e
    else:
        try:
            impl, name = load_backend("c"), "c"
        except ImportError:
            impl, name = load_backend("python"), "python"
    if name == "python":
        # kernels checks the arguments, so enter past the kernel's own checks
        return name, impl.run_batch_unchecked
    return name, impl.run_batch


def _check_graph(n: int, adj: Sequence[int]) -> None:
    if adj[0] != 0:
        raise ValueError("adjacency mask 0 must be empty")
    for v in range(1, n + 1):
        mask = adj[v]
        if mask >> v & 1:
            raise ValueError(f"adjacency mask {v} has a self-loop")
        for u in range(v + 1, n + 1):
            if (mask >> u & 1) != (adj[u] >> v & 1):
                raise ValueError(f"adjacency masks {v} and {u} disagree")


@lru_cache(maxsize=None)
def _block_masks(n: int) -> tuple[bytes, ...]:
    """Masks over one row, a 16 x 16 bit matrix with mask v in bits
    16v..16v+15, as ROW_BYTES little-endian bytes: the bits a graph on 1..n
    may set (rows and columns 1..n, off the diagonal), then the lower bits
    of the pairs that the four delta swaps of a transpose exchange, for
    j = 8, 4, 2, 1: (r, c) with bit j clear in r and set in c, whose partner
    is (r+j, c-j), 15j bits higher.
    """
    full = (1 << (n + 1)) - 2  # columns 1..n
    blocks = [sum((full & ~(1 << r)) << 16 * r for r in range(1, n + 1))]
    for j in (8, 4, 2, 1):
        high = sum(1 << c for c in range(16) if c & j)  # columns with bit j set
        blocks.append(sum(high << 16 * r for r in range(16) if not r & j))
    return tuple(bits.to_bytes(ROW_BYTES, "little") for bits in blocks)


def _batch_passes(n: int, rows: bytes, node_budgets) -> bool:
    """Whether every entry passes check_row and _check_graph, given that
    the first passes check_row: budgets None or at least 0, and rows that
    are graphs on 1..n, tested CHECK_ROWS rows at a time.
    """
    if not all(b is None or (type(b) is int and b >= 0) for b in node_budgets):
        return False
    # masks for as many rows as a chunk holds: a one-row call builds no more
    chunk = min(len(node_budgets), CHECK_ROWS) or 1
    valid, *swaps = (int.from_bytes(b * chunk, "little") for b in _block_masks(n))
    step = chunk * ROW_BYTES
    for start in range(0, len(rows), step):
        # a shorter last chunk sees only the masks' low rows
        packed = int.from_bytes(rows[start:start + step], "little")
        if packed & ~valid:
            return False
        flipped = packed
        for j, swap in zip((8, 4, 2, 1), swaps):
            t = ((flipped >> 15 * j) ^ flipped) & swap
            flipped ^= t ^ (t << 15 * j)
        if flipped != packed:
            return False
    return True


def run_search(
    n: int,
    adj: Sequence[int],
    min_copies: int,
    max_copies: int,
    forbid_132: bool,
    find_all: bool,
    node_budget: Optional[int] = None,
):
    """run_batch over the one graph of adj's masks.

    Returns (witnesses, nodes, words_tested, budget_exceeded); see
    rep132._kernel_py.run_search for the search itself.
    """
    row = pack_row(n, adj, min_copies, max_copies, node_budget)
    if adj[0] != 0:
        raise ValueError("adjacency mask 0 must be empty")
    return run_batch(n, row, min_copies, max_copies, forbid_132, find_all, [node_budget])[0]


def run_batch(
    n: int,
    rows,
    min_copies: int,
    max_copies: int,
    forbid_132: bool,
    find_all: bool,
    node_budgets: Sequence[Optional[int]],
    group_sizes: Optional[Sequence[int]] = None,
):
    """The active backend's run_batch, after checking every entry.

    rows holds ROW_BYTES bytes per graph, its masks packed 16 bits each,
    little-endian; the graphs form groups of group_sizes consecutive
    entries (default: each alone). Returns, entry for entry,
    run_search(n, masks, ..., budget); without find_all, an entry still
    searching when an earlier entry of its group finds a witness is
    dropped, and is None. Either backend answers in one DFS over the union
    of the graphs' searches; see rep132._kernel_py.run_batch_unchecked.
    """
    rows, node_budgets, group_sizes = batch_shape(n, rows, min_copies, max_copies,
                                                  node_budgets, group_sizes)
    if node_budgets:
        # n and the copy counts hold for every entry, or this raises first
        check_row(n, row_key(rows, 0), min_copies, max_copies, node_budgets[0])
    if not _batch_passes(n, rows, node_budgets):
        # find and raise the first faulty entry's error
        for i, budget in enumerate(node_budgets):
            key = row_key(rows, i)
            check_row(n, key, min_copies, max_copies, budget)
            _check_graph(n, row_masks(key, n))
    return _backend()[1](
        n, rows, min_copies, max_copies, forbid_132, find_all, node_budgets,
        group_sizes,
    )


def backend_name() -> str:
    """Which kernel this process is using: 'c' or 'python'; the first call
    chooses it, if no kernel call has."""
    return _backend()[0]
