"""Brute-force decision search for 132-representability.

Why this decides the question: if a graph has any 132-avoiding
word-representant under some labeling, it has one in which every letter
occurs at most twice. For letters of degree >= 2 this bound is
machine-checked, not proven: no such letter repeats more than twice in any
of the 128,063 gapless 132-avoiding words of length <= 9 on at most 5
letters (tests/test_acceptance.py, test_08). For the other letters it is
machine-checked, not proven, through order 6: on 4, 5 and 6 vertices, words
with up to three copies of each letter leave exactly the same isomorphism
classes not representable as words with up to two (tests/test_search.py).
Reducing a word keeps avoidance and the represented graph up to consistent
relabeling. So an exhaustive search over all labelings, with per-letter
multiplicity capped at 2, decides the question through order 6; beyond
that its negatives rest on the unproven bound. max_copies is configurable
to 1 (permutation words only) or 3 (for experiments) but 2 is the decision
default.

search_fixed asks the question for the given labeling only; labels matter,
so the two operations answer genuinely different questions.

Determinism: labelings run in lexicographic order; within a labeling the
kernel visits words in lexicographic order; the node budget is a per-graph
total consumed in labeling order. Labelings that differ by an automorphism
give the same labeled graph, and the kernel is deterministic in that graph,
so the kernel runs once per distinct labeled graph and the stored result
is replayed for each repeat. Stats still count the serial walk: a repeated
graph's nodes and words count again, and every labeling walked counts as
tried. Labeled graphs searched ahead of the walk after the first one with
a witness are cut short and never reported: the walk stops at that one.

One driver decides every search (_decide_classes). Each graph has a walk
(_walk), a generator over one dict of kernel results keyed by each labeled
graph's packed adjacency masks; it yields each labeled graph that the dict
holds no usable result for, with its remaining budget. The labelings are
drawn lazily, so no list of n! labelings is built per graph; through order
7 their keys are read off per-order tables of the edges' keys under every
labeling (_walk_keys). The driver serves the walks of all its graphs in
rounds of kernels.run_batch calls: in each round every undecided graph asks
for the labeled graph its walk needs plus its next distinct labeled graphs
not yet searched, 8 in all in its first round and 4 times as many in each
round after (see _decide_classes), under its remaining budget, so the
kernel shares word prefixes across many graphs. Each graph's asks form one
group of the batch, in walk order, so the kernel stops searching them once
one has a witness. A walk uses a result searched ahead of it only where the
serial walk would get the same result (see _walk), so every report is the
serial one. search_fixed walks the identity labeling only,
search_all_labelings every labeling of one graph, and scan_order every
labeling of every class of an order. A parallel scan_order splits the
classes into k interleaved groups, classes[i::k], and decides group 0 in
its own process while k - 1 child processes decide the others, each in
rounds of its own and each sending its reports back over a pipe; the
reports stay in scan order, so serial and parallel outputs are identical.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from . import kernels
from .graphs import (
    LabeledGraph,
    Labeling,
    enumerate_graphs,
    identity_labeling,
    relabel,
)
from .represent import is_132_representant
from .words import Word

REPRESENTABLE = "representable"
NOT_REPRESENTABLE = "not-representable"
BUDGET_EXCEEDED = "budget-exceeded"

DEFAULT_SCAN_NODE_BUDGET = 10**9

# Graphs a class asks for in its first round, and their growth from one
# round to the next: 8, 32, 128, ... Each round walks the shared top of the
# word tree again, so fewer, wider rounds walk fewer union nodes; an order-6
# scan takes 3 rounds. Wider still saves little more and holds more results
# searched ahead in memory.
FIRST_ASKS = 8
GROWTH = 4

# Most graphs one class asks for in a round, and about the most in one
# kernels.run_batch call. Past a few thousand graphs a batch shares little
# more, while its requests and results take memory per graph.
BATCH_GRAPHS = 4096

# Fewest graphs a round must ask for in all before it searches any ahead of
# the walks. On the compiled kernel a union search of a few graphs costs
# more than their searches apart (2 graphs about 2.5 times as much, 8 about
# the same, 29 about half), so a single search asks only for the graph its
# walk needs in its first round, and speculates from its second.
ROUND_GRAPHS = 16

# Largest order whose labelings read their keys off per-pair columns (see
# _columns), built at the first search of that order: n! * C(n, 2) entries,
# 105,840 at n = 7, the largest order scan_order runs. Above it only single
# searches run, where the kernel dwarfs the cost of the keys.
COLUMNS_MAX_N = 7


@dataclass(frozen=True)
class SearchConfig:
    max_copies: int = 2
    find_all: bool = False
    node_budget: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.max_copies, int) or self.max_copies not in (1, 2, 3):
            raise ValueError("max_copies must be 1, 2 or 3")
        if self.node_budget is not None and (
                not isinstance(self.node_budget, int) or self.node_budget < 1):
            raise ValueError("node_budget must be an int >= 1")


@dataclass(frozen=True)
class SearchStats:
    """Counts of the serial labeling walk.

    nodes and words_tested add up the kernel's counts for every labeling
    walked, a labeling whose labeled graph repeats an earlier one included,
    although the kernel ran once for that graph.
    """

    nodes: int
    words_tested: int
    labelings_tried: int


@dataclass(frozen=True)
class SearchReport:
    """fixed_labeling: whether only g's own labeling was searched
    (search_fixed), rather than every labeling."""

    graph: LabeledGraph
    config: SearchConfig
    fixed_labeling: bool
    outcome: str
    witness: Optional[Word]
    labeling: Optional[Labeling]
    all_witnesses: Optional[tuple[tuple[Labeling, Word], ...]]
    stats: SearchStats
    budget_exhausted: bool

    @property
    def is_complete_decision(self) -> bool:
        """Whether a not-representable outcome here settles the graph.

        Requires every labeling searched to exhaustion at multiplicity >= 2;
        a fixed-labeling or max_copies=1 run only rules out a subfamily of
        words, and a budget-exceeded run rules out nothing.
        """
        return (
            self.outcome == NOT_REPRESENTABLE
            and self.config.max_copies >= 2
            and not self.fixed_labeling
        )


def _labelings(g: LabeledGraph, fixed: bool) -> Iterable[Labeling]:
    """The labelings a search of g walks, in order: the identity only if
    fixed, else every labeling.

    They are drawn lazily from itertools.permutations, so a search that
    stops early never builds n! labelings.
    """
    if fixed:
        return [identity_labeling(g.n)]
    return itertools.permutations(range(1, g.n + 1))


@lru_cache(maxsize=None)
def _pair_keys(n: int) -> list[list[int]]:
    """pair[a][b]: the packed masks of the one edge {a+1, b+1}."""
    return [
        [(1 << (16 * a + b)) | (1 << (16 * b + a)) for b in range(1, n + 1)]
        for a in range(1, n + 1)
    ]


def _keys(adj: Sequence[int], sigmas: Iterable[Labeling]) -> Iterator[int]:
    """The key of relabel(g, sigma) for each sigma, in order.

    adj is g's adjacency masks. A labeled graph's key is its adjacency
    masks packed into one int, mask v in bits 16v..16v+15: a small memo
    key. It is the sum of its edges' keys, so no relabeled graph is built.
    """
    n = len(adj) - 1
    pair = _pair_keys(n)
    edges = [(u - 1, v - 1) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if adj[u] >> v & 1]
    for sig in sigmas:
        yield sum([pair[sig[u] - 1][sig[v] - 1] for u, v in edges])


@lru_cache(maxsize=None)
def _columns(n: int) -> list[list[int]]:
    """Per vertex pair {u, v}, u < v, in itertools.combinations order: the
    key of the edge {sigma[u], sigma[v]} under each labeling sigma of 1..n,
    in walk order.

    A labeled graph's key is the sum of its edges' keys, so the keys of
    every labeling of g are the sums, position by position, of the columns
    of g's edges (_walk_keys). At n = 7 the columns hold 21 * 5040 entries.
    """
    pair = _pair_keys(n)
    sigmas = list(itertools.permutations(range(n)))
    return [[pair[s[u]][s[v]] for s in sigmas]
            for u, v in itertools.combinations(range(n), 2)]


def _walk_keys(g: LabeledGraph, fixed: bool) -> Iterator[int]:
    """A new cursor over the keys (see _keys) of the labeled graphs that a
    search of g walks, one per labeling of _labelings(g, fixed).

    Up to COLUMNS_MAX_N, all labelings of g read their keys off the columns
    of g's edges; beyond it, and for the one labeling of a fixed search,
    each key is summed from its edges.
    """
    adj = g.adjacency_masks()
    if fixed or g.n > COLUMNS_MAX_N:
        return _keys(adj, _labelings(g, fixed))
    pairs = itertools.combinations(range(1, g.n + 1), 2)
    columns = [col for (u, v), col in zip(pairs, _columns(g.n)) if adj[u] >> v & 1]
    if not columns:  # zip() of no columns is empty, not n! empty sums
        return itertools.repeat(0, math.factorial(g.n))
    return map(sum, zip(*columns))


def _walk(cfg: SearchConfig, keys: Iterator[tuple[Labeling, int]], results: dict):
    """The serial labeling walk, as a generator.

    keys yields each labeling in walk order with the key of its labeled
    graph (see _keys). results maps a key to a kernel result. Each time
    results holds none that serves the labeled graph 'key' under node
    budget 'remaining', the walk yields (key, remaining, tried), tried being
    the labelings walked before; the caller stores a result for key,
    computed under a budget of at least 'remaining', and resumes the walk.
    Returns (winner, entries, nodes, tested, labelings_tried, exhausted);
    winner is (labeling, first witness tuple).

    The kernel is deterministic in (masks, flags, budget), so one result
    serves every labeling whose labeled graph repeats an earlier one, and a
    caller may store results ahead of the walk: speculative ones, searched
    before the walk reaches them.
    """
    remaining = cfg.node_budget
    nodes_sum = 0
    tested_sum = 0
    tried = 0
    entries: list[tuple[Labeling, tuple[int, ...]]] = []
    winner = None
    exhausted = False
    for sig, key in keys:
        if remaining is not None and remaining <= 0:
            exhausted = True
            break
        res = results.get(key)
        # A stored result came from a budget of at least 'remaining', which
        # only shrinks along the walk. If that budget did not cut it, it is
        # the unbudgeted result and stands while its nodes fit; a cut one
        # has nodes == its budget, so it fits only at that same budget.
        # When it does not fit, the serial walk cuts this labeling short:
        # ask again, for exact stats.
        while res is None or (remaining is not None and res[1] > remaining):
            yield key, remaining, tried
            res = results[key]
        wit, nodes, tested, exc = res
        nodes_sum += nodes
        tested_sum += tested
        tried += 1
        if wit:
            if winner is None:
                winner = (sig, wit[0])
            entries.extend((sig, w) for w in wit)
        if exc:
            exhausted = True
            break
        if remaining is not None:
            remaining -= nodes
        if winner is not None and not cfg.find_all:
            break
    return winner, entries, nodes_sum, tested_sum, tried, exhausted


def _decide_classes(
    n: int, classes: Sequence[LabeledGraph], cfg: SearchConfig, fixed: bool = False
) -> list[SearchReport]:
    """The search report of every graph in classes under cfg, in rounds.

    Every class walks the labelings _labelings(h, fixed) gives (see _walk),
    and the walks advance together in rounds. In round r (from 0), every
    undecided class asks for up to FIRST_ASKS * GROWTH**r graphs under its
    remaining budget: the one its walk needs, then its next distinct
    labeled graphs, in walk order, that it has not searched yet, and never
    more than BATCH_GRAPHS. A round that would ask for fewer than
    ROUND_GRAPHS graphs in all asks only for the ones the walks need, so a
    single search speculates from its second round. Under a node budget it
    asks for none past the labelings that its remaining budget pays for at
    the walk's mean nodes per labeling so far. A round goes to
    kernels.run_batch in slices of whole classes, of about BATCH_GRAPHS
    graphs each, as packed rows (the keys themselves) with one group per
    class. Each class keeps its results in one dict, the walk's memo, and
    the walk uses a speculative result only where the serial walk would get
    the same one (see _walk), so every report is the serial one. Without
    find_all, the kernel drops a class's entries after its first hit, and
    returns None for them; the walk stops at or before that hit, having
    every result before it, so it never reads a dropped key and None is not
    stored. The walk and the lookahead are two cursors over the class's
    keys (_walk_keys); before it reads, the lookahead's cursor skips to the
    labeling after the walk's, so no key read ahead is held. A class's walk
    goes on as soon as its slice is back, and its walk and dict are dropped
    when it is decided. n must be in 1..kernels.MAX_N, as the kernels' is:
    past it a key would not fit in a row.
    """
    if not 1 <= n <= kernels.MAX_N:
        raise ValueError(f"n must be in 1..{kernels.MAX_N}")
    # class index -> (walk, results, lookahead cursor, keys the cursor has read)
    undecided: dict[int, list] = {}
    for i, h in enumerate(classes):
        results: dict[int, tuple] = {}
        walk = _walk(cfg, zip(_labelings(h, fixed), _walk_keys(h, fixed)), results)
        undecided[i] = [walk, results, _walk_keys(h, fixed), 0]
    reports: list[Optional[SearchReport]] = [None] * len(classes)
    requests: dict[int, tuple] = {}  # class index -> (key, remaining, tried)

    # the entries of the next batch, one per list index: its key, its
    # class's results and its budget
    asked: list[int] = []
    owners: list[dict] = []
    budgets: list = []
    asking: list[int] = []  # the classes in asked
    sizes: list[int] = []  # per class in asking, its number of entries in asked

    def advance(i: int) -> None:
        try:
            requests[i] = next(undecided[i][0])
        except StopIteration as done:
            del undecided[i]
            requests.pop(i, None)
            reports[i] = _assemble(classes[i], cfg, fixed, *done.value)

    def flush() -> None:
        if not asked:  # the slice ended exactly at the round's end
            return
        found = kernels.run_batch(
            n,
            b"".join([key.to_bytes(kernels.ROW_BYTES, "little") for key in asked]),
            1,
            cfg.max_copies,
            True,
            cfg.find_all,
            budgets,
            sizes,
        )
        # an entry dropped by an earlier hit of its class is None; the walk
        # stops at or before that hit, so it never reads the dropped key
        for results, key, result in zip(owners, asked, found):
            if result is not None:
                results[key] = result
        for entries in (asked, owners, budgets, sizes):
            entries.clear()
        # a class decided here drops its results before the next batch
        for i in asking:
            advance(i)
        asking.clear()

    for i in range(len(classes)):
        advance(i)
    width = FIRST_ASKS
    while requests:
        asks = width if width * len(requests) >= ROUND_GRAPHS else 1
        for i in list(requests):
            key, remaining, tried = requests[i]
            state = undecided[i]
            _, results, cursor, read = state
            asked.append(key)
            owners.append(results)
            budgets.append(remaining)
            asking.append(i)
            sizes.append(1)
            # the walk has read the keys of labelings 0..tried; the lookahead
            # reads on from labeling tried + 1
            if read <= tried:
                skip = tried + 1 - read
                next(itertools.islice(cursor, skip, skip), None)
                read = tried + 1
            taken = {key}
            spent = 0 if remaining is None else cfg.node_budget - remaining
            ahead = remaining * tried // spent - 1 if spent else math.inf
            while len(taken) < asks and read - tried - 1 < ahead:
                extra = next(cursor, None)
                if extra is None:
                    break
                read += 1
                if extra not in results and extra not in taken:
                    taken.add(extra)
                    asked.append(extra)
                    owners.append(results)
                    budgets.append(remaining)
                    sizes[-1] += 1
            state[3] = read
            if len(asked) >= BATCH_GRAPHS:
                flush()
        flush()
        width = min(GROWTH * width, BATCH_GRAPHS)
    return reports


def _assemble(
    g: LabeledGraph,
    cfg: SearchConfig,
    fixed: bool,
    winner,
    entries,
    nodes: int,
    tested: int,
    tried: int,
    exhausted: bool,
) -> SearchReport:
    stats = SearchStats(nodes, tested, tried)
    witness = None
    labeling = None
    if winner is not None:
        labeling, wit = winner
        witness = Word(wit)
        assert is_132_representant(witness, relabel(g, labeling)), (
            f"unsound witness {witness} for labeling {labeling}"
        )
        outcome = REPRESENTABLE
    elif exhausted:
        outcome = BUDGET_EXCEEDED
    else:
        outcome = NOT_REPRESENTABLE
    all_w = None
    if cfg.find_all:
        all_w = tuple((sig, Word(w)) for sig, w in entries)
        for sig, word in all_w:
            assert is_132_representant(word, relabel(g, sig)), (
                f"unsound witness {word} for labeling {sig}"
            )
    return SearchReport(
        g, cfg, fixed, outcome, witness, labeling, all_w, stats, exhausted
    )


def search_fixed(g: LabeledGraph, cfg: SearchConfig = SearchConfig()) -> SearchReport:
    """Search 132-representants of g under its given labeling only.

    DFS over words with ascending letter order, so the reported witness is
    the lexicographically least one; with find_all, all_witnesses lists
    every 132-representant with letter multiplicities <= max_copies.
    """
    return _decide_classes(g.n, [g], cfg, fixed=True)[0]


def search_all_labelings(
    g: LabeledGraph, cfg: SearchConfig = SearchConfig()
) -> SearchReport:
    """Decide 132-representability of g over every labeling.

    Labelings run in lexicographic order; stops at the first witness
    unless find_all. The node budget is a per-graph total. The kernel runs
    once per distinct relabeled graph, in rounds that search ahead of the
    walk (see _decide_classes); the report is the serial walk's.
    """
    return _decide_classes(g.n, [g], cfg)[0]


def _decide_group(writer, n: int, group: Sequence[LabeledGraph],
                  cfg: SearchConfig) -> None:
    """A child process's part of a parallel scan: send the reports of group
    over writer, or the exception that deciding it raised."""
    try:
        writer.send(_decide_classes(n, group, cfg))
    except Exception as e:
        writer.send(e)


def _start_group(ctx, n: int, group: Sequence[LabeledGraph], cfg: SearchConfig):
    """Start a child process of the multiprocessing context ctx that
    decides group (see _decide_group); return it and its pipe's read end."""
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_decide_group, args=(writer, n, group, cfg))
    try:
        child.start()
    except BaseException:
        reader.close()
        raise
    finally:
        writer.close()  # the child holds its own end; EOF means it is gone
    return child, reader


def _decide_groups(n: int, graphs: list[LabeledGraph], cfg: SearchConfig,
                   k: int) -> list[SearchReport]:
    """The reports of graphs, decided in the k interleaved groups
    graphs[i::k]: group 0 in this process, each other group in a child
    process of its own, started first.

    A child's exception is raised here; a child that ends without sending
    its reports raises RuntimeError. No child outlives the call: on any
    exception here, the children still running are terminated, and every
    child is joined.
    """
    import multiprocessing  # loaded by a parallel scan only

    # fork where there is one: a child then shares the parent's tables and
    # caches. multiprocessing flushes sys.stdout and sys.stderr before it
    # forks, so no child writes out output the parent had buffered.
    ctx = multiprocessing.get_context("fork" if hasattr(os, "fork") else None)
    reports: list = [None] * len(graphs)
    children = []
    try:
        for i in range(1, k):
            children.append(_start_group(ctx, n, graphs[i::k], cfg))
        reports[0::k] = _decide_classes(n, graphs[0::k], cfg)
        for i, (child, reader) in enumerate(children, 1):
            try:
                part = reader.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"scan group {i} ended with exit code {child.exitcode} "
                    "before sending its reports") from None
            child.join()
            if isinstance(part, BaseException):
                raise part
            reports[i::k] = part
    finally:
        for child, reader in children:
            if child.exitcode is None:
                child.terminate()
            child.join()
            reader.close()
    return reports


def scan_order(
    n: int,
    cfg: SearchConfig = SearchConfig(),
    workers: int = 1,
) -> list[tuple[LabeledGraph, SearchReport]]:
    """Decide every isolate-free isomorphism class on n vertices.

    Isolated vertices never affect representability (the fresh-letter
    prefix construction adds them to any representant), so only isolate-free
    classes are scanned. Each graph gets its own node budget (default 10^9
    nodes); budget exhaustion marks that graph and the scan continues.
    Classes come in enumerate_graphs' order: by edge count, then edge
    list. The classes are decided together in rounds of one batched kernel
    call (see _decide_classes). With workers > 1 the scan runs in k groups,
    k being the least of workers, the number of classes and the CPUs this
    process may use: k interleaved groups, classes[i::k], each decided in
    rounds of its own, group 0 in this process and the others in k - 1
    child processes (see _decide_groups). The reports are the serial ones.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    budget = cfg.node_budget if cfg.node_budget is not None else DEFAULT_SCAN_NODE_BUDGET
    cfg = replace(cfg, node_budget=budget)
    graphs = list(enumerate_graphs(n, isolate_free=True))
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    k = min(workers, len(graphs), cpus)
    if k > 1:
        return list(zip(graphs, _decide_groups(n, graphs, cfg, k)))
    return list(zip(graphs, _decide_classes(n, graphs, cfg)))
