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
multiplicity capped at 2, decides the question through order 6
(COPY_BOUND_CHECKED_N); beyond that its negatives rest on the unproven
bound, and its reports do not call them complete decisions. max_copies is
configurable to 1 (permutation words only) or 3 (for experiments) but 2 is
the decision default.

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
graph's edge bitset (see rep132._keys, whose one growing sequence per
graph computes each key once); it yields each labeled graph that the dict
holds no usable result for, with its remaining budget, and returns the
graph's report, each witness in it checked by
represent.is_132_representant on the relabeled graph. The driver serves
the walks of all its graphs in rounds of kernels.run_batch calls, each
graph's asks one group under its remaining budget: the labeled graph its
walk needs plus its next distinct ones not yet searched, so the kernel
shares word prefixes across many graphs. A walk uses a result searched
ahead of it only where the serial walk would get the same result (see
_walk), so every report is the serial one. search_fixed walks the
identity labeling only, search_all_labelings every labeling of one graph,
and scan_order every labeling of every class of an order, each class
under the caller's config unchanged. A parallel scan_order whose first
round spans more than one kernel batch (an order-7 scan, not an order-6
one) decides the interleaved groups classes[i::k], group 0 in its own
process and the others in k - 1 child processes, each sending its reports
back over a pipe, in scan order, so serial and parallel outputs are
identical.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import _keys, kernels
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

# Largest order through which the copy bound is machine-checked at class
# level (tests/test_search.py, test_copy_bound_holds_at_class_level), so the
# largest whose negatives are complete decisions.
COPY_BOUND_CHECKED_N = 6

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


@dataclass(frozen=True)
class SearchConfig:
    max_copies: int = 2
    find_all: bool = False
    node_budget: Optional[int] = None

    def __post_init__(self):
        # a bool is an int, and True would pass as 1
        if type(self.max_copies) is bool or not isinstance(self.max_copies, int) \
                or self.max_copies not in (1, 2, 3):
            raise ValueError("max_copies must be 1, 2 or 3")
        if not isinstance(self.find_all, bool):
            raise ValueError("find_all must be a bool")
        if self.node_budget is not None and (
                type(self.node_budget) is bool or not isinstance(self.node_budget, int)
                or self.node_budget < 1):
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

        Requires every labeling searched to exhaustion at multiplicity >= 2,
        of a graph on at most COPY_BOUND_CHECKED_N vertices; a fixed-labeling
        or max_copies=1 run only rules out a subfamily of words, past that
        order the copy bound is unchecked, and a budget-exceeded run rules
        out nothing.
        """
        return (
            self.outcome == NOT_REPRESENTABLE
            and self.config.max_copies >= 2
            and not self.fixed_labeling
            and self.graph.n <= COPY_BOUND_CHECKED_N
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


def _walk(g: LabeledGraph, cfg: SearchConfig, fixed: bool, results: dict,
          keys: _keys.Keys):
    """The serial labeling walk of a search of g, as a generator that
    returns g's SearchReport.

    The walk visits the labelings of _labelings(g, fixed) in order, each
    with the key of its labeled graph, read off keys. results maps a key to a
    kernel result. Each time results holds none that serves the labeled
    graph 'key' under node budget 'remaining', the walk yields (key,
    remaining, tried), tried being the labelings walked before; the caller
    stores a result for key, computed under a budget of at least
    'remaining', and resumes the walk.

    The kernel is deterministic in (masks, flags, budget), so one result
    serves every labeling whose labeled graph repeats an earlier one, and a
    caller may store results ahead of the walk: speculative ones, searched
    before the walk reaches them. Every witness reported is checked against
    relabel(g, sigma) (_check_witness), and an unsound one raises
    RuntimeError.
    """
    remaining = cfg.node_budget
    nodes = tested = tried = 0
    entries: list[tuple[Labeling, tuple[int, ...]]] = []
    witness = labeling = None
    exhausted = False
    for sig in _labelings(g, fixed):
        if remaining is not None and remaining <= 0:
            exhausted = True
            break
        key = keys[tried]
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
        wit, used, words, cut = res
        nodes += used
        tested += words
        tried += 1
        if wit:
            if labeling is None:
                labeling, witness = sig, Word(wit[0])
            entries.extend((sig, w) for w in wit)
        if cut:
            exhausted = True
            break
        if remaining is not None:
            remaining -= used
        if labeling is not None and not cfg.find_all:
            break

    if labeling is not None:
        _check_witness(g, labeling, witness)
        outcome = REPRESENTABLE
    elif exhausted:
        outcome = BUDGET_EXCEEDED
    else:
        outcome = NOT_REPRESENTABLE
    all_w = None
    if cfg.find_all:
        all_w = tuple((sig, Word(w)) for sig, w in entries)
        for sig, word in all_w:
            _check_witness(g, sig, word)
    return SearchReport(g, cfg, fixed, outcome, witness, labeling, all_w,
                        SearchStats(nodes, tested, tried), exhausted)


def _check_witness(g: LabeledGraph, sigma: Labeling, word: Word) -> None:
    """Raise RuntimeError unless word is a 132-representant of relabel(g,
    sigma) (represent.is_132_representant): a check that holds under
    python -O too.

    It reads only g, sigma and word, never a key or a kernel result. A
    sigma that relabel refuses makes the witness unsound as well.
    """
    try:
        sound = is_132_representant(word, relabel(g, sigma))
    except ValueError:
        sound = False
    if not sound:
        raise RuntimeError(f"unsound witness {word} for labeling {sigma}")


def _decide_classes(
    n: int, classes: Sequence[LabeledGraph], cfg: SearchConfig, fixed: bool = False
) -> list[SearchReport]:
    """The search report of every graph in classes under cfg, in rounds.

    Every class walks the labelings _labelings(h, fixed) gives (see _walk),
    and the walks advance together in rounds. In round r (from 0), every
    undecided class asks for up to FIRST_ASKS * GROWTH**r graphs under its
    remaining budget: the one its walk needs, then its next distinct
    labeled graphs, in walk order, that it has not searched yet, and never
    more than BATCH_GRAPHS, except that a lone class's first round asks
    only for the graph its walk needs, so a single search speculates from
    its second round. Under a node budget it asks for none past the
    labelings that its remaining budget pays for at the walk's mean nodes
    per labeling so far.

    Each undecided class has one record: its walk, its results dict (the
    walk's memo), its keys (_keys.Keys, which the walk reads too), the
    number of labelings its lookahead has read, and the walk's pending ask.
    The lookahead reads on from the labeling after the walk's, or after the
    last one it read if that is further, and takes its asks off the keys a
    slice at a time, a slice being as many keys as it still asks for: each
    key read gives at most one ask, so the asks end with the last key read,
    exactly where reading key by key would stop. A round goes to
    kernels.run_batch in slices of whole classes, of about BATCH_GRAPHS
    graphs each. A slice is one list of (class, keys) pairs, keys being the
    class's asks in order; the batch's keys, its groups and their budgets,
    one group per class under the class's remaining budget, are read off
    it, and so is where each result goes back. The walk uses a speculative
    result only where the serial walk would get the same one (see _walk),
    so every report is the serial one. Without find_all, the kernel drops a
    class's entries after its first entry with a witness, and returns None
    for them, whether it searched them in one union or one by one; the walk
    stops at or before that entry, having every result before it, so it
    never reads a dropped key and None is not stored. A class's walk goes
    on as soon as its slice is back, and its record is dropped when it is
    decided. n must be in 1..kernels.MAX_N, as the kernels' is, checked
    before any key is built.
    """
    if not 1 <= n <= kernels.MAX_N:
        raise ValueError(f"n must be in 1..{kernels.MAX_N}")
    reports: list[Optional[SearchReport]] = [None] * len(classes)
    # class index -> [walk, results, keys, labelings the lookahead has read,
    # the walk's pending (key, remaining, tried)]
    undecided: dict[int, list] = {}

    def advance(i: int) -> None:
        record = undecided[i]
        try:
            record[4] = next(record[0])
        except StopIteration as done:
            del undecided[i]
            reports[i] = done.value

    def flush(batch: list[tuple[int, dict]]) -> None:
        found = iter(kernels.run_batch(
            n,
            [key for _, keys in batch for key in keys],
            1,
            cfg.max_copies,
            True,
            cfg.find_all,
            [undecided[i][4][1] for i, _ in batch],  # each class's remaining
            [len(keys) for _, keys in batch],
        ))
        for i, keys in batch:
            results = undecided[i][1]
            # an entry dropped by an earlier hit of its class is None; the
            # walk stops at or before that hit, so it never reads the key.
            # zip stops at the end of keys before it draws from found.
            for key, result in zip(keys, found):
                if result is not None:
                    results[key] = result
            advance(i)  # a class decided here drops its record

    for i, h in enumerate(classes):
        results: dict[int, tuple] = {}
        source = _keys.Keys(h, fixed)
        undecided[i] = [_walk(h, cfg, fixed, results, source), results, source, 0, None]
        advance(i)
    width = FIRST_ASKS
    while undecided:
        # a lone class's first round asks only for its walk's graph: on C a
        # union of 2 graphs costs about 2.5 times their searches apart, and
        # on Python, speculating from the first round made
        # search_all_labelings 2.0 times as slow on cycle(5), 1.75 on path(7)
        asks = 1 if width == FIRST_ASKS and len(undecided) == 1 else width
        batch: list[tuple[int, dict]] = []  # this slice's (class, keys) pairs
        size = 0
        # indices, not records: a list of records would keep the classes
        # decided in this round's earlier slices alive until its end
        for i in list(undecided):
            record = undecided[i]
            _, results, source, read, (key, remaining, tried) = record
            keys = {key: None}
            # the walk has read the keys of labelings 0..tried; the lookahead
            # reads on from labeling tried + 1, and under a node budget stops
            # before labeling stop, past what the budget left pays for
            read = max(read, tried + 1)
            spent = 0 if remaining is None else cfg.node_budget - remaining
            stop = tried + remaining * tried // spent if spent else math.inf
            while len(keys) < asks and read < stop:
                ahead = source[read:min(read + asks - len(keys), stop)]
                if not ahead:  # past the last labeling
                    break
                keys.update(zip(itertools.filterfalse(results.__contains__, ahead),
                                itertools.repeat(None)))
                read += len(ahead)
            record[3] = read
            batch.append((i, keys))
            size += len(keys)
            if size >= BATCH_GRAPHS:
                flush(batch)
                batch, size = [], 0
        if batch:  # empty if the last slice ended exactly at the round's end
            flush(batch)
        width = min(GROWTH * width, BATCH_GRAPHS)
    return reports


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


def _groups(count: int, workers: int) -> int:
    """How many interleaved groups a scan of count classes runs in, asked
    for workers of them: 1 if its first round fits in one kernels.run_batch
    call (count * FIRST_ASKS <= BATCH_GRAPHS), else the least of workers,
    count and the CPUs this process may use.

    A round that fits in one call is one union search, and each interleaved
    group's own union walks most of the whole one's nodes, so splitting it
    costs more CPU than it saves time. A larger first round is many
    separate batches already, and its groups cost no extra CPU.
    """
    if count * FIRST_ASKS <= BATCH_GRAPHS:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers, count, cpus)


def scan_order(
    n: int,
    cfg: SearchConfig = SearchConfig(),
    workers: int = 1,
) -> list[tuple[LabeledGraph, SearchReport]]:
    """Decide every isolate-free isomorphism class on n vertices.

    Isolated vertices never affect representability (the fresh-letter
    prefix construction adds them to any representant), so only isolate-free
    classes are scanned. Each class is searched under cfg as
    search_all_labelings(h, cfg) searches it, with its own node budget if
    cfg has one; budget exhaustion marks that class and the scan continues.
    Classes come in enumerate_graphs' order: by edge count, then edge
    list. The classes are decided together in rounds of one batched kernel
    call (see _decide_classes). With workers > 1, a scan whose first round
    spans more than one kernel batch runs in k groups, k being the least of
    workers, the number of classes and the CPUs this process may use (see
    _groups): k interleaved groups, classes[i::k], each decided in rounds of
    its own, group 0 in this process and the others in k - 1 child
    processes (see _decide_groups). A smaller scan, order 6's 122 classes
    among them, is decided in this process whatever workers says. The
    reports are the serial ones.
    """
    if type(workers) is bool:  # a bool is an int: True would be 1
        raise TypeError("workers must be an integer, not a bool")
    workers = operator.index(workers)  # TypeError for a non-int
    if workers < 1:
        raise ValueError("workers must be >= 1")
    graphs = list(enumerate_graphs(n, isolate_free=True))
    k = _groups(len(graphs), workers)
    if k > 1:
        return list(zip(graphs, _decide_groups(n, graphs, cfg, k)))
    return list(zip(graphs, _decide_classes(n, graphs, cfg)))
