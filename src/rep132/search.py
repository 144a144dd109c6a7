"""Brute-force decision search for 132-representability.

Why this decides the question: if a graph has any 132-avoiding
word-representant under some labeling, it has one in which every letter
occurs at most twice (letters of degree >= 2 can never repeat more than
twice in a 132-avoiding representant, and a normalization argument handles
the rest), and reducing that word keeps avoidance and the represented graph
up to consistent relabeling. So an exhaustive search over all labelings,
with per-letter multiplicity capped at 2, is a complete decision procedure;
max_copies is configurable to 1 (permutation words only) or 3 (for
experiments) but 2 is the decision default.

search_fixed asks the question for the given labeling only; labels matter,
so the two operations answer genuinely different questions.

Determinism: labelings run in lexicographic order; within a labeling the
kernel visits words in lexicographic order; the node budget is a per-graph
total consumed in labeling order. Labelings that differ by an automorphism
give the same labeled graph, and the kernel is deterministic in that graph,
so search_all_labelings runs the kernel once per distinct labeled graph and
replays the stored result for each repeat. Stats still count the serial
walk: a repeated graph's nodes and words count again, and every labeling
walked counts as tried.

The walk is a generator (_walk) over one dict of kernel results, keyed by
each labeled graph's packed adjacency masks; it yields each labeled graph
that the dict holds no usable result for, with its remaining budget, and
its caller stores one. search_fixed and search_all_labelings serve it with
one kernels.run_search call per request. scan_order runs one walk per class
and serves them all in rounds of kernels.run_batch calls: in round r every
undecided class asks for the graph its walk needs plus its next distinct
labeled graphs not yet searched, 2**r graphs in all, under its remaining
budget, so the kernel shares word prefixes across many graphs and classes.
A walk uses a result searched ahead of it only where the serial walk would
get the same result (see _walk), so every scan report is the per-class
serial one. A parallel scan_order gives each of its k workers the
interleaved group classes[i::k] to decide in rounds, and keeps the reports
in scan order. A parallel search_all_labelings searches the distinct
labeled graphs of one graph in a pool, fills the walk's dict as results
arrive, and assembles its report by replaying the serial order. Either
way serial and parallel outputs are identical (wall time excluded).
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from . import kernels
from .graphs import (
    LabeledGraph,
    Labeling,
    automorphisms,
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

# Most graphs in one kernels.run_batch call of a scan round. A round asks
# for up to 2**r graphs per class; past a few thousand graphs a batch shares
# little more, while its requests and results take memory per graph.
BATCH_GRAPHS = 4096

WORKERS_ENV = "REP132_WORKERS"


@dataclass(frozen=True)
class SearchConfig:
    max_copies: int = 2
    fixed_labeling: bool = False
    find_all: bool = False
    use_automorphism_reduction: bool = False
    node_budget: Optional[int] = None
    prune_pattern: bool = True
    prune_edges: bool = True
    prune_exhausted: bool = True

    def __post_init__(self):
        if self.max_copies not in (1, 2, 3):
            raise ValueError("max_copies must be 1, 2 or 3")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node_budget must be >= 1")


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
    wall_time: float


@dataclass(frozen=True)
class SearchReport:
    graph: LabeledGraph
    config: SearchConfig
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
            and not self.config.fixed_labeling
        )


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        workers = int(raw) if raw else 1
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def _kernel_run(n: int, masks: Sequence[int], cfg: SearchConfig, budget: Optional[int]):
    return kernels.run_search(
        n,
        masks,
        1,
        cfg.max_copies,
        True,
        cfg.find_all,
        budget,
        cfg.prune_pattern,
        cfg.prune_edges,
        cfg.prune_exhausted,
    )


def _kernel_task(task):
    n, key, cfg = task
    return _kernel_run(n, _unpacked(key, n), cfg, cfg.node_budget)


def _scan_group_task(task) -> list[SearchReport]:
    n, group, cfg = task
    return _decide_classes(n, group, cfg)


def all_labelings(n: int) -> list[Labeling]:
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def reduced_labelings(g: LabeledGraph) -> list[Labeling]:
    """One labeling per class producing a distinct relabeled graph.

    relabel(g, sigma . alpha) = relabel(g, sigma) for every automorphism
    alpha, so labelings sharing a right coset of the automorphism group are
    redundant; keep the lexicographically least member of each coset.
    """
    auts = automorphisms(g)
    if len(auts) == 1:
        return all_labelings(g.n)
    out = []
    for p in itertools.permutations(range(1, g.n + 1)):
        sig = tuple(p)
        if all(sig <= tuple(sig[a[v] - 1] for v in range(g.n)) for a in auts):
            out.append(sig)
    return out


def _unpacked(key: int, n: int) -> tuple[int, ...]:
    """The adjacency masks packed in key, 16 bits per vertex (see _keys)."""
    return tuple(key >> (16 * v) & 0xFFFF for v in range(n + 1))


@lru_cache(maxsize=None)
def _pair_keys(n: int) -> list[list[int]]:
    """pair[a][b]: the packed masks of the one edge {a+1, b+1}."""
    return [
        [(1 << (16 * a + b)) | (1 << (16 * b + a)) for b in range(1, n + 1)]
        for a in range(1, n + 1)
    ]


def _keys(adj: Sequence[int], sigmas: Sequence[Labeling]) -> Iterator[int]:
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


def _led(lead: deque, keys: Iterator[int]) -> Iterator[int]:
    """keys, reading first the ones a lookahead took from keys into lead."""
    while True:
        while lead:
            yield lead.popleft()
        key = next(keys, None)
        if key is None:
            return
        yield key


def _walk(cfg: SearchConfig, sigmas: Sequence[Labeling], keys: Iterator[int],
          results: dict):
    """The serial labeling walk over sigmas, as a generator.

    keys yields the key of each labeling's labeled graph (see _keys), in
    the order of sigmas. results maps a key to a kernel result. Each time
    results holds none that serves the labeled graph 'key' under node
    budget 'remaining', the walk yields (key, remaining); the caller stores a
    result for key, computed under a budget of at least 'remaining', and
    resumes the walk. Returns (winner, entries, nodes, tested,
    labelings_tried, exhausted); winner is (labeling, first witness tuple).

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
    for sig, key in zip(sigmas, keys):
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
            yield key, remaining
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


def _serve(n: int, cfg: SearchConfig, walk, results: dict, arriving=None):
    """Run a walk to its end, storing one kernel result per request.

    arriving, when given, yields (key, result) pairs searched under the
    full budget, in the walk's order of first occurrence; they go into
    results as they arrive, up to the key requested. A key that is in
    results and requested again did not fit: it is searched here.
    """
    try:
        while True:
            key, remaining = next(walk)
            if arriving is not None and key not in results:
                for done, res in arriving:
                    results[done] = res
                    if done == key:
                        break
            else:
                results[key] = _kernel_run(n, _unpacked(key, n), cfg, remaining)
    except StopIteration as done:
        return done.value


def _decide_classes(
    n: int, classes: Sequence[LabeledGraph], cfg: SearchConfig
) -> list[SearchReport]:
    """[search_all_labelings(h, cfg, workers=1) for h in classes], in rounds.

    Every class walks its labelings as search_all_labelings does, and the
    walks advance together in rounds. In round r (from 0), every undecided
    class asks for up to 2**r graphs under its remaining budget: the one
    its walk needs, then its next distinct labeled graphs, in walk order,
    that it has not searched yet. A round goes to kernels.run_batch in
    slices of whole classes, of about BATCH_GRAPHS graphs each. Each class
    keeps its results in one dict, the walk's memo, and the walk uses a
    speculative result only where the serial walk would get the same one
    (see _walk), so every report is the serial one. The walk and the
    lookahead read one stream of keys; the walk reads first the keys the
    lookahead has taken ahead of it, so each key is computed once and only
    the lookahead's lead is held. A class's walk goes on as soon as its
    slice is back, and its walk and dict are dropped when it is decided. A
    report's wall time runs from the start of the rounds to its class's
    decision.
    """
    cfg = replace(cfg, fixed_labeling=False)
    t0 = time.perf_counter()
    shared = None if cfg.use_automorphism_reduction else all_labelings(n)
    # class index -> (walk, results, keys not yet read, keys read ahead)
    undecided: dict[int, tuple] = {}
    for i, h in enumerate(classes):
        sigmas = shared or reduced_labelings(h)
        keys, lead = _keys(h.adjacency_masks(), sigmas), deque()
        results: dict[int, tuple] = {}
        walk = _walk(cfg, sigmas, _led(lead, keys), results)
        undecided[i] = (walk, results, keys, lead)
    reports: list[Optional[SearchReport]] = [None] * len(classes)
    requests: dict[int, tuple] = {}  # class index -> (key, remaining)

    asked: list[tuple] = []  # (class results, key, budget)
    asking: list[int] = []  # the classes in asked

    def advance(i: int) -> None:
        try:
            requests[i] = next(undecided[i][0])
        except StopIteration as done:
            del undecided[i]
            requests.pop(i, None)
            reports[i] = _assemble(
                classes[i], cfg, *done.value, time.perf_counter() - t0
            )

    def flush() -> None:
        found = kernels.run_batch(
            n,
            [_unpacked(key, n) for _, key, _ in asked],
            1,
            cfg.max_copies,
            True,
            cfg.find_all,
            [budget for _, _, budget in asked],
            cfg.prune_pattern,
            cfg.prune_edges,
            cfg.prune_exhausted,
        )
        for (results, key, _), result in zip(asked, found):
            results[key] = result
        asked.clear()
        # a class decided here drops its results before the next batch
        for i in asking:
            advance(i)
        asking.clear()

    for i in range(len(classes)):
        advance(i)
    width = 1
    while requests:
        for i in list(requests):
            key, remaining = requests[i]
            _, results, keys, lead = undecided[i]
            asked.append((results, key, remaining))
            asking.append(i)
            taken = {key}
            while len(taken) < width:
                extra = next(keys, None)
                if extra is None:
                    break
                lead.append(extra)
                if extra not in results and extra not in taken:
                    taken.add(extra)
                    asked.append((results, extra, remaining))
            if len(asked) >= BATCH_GRAPHS:
                flush()
        flush()
        width *= 2
    return reports


def _assemble(
    g: LabeledGraph,
    cfg: SearchConfig,
    winner,
    entries,
    nodes: int,
    tested: int,
    tried: int,
    exhausted: bool,
    wall: float,
) -> SearchReport:
    stats = SearchStats(nodes, tested, tried, wall)
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
    return SearchReport(g, cfg, outcome, witness, labeling, all_w, stats, exhausted)


def search_fixed(g: LabeledGraph, cfg: SearchConfig = SearchConfig()) -> SearchReport:
    """Search 132-representants of g under its given labeling only.

    DFS over words with ascending letter order, so the reported witness is
    the lexicographically least one; with find_all, all_witnesses lists
    every 132-representant with letter multiplicities <= max_copies.
    """
    cfg = replace(cfg, fixed_labeling=True)
    t0 = time.perf_counter()
    results: dict[int, tuple] = {}
    sigmas = [identity_labeling(g.n)]
    walk = _walk(cfg, sigmas, _keys(g.adjacency_masks(), sigmas), results)
    return _assemble(g, cfg, *_serve(g.n, cfg, walk, results), time.perf_counter() - t0)


def search_all_labelings(
    g: LabeledGraph,
    cfg: SearchConfig = SearchConfig(),
    workers: Optional[int] = None,
) -> SearchReport:
    """Decide 132-representability of g over every labeling.

    Labelings run in lexicographic order (optionally one per automorphism
    coset); stops at the first witness unless find_all. The node budget is
    a per-graph total. The kernel runs once per distinct relabeled graph.
    With workers > 1 those graphs are searched in parallel speculatively;
    the report replays the serial order, so it is identical to a serial
    run's.
    """
    cfg = replace(cfg, fixed_labeling=False)
    t0 = time.perf_counter()
    sigmas = (
        reduced_labelings(g) if cfg.use_automorphism_reduction else all_labelings(g.n)
    )
    nworkers = _resolve_workers(workers)
    adj = g.adjacency_masks()
    results: dict[int, tuple] = {}
    walk = _walk(cfg, sigmas, _keys(adj, sigmas), results)
    if nworkers > 1 and len(sigmas) > 1:
        # one task per distinct graph, in walk order of first occurrence,
        # so the walk meets each graph's result when it first needs it
        distinct = list(dict.fromkeys(_keys(adj, sigmas)))
        chunk = max(1, len(distinct) // (nworkers * 32))
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            arriving = zip(distinct, pool.map(
                _kernel_task, [(g.n, key, cfg) for key in distinct], chunksize=chunk
            ))
            result = _serve(g.n, cfg, walk, results, arriving)
            # drop the speculative chunks not yet started and wait for the
            # running ones, so no worker outlives the call
            pool.shutdown(cancel_futures=True)
    else:
        result = _serve(g.n, cfg, walk, results)
    return _assemble(g, cfg, *result, time.perf_counter() - t0)


def scan_order(
    n: int,
    cfg: SearchConfig = SearchConfig(),
    workers: Optional[int] = None,
) -> list[tuple[LabeledGraph, SearchReport]]:
    """Decide every isolate-free isomorphism class on n vertices.

    Isolated vertices never affect representability (the fresh-letter
    prefix construction adds them to any representant), so only isolate-free
    classes are scanned. Each graph gets its own node budget (default 10^9
    nodes); budget exhaustion marks that graph and the scan continues.
    Classes come in enumerate_graphs' order: by edge count, then edge
    list. The classes are decided together in rounds of one batched kernel
    call (see _decide_classes). With workers = k > 1 one process pool for
    the scan takes k interleaved groups, classes[i::k], each decided in
    rounds of its own; the reports are the serial ones.
    """
    budget = cfg.node_budget if cfg.node_budget is not None else DEFAULT_SCAN_NODE_BUDGET
    cfg = replace(cfg, node_budget=budget)
    graphs = list(enumerate_graphs(n, isolate_free=True))
    groups = min(_resolve_workers(workers), len(graphs))
    if groups > 1:
        reports: list = [None] * len(graphs)
        with ProcessPoolExecutor(max_workers=groups) as pool:
            tasks = [(n, graphs[i::groups], cfg) for i in range(groups)]
            for i, group in enumerate(pool.map(_scan_group_task, tasks)):
                reports[i::groups] = group
        return list(zip(graphs, reports))
    return list(zip(graphs, _decide_classes(n, graphs, cfg)))
