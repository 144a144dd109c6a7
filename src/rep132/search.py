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

The walk is a generator (_walk) that yields each labeled graph it needs the
kernel for, with its remaining budget. search_fixed and
search_all_labelings serve it with one kernels.run_search call per request.
scan_order runs one walk per class and serves them all in rounds: each
round is one kernels.run_batch call over the next request of every
undecided class, so the pure-Python kernel shares word prefixes across
classes. A walk requests only what its serial walk runs, with the same
budget, so every scan report is the per-class serial one. A parallel
scan_order gives each of its k workers the interleaved group
classes[i::k] to decide in rounds, and keeps the reports in scan order. A
parallel search_all_labelings speculates on the distinct labeled graphs of
one graph and assembles its report by replaying the serial order. Either
way serial and parallel outputs are identical (wall time excluded).
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
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
    h, cfg = task
    return _kernel_run(h.n, h.adjacency_masks(), cfg, cfg.node_budget)


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


def _packed(masks: Sequence[int]) -> int:
    """Adjacency masks as one int, 16 bits per vertex: a small memo key."""
    key = 0
    for mask in reversed(masks):
        key = key << 16 | mask
    return key


def _walk(
    g: LabeledGraph,
    cfg: SearchConfig,
    sigmas: Sequence[Labeling],
    relabeled: Optional[Sequence[LabeledGraph]] = None,
    speculative: Optional[Iterator[tuple]] = None,
):
    """The serial labeling walk over sigmas, as a generator.

    Yields (masks, remaining) each time it needs the kernel's result for
    the labeled graph with adjacency masks 'masks' under node budget
    'remaining'; the caller sends that result back. Returns (winner,
    entries, nodes, tested, labelings_tried, exhausted); winner is
    (labeling, first witness tuple).

    The kernel is deterministic in (masks, flags, budget), so one memo,
    keyed by the packed masks, serves every labeling whose labeled graph
    repeats an earlier one. relabeled, when given, holds relabel(g, sigma)
    for each sigma; speculative yields a result, computed under the full
    budget, for each distinct labeled graph in order of first occurrence.
    """
    remaining = cfg.node_budget
    memo: dict[int, tuple] = {}
    nodes_sum = 0
    tested_sum = 0
    tried = 0
    entries: list[tuple[Labeling, tuple[int, ...]]] = []
    winner = None
    exhausted = False
    for i, sig in enumerate(sigmas):
        if remaining is not None and remaining <= 0:
            exhausted = True
            break
        masks = (relabel(g, sig) if relabeled is None else relabeled[i]).adjacency_masks()
        key = _packed(masks)
        res = memo.get(key)
        if res is None and speculative is not None:
            res = next(speculative)
        # A stored or speculative result came from a budget of at least
        # 'remaining', which only shrinks along the walk. If that budget
        # did not cut it, it is the unbudgeted result and stands while its
        # nodes fit; a cut one has nodes == its budget, so it fits only at
        # that same budget. When it does not fit, the serial walk cuts this
        # labeling short: rerun it for exact stats.
        if res is None or (remaining is not None and res[1] > remaining):
            res = yield masks, remaining
        memo[key] = res
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


def _serve(n: int, cfg: SearchConfig, walk):
    """Run a walk to its end with one kernel call per request."""
    try:
        request = next(walk)
        while True:
            masks, remaining = request
            request = walk.send(_kernel_run(n, masks, cfg, remaining))
    except StopIteration as done:
        return done.value


def _decide_classes(
    n: int, classes: Sequence[LabeledGraph], cfg: SearchConfig
) -> list[SearchReport]:
    """[search_all_labelings(h, cfg, workers=1) for h in classes], in rounds.

    Every class walks its labelings as search_all_labelings does, and the
    walks advance together: each round makes one kernels.run_batch call
    over the next request of every undecided class, in class order. A walk
    requests only what its serial walk runs, so the kernel searches the
    same graphs under the same budgets and every report is the serial one.
    A report's wall time runs from the start of the rounds to its class's
    decision.
    """
    cfg = replace(cfg, fixed_labeling=False)
    t0 = time.perf_counter()
    shared = None if cfg.use_automorphism_reduction else all_labelings(n)
    walks = [_walk(h, cfg, shared or reduced_labelings(h)) for h in classes]
    reports: list[Optional[SearchReport]] = [None] * len(classes)
    requests: dict[int, tuple] = {}  # class index -> (masks, remaining)

    def advance(i: int, result) -> None:
        try:
            requests[i] = walks[i].send(result)
        except StopIteration as done:
            requests.pop(i, None)
            reports[i] = _assemble(
                classes[i], cfg, *done.value, time.perf_counter() - t0
            )

    for i in range(len(classes)):
        advance(i, None)
    while requests:
        order = list(requests)
        results = kernels.run_batch(
            n,
            [requests[i][0] for i in order],
            1,
            cfg.max_copies,
            True,
            cfg.find_all,
            [requests[i][1] for i in order],
            cfg.prune_pattern,
            cfg.prune_edges,
            cfg.prune_exhausted,
        )
        for i, result in zip(order, results):
            advance(i, result)
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
    walk = _walk(g, cfg, [identity_labeling(g.n)], relabeled=[g])
    return _assemble(g, cfg, *_serve(g.n, cfg, walk), time.perf_counter() - t0)


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
    if nworkers > 1 and len(sigmas) > 1:
        relabeled = [relabel(g, sig) for sig in sigmas]
        # one task per distinct graph, in walk order of first occurrence,
        # so the walk meets each graph's result when it first needs it
        distinct = list({h.edges: h for h in relabeled}.values())
        chunk = max(1, len(distinct) // (nworkers * 32))
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            results = pool.map(
                _kernel_task, [(h, cfg) for h in distinct], chunksize=chunk
            )
            result = _serve(g.n, cfg, _walk(g, cfg, sigmas, relabeled, results))
            # drop the speculative chunks not yet started and wait for the
            # running ones, so no worker outlives the call
            pool.shutdown(cancel_futures=True)
    else:
        result = _serve(g.n, cfg, _walk(g, cfg, sigmas))
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
    Classes are ordered by edge count, then edge list. The classes are
    decided together in rounds of one batched kernel call (see
    _decide_classes). With workers = k > 1 one process pool for the scan
    takes k interleaved groups, classes[i::k], each decided in rounds of
    its own; the reports are the serial ones.
    """
    budget = cfg.node_budget if cfg.node_budget is not None else DEFAULT_SCAN_NODE_BUDGET
    cfg = replace(cfg, node_budget=budget)
    graphs = sorted(
        enumerate_graphs(n, isolate_free=True),
        key=lambda h: (len(h.edges), h.edge_list()),
    )
    groups = min(_resolve_workers(workers), len(graphs))
    if groups > 1:
        reports: list = [None] * len(graphs)
        with ProcessPoolExecutor(max_workers=groups) as pool:
            tasks = [(n, graphs[i::groups], cfg) for i in range(groups)]
            for i, group in enumerate(pool.map(_scan_group_task, tasks)):
                reports[i::groups] = group
        return list(zip(graphs, reports))
    return list(zip(graphs, _decide_classes(n, graphs, cfg)))
