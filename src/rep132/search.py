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
walked counts as tried. A parallel scan_order decides whole classes in one
process pool and keeps them in scan order; since each class has its own
budget, every report is the serial one. A parallel search_all_labelings
speculates on the distinct labeled graphs of one graph and assembles its
report by replaying the serial order. Either way serial and parallel outputs
are identical (wall time excluded).
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

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


def _kernel_run(g: LabeledGraph, cfg: SearchConfig, budget: Optional[int]):
    return kernels.run_search(
        g.n,
        g.adjacency_masks(),
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
    return _kernel_run(h, cfg, cfg.node_budget)


def _scan_class_task(task) -> SearchReport:
    h, cfg = task
    return search_all_labelings(h, cfg, workers=1)


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


def _drive(
    sigmas: Sequence[Labeling],
    run: Callable[[int, Optional[int]], tuple],
    budget: Optional[int],
    find_all: bool,
):
    """Replay the serial labeling walk over per-labeling kernel results.

    run(i, remaining) must behave exactly like the kernel on labeling i with
    node budget 'remaining'. Returns (winner, entries, nodes, tested,
    labelings_tried, exhausted); winner is (labeling, first witness tuple).
    """
    remaining = budget
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
        wit, nodes, tested, exc = run(i, remaining)
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
        if winner is not None and not find_all:
            break
    return winner, entries, nodes_sum, tested_sum, tried, exhausted


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
    ident = identity_labeling(g.n)

    def run(i: int, remaining: Optional[int]):
        return _kernel_run(g, cfg, remaining)

    winner, entries, nodes, tested, tried, exhausted = _drive(
        [ident], run, cfg.node_budget, cfg.find_all
    )
    return _assemble(
        g, cfg, winner, entries, nodes, tested, tried, exhausted, time.perf_counter() - t0
    )


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
    memo: dict = {}  # relabeled edge set -> kernel result

    def walk(graph_at: Callable[[int], LabeledGraph], speculative=None):
        def run(i: int, remaining: Optional[int]):
            h = graph_at(i)
            res = memo.get(h.edges)
            if res is None and speculative is not None:
                res = next(speculative)
            # A stored or speculative result came from a budget of at least
            # 'remaining', which only shrinks along the walk. If that budget
            # did not cut it, it is the unbudgeted result and stands while
            # its nodes fit; a cut one has nodes == its budget, so it fits
            # only at that same budget. When it does not fit, the serial
            # walk cuts this labeling short: rerun it for exact stats.
            if res is None or (remaining is not None and res[1] > remaining):
                res = _kernel_run(h, cfg, remaining)
            memo[h.edges] = res
            return res

        return _drive(sigmas, run, cfg.node_budget, cfg.find_all)

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
            result = walk(relabeled.__getitem__, results)
            # drop the speculative chunks not yet started and wait for the
            # running ones, so no worker outlives the call
            pool.shutdown(cancel_futures=True)
    else:
        result = walk(lambda i: relabel(g, sigmas[i]))

    winner, entries, nodes, tested, tried, exhausted = result
    return _assemble(
        g, cfg, winner, entries, nodes, tested, tried, exhausted, time.perf_counter() - t0
    )


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
    Classes are ordered by edge count, then edge list. With workers > 1
    whole classes are decided in parallel, in one process pool for the
    scan; the reports are the serial ones.
    """
    budget = cfg.node_budget if cfg.node_budget is not None else DEFAULT_SCAN_NODE_BUDGET
    cfg = replace(cfg, node_budget=budget)
    graphs = sorted(
        enumerate_graphs(n, isolate_free=True),
        key=lambda h: (len(h.edges), h.edge_list()),
    )
    nworkers = _resolve_workers(workers)
    if nworkers > 1 and len(graphs) > 1:
        with ProcessPoolExecutor(max_workers=min(nworkers, len(graphs))) as pool:
            reports = pool.map(_scan_class_task, [(h, cfg) for h in graphs], chunksize=1)
            return list(zip(graphs, reports))
    return [(h, search_all_labelings(h, cfg, workers=1)) for h in graphs]
