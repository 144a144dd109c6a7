"""Fixed- and all-labelings search, determinism, the copy bound, scans."""

import dataclasses
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import LOAD_PACKAGE, brute_representants, run_child
from rep132 import _kernel_py, _keys, kernels, search
from rep132.formats import catalog_to_json, dumps, report_to_json
from rep132.graphs import (
    LabeledGraph,
    automorphisms,
    complete,
    cycle,
    edge_bitset,
    enumerate_graphs,
    path,
    prism,
    relabel,
    star,
    wheel,
)
from rep132.represent import is_132_representant
from rep132.search import (
    BUDGET_EXCEEDED,
    NOT_REPRESENTABLE,
    REPRESENTABLE,
    SearchConfig,
    SearchReport,
    SearchStats,
    scan_order,
    search_all_labelings,
    search_fixed,
)
from rep132.words import Word

GOOD_STAR = LabeledGraph(4, [(1, 2), (1, 3), (1, 4)])   # hub lowest
ODD_STAR = LabeledGraph(4, [(1, 4), (2, 4), (3, 4)])    # hub highest
# C_5 drawn 1-2-4-5-3-1: same abstract cycle, different labels
TWISTED_C5 = LabeledGraph(5, [(1, 2), (1, 3), (2, 4), (3, 5), (4, 5)])


def walked_labelings(n):
    """Every labeling of 1..n, in the lexicographic order a search walks."""
    return list(itertools.permutations(range(1, n + 1)))


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_copies=0)
    with pytest.raises(ValueError):
        SearchConfig(max_copies=4)
    with pytest.raises(ValueError):
        SearchConfig(node_budget=-1)
    # a float budget used to reach the Python kernel, which ignored it, and
    # the labeling walk then asked again for the same graph forever
    for bad in (dict(max_copies=2.0), dict(node_budget=1.5), dict(node_budget=1000.0)):
        with pytest.raises(ValueError):
            SearchConfig(**bad)
    # a bool is an int: True used to pass as 1 copy or a budget of 1 node,
    # and any true find_all, "no" included, turned find_all on
    for bad in (dict(max_copies=True), dict(node_budget=True), dict(node_budget=False),
                dict(find_all="no"), dict(find_all=1), dict(find_all=None)):
        with pytest.raises(ValueError):
            SearchConfig(**bad)
    assert SearchConfig().max_copies == 2
    assert SearchConfig(find_all=True).find_all is True


# ------------------------------------------------------------- fixed search


def test_fixed_search_star_hub_lowest():
    rep = search_fixed(GOOD_STAR)
    assert rep.outcome == REPRESENTABLE
    assert str(rep.witness) == "2123414"
    assert rep.labeling == (1, 2, 3, 4)
    assert rep.stats.labelings_tried == 1
    assert is_132_representant(rep.witness, GOOD_STAR)


def test_fixed_search_star_find_all_contains_long_witness():
    rep = search_fixed(GOOD_STAR, SearchConfig(find_all=True))
    words = {str(w) for _, w in rep.all_witnesses}
    assert "43212341" in words
    assert len(words) == 8
    for _, w in rep.all_witnesses:
        assert is_132_representant(w, GOOD_STAR)


def test_fixed_search_star_hub_highest_has_unique_witness():
    # Both alternation and avoidance survive this labeling, barely: the
    # whole <=2-copies space contains exactly one representant, and even
    # allowing triples adds none (pendant letters straddle different hub
    # copies, so no third copy can be placed).
    rep = search_fixed(ODD_STAR, SearchConfig(find_all=True))
    assert rep.outcome == REPRESENTABLE
    assert [str(w) for _, w in rep.all_witnesses] == ["3432141"]
    rep3 = search_fixed(ODD_STAR, SearchConfig(find_all=True, max_copies=3))
    assert [str(w) for _, w in rep3.all_witnesses] == ["3432141"]
    assert brute_representants(ODD_STAR) == [(3, 4, 3, 2, 1, 4, 1)]


def test_fixed_search_matches_brute_force_on_small_graphs():
    for n in (2, 3, 4):
        for g in enumerate_graphs(n):
            rep = search_fixed(g, SearchConfig(find_all=True))
            expected = brute_representants(g)
            got = sorted(w.letters for _, w in rep.all_witnesses or [])
            assert got == expected, g.edge_list()
            assert (rep.outcome == REPRESENTABLE) == bool(expected)


def test_fixed_search_is_labeling_sensitive():
    # minimum order for sensitivity is 5: every relabeling of every graph
    # on <= 4 vertices keeps the verdict (checked exhaustively below)
    assert search_fixed(cycle(5)).outcome == REPRESENTABLE
    rep = search_fixed(TWISTED_C5, SearchConfig(max_copies=3))
    assert rep.outcome == NOT_REPRESENTABLE
    assert brute_representants(TWISTED_C5) == []


def test_no_labeling_sensitivity_below_order_five():
    for n in (2, 3, 4):
        for g in enumerate_graphs(n, isolate_free=True):
            verdicts = set()
            for sigma in itertools.permutations(range(1, n + 1)):
                rep = search_fixed(relabel(g, sigma), SearchConfig(max_copies=3))
                verdicts.add(rep.outcome)
            assert len(verdicts) == 1, g.edge_list()


# ------------------------------------------------------------ all labelings


def test_all_labelings_finds_witness_for_twisted_cycle():
    rep = search_all_labelings(TWISTED_C5)
    assert rep.outcome == REPRESENTABLE
    relabeled = relabel(TWISTED_C5, rep.labeling)
    assert is_132_representant(rep.witness, relabeled)


def test_all_labelings_negative_certificates():
    for g in (wheel(5), prism(3)):
        rep = search_all_labelings(g)
        assert rep.outcome == NOT_REPRESENTABLE
        assert rep.stats.labelings_tried == 720
        assert rep.witness is None and rep.labeling is None
        assert rep.is_complete_decision


def test_labeling_generators():
    # every labeling, in lexicographic order; a fixed search walks only
    # the identity
    assert list(search._labelings(complete(3), False)) == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    assert list(search._labelings(cycle(4), True)) == [(1, 2, 3, 4)]


def walk_keys(g, fixed=False):
    """The keys a search of g reads, in walk order: Keys read by index until
    it raises IndexError."""
    return iter(_keys.Keys(g, fixed))


def test_walk_keys_are_edge_bitsets_and_give_the_rows(monkeypatch):
    # A search keys each labeled graph by its edge bitset, summed for a
    # block of labelings at a time through order 7 and edge by edge past
    # it. Each key must be edge_bitset(relabel(g, sigma)), in walk order,
    # and the row the kernel's driver packs for it relabel(g, sigma)'s
    # masks, mask v in bits 16v..16v+15.
    rnd = random.Random(34)

    def seeded(n, count):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        return [LabeledGraph(n, [p for p in pairs if rnd.random() < 0.5])
                for _ in range(count)]

    cases = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    cases += seeded(6, 6) + seeded(7, 2) + [wheel(6)] + seeded(8, 2)
    for g in cases:  # every labeling through order 7, the first 5040 past it
        sigmas = list(itertools.islice(itertools.permutations(range(1, g.n + 1)), 5040))
        keys = list(itertools.islice(walk_keys(g), 5040))
        relabeled = [relabel(g, sig) for sig in sigmas]
        assert keys == [edge_bitset(h) for h in relabeled], g
        assert _kernel_py._rows(g.n, keys) == b"".join(
            sum(m << 16 * v for v, m in enumerate(h.adjacency_masks())).to_bytes(32, "little")
            for h in relabeled), g
    # a search of order 7 or less reads n! keys, an edgeless graph's too,
    # all of them 0
    assert len(list(walk_keys(wheel(6)))) == 5040
    assert list(walk_keys(LabeledGraph(4, []))) == [0] * 24
    assert list(walk_keys(LabeledGraph(1, []))) == [0]
    # through order 7 the sequence grows by whole blocks of the (n - 1)!
    # labelings that share sigma[0], as far as a read reaches and no further
    every = list(walk_keys(wheel(5)))
    keys = _keys.Keys(wheel(5), False)
    for index, held in ((0, 120), (119, 120), (120, 240), (3, 240)):
        assert keys[index] == every[index] and len(keys._computed) == held, index
    for start, stop, held in ((250, 300, 360), (300, 480, 480), (700, 800, 720),
                              (720, 730, 720)):
        assert list(keys[start:stop]) == every[start:stop], start
        assert len(keys._computed) == held, start
    with pytest.raises(IndexError):
        keys[720]
    # past order 7 it grows by exactly the keys read, summed from the edges
    g = seeded(9, 1)[0]
    first = [edge_bitset(relabel(g, sig)) for sig in itertools.islice(
        itertools.permutations(range(1, 10)), 60)]
    keys = _keys.Keys(g, False)
    assert keys._computed == []
    assert keys[0] == first[0] and len(keys._computed) == 1
    assert list(keys[10:60]) == first[10:] and len(keys._computed) == 60
    assert keys[3] == first[3] and list(keys[:5]) == first[:5]
    assert len(keys._computed) == 60
    # a fixed search asks for the graph as given, and only for it
    assert list(walk_keys(ODD_STAR, True)) == [edge_bitset(ODD_STAR)]
    asked = []
    run_batch = kernels.run_batch

    def counting(n, keys, *args):
        asked.extend(keys)
        return run_batch(n, keys, *args)

    monkeypatch.setattr(kernels, "run_batch", counting)
    search_fixed(ODD_STAR)
    assert asked == [edge_bitset(ODD_STAR)]


@pytest.mark.parametrize("g", [LabeledGraph(16, [(15, 16)]), LabeledGraph(20, [(1, 20)])])
def test_search_rejects_more_letters_than_the_kernel_has(g, monkeypatch):
    # an edge past vertex 15 used to crash packing its row (OverflowError);
    # the check comes before any key is built or any kernel call is made
    def no_kernel(*args):
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(kernels, "run_batch", no_kernel)
    for decide in (search_fixed, search_all_labelings):
        with pytest.raises(ValueError, match=r"^n must be in 1\.\.15$"):
            decide(g)


def test_fixed_flag_is_recorded():
    # the function called sets the question, and the report records it
    rep = search_fixed(GOOD_STAR)
    assert rep.fixed_labeling is True
    assert not rep.is_complete_decision       # fixed verdicts do not transfer
    neg = search_all_labelings(wheel(5))
    assert neg.fixed_labeling is False
    assert neg.is_complete_decision
    assert {r.fixed_labeling for _, r in scan_order(4)} == {False}


def test_search_settings_are_the_ones_that_take_effect():
    # no setting that an entry point overwrites, and no timing, which a
    # batched round cannot give per class
    assert [f.name for f in dataclasses.fields(SearchConfig)] == [
        "max_copies", "find_all", "node_budget"]
    assert [f.name for f in dataclasses.fields(SearchStats)] == [
        "nodes", "words_tested", "labelings_tried"]


# ---------------------------------------------------------------- budgets


def test_budget_exceeded_report():
    rep = search_all_labelings(wheel(5), SearchConfig(node_budget=1000))
    assert rep.outcome == BUDGET_EXCEEDED
    assert rep.budget_exhausted
    assert rep.stats.nodes == 1000
    assert not rep.is_complete_decision


def test_budget_is_a_per_graph_total():
    free = search_all_labelings(wheel(5))
    needed = free.stats.nodes
    assert needed == 691310            # 720 labelings, fully exhausted
    enough = search_all_labelings(wheel(5), SearchConfig(node_budget=needed))
    assert enough.outcome == NOT_REPRESENTABLE
    assert not enough.budget_exhausted
    short = search_all_labelings(wheel(5), SearchConfig(node_budget=needed - 1))
    assert short.outcome == BUDGET_EXCEEDED


def test_budget_never_blocks_a_found_witness():
    # C_5 needs few nodes; a tiny budget that still reaches the witness
    rep = search_all_labelings(cycle(5), SearchConfig(node_budget=50))
    assert rep.outcome in (REPRESENTABLE, BUDGET_EXCEEDED)
    if rep.outcome == REPRESENTABLE:
        assert is_132_representant(rep.witness, relabel(cycle(5), rep.labeling))


# --------------------------------------------- kernel results shared by labelings


def kernel_result(h, cfg, budget):
    return kernels.run_search(
        h.n, h.adjacency_masks(), 1, cfg.max_copies, True, cfg.find_all, budget)


def reference_report(g, cfg):
    """search_all_labelings without sharing: one kernel call per labeling.

    The serial walk written out: labelings in lexicographic order, the node
    budget spent in that order, stop at the first witness unless find_all.
    """
    remaining = cfg.node_budget
    nodes = tested = tried = 0
    entries = []
    winner = None
    exhausted = False
    for sig in walked_labelings(g.n):
        if remaining is not None and remaining <= 0:
            exhausted = True
            break
        wit, used, words, cut = kernel_result(relabel(g, sig), cfg, remaining)
        nodes += used
        tested += words
        tried += 1
        if wit:
            winner = winner or (sig, wit[0])
            entries.extend((sig, w) for w in wit)
        if cut:
            exhausted = True
            break
        if remaining is not None:
            remaining -= used
        if winner is not None and not cfg.find_all:
            break
    labeling = witness = None
    if winner is not None:
        labeling, witness = winner[0], Word(winner[1])
        outcome = REPRESENTABLE
    elif exhausted:
        outcome = BUDGET_EXCEEDED
    else:
        outcome = NOT_REPRESENTABLE
    return SearchReport(
        g, cfg, False, outcome, witness, labeling,
        tuple((sig, Word(w)) for sig, w in entries) if cfg.find_all else None,
        SearchStats(nodes, tested, tried), exhausted,
    )


def memoized_walk_calls(g, cfg):
    """The run_search calls of a serial walk that stores one result per graph.

    Labelings in walk order; a stored result serves a repeated labeled graph
    while its nodes fit the remaining budget, and the graph is searched
    again under that budget when they do not.
    """
    memo, calls = {}, []
    remaining = cfg.node_budget
    for sig in walked_labelings(g.n):
        if remaining is not None and remaining <= 0:
            break
        h = relabel(g, sig)
        key = edge_bitset(h)
        res = memo.get(key)
        if res is None or (remaining is not None and res[1] > remaining):
            calls.append((key, remaining))
            res = memo[key] = kernel_result(h, cfg, remaining)
        wit, used, _, cut = res
        if cut:
            break
        if remaining is not None:
            remaining -= used
        if wit and not cfg.find_all:
            break
    return calls


def repeat_budgets(g, cfg):
    """Budgets that run out on a labeling whose labeled graph came earlier.

    For the first such labeling that needs more than one node: one node
    short of the walk's total up to it (its stored result would overshoot
    the remaining budget), exactly that total, and one node over.
    """
    seen = set()
    spent = 0
    for sig in walked_labelings(g.n):
        h = relabel(g, sig)
        nodes = kernel_result(h, cfg, None)[1]
        if h.edges in seen and nodes > 1:
            total = spent + nodes
            return [total - 1, total, total + 1]
        seen.add(h.edges)
        spent += nodes
    raise AssertionError("no repeated labeled graph")


def test_kernel_runs_once_per_distinct_labeled_graph(monkeypatch):
    # 720 labelings fall into 720 / |Aut| automorphism cosets, one distinct
    # labeled graph each: 72 for wheel(5), 60 for prism(3)
    run_batch = kernels.run_batch

    def no_search(*args):
        raise AssertionError("a search called kernels.run_search")

    monkeypatch.setattr(kernels, "run_search", no_search)
    for g, distinct, nodes in ((wheel(5), 72, 691310), (prism(3), 60, 715488)):
        batched = []

        def counting(n, keys, *args):
            batched.extend(keys)
            return run_batch(n, keys, *args)

        monkeypatch.setattr(kernels, "run_batch", counting)
        rep = search_all_labelings(g)
        assert len(batched) == len(set(batched)) == 720 // len(automorphisms(g))
        assert len(batched) == distinct
        assert set(batched) == {edge_bitset(relabel(g, sig))
                                for sig in walked_labelings(6)}
        assert rep.stats.nodes == nodes
        assert rep.stats.labelings_tried == 720


@pytest.mark.parametrize("g", [wheel(5), prism(3)], ids=["wheel5", "prism3"])
def test_shared_results_match_a_walk_without_sharing(g):
    cfgs = [SearchConfig(), SearchConfig(node_budget=1000), SearchConfig(node_budget=250000)]
    cfgs += [SearchConfig(node_budget=b) for b in repeat_budgets(g, SearchConfig())]
    for cfg in cfgs:
        expected = dumps(report_to_json(reference_report(g, cfg)))
        got = dumps(report_to_json(search_all_labelings(g, cfg)))
        assert got == expected, cfg


def test_shared_results_match_with_find_all():
    g = cycle(5)
    base = SearchConfig(find_all=True)
    cfgs = [base] + [replace(base, node_budget=b) for b in repeat_budgets(g, base)]
    for cfg in cfgs:
        ref = reference_report(g, cfg)
        if cfg.node_budget is None:
            assert len(ref.all_witnesses) > ref.stats.labelings_tried
        expected = dumps(report_to_json(ref))
        got = dumps(report_to_json(search_all_labelings(g, cfg)))
        assert got == expected, cfg


# --------------------------------------------------- one driver, both kernels


# A search at n = 12 under RLIMIT_AS of 1 GiB, in a child process: a list
# of the 12! labelings would take gigabytes, and the walk needs one.
LAZY_LABELINGS = LOAD_PACKAGE + """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from rep132.graphs import LabeledGraph
from rep132.search import SearchConfig, search_all_labelings
rep = search_all_labelings(LabeledGraph(12, [(1, 2)]), SearchConfig(node_budget=10))
print(rep.outcome, rep.stats.labelings_tried)
"""


def test_budgeted_search_draws_labelings_lazily(request):
    done = run_child(LAZY_LABELINGS, "python", request)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [BUDGET_EXCEEDED, "1"]


# Order-8 searches end to end, past the order through which keys come in
# blocks: K4 and K4 apart, and wheel(7) with and without a node budget
K4_K4 = LabeledGraph(8, [p for part in ((1, 2, 3, 4), (5, 6, 7, 8))
                         for p in itertools.combinations(part, 2)])
ORDER_EIGHT_SEARCHES = [
    (wheel(7), None, NOT_REPRESENTABLE, SearchStats(711_040_708, 144_669_028, 40_320)),
    (K4_K4, None, NOT_REPRESENTABLE, SearchStats(767_015_424, 160_038_144, 40_320)),
    (wheel(7), 10**6, BUDGET_EXCEEDED, SearchStats(1_000_000, 189_463, 62)),
]


@pytest.mark.parametrize("g, budget, outcome, stats", ORDER_EIGHT_SEARCHES,
                         ids=["wheel7", "k4_k4", "wheel7_budget_1e6"])
def test_order_eight_searches_walk_every_labeling_they_need(g, budget, outcome, stats):
    rep = search_all_labelings(g, SearchConfig(node_budget=budget))
    assert (rep.outcome, rep.stats) == (outcome, stats)
    assert rep.witness is None and not rep.is_complete_decision


def test_a_search_past_order_seven_sums_only_the_keys_it_reads(monkeypatch):
    # each of these is decided at its first labeling, the identity, whose
    # key is the only one summed: its first round asks for one graph.
    # (path(12) would do too, but its one search takes 10 s on the Python
    # kernel; complete(12)'s takes 12 nodes.)
    drawn = []
    labeling_keys = _keys._labeling_keys

    def counting(adj, sigmas):
        for key in labeling_keys(adj, sigmas):
            drawn.append(key)
            yield key

    monkeypatch.setattr(_keys, "_labeling_keys", counting)
    for g in (path(9), cycle(9), complete(12)):
        drawn.clear()
        rep = search_all_labelings(g)
        assert (rep.outcome, rep.stats.labelings_tried) == (REPRESENTABLE, 1), g
        assert drawn == [edge_bitset(g)], g


# The JSON report of every single-graph search below, on the backend the
# child process selects: unbudgeted, at 1,000 nodes, and one node short of
# what the unbudgeted search takes.
SINGLE_GRAPH_REPORTS = LOAD_PACKAGE + """
from dataclasses import replace
from rep132.formats import dumps, report_to_json
from rep132.graphs import cycle, prism, wheel
from rep132.search import SearchConfig, search_all_labelings, search_fixed
print(kernels.backend_name())
for g, base in ((wheel(5), SearchConfig()), (prism(3), SearchConfig()),
                (cycle(5), SearchConfig(find_all=True))):
    for search in (search_all_labelings, search_fixed):
        needed = search(g, base).stats.nodes
        for budget in (None, 1000, needed - 1):
            print(dumps(report_to_json(search(g, replace(base, node_budget=budget)))))
"""


def test_single_graph_reports_match_across_backends(request):
    py = run_child(SINGLE_GRAPH_REPORTS, "python", request)
    c = run_child(SINGLE_GRAPH_REPORTS, "c", request)
    assert py.returncode == 0, py.stderr
    assert c.returncode == 0, c.stderr
    backend_py, reports_py = py.stdout.split("\n", 1)
    backend_c, reports_c = c.stdout.split("\n", 1)
    assert (backend_py, backend_c) == ("python", "c")
    assert reports_c == reports_py
    assert reports_py.count('"outcome"') == 18
    assert reports_py.count('"budget-exceeded"') >= 6


# ------------------------------------------------------------------- scans


def test_scan_small_orders():
    by_order = {2: 1, 3: 2, 4: 7}
    for order, expected in by_order.items():
        entries = scan_order(order)
        assert len(entries) == expected
        for g, rep in entries:
            assert rep.outcome == REPRESENTABLE
            assert is_132_representant(rep.witness, relabel(g, rep.labeling))


def test_scan_orders_by_edge_count():
    entries = scan_order(4)
    sizes = [len(g.edges) for g, _ in entries]
    assert sizes == sorted(sizes)


def test_scan_passes_its_config_through():
    # a scan's report of a class is the single search's, config included:
    # the scan adds no node budget of its own
    for cfg in (SearchConfig(), SearchConfig(node_budget=1000),
                SearchConfig(max_copies=1, find_all=True)):
        for g, rep in scan_order(4, cfg):
            assert rep.config == cfg
            assert rep == search_all_labelings(g, cfg)


def patch_cpus(monkeypatch, count):
    """Make scan_order see count usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def count_starts(monkeypatch):
    """The groups scan_order hands to child processes, one list per start;
    each child still starts and decides its group."""
    started = []
    start_group = search._start_group

    def counting(ctx, n, group, cfg):
        started.append(list(group))
        return start_group(ctx, n, group, cfg)

    monkeypatch.setattr(search, "_start_group", counting)
    return started


def split_small_scans(monkeypatch):
    """Make scan_order split an order-4 or order-5 scan into groups, as it
    does order 7's: with 32-graph kernel batches, their first rounds (7 and
    23 classes, FIRST_ASKS graphs each) span more than one batch."""
    monkeypatch.setattr(search, "BATCH_GRAPHS", 4 * search.FIRST_ASKS)


def assert_no_children():
    # every child process has been joined: none left running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cfg", [
    SearchConfig(),
    SearchConfig(node_budget=1000),
])
def test_parallel_scan_reports_are_byte_identical(cfg, monkeypatch):
    patch_cpus(monkeypatch, 3)
    split_small_scans(monkeypatch)
    started = count_starts(monkeypatch)
    serial = scan_order(5, cfg, workers=1)
    if cfg.node_budget is not None:
        assert any(rep.outcome == BUDGET_EXCEEDED for _, rep in serial)
    for workers in (2, 3):
        parallel = scan_order(5, cfg, workers=workers)
        assert dumps(catalog_to_json(5, parallel)) == dumps(catalog_to_json(5, serial))
    classes = scan_classes(5)
    assert started == [classes[1::2], classes[1::3], classes[2::3]]
    assert_no_children()


def test_parallel_scan_starts_one_child_per_extra_group(monkeypatch):
    patch_cpus(monkeypatch, 3)
    split_small_scans(monkeypatch)
    started = count_starts(monkeypatch)
    assert len(scan_order(5, workers=2)) == 23
    assert len(started) == 1
    assert len(scan_order(5, workers=3)) == 23
    assert len(started) == 3
    scan_order(5, workers=1)
    assert len(started) == 3
    # the worker count has one source, the argument, which defaults to 1
    monkeypatch.setenv("REP132_WORKERS", "3")
    scan_order(4)
    assert len(started) == 3
    with pytest.raises(ValueError, match=r"^workers must be >= 1$"):
        scan_order(4, workers=0)
    assert len(started) == 3
    assert_no_children()


def test_scan_workers_must_be_an_int(monkeypatch):
    # workers=1.5 used to raise from range() after every class was
    # enumerated, workers=2.5 ran 2 groups on two CPUs, and workers=True
    # ran one; a non-int, a bool included, now raises TypeError before any
    # class is enumerated
    patch_cpus(monkeypatch, 2)
    started = count_starts(monkeypatch)
    enumerated = []
    monkeypatch.setattr(search, "enumerate_graphs",
                        lambda *args, **kw: enumerated.append(args) or [])
    for bad in (1.5, 2.5, "2", None, True, False):
        with pytest.raises(TypeError):
            scan_order(4, workers=bad)
    assert enumerated == [] and started == []
    with pytest.raises(ValueError, match=r"^workers must be >= 1$"):
        scan_order(4, workers=0)
    assert enumerated == []
    assert scan_order(4, workers=1) == []
    assert_no_children()


def test_parallel_scan_starts_at_most_one_process_per_cpu_and_class(monkeypatch):
    started = count_starts(monkeypatch)
    patch_cpus(monkeypatch, 3)
    split_small_scans(monkeypatch)
    scan_order(5, workers=1000)  # 23 classes, 3 CPUs: 3 groups
    assert len(started) == 2
    scan_order(2, workers=1000)  # one class: no child
    assert len(started) == 2
    assert [len(g) for g in started] == [8, 7]
    # without sched_getaffinity the CPU count is os.cpu_count(), or 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    scan_order(4, workers=1000)
    assert len(started) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    scan_order(4, workers=1000)
    assert len(started) == 3
    assert_no_children()


ORDER_SIX_WITH_TWO_WORKERS = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from rep132 import search
search.scan_order(6, workers=2)
print("multiprocessing" in sys.modules)
"""


def test_a_scan_whose_first_round_is_one_batch_starts_no_child(monkeypatch):
    # order 6's first round, 122 classes of FIRST_ASKS graphs each, is one
    # kernel batch; each interleaved half's union would walk most of the
    # whole one's nodes, so two workers decide it in this process
    patch_cpus(monkeypatch, 2)
    started = count_starts(monkeypatch)
    serial = scan_order(6, workers=1)
    parallel = scan_order(6, workers=2)
    assert started == []
    assert dumps(catalog_to_json(6, parallel)) == dumps(catalog_to_json(6, serial))
    # order 7's 888 classes span many batches, so they still split, one
    # group per worker and CPU; the decision reads only the class count
    assert search._groups(len(serial), 2) == 1
    for workers in (1, 2, 3, 1000):
        assert search._groups(888, workers) == min(workers, 2)
    assert_no_children()
    # a fresh process that runs it never loads multiprocessing
    env = {k: v for k, v in os.environ.items() if not k.startswith("REP132_")}
    env["PYTHONPATH"] = str(Path(search.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", ORDER_SIX_WITH_TWO_WORKERS],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def decide_or(parent_does, child_does):
    """A stand-in for search._decide_classes: in this process parent_does
    (None: the real decision), in any child child_does."""
    decide = search._decide_classes
    parent = os.getpid()

    def stand_in(n, group, cfg, fixed=False):
        act = parent_does if os.getpid() == parent else child_does
        if act is None:
            return decide(n, group, cfg, fixed)
        return act()

    return stand_in


def fail(error):
    def act():
        raise error
    return act


# decide_or reaches a child through the fork that copies the patched module
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@needs_fork
def test_a_childs_exception_is_raised_in_the_parent(monkeypatch):
    patch_cpus(monkeypatch, 2)
    split_small_scans(monkeypatch)
    monkeypatch.setattr(search, "_decide_classes", decide_or(
        None, fail(LookupError("no such labeling 7"))))
    with pytest.raises(LookupError, match=r"^no such labeling 7$"):
        scan_order(5, workers=2)
    assert_no_children()


@needs_fork
def test_a_child_that_ends_without_reports_is_an_error(monkeypatch):
    patch_cpus(monkeypatch, 2)
    split_small_scans(monkeypatch)
    monkeypatch.setattr(search, "_decide_classes", decide_or(
        None, lambda: os._exit(3)))
    with pytest.raises(RuntimeError, match=r"exit code 3\b"):
        scan_order(5, workers=2)
    assert_no_children()


@needs_fork
def test_the_parents_exception_stops_every_child(monkeypatch):
    # the children would take a minute; the parent's error ends them at once
    patch_cpus(monkeypatch, 3)
    split_small_scans(monkeypatch)
    monkeypatch.setattr(search, "_decide_classes", decide_or(
        fail(ArithmeticError("parent group failed")), lambda: time.sleep(60)))
    t0 = time.monotonic()
    with pytest.raises(ArithmeticError, match=r"^parent group failed$"):
        scan_order(5, workers=3)
    assert time.monotonic() - t0 < 30
    assert_no_children()


PARALLEL_AFTER_BUFFERED_OUTPUT = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from rep132 import search
search.BATCH_GRAPHS = 4 * search.FIRST_ASKS  # order 4 then forks (7 classes)
sys.stdout.write("before the scan;")  # held in the buffer: stdout is a pipe
search.scan_order(4, workers=2)
sys.stdout.write(" after it\\n")
"""


def test_buffered_output_is_written_once_by_a_parallel_scan():
    # a forked child holds a copy of the parent's stdout buffer; were it
    # flushed there too, the text before the scan would appear twice
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONUNBUFFERED" and not k.startswith("REP132_")}
    env["PYTHONPATH"] = str(Path(search.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", PARALLEL_AFTER_BUFFERED_OUTPUT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "before the scan; after it\n"


SCAN_CONFIGS = [
    SearchConfig(),
    SearchConfig(node_budget=1000),
]
SCAN_IDS = ["default", "budget1000"]


def scan_classes(n):
    return sorted(enumerate_graphs(n, isolate_free=True),
                  key=lambda h: (len(h.edges), h.edge_list()))


def per_class_reports(n, cfg):
    """What scan_order(n, cfg) reports, class by class by reference_report."""
    return [(h, reference_report(h, cfg)) for h in scan_classes(n)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cfg", SCAN_CONFIGS, ids=SCAN_IDS)
def test_scan_rounds_report_what_per_class_searches_do(cfg, workers, monkeypatch):
    if workers > 1:
        patch_cpus(monkeypatch, workers)
        split_small_scans(monkeypatch)
    expected = per_class_reports(5, cfg)
    got = scan_order(5, cfg, workers=workers)
    assert [g for g, _ in got] == [g for g, _ in expected]
    for (_, a), (_, b) in zip(got, expected):
        assert a.config == b.config
        assert dumps(report_to_json(a)) == dumps(report_to_json(b))
    if cfg.node_budget == 1000:
        assert sum(rep.outcome == BUDGET_EXCEEDED for _, rep in got) == 3


@pytest.mark.parametrize("cfg", SCAN_CONFIGS, ids=SCAN_IDS)
def test_scan_batches_exactly_the_per_class_kernel_calls(cfg, monkeypatch):
    # Rounds batch every graph that the per-class loop passes to run_search,
    # under at least its budget: a result searched ahead of the walk under
    # a larger budget serves where it fits. Beyond them come only
    # speculative entries: in each round, a class's other entries are
    # distinct labeled graphs of that class not searched before, under the
    # budget of the entry its walk needs, its group's one budget.
    searched = [call for h in scan_classes(5)
                for call in memoized_walk_calls(h, cfg)]
    rounds = []
    run_batch = kernels.run_batch

    def counting_batch(n, keys, *args):
        budgets = [b for b, size in zip(args[4], args[5]) for _ in range(size)]
        rounds.append(list(zip(keys, budgets)))
        return run_batch(n, keys, *args)

    monkeypatch.setattr(kernels, "run_batch", counting_batch)
    scan_order(5, cfg, workers=1)
    batched = [pair for batch in rounds for pair in batch]
    assert not Counter(k for k, _ in searched) - Counter(k for k, _ in batched)

    def limit(budget):  # a None budget is no limit
        return math.inf if budget is None else budget

    for key, budget in searched:
        assert any(k == key and limit(b) >= limit(budget) for k, b in batched)
    # the first round asks for 8 distinct labeled graphs of each of the 23
    # classes, or for all that a class has
    assert len(rounds[0]) == 174

    class_of = scan_class_of(5)
    searched = set(searched)
    done = {}  # (class, key) -> budget it was last searched under
    for batch in rounds:
        by_class = {}
        for key, budget in batch:
            by_class.setdefault(class_of[key], []).append((key, budget))
        for i, entries in by_class.items():
            budgets = {b for _, b in entries}
            assert len(budgets) == 1, entries
            (budget,) = budgets
            keys = [k for k, _ in entries]
            assert len(set(keys)) == len(keys)
            # the entry the walk needs is one of the per-class calls
            assert any(pair in searched for pair in entries)
            again = [k for k in keys if (i, k) in done]
            # only the walk's own entry may repeat a graph: a rerun under
            # a smaller budget, which the earlier result did not fit
            assert len(again) <= 1
            for k in again:
                assert (k, budget) in searched and limit(done[i, k]) > limit(budget)
            done.update({(i, k): budget for k in keys})


def scan_class_of(n):
    """The index in scan order of the class of each labeled graph on n
    vertices, by the graph's key."""
    return {edge_bitset(relabel(h, sig)): i
            for i, h in enumerate(scan_classes(n)) for sig in walked_labelings(n)}


@pytest.mark.parametrize("cfg", SCAN_CONFIGS, ids=SCAN_IDS)
def test_scan_drops_only_graphs_its_walks_never_read(cfg, monkeypatch):
    # Each batch groups a class's entries, consecutive in walk order. A
    # class's entry after its first hit comes back None, and nothing asks
    # for that labeled graph of that class again. Under a budget of 1000
    # nodes, both union searches pass the budget and fall back to one
    # search per graph, which drops entries as the union does. The expected
    # reports come first: their run_search calls are one-key run_batch
    # calls too.
    expected = per_class_reports(5, cfg)
    class_of = scan_class_of(5)
    dropped = set()  # (class, key)
    run_batch = kernels.run_batch

    def counting_batch(n, keys, *args):
        entries = list(keys)
        classes = [class_of[k] for k in entries]
        runs = [(i, len(list(run))) for i, run in itertools.groupby(classes)]
        assert len({i for i, _ in runs}) == len(runs)
        assert list(args[5]) == [size for _, size in runs]
        assert not dropped & set(zip(classes, entries))
        found = run_batch(n, keys, *args)
        dropped.update((i, k) for i, k, res in zip(classes, entries, found) if res is None)
        return found

    monkeypatch.setattr(kernels, "run_batch", counting_batch)
    got = scan_order(5, cfg, workers=1)
    assert dropped
    assert [dumps(report_to_json(rep)) for _, rep in got] == \
        [dumps(report_to_json(rep)) for _, rep in expected]


def test_scan_sends_no_empty_kernel_call(monkeypatch):
    # At order 5 with 174 graphs a slice, a slice ends exactly where its
    # round does; the round's closing flush must then send nothing.
    expected = scan_order(5, workers=1)
    run_batch = kernels.run_batch
    sizes = []

    def counting_batch(n, keys, *args):
        sizes.append(len(keys))
        return run_batch(n, keys, *args)

    monkeypatch.setattr(search, "BATCH_GRAPHS", 174)
    monkeypatch.setattr(kernels, "run_batch", counting_batch)
    got = scan_order(5, workers=1)
    assert 174 in sizes and 0 not in sizes
    assert [dumps(report_to_json(rep)) for _, rep in got] == \
        [dumps(report_to_json(rep)) for _, rep in expected]


def test_scan_order_six_summary():
    entries = scan_order(6)
    assert len(entries) == 122
    outcomes = [rep.outcome for _, rep in entries]
    assert outcomes.count(REPRESENTABLE) == 118
    assert outcomes.count(NOT_REPRESENTABLE) == 4
    from rep132.graphs import canonical_form
    nonrep = {g for g, rep in entries if rep.outcome == NOT_REPRESENTABLE}
    assert canonical_form(wheel(5)) in nonrep
    assert canonical_form(prism(3)) in nonrep
    # the other two: K_{3,3} and the octahedron (= K_{2,2,2})
    k33 = LabeledGraph(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
    octa = LabeledGraph(6, [p for p in itertools.combinations(range(1, 7), 2)
                            if p not in ((1, 2), (3, 4), (5, 6))])
    assert canonical_form(k33) in nonrep
    assert canonical_form(octa) in nonrep


def representable_keys(backend, n):
    """The labeled graphs on n vertices with a witness: the keys for which
    one run_batch over every key, each its own group and unbudgeted, finds
    one."""
    keys = range(2 ** (n * (n - 1) // 2))
    found = backend.run_batch(n, keys, 1, 2, True, False, [None] * len(keys))
    return {key for key, (witnesses, *_) in zip(keys, found) if witnesses}


def test_one_union_over_every_key_agrees_with_the_scan(request):
    # The words side of the question, with no labeling walk: one union
    # search over all 2 ** C(n, 2) labeled graphs of order n. Its counts of
    # labeled graphs with a witness, and the order-6 classes none of whose
    # labelings has one, must be what the per-class scan decides.
    labeled = [1, 2, 8, 64, 779]
    python = kernels.load_backend("python")
    assert [len(representable_keys(python, n)) for n in range(1, 6)] == labeled
    hits = representable_keys(python, 6)
    assert len(hits) == 9865
    none_hit = [h for h in enumerate_graphs(6, isolate_free=True)
                if hits.isdisjoint(edge_bitset(relabel(h, sigma))
                                   for sigma in walked_labelings(6))]
    assert none_hit == [g for g, rep in scan_order(6) if rep.outcome == NOT_REPRESENTABLE]
    # last, as it skips where the compiled kernel cannot be built
    compiled = request.getfixturevalue("compiled_kernel")
    assert [len(representable_keys(compiled, n)) for n in range(1, 6)] == labeled


def test_order_six_scan_takes_at_most_three_rounds(monkeypatch):
    # 8 graphs per class in the first round and 4 times as many in each
    # round after: 967, 1,833 and 2,100 graphs
    calls = []
    run_batch = kernels.run_batch

    def counting(n, keys, *args):
        calls.append(len(keys))
        return run_batch(n, keys, *args)

    monkeypatch.setattr(kernels, "run_batch", counting)
    assert len(scan_order(6)) == 122
    assert len(calls) <= 3


def test_the_first_round_asks_for_one_graph_only_when_its_class_is_alone(monkeypatch):
    # A lone search asks for the one graph its walk needs in its first
    # round, and speculates from its second; with two classes, each asks
    # for 8 in the first round, and for 32 in the second. Each class is one
    # group, under one budget.
    calls = []
    run_batch = kernels.run_batch

    def recording(n, keys, min_copies, max_copies, forbid_132, find_all,
                  node_budgets, group_sizes):
        calls.append((list(group_sizes), list(node_budgets)))
        return run_batch(n, keys, min_copies, max_copies, forbid_132, find_all,
                         node_budgets, group_sizes)

    monkeypatch.setattr(kernels, "run_batch", recording)
    search_all_labelings(wheel(5))
    assert calls[0] == ([1], [None]) and calls[1][0] == [32]
    del calls[:]
    search._decide_classes(6, [wheel(5), prism(3)], SearchConfig(node_budget=10**6))
    assert calls[0] == ([8, 8], [10**6] * 2)
    assert calls[1][0] == [32, 32] and all(b < 10**6 for b in calls[1][1])


def test_order_six_scan_makes_the_pinned_kernel_calls(monkeypatch):
    # Every argument of every kernels.run_batch call of an order-6 scan, as
    # recorded when run_batch came to take one budget per group: the keys
    # and groups are those recorded when the keys came in blocks behind a
    # sliding window. A change to the speculation schedule re-pins this
    # digest and says why.
    calls = []
    run_batch = kernels.run_batch

    def recording(n, keys, min_copies, max_copies, forbid_132, find_all,
                  node_budgets, group_sizes):
        calls.append((n, list(keys), min_copies, max_copies, forbid_132, find_all,
                      list(node_budgets), list(group_sizes)))
        return run_batch(n, keys, min_copies, max_copies, forbid_132, find_all,
                         node_budgets, group_sizes)

    monkeypatch.setattr(kernels, "run_batch", recording)
    scan_order(6, SearchConfig(node_budget=10**9))
    assert len(calls) == 3
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == \
        "5c49a803fe0bf8a21100001f447179c2a7aa57c6301701fd1d220665ddbb9a95"
    # a scan with no budget makes the same calls, every group unbudgeted
    budgeted, calls[:] = calls[:], []
    scan_order(6)
    assert calls == [call[:6] + ([None] * len(call[6]),) + call[7:] for call in budgeted]


# Scans whose every kernels.run_batch call and its result are pinned below:
# a budget small enough that unions abort and fall back to per-graph
# searches, find_all, and the default order-6 scan.
PINNED_BATCH_SCANS = [
    (5, SearchConfig(node_budget=1000),
     "8abfa7131537ed87195698f66ce814ec958893fb4e791509376d62a9dcdc4994"),
    (5, SearchConfig(find_all=True),
     "2d5aa2fa08726dc2a8575b438a5eb51607827ffe681ee95b77e11305ed76fd64"),
    (6, SearchConfig(),
     "18fe5ed8e9e0e5e820122935d37151e28d916dbf1dc85e0679123379f93f295f"),
]


@pytest.mark.parametrize("backend", ["python", "c"])
def test_scans_get_the_pinned_batch_results(backend, request, monkeypatch):
    # Each call's arguments and its entries (witnesses, nodes, words tested,
    # budget exceeded, or None), digested per scan, so a change to either
    # kernel's per-graph tallies fails here and not only when the twins
    # disagree.
    module = (kernels.load_backend("python") if backend == "python"
              else request.getfixturevalue("compiled_kernel"))
    calls = []

    def recording(n, keys, min_copies, max_copies, forbid_132, find_all,
                  node_budgets, group_sizes=None):
        call = (n, list(keys), min_copies, max_copies, forbid_132, find_all,
                list(node_budgets), None if group_sizes is None else list(group_sizes))
        calls.append((call, module.run_batch(*call)))
        return calls[-1][1]

    monkeypatch.setattr(kernels, "run_batch", recording)
    for n, cfg, digest in PINNED_BATCH_SCANS:
        del calls[:]
        scan_order(n, cfg)
        assert hashlib.sha256(repr(calls).encode()).hexdigest() == digest, (n, cfg)


def test_a_decided_class_is_dropped_before_the_next_slice(monkeypatch):
    # slices of 16 graphs, so each round of an order-5 scan takes several
    # kernel calls and classes are decided between the slices of a round
    expected = scan_order(5)
    monkeypatch.setattr(search, "BATCH_GRAPHS", 16)
    walks, finished_alive = [], []
    walk, run_batch = search._walk, kernels.run_batch

    def tracked(*args):
        gen = walk(*args)
        walks.append(weakref.ref(gen))
        return gen

    def checking(*args):
        alive = [w() for w in walks if w() is not None]
        finished_alive.append(sum(gen.gi_frame is None for gen in alive))
        return run_batch(*args)

    monkeypatch.setattr(search, "_walk", tracked)
    monkeypatch.setattr(kernels, "run_batch", checking)
    assert scan_order(5) == expected
    assert len(finished_alive) > 3
    # a finished walk still alive is a decided class's record kept: its
    # walk, its results and its keys
    assert finished_alive == [0] * len(finished_alive)
    assert all(w() is None for w in walks)


# The tracemalloc peak of the rounds of an order-6 scan on the Python
# kernel, in a child process: a second _decide_classes over the 122
# classes, after a first has built the tables both use.
SCAN_MEMORY = LOAD_PACKAGE + """
import tracemalloc
from rep132.graphs import enumerate_graphs
from rep132.search import SearchConfig, _decide_classes
classes = list(enumerate_graphs(6, isolate_free=True))
cfg = SearchConfig()
_decide_classes(6, classes, cfg)
tracemalloc.start()
_decide_classes(6, classes, cfg)
print(kernels.backend_name(), tracemalloc.get_traced_memory()[1])
"""


def test_order_six_rounds_peak_under_a_megabyte(request):
    done = run_child(SCAN_MEMORY, "python", request)
    assert done.returncode == 0, done.stderr
    backend, peak = done.stdout.split()
    assert backend == "python"
    assert int(peak) <= 1_000_000


# Each order-7 class's fingerprint, in scan order: its edges, outcome,
# witness, nodes, words tested and labelings tried. The pinned report bytes
# carry no node counts, so this is what pins the tallies at order 7.
SCAN7_STATS = LOAD_PACKAGE + """
import hashlib
from rep132.search import scan_order
prints = [(g.edge_list(), rep.outcome, str(rep.witness), rep.stats.nodes,
           rep.stats.words_tested, rep.stats.labelings_tried)
          for g, rep in scan_order(7)]
print(kernels.backend_name(), len(prints), hashlib.sha256(repr(prints).encode()).hexdigest())
"""


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["python", "c"])
def test_order_seven_stats_are_pinned(backend, request):
    done = run_child(SCAN7_STATS, backend, request)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        backend, "888", "02e49ebbdd9b9b7744964750ba95cb05e90b62c5194968241d1df52e630874cc"]


# Each order, with its classes not representable, through which the copy
# bound is checked below
COPY_BOUND_ORDERS = [(4, 0), (5, 0), (6, 4)]


@pytest.mark.parametrize("n, not_representable", COPY_BOUND_ORDERS)
def test_copy_bound_holds_at_class_level(n, not_representable):
    # The decision rests on two copies per letter being enough (see the
    # rep132.search docstring): three copies leave the same classes
    # not representable.
    def negatives(cfg):
        entries = scan_order(n, cfg)
        assert all(rep.outcome != BUDGET_EXCEEDED for _, rep in entries)
        return [g for g, rep in entries if rep.outcome == NOT_REPRESENTABLE]

    two = negatives(SearchConfig())
    assert len(two) == not_representable
    assert negatives(SearchConfig(max_copies=3)) == two


def test_complete_decisions_end_where_the_copy_bound_is_checked():
    # a negative is a complete decision only through the order that the
    # test above checks (test_cli: K4 and K4 apart, on 8 vertices, is not)
    assert search.COPY_BOUND_CHECKED_N == max(n for n, _ in COPY_BOUND_ORDERS)


# ------------------------------------------------------------------ reports


def test_witnesses_always_verified():
    # every representable report exposes a verified witness; exercised on a
    # sweep of all 5-vertex classes
    for g in enumerate_graphs(5, isolate_free=True):
        rep = search_all_labelings(g)
        assert rep.outcome == REPRESENTABLE
        assert is_132_representant(rep.witness, relabel(g, rep.labeling))


# A search in a child process run with python -O, every witness check
# failing: each search must raise, not report an unchecked witness.
UNSOUND_WITNESSES = LOAD_PACKAGE + """
from rep132 import search
from rep132.graphs import cycle
search.is_132_representant = lambda word, g: False
print("debug" if __debug__ else "optimized")
for decide, cfg in ((search.search_fixed, search.SearchConfig()),
                    (search.search_all_labelings, search.SearchConfig()),
                    (search.search_all_labelings, search.SearchConfig(find_all=True))):
    try:
        decide(cycle(5), cfg)
    except RuntimeError as e:
        print(e)
    else:
        print("unchecked")
"""


def test_witness_checks_hold_under_optimize():
    package = Path(kernels.__file__).parent
    done = subprocess.run(
        [sys.executable, "-O", "-c", UNSOUND_WITNESSES, str(package), str(package)],
        env=dict(os.environ, REP132_BACKEND="python"),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "optimized"
    assert len(lines) == 4
    assert all(line.startswith("unsound witness ") for line in lines[1:]), lines



def test_witness_check_agrees_with_is_132_representant():
    # _check_witness reads g's masks and the word alone; it must accept
    # exactly what the representation check of the relabeled graph accepts
    rng = random.Random(7)
    cases = 0
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        sigmas = list(itertools.permutations(range(1, n + 1)))
        for mask in range(1 << len(pairs)):
            g = LabeledGraph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            for sigma in rng.sample(sigmas, min(3, len(sigmas))):
                found = search_fixed(relabel(g, sigma)).witness
                words = [Word(rng.choices(range(1, n + 2), k=rng.randint(1, 2 * n + 1)))
                         for _ in range(4)]
                for word in ([found] if found else []) + words:
                    expect = is_132_representant(word, relabel(g, sigma))
                    try:
                        search._check_witness(g, sigma, word)
                    except RuntimeError as e:
                        assert not expect and str(e).startswith("unsound witness "), e
                    else:
                        assert expect
                    cases += 1
    assert cases > 1000
    search._check_witness(complete(3), (1, 2, 3), Word("123"))
    for g, sigma, word in ((complete(3), (1, 2, 3), Word("132")),  # a 132
                           (complete(3), (1, 2, 2), Word("123")),  # no labeling
                           (complete(3), (1, 2, 3), Word("124")),  # a letter past n
                           (complete(3), (1, 2, 3), Word("12")),  # a letter missing
                           (cycle(4), (1, 2, 3, 4), Word("1234"))):  # K4's word
        with pytest.raises(RuntimeError, match="unsound witness"):
            search._check_witness(g, sigma, word)


def test_witness_check_catches_a_wrong_key(monkeypatch):
    # a kernel asked about the wrong graph answers with a word that
    # represents that graph: the check, which reads no key, must refuse it
    run_batch = kernels.run_batch
    monkeypatch.setattr(kernels, "run_batch", lambda n, keys, *rest: run_batch(
        n, [key ^ 1 for key in keys], *rest))
    for decide in (search_fixed, search_all_labelings):
        with pytest.raises(RuntimeError, match="unsound witness"):
            decide(cycle(5))


def test_report_shape():
    rep = search_fixed(GOOD_STAR)
    assert isinstance(rep, SearchReport)
    assert rep.graph == GOOD_STAR
    assert rep.stats.nodes >= rep.stats.words_tested
    assert rep.all_witnesses is None        # only populated by find_all
