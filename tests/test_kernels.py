"""DFS kernel: backend parity, one contract, budgets, and the brute-force
oracle, which shows on both backends that each prune cuts no witness."""

import gc
import inspect
import itertools
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

from conftest import (
    LOAD_PACKAGE,
    brute_buckets,
    c_compiler,
    run_child,
)
from rep132 import kernels
from rep132.graphs import (
    LabeledGraph,
    complete,
    cycle,
    edge_bitset,
    enumerate_graphs,
    graph_from_bitset,
    path,
    prism,
    star,
    wheel,
)

BATTERY = [
    LabeledGraph(1, []),
    LabeledGraph(2, []),
    LabeledGraph(2, [(1, 2)]),
    path(3),
    complete(3),
    star(3),
    LabeledGraph(4, [(1, 2), (1, 3), (1, 4)]),
    cycle(4),
    cycle(5),
    complete(4),
    LabeledGraph(5, [(1, 2), (1, 3), (2, 4), (3, 5), (4, 5)]),
    prism(3),
    wheel(5),
]

# 15 letters, the most a kernel takes (MAX_N)
TOP_LANE = [
    LabeledGraph(15, []),
    LabeledGraph(15, [(14, 15)]),
    complete(15),
    wheel(14),
]


def run(backend, g, **kw):
    args = dict(min_copies=1, max_copies=2, forbid_132=True,
                find_all=True, node_budget=None)
    args.update(kw)
    return backend.run_search(
        g.n, g.adjacency_masks(), args["min_copies"], args["max_copies"],
        args["forbid_132"], args["find_all"], args["node_budget"],
    )


# ---------------------------------------------------------------- backends


def test_backend_is_loaded_and_named():
    assert kernels.backend_name() in ("c", "python")
    assert kernels.MAX_N >= 15


@pytest.mark.usefixtures("compiled_kernel")
def test_load_backend_by_name():
    py = kernels.load_backend("python")
    assert py.__name__.endswith("_kernel_py")
    c = kernels.load_backend("c")
    assert c.__name__.endswith("_kernel")
    assert c.MAX_N == py.MAX_N == kernels.MAX_N
    with pytest.raises(ValueError):
        kernels.load_backend("fortran")


def test_every_kernel_entry_point_has_one_signature(request):
    # One contract: the same parameter names and defaults on kernels and on
    # both backends, so an option that one of them alone takes fails here.
    # The compiled ones are read from their docstrings' text signatures.
    def shape(f):
        return [(p.name, p.default) for p in inspect.signature(f).parameters.values()]

    py = kernels.load_backend("python")
    for name in ("run_search", "run_batch"):
        assert shape(getattr(kernels, name)) == shape(getattr(py, name)), name
    compiled = request.getfixturevalue("compiled_kernel")
    for name in ("run_search", "run_batch"):
        assert shape(getattr(compiled, name)) == shape(getattr(py, name)), name


@pytest.mark.usefixtures("compiled_kernel")
def test_backends_agree_exactly():
    py = kernels.load_backend("python")
    c = kernels.load_backend("c")

    def agree(g, **kw):
        a = run(py, g, **kw)
        assert a == run(c, g, **kw), (g.edge_list(), kw)
        return a

    for g in BATTERY:
        for maxc in (1, 2, 3):
            for find_all in (False, True):
                nodes = agree(g, max_copies=maxc, find_all=find_all)[1]
                for budget in (1, 400, nodes):
                    agree(g, max_copies=maxc, find_all=find_all,
                          node_budget=budget)
        # circle_witness's call: chord diagrams, no pattern
        agree(g, min_copies=2, max_copies=2, forbid_132=False)

    # letter 15 is the top bit of the Python kernel's 16-bit lanes
    for g in TOP_LANE:
        for maxc in (1, 2, 4):
            for find_all in (False, True):
                agree(g, max_copies=maxc, find_all=find_all,
                      node_budget=5000 if maxc == 4 else 20000)
        # with 132s allowed, letter 15 repeats within the budget
        agree(g, min_copies=2, max_copies=2, forbid_132=False,
              node_budget=20000)

    # called directly, each backend rejects what its memory relies on
    invalid = [
        (0, [0], 1, 2, None),
        (16, [0] * 17, 1, 2, None),
        (3, [0] * 4, 0, 2, None),
        (3, [0] * 4, 3, 2, None),
        (13, [0] * 14, 5, 5, None),     # n * max_copies = 65
        (3, [0] * 4, 1, 2, -5),
        (3, [0] * 3, 1, 2, None),
        (3, [0, 1 << 4, 0, 0], 1, 2, None),
        (3, [0, -1, 0, 0], 1, 2, None),
    ]
    for n, adj, min_copies, max_copies, budget in invalid:
        messages = []
        for backend in (py, c):
            with pytest.raises(ValueError) as raised:
                backend.run_search(n, adj, min_copies, max_copies, True, False,
                                   budget)
            messages.append(str(raised.value))
        assert messages[0] == messages[1], messages


# ------------------------------------------------------------------ batches


def batch(backend, n, graphs, budgets, groups=None, **kw):
    args = dict(min_copies=1, max_copies=2, forbid_132=True, find_all=True)
    args.update(kw)
    return backend.run_batch(
        n, [edge_bitset(g) for g in graphs], args["min_copies"],
        args["max_copies"], args["forbid_132"], args["find_all"], budgets, groups,
    )


def entry_budgets(budgets, groups):
    """Each entry's budget, given run_batch's budgets: its group's, or its
    own when groups is None."""
    if groups is None:
        return list(budgets)
    return [budget for budget, size in zip(budgets, groups) for _ in range(size)]


def by_order(graphs):
    """The graphs by order, each labeled graph once, in first-seen order:
    a batch's keys are distinct."""
    out = {}
    for g in dict.fromkeys(graphs):
        out.setdefault(g.n, []).append(g)
    return out


# BATTERY by order, each batch with a graph of every class of its order up
# to 4 vertices, so batches share prefixes and hold graphs both with and
# without each edge
BATCHES = by_order(BATTERY + [g for n in (2, 3, 4) for g in enumerate_graphs(n)])


def first_witness_cut(results, groups):
    """What a run_batch without find_all returns, given each entry's
    run_search result: every entry of a group after its first entry with a
    witness is None, and every other entry is its own result."""
    out = []
    for end in itertools.accumulate(groups):
        group = results[len(out):end]
        hit = next((j for j, res in enumerate(group) if res[0]), len(group) - 1)
        out += group[:hit + 1] + [None] * (len(group) - 1 - hit)
    return out


@pytest.fixture
def batch_agrees(compiled_kernel):
    """Check both backends' run_batch against per-graph run_search on both.

    budgets holds one budget per group, or per graph when groups is None.
    Without find_all, a batch in groups returns first_witness_cut of the
    per-graph results, each under its group's budget, and every other batch
    returns them all.
    """
    py = kernels.load_backend("python")

    def agree(n, graphs, budgets, groups=None, **kw):
        got = batch(py, n, graphs, budgets, groups, **kw)
        assert batch(compiled_kernel, n, graphs, budgets, groups, **kw) == got, (
            n, budgets, groups, kw)
        for backend in (py, compiled_kernel):
            expected = [run(backend, g, node_budget=b, **kw)
                        for g, b in zip(graphs, entry_budgets(budgets, groups))]
            if groups is not None and not kw.get("find_all", True):
                expected = first_witness_cut(expected, groups)
            assert got == expected, (backend.__name__, n, budgets, groups, kw)
        return got

    return agree


def test_batch_matches_per_graph_searches(batch_agrees):
    for n, graphs in BATCHES.items():
        unlimited = [None] * len(graphs)
        for maxc in (1, 2, 3):
            for find_all in (False, True):
                kw = dict(max_copies=maxc, find_all=find_all)
                needs = [nodes for _, nodes, _, _ in batch_agrees(n, graphs, unlimited, **kw)]
                # at or over the union's size: one DFS; below it: per graph
                batch_agrees(n, graphs, [sum(needs)] * len(graphs), **kw)
                batch_agrees(n, graphs, [max(needs) - 1 or None] * len(graphs), **kw)
                for budget in (1, 400):
                    batch_agrees(n, graphs, [budget] * len(graphs), **kw)
                # budgets that cut some graphs and not others
                mixed = [need if i % 2 else max(need - 1, 1)
                         for i, need in enumerate(needs)]
                batch_agrees(n, graphs, mixed, **kw)
                batch_agrees(n, graphs, [None] * (len(graphs) - 1) + [sum(needs)], **kw)
        batch_agrees(n, graphs, unlimited, min_copies=2, max_copies=2, forbid_132=False)
        batch_agrees(n, graphs, unlimited, min_copies=2, find_all=False)


def cycled_groups(count, sizes):
    """Group sizes taken in turn from sizes, the last one cut to add up to count."""
    out = []
    for size in itertools.cycle(sizes):
        if not count:
            return out
        out.append(min(size, count))
        count -= out[-1]


def test_batch_drops_the_later_entries_of_a_group_after_a_hit(batch_agrees):
    drops = 0
    for n, graphs in BATCHES.items():
        count = len(graphs)
        for groups in ([count], cycled_groups(count, (2, 3, 1, 4)), [1] * count):
            for maxc in (1, 2):
                for find_all in (False, True):
                    kw = dict(max_copies=maxc, find_all=find_all)
                    got = batch_agrees(n, graphs, [None] * len(groups), groups, **kw)
                    drops += got.count(None)
                    # the last group's budget at the most its searches take,
                    # which the union may pass: one search per graph drops
                    # the same entries, with the same results
                    last = [res[1] for res in got[count - groups[-1]:] if res is not None]
                    budgets = [None] * (len(groups) - 1) + [max(last)]
                    assert batch_agrees(n, graphs, budgets, groups, **kw) == got
            batch_agrees(n, graphs, [None] * len(groups), groups, min_copies=2,
                         max_copies=2, forbid_132=False, find_all=False)
    assert drops > 0


def test_batch_of_every_order_six_class(batch_agrees):
    # 122 graphs, more than one 64-bit word of graph bits
    graphs = list(enumerate_graphs(6, isolate_free=True))
    assert len(graphs) == 122
    got = batch_agrees(6, graphs, [None] * 122, find_all=False)
    assert sum(bool(w) for w, _, _, _ in got) < 122
    batch_agrees(6, graphs, [None] * 122, max_copies=1)
    # groups across the 64-bit words of graph bits
    got = batch_agrees(6, graphs, [None] * 3, [60, 10, 52], find_all=False)
    assert got[:60].count(None) > 0 and got[60:70].count(None) > 0


def test_batch_at_the_top_lane(batch_agrees):
    for maxc in (1, 2, 4):
        for find_all in (False, True):
            kw = dict(max_copies=maxc, find_all=find_all)
            budget = 5000 if maxc == 4 else 20000
            done = batch_agrees(15, TOP_LANE, [budget] * 4, **kw)
            # the graphs searched to the end, again with no budget at all
            ended = [g for g, res in zip(TOP_LANE, done) if not res[3]]
            batch_agrees(15, ended, [None] * len(ended), **kw)
    batch_agrees(15, TOP_LANE, [20000] * 4, min_copies=2, max_copies=2,
                 forbid_132=False)


def python_then_compiled(request):
    """The Python kernel, then the compiled one.

    A test that loops over these makes its Python checks first and skips
    only after them when the compiled kernel cannot be built.
    """
    yield kernels.load_backend("python")
    yield request.getfixturevalue("compiled_kernel")


def test_batch_takes_one_dfs_under_the_budget_and_falls_back_over_it(
        monkeypatch, request):
    # On each kernel, with its _search_graph counted: under the union's size
    # the batch takes one DFS and no per-graph search; past the smallest
    # budget it searches each entry alone, up to each group's first witness.
    py = kernels.load_backend("python")
    graphs = BATCHES[5]
    each = [run(py, g, find_all=False) for g in graphs]
    total = sum(nodes for _, nodes, _, _ in each)
    smallest = max(nodes for _, nodes, _, _ in each) - 1
    over_smallest = [None] * (len(graphs) - 1) + [smallest]
    cut = [run(py, g, find_all=False, node_budget=b) for g, b in zip(graphs, over_smallest)]
    one_group = [len(graphs)]
    # the group's budget: the most its searches take up to its first hit
    hit = next(i for i, res in enumerate(each) if res[0])
    over_one = [max(nodes for _, nodes, _, _ in each[:hit + 1])]
    cut_group = first_witness_cut(
        [run(py, g, find_all=False, node_budget=over_one[0]) for g in graphs], one_group)
    for backend in python_then_compiled(request):
        calls = []

        def counting(*args, search_graph=backend._search_graph):
            calls.append(args)
            return search_graph(*args)

        monkeypatch.setattr(backend, "_search_graph", counting)
        assert batch(backend, 5, graphs, [total] * len(graphs), find_all=False) == each
        assert calls == []
        assert batch(backend, 5, graphs, over_smallest, find_all=False) == cut
        assert len(calls) == len(graphs)
        # in one group, the union drops the entries after the first hit; the
        # fallback drops the same entries, and searches none of them
        del calls[:]
        got = batch(backend, 5, graphs, [total], one_group, find_all=False)
        assert calls == [] and None in got
        assert got == first_witness_cut(each, one_group)
        assert [res is None for res in cut_group] == [res is None for res in got]
        assert batch(backend, 5, graphs, over_one, one_group, find_all=False) == cut_group
        assert len(calls) == len(graphs) - cut_group.count(None)


REPEATED_KEY = "a batch's keys must be distinct"


def test_batch_refuses_a_repeated_key(request):
    # A batch's keys are distinct, so each graph is one entry and each
    # target of the union names one entry. On every layer a repeated key
    # raises one error, with find_all on and off, within a group and across
    # groups; the per-entry checks come first, so a later faulty entry
    # raises its own error.
    c5, p5, e5 = (edge_bitset(g) for g in (cycle(5), path(5), LabeledGraph(5)))
    repeats = [([c5, c5], [2]), ([c5, p5, c5], None), ([c5, c5, p5], [2, 1]),
               ([c5, p5, e5, p5], [2, 2]), ([p5, c5, e5, c5], [1, 2, 1])]
    py = kernels.load_backend("python")
    for layer in itertools.chain([kernels], python_then_compiled(request)):
        for keys, groups in repeats:
            for find_all in (False, True):
                with pytest.raises(ValueError) as raised:
                    layer.run_batch(5, keys, 1, 2, True, find_all,
                                    [None] * len(groups or keys), groups)
                assert str(raised.value) == REPEATED_KEY, (layer.__name__, keys, groups)
                # the same batch, each key once, is searched
                distinct = list(dict.fromkeys(keys))
                assert layer.run_batch(5, distinct, 1, 2, True, find_all,
                                       [None] * len(distinct)) == [
                    run(py, graph_from_bitset(5, key), find_all=find_all)
                    for key in distinct], layer.__name__
        for fault, budget, message in ((1 << 10, None, "a key must be in 0..1023 at n = 5"),
                                       (-1, None, "a key must be in 0..1023 at n = 5"),
                                       (p5, -1, "node_budget must not be negative")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                layer.run_batch(5, [c5, c5, fault], 1, 2, True, False, [None, None, budget])


def test_union_of_every_labeled_graph_on_five_vertices(request):
    # 1,024 distinct targets fill the compiled kernel's open-addressing
    # table and the Python kernel's dict. In groups of sizes cycling
    # through 1..7, each entry is its own run_search on each kernel, and
    # without find_all each group is cut at its first witness.
    graphs = list(labeled_graphs(5))
    assert len(graphs) == 1024
    groups = cycled_groups(len(graphs), range(1, 8))
    for backend in python_then_compiled(request):
        for find_all in (False, True):
            each = [run(backend, g, find_all=find_all) for g in graphs]
            want = each if find_all else first_witness_cut(each, groups)
            got = batch(backend, 5, graphs, [None] * len(groups), groups,
                        find_all=find_all)
            assert got == want, (backend.__name__, find_all)
            assert find_all or got.count(None) > 100


@pytest.mark.parametrize("bound", [1, 2, 7])
def test_union_tallies_fold_into_the_same_totals(bound, monkeypatch):
    # The Python union search folds its nodes' graph sets into the per-graph
    # totals every TALLY_NODES nodes; the totals must not depend on when.
    py = kernels.load_backend("python")
    graphs = list(enumerate_graphs(5))
    monkeypatch.setattr(py, "TALLY_NODES", bound)
    for find_all in (False, True):
        got = batch(py, 5, graphs, [None] * len(graphs), find_all=find_all)
        assert got == [run(py, g, find_all=find_all) for g in graphs]
    # in groups without find_all, hits drop entries and take the hit ones
    # out of the union; each entry left must still see exactly its own
    # search, stopped at its first witness
    groups = cycled_groups(len(graphs), (2, 3, 1, 4))
    expected = first_witness_cut([run(py, g, find_all=False) for g in graphs], groups)
    assert expected.count(None) > 5
    got = batch(py, 5, graphs, [None] * len(groups), groups, find_all=False)
    assert got == expected
    # _add_tallies itself, over random sets and weights in rounds of up to
    # 50 sets, so a plane takes many addends, against per-member sums
    rnd = random.Random(bound)
    for count in (1, 7, 64, 130):
        planes, sums, most = [], [0] * count, 0
        for _ in range(5):
            tally = {}
            for _ in range(rnd.randint(0, 50)):
                graphs_set = rnd.getrandbits(count)
                tally[graphs_set] = tally.get(graphs_set, 0) + rnd.choice(
                    (1, 2, 3, rnd.randint(1, 10**6)))
            for graphs_set, times in tally.items():
                for i in range(count):
                    sums[i] += times * (graphs_set >> i & 1)
            most += sum(tally.values())
            py._add_tallies(planes, tally, most)
            assert tally == {}
            assert py._totals(planes, count) == sums


def test_totals_read_out_every_index_in_bulk():
    # _totals reads bit-sliced planes out eight planes at a time; on random
    # planes each index's total must be the naive sum of its bits
    py = kernels.load_backend("python")
    rnd = random.Random(34)
    for _ in range(200):
        count = rnd.randint(1, 300)
        planes = [rnd.getrandbits(count) for _ in range(rnd.randint(0, 40))]
        assert py._totals(planes, count) == [
            sum((plane >> i & 1) << p for p, plane in enumerate(planes))
            for i in range(count)]
    # a count of ones in 64 planes, the most a lane holds
    assert py._totals([(1 << 9) - 1] * 64, 9) == [(1 << 64) - 1] * 9


def random_grouped_batch(rnd):
    """A random run_batch call: n in 3..6, 2 to 40 distinct labeled graphs
    on 1..n, their keys drawn without replacement, in groups of random
    sizes, max_copies 1..3 and find_all on or off. The budgets, one per
    group, are all None, or random, some below the union's size; a search
    with find_all and three copies has no budget above 3,000 nodes, since it
    can take millions. Returns n, the graphs, the budgets, the groups and
    the keywords of batch()."""
    n = rnd.randint(3, 6)
    kw = dict(max_copies=rnd.randint(1, 3), find_all=rnd.random() < 0.3)
    end = 1 << n * (n - 1) // 2
    keys = rnd.sample(range(end), rnd.randint(2, min(40, end)))
    graphs = [graph_from_bitset(n, key) for key in keys]
    groups = []
    while sum(groups) < len(graphs):
        groups.append(rnd.randint(1, len(graphs) - sum(groups)))
    costly = kw["find_all"] and (kw["max_copies"] == 3 or n == 6)
    if not costly and rnd.random() < 0.4:
        budgets = [None] * len(groups)
    else:
        top = rnd.choice([50, 500, 3000])
        budgets = [rnd.randint(1, top) for _ in groups]
    return n, graphs, budgets, groups, kw


def test_random_batches_end_each_group_at_its_first_witness(monkeypatch, request):
    # One answer per batch: on every layer, on the union and on the
    # per-graph fallback alike, run_batch returns first_witness_cut of the
    # per-graph run_search results without find_all, and those results
    # with it, each graph searched under its group's budget.
    py = kernels.load_backend("python")
    rnd = random.Random(28)
    cases = [random_grouped_batch(rnd) for _ in range(60)]
    searched = {}

    def alone(g, budget, kw):
        key = (g.adjacency_masks(), budget, tuple(sorted(kw.items())))
        if key not in searched:
            searched[key] = run(py, g, node_budget=budget, **kw)
        return searched[key]

    expected = []
    for n, graphs, budgets, groups, kw in cases:
        want = [alone(g, b, kw) for g, b in zip(graphs, entry_budgets(budgets, groups))]
        expected.append(want if kw["find_all"] else first_witness_cut(want, groups))
    # the Python kernel's paths: True for a union, False for a fallback,
    # each with whether the batch drops an entry
    paths = set()
    found = []
    union_search = py._union_search
    monkeypatch.setattr(py, "_union_search",
                        lambda *args: found.append(union_search(*args)) or found[-1])
    for layer in itertools.chain([kernels], python_then_compiled(request)):
        for (n, graphs, budgets, groups, kw), want in zip(cases, expected):
            del found[:]
            got = batch(layer, n, graphs, budgets, groups, **kw)
            assert got == want, (layer.__name__, n, budgets, groups, kw)
            if layer is py and found:
                paths.add((found[0] is not None, None in got))
    assert paths == {(True, True), (True, False), (False, True), (False, False)}


def test_empty_batch(request):
    # n and the copy counts are checked with the first entry, so an empty
    # batch checks only their types, on every layer, whatever n is
    for layer in itertools.chain([kernels], python_then_compiled(request)):
        assert batch(layer, 3, [], []) == []
        assert batch(layer, 3, [], [], []) == []
        assert batch(layer, 20000, [], []) == []


def test_batch_rejects_what_run_search_rejects(request):
    # what every layer rejects, kernels and both backends alike: each
    # argument that run_search rejects, with the same error from run_batch
    # whether the faulty entry is its first or its second
    invalid = [
        (0, [0], 1, 2, None),
        (16, [0] * 17, 1, 2, None),
        (3, [0] * 4, 0, 2, None),
        (13, [0] * 14, 5, 5, None),
        (3, [0] * 4, 1, 2, -5),
    ]
    # masks can spell what is not a graph, which no key can; run_search
    # refuses it on every layer
    not_graphs = [
        ([1 << 1, 0, 0, 0], "adjacency mask 0 must be empty"),
        ([0, 1 << 4, 0, 0], "adjacency mask 1 has bits outside 1..3"),
        ([0, 1, 0, 0], "adjacency mask 1 has bits outside 1..3"),
        ([0, 1 << 1, 0, 0], "adjacency mask 1 has a self-loop"),
        ([0, 1 << 2, 0, 0], "adjacency masks 1 and 2 disagree"),
    ]

    def rejects_alike(backend):
        for n, adj, min_copies, max_copies, budget in invalid:
            with pytest.raises(ValueError) as single:
                backend.run_search(n, adj, min_copies, max_copies, True, False, budget)
            for budgets in ([budget, None], [None, budget]):
                with pytest.raises(ValueError) as batched:
                    backend.run_batch(n, [0, 0], min_copies, max_copies, True, False,
                                      budgets)
                assert str(batched.value) == str(single.value)
        for adj, message in not_graphs:
            with pytest.raises(ValueError, match=f"^{message}$"):
                backend.run_search(3, adj, 1, 2, True, False, None)
        # what only a batch can get wrong: its budgets, groups and keys
        keys = [edge_bitset(complete(3))] * 2
        messages = []
        for budgets, groups in (([None], None), ([None] * 2, [2]), ([None], [1, 1]),
                                ([None] * 3, [1, 1])):
            with pytest.raises(ValueError) as raised:
                backend.run_batch(3, keys, 1, 2, True, False, budgets, groups)
            messages.append(str(raised.value))
        for groups in ([1], [3], [2, 0], [0, 2], [1, 1, 1], [-1, 3]):
            with pytest.raises(ValueError) as raised:
                backend.run_batch(3, keys, 1, 2, True, False, [None] * 2, groups)
            messages.append(str(raised.value))
        # keys that are not a sequence, bytes-like keys, whose bytes would
        # read as keys, and a size that is not an int
        for fault_keys, groups in ((7, None), (b"\x07\x06", None),
                                   (bytearray(b"\x07\x06"), None),
                                   (memoryview(b"\x07\x06"), None), (keys, [1.0, 1])):
            with pytest.raises(TypeError) as raised:
                backend.run_batch(3, fault_keys, 1, 2, True, False, [None] * 2, groups)
            messages.append(str(raised.value))
        return tuple(messages)

    messages = set()
    for layer in itertools.chain([kernels], python_then_compiled(request)):
        messages.add(rejects_alike(layer))
    assert len(messages) == 1, messages
    assert messages.pop() == (
        "need one node budget per group: 2 groups, 1 budgets",
        "need one node budget per group: 1 groups, 2 budgets",
        "need one node budget per group: 2 groups, 1 budgets",
        "need one node budget per group: 2 groups, 3 budgets",
        *["need group sizes of at least 1 that add up to 2 graphs"] * 6,
        "'int' object is not iterable",
        "keys must be ints, not bytes",
        "keys must be ints, not bytearray",
        "keys must be ints, not memoryview",
        "'float' object cannot be interpreted as an integer",
    )


def test_masks_as_a_mapping_give_one_outcome_on_every_layer(request):
    # run_search reads adj by len() and adj[v], so a mapping from vertex to
    # mask is as good as a sequence; every layer packs it the same way
    k3 = dict(enumerate(complete(3).adjacency_masks()))
    cases = [
        {0: 0, 1: 0, 2: 0, 3: 0},
        k3,
        {**k3, 4: 0},                   # n + 2 masks
        {1: k3[1], 2: k3[2], 3: k3[3], 5: 0},  # no mask 0
    ]

    def outcome(layer, adj):
        try:
            return layer.run_search(3, adj, 1, 2, True, False, None)
        except (KeyError, ValueError, TypeError) as e:
            return type(e).__name__, str(e)

    outcomes = [[outcome(layer, adj) for adj in cases]
                for layer in itertools.chain([kernels], python_then_compiled(request))]
    assert outcomes[1:] == outcomes[:-1], outcomes
    assert outcomes[0] == [
        ([(1, 1, 2, 2, 3)], 5, 1, False), ([(1, 2, 3)], 3, 1, False),
        ("ValueError", "need n + 1 = 4 adjacency masks, got 5"), ("KeyError", "0")]


def test_non_int_counts_and_budgets_raise_one_type_error(request):
    # The Python kernel used to run with a float budget and ignore it, so a
    # search with one never ended; every entry point now raises the
    # compiled kernel's TypeError for a float n, copy count or budget. A
    # bool is an int, and True used to run as 1: a bool n, copy count,
    # budget or group size raises one TypeError of its own.
    masks = complete(3).adjacency_masks()
    keys = [edge_bitset(complete(3)), edge_bitset(path(3))]
    for wrong, message in ((1.5, "'float' object cannot be interpreted as an integer"),
                           (True, "a count, budget or group size must be an int, not bool")):
        cases = [(wrong, 1, 2, None), (3, wrong, 2, None), (3, 1, wrong, None),
                 (3, 1, 2, wrong)]
        messages = set()
        for backend in itertools.chain([kernels], python_then_compiled(request)):
            for n, min_copies, max_copies, budget in cases:
                with pytest.raises(TypeError) as single:
                    backend.run_search(n, masks, min_copies, max_copies, True, False,
                                       budget)
                messages.add(str(single.value))
                for budgets in ([budget, None], [None, budget]):
                    with pytest.raises(TypeError) as batched:
                        backend.run_batch(n, keys, min_copies, max_copies, True, False,
                                          budgets)
                    messages.add(str(batched.value))
            for groups in ([wrong, 1], [1, wrong]):
                with pytest.raises(TypeError) as raised:
                    backend.run_batch(3, keys, 1, 2, True, False, [None] * 2, groups)
                messages.add(str(raised.value))
        assert messages == {message}


# A float mask, mask 0 included, and a float n with no keys or with a
# budget missing: masks_key and batch_shape raise the TypeError of an int
# conversion before any other check, and every layer runs them, through
# run_search and run_batch alike.
FLOAT_CALLS = [
    ("run_search", (3, [0, 1.0, 0, 0], 1, 2, True, False, None)),
    ("run_search", (3, [0.0, 0, 0, 0], 1, 2, True, False, None)),
    ("run_batch", (3.0, [], 1, 2, True, False, [])),
    ("run_batch", (3.0, [0], 1, 2, True, False, [])),
]
FLOAT_MESSAGE = "'float' object cannot be interpreted as an integer"
FLOAT_THROUGH_KERNELS = LOAD_PACKAGE + f"""
for name, args in {FLOAT_CALLS!r}:
    try:
        print(getattr(kernels, name)(*args))
    except TypeError as e:
        print(kernels.backend_name(), e)
"""


@pytest.mark.parametrize("backend", ["python", "c"])
def test_float_masks_and_n_raise_the_compiled_kernels_type_error(backend, request):
    done = run_child(FLOAT_THROUGH_KERNELS, backend, request)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"{backend} {FLOAT_MESSAGE}"] * len(FLOAT_CALLS)
    module = kernels.load_backend("python")
    if backend == "c":
        module = request.getfixturevalue("compiled_kernel")
    for name, args in FLOAT_CALLS:
        with pytest.raises(TypeError) as raised:
            getattr(module, name)(*args)
        assert str(raised.value) == FLOAT_MESSAGE, (name, args)


def test_run_search_is_a_one_key_run_batch(request):
    # The contract on every layer: run_search(n, g's masks, ..., b) is
    # run_batch(n, [edge_bitset(g)], ..., [b])[0], searches and errors alike.
    rnd = random.Random(18)
    small = [g for n in range(1, 5) for g in labeled_graphs(n)]
    pairs = {n: list(itertools.combinations(range(1, n + 1), 2)) for n in (5, 6, 7)}
    larger = [LabeledGraph(n, [p for p in pairs[n] if rnd.random() < 0.5])
              for n in (5, 6, 7) for _ in range(3)]
    # pair (1, 2) is the top bit of a key on 15 letters, (14, 15) its lowest
    top = [LabeledGraph(15, [(1, 2)]), LabeledGraph(15, [(1, 2), (14, 15)]), complete(15)]
    cutting = 7
    every = [(b, forbid, find_all) for b in (None, 0, cutting)
             for forbid in (True, False) for find_all in (True, False)]
    # unbudgeted searches of 5..7 letters stay short with the pattern prune
    # and the first witness
    budgeted = [(cutting, forbid, find_all) for forbid in (True, False)
                for find_all in (True, False)]
    cheap = [(None, True, False), (0, True, False)] + budgeted
    bad = [(complete(3), 0, 2, None), (complete(3), 3, 2, None), (complete(3), 1, 2, -1),
           (LabeledGraph(kernels.MAX_N + 1, []), 1, 2, None)]
    first = {}  # each search's result on the first layer
    for layer in itertools.chain([kernels], python_then_compiled(request)):
        for graphs, cases in ((small, every), (larger, cheap), (top, budgeted)):
            for g in graphs:
                adj, key = g.adjacency_masks(), edge_bitset(g)
                for budget, forbid, find_all in cases:
                    single = layer.run_search(g.n, adj, 1, 2, forbid, find_all, budget)
                    assert layer.run_batch(g.n, [key], 1, 2, forbid, find_all,
                                           [budget]) == [single], (
                        layer.__name__, g.n, g.edge_list(), budget, forbid, find_all)
                    assert first.setdefault((g.n, key, budget, forbid, find_all),
                                            single) == single, layer.__name__
        # test_input_validation's bad inputs, with the same error from both calls
        for g, min_copies, max_copies, budget in bad:
            with pytest.raises(ValueError) as single:
                layer.run_search(g.n, g.adjacency_masks(), min_copies, max_copies, True,
                                 True, budget)
            with pytest.raises(ValueError) as batched:
                layer.run_batch(g.n, [edge_bitset(g)], min_copies, max_copies, True,
                                True, [budget])
            assert str(batched.value) == str(single.value), (layer.__name__, g.n)
    assert any(res[3] for res in first.values())


def test_python_kernel_at_the_top_lane():
    # Pinned from the array kernel that the packed one replaced, so this
    # holds without a compiler: 15 letters of 4 copies (lanes 1..15).
    py = kernels.load_backend("python")
    witnesses, nodes, tested, exceeded = run(
        py, LabeledGraph(15, [(14, 15)]), max_copies=4, find_all=True,
        node_budget=5000)
    assert (len(witnesses), nodes, tested, exceeded) == (162, 5000, 512, True)
    four_each = [c for c in range(1, 9) for _ in range(4)]
    assert witnesses[0] == tuple(four_each + [9, 9, 9, 9, 10, 10, 10, 10,
                                              11, 11, 11, 11, 12, 12, 12, 12,
                                              13, 13, 13, 13, 14, 15])
    assert witnesses[-1] == tuple(four_each + [9, 9, 9, 10, 10, 11, 11,
                                               12, 12, 13, 13, 14, 15])
    # chord diagrams, where 15 also comes back after other letters
    witnesses, nodes, tested, exceeded = run(
        py, LabeledGraph(15, [(14, 15)]), min_copies=2, max_copies=2,
        forbid_132=False, node_budget=20000)
    assert (len(witnesses), nodes, tested, exceeded) == (1205, 20000, 1205, True)
    two_each = [c for c in range(1, 11) for _ in range(2)]
    assert witnesses[0] == tuple(two_each + [11, 11, 12, 12, 13, 13,
                                             14, 15, 14, 15])
    assert witnesses[-1] == tuple(two_each + [15, 12, 12, 13, 13, 11, 11,
                                              14, 15, 14])


# Counts the calls of the two check helpers, masks_key (run_search's checks
# of its masks) and batch_shape (run_batch's checks before its entries), in
# a child process whose kernels module selected the pure-Python backend:
# kernels only forwards to the kernel, so a call through kernels makes each
# check once, as a direct call on the kernel does.
COUNT_CHECKS = """
from collections import Counter
from rep132 import _kernel_py, kernels
from rep132.graphs import complete, edge_bitset
calls = Counter()
def counting(name):
    check = getattr(_kernel_py, name)
    def counted(*args):
        calls[name] += 1
        return check(*args)
    setattr(kernels, name, counted)
    setattr(_kernel_py, name, counted)
counting("masks_key")
counting("batch_shape")
g = complete(4)
for find_all in (False, True):
    kernels.run_search(g.n, g.adjacency_masks(), 1, 2, True, find_all, None)
print(kernels.backend_name(), calls["masks_key"], calls["batch_shape"])
kernels.run_batch(g.n, [edge_bitset(g)], 1, 2, True, False, [None])
print(calls["masks_key"], calls["batch_shape"])
_kernel_py.run_search(g.n, g.adjacency_masks(), 1, 2, True, False, None)
print(calls["masks_key"], calls["batch_shape"])
"""


def test_python_backend_checks_arguments_once_per_call():
    done = subprocess.run(
        [sys.executable, "-c", COUNT_CHECKS],
        env=dict(os.environ, REP132_BACKEND="python",
                 PYTHONPATH=str(Path(kernels.__file__).parent.parent)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["python", "2", "2", "2", "3", "3", "4"]


# ------------------------------------------------------------------- oracle


def labeled_graphs(n):
    """Every labeled graph on 1..n."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for k in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            yield LabeledGraph(n, list(edges))


def matches_brute_force(request, n, **kw):
    """Check every labeled graph on 1..n against conftest.brute_buckets, on
    each backend, graph by graph and in one run_batch over them all: with
    find_all, the witnesses are the graph's bucket, in order; without, its
    head. The buckets share no logic with the kernels, so a prune that cut
    a witness, alone or in the union search's narrowing, fails here.
    """
    buckets = brute_buckets(n, kw["min_copies"], kw["max_copies"], kw["forbid_132"])
    graphs = list(labeled_graphs(n))
    expected = [buckets.get(frozenset(g.edge_list()), []) for g in graphs]
    assert any(expected)
    for backend in python_then_compiled(request):
        for find_all in (True, False):
            want = expected if find_all else [words[:1] for words in expected]
            got = [run(backend, g, find_all=find_all, **kw) for g in graphs]
            assert [res[0] for res in got] == want, (backend.__name__, n, kw)
            assert not any(res[3] for res in got)
            batched = batch(backend, n, graphs, [None] * len(graphs),
                            find_all=find_all, **kw)
            assert [res[0] for res in batched] == want, (backend.__name__, n, kw)


def test_kernel_matches_brute_force_on_all_small_graphs(request):
    # listing the words of up to 3 copies of 4 letters takes minutes, so the
    # third copy is checked through 3 letters
    for max_copies, orders in ((1, (1, 2, 3, 4)), (2, (1, 2, 3, 4)), (3, (1, 2, 3))):
        for n in orders:
            matches_brute_force(request, n, min_copies=1, max_copies=max_copies,
                                forbid_132=True)


def test_kernel_matches_brute_force_uniform_no_pattern(request):
    # circle_witness's call: 2-uniform words without the avoidance
    # constraint (chord diagrams)
    for n in (1, 2, 3, 4):
        matches_brute_force(request, n, min_copies=2, max_copies=2, forbid_132=False)


def test_kernel_respects_min_and_max_copies():
    witnesses, _, _, _ = run(kernels, complete(3), min_copies=2, max_copies=2)
    for w in witnesses:
        assert all(w.count(c) == 2 for c in set(w))
    witnesses1, _, _, _ = run(kernels, complete(3), max_copies=1)
    assert witnesses1 == [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]


# ------------------------------------------------------------------ budgets


def test_budget_truncates_deterministically():
    g = wheel(5)
    full = run(kernels, g, find_all=False)
    assert not full[3]
    capped = run(kernels, g, find_all=False, node_budget=500)
    assert capped[3] is True
    assert capped[1] == 500
    # a budget run is a prefix of the full run
    assert capped[2] <= full[2]


def test_budget_zero_means_unlimited():
    g = complete(3)
    assert run(kernels, g, node_budget=0) == run(kernels, g, node_budget=None)


def test_budget_exactly_at_need_is_not_exceeded():
    g = complete(3)
    _, nodes, _, _ = run(kernels, g)
    again = run(kernels, g, node_budget=nodes)
    assert again[3] is False
    assert run(kernels, g, node_budget=nodes - 1)[3] is True


# -------------------------------------------------------------- statistics


def test_stats_are_consistent():
    for g in BATTERY:
        witnesses, nodes, tested, exceeded = run(kernels, g)
        assert 0 <= len(witnesses) <= tested <= nodes
        assert exceeded is False


def test_find_first_stops_early():
    g = cycle(5)
    first = run(kernels, g, find_all=False)
    everything = run(kernels, g, find_all=True)
    assert first[0][0] == everything[0][0]       # same first witness
    assert first[1] <= everything[1]
    assert len(first[0]) == 1


def test_witnesses_in_dfs_order():
    witnesses, _, _, _ = run(kernels, complete(3))
    assert witnesses == sorted(witnesses)


def test_input_validation():
    g = complete(3)
    with pytest.raises(ValueError):
        run(kernels, g, min_copies=0)
    with pytest.raises(ValueError):
        run(kernels, g, min_copies=3, max_copies=2)
    big = LabeledGraph(kernels.MAX_N + 1, [])
    with pytest.raises(ValueError):
        run(kernels, big)


def test_batch_raises_the_first_faulty_entrys_error(request):
    # A key must be an int, not a bool, in 0 .. 2 ** C(n, 2) - 1, and a
    # budget None or an int of at least 0; an entry's budget is checked
    # before its key. On every layer a batch raises its first faulty
    # entry's error, wherever it sits in a batch of any length.
    good = edge_bitset(complete(4))
    outside = "a key must be in 0..63 at n = 4"
    faults = [
        (True, None, TypeError, "a key must be an int, not bool"),
        (1.0, None, TypeError, "a key must be an int, not float"),
        (-1, None, ValueError, outside),
        (64, None, ValueError, outside),
        (1 << 100, None, ValueError, outside),
        (good, -1, ValueError, "node_budget must not be negative"),
        (good, 1.5, TypeError, "'float' object cannot be interpreted as an integer"),
        (64, -1, ValueError, "node_budget must not be negative"),
    ]
    for layer in itertools.chain([kernels], python_then_compiled(request)):
        for (key, budget, kind, message), (later, later_budget, _, _) in itertools.product(
                faults, faults):
            for at in (0, 1, 70, 255, 261):
                keys = [good] * at + [key] + [good] * 3 + [later] + [good]
                budgets = [None] * at + [budget] + [None] * 3 + [later_budget, None]
                with pytest.raises(kind) as raised:
                    layer.run_batch(4, keys, 1, 2, True, False, budgets)
                assert str(raised.value) == message, (layer.__name__, key, budget, at)
        # one vertex has one graph, whose key is 0
        assert layer.run_batch(1, [0], 1, 2, True, False, [None]) == [
            layer.run_search(1, [0, 0], 1, 2, True, False, None)]
        with pytest.raises(ValueError, match=r"^a key must be in 0\.\.0 at n = 1$"):
            layer.run_batch(1, [0, 1], 1, 2, True, False, [None] * 2)


def test_a_group_budget_is_checked_before_its_keys(request):
    # check_keys goes group by group: a group's budget, then its keys. So
    # a bad budget is raised before a bad key in its own group, and after
    # one in an earlier group, on every layer.
    good, bad = edge_bitset(complete(4)), 64
    negative, outside = "node_budget must not be negative", "a key must be in 0..63 at n = 4"
    cases = [
        ([good, bad, good], [1, 2], [None, -1], negative),
        ([good, good, bad], [1, 2], [None, -1], negative),
        ([bad, good, good], [1, 2], [None, -1], outside),
        ([good, bad, good], [2, 1], [None, -1], outside),
        ([bad, good, good], [3], [-1], negative),
    ]
    for layer in itertools.chain([kernels], python_then_compiled(request)):
        for keys, groups, budgets, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                layer.run_batch(4, keys, 1, 2, True, False, budgets, groups)


def random_key_batch(rnd):
    """A random run_batch of 1 to 300 distinct keys of graphs on 1..n, n in
    1..7, each with a budget of 1, with at most one fault at a random entry: a
    bool, a float, a negative key, a key of 2 ** C(n, 2) or more, or a
    negative budget. Returns n, the keys, the budgets, the fault and its
    entry."""
    n = rnd.randint(1, 7)
    end = 1 << n * (n - 1) // 2
    keys = rnd.sample(range(end), rnd.randint(1, min(300, end)))
    budgets = [1] * len(keys)
    fault = rnd.choice(["none", "bool", "float", "negative", "too large", "budget"])
    at = rnd.randrange(len(keys))
    if fault == "bool":
        keys[at] = rnd.choice([False, True])
    elif fault == "float":
        keys[at] = float(keys[at])
    elif fault == "negative":
        keys[at] = -rnd.randint(1, end)
    elif fault == "too large":
        keys[at] = end + rnd.choice([0, 1, rnd.getrandbits(70)])
    elif fault == "budget":
        budgets[at] = -rnd.randint(1, 100)
    return n, keys, budgets, fault, at


def test_random_key_batches_raise_the_first_faulty_entrys_error(request):
    # Every int in 0 .. 2 ** C(n, 2) - 1 is the key of a graph, so a batch
    # of them is searched; a batch with a faulty entry raises what that
    # entry raises in a batch of its own. Budgets of 1 node keep the
    # searches short.
    rnd = random.Random(26)
    cases = [random_key_batch(rnd) for _ in range(100)]
    # each kind of fault sits past entry 0 in some batch
    assert len({fault for *_, fault, at in cases if at > 0 and fault != "none"}) == 5
    for layer in itertools.chain([kernels], python_then_compiled(request)):
        for n, keys, budgets, fault, at in cases:
            if fault == "none":
                got = layer.run_batch(n, keys, 1, 2, True, False, budgets)
                assert len(got) == len(keys), (layer.__name__, n)
                continue
            with pytest.raises((TypeError, ValueError)) as alone:
                layer.run_batch(n, keys[at:at + 1], 1, 2, True, False, budgets[at:at + 1])
            with pytest.raises(alone.type) as raised:
                layer.run_batch(n, keys, 1, 2, True, False, budgets)
            assert str(raised.value) == str(alone.value), (layer.__name__, n, fault)


@pytest.mark.parametrize("adj", [
    [0, 0, 0],                      # one mask short
    [0, 0, 0, 0, 0],                # one mask too many
    [1 << 1, 0, 0, 0],              # mask 0 is not a vertex
    [0, 1 << 4, 0, 0],              # bit outside 1..n
    [0, -1, 0, 0],                  # negative: every bit set
    [0, (1 << 1) | (1 << 2), 1 << 1, 0],  # self-loop on 1
    [0, 1 << 2, 0, 0],              # 1-2 but not 2-1
])
def test_malformed_masks_are_rejected(adj):
    with pytest.raises(ValueError):
        kernels.run_search(3, adj, 1, 2, True, False, None)


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError, match="node_budget"):
        kernels.run_search(3, complete(3).adjacency_masks(), 1, 2, True, False, -5)


def test_word_longer_than_kernel_depth_is_rejected():
    assert kernels.MAX_DEPTH == 64
    with pytest.raises(ValueError):
        kernels.run_search(13, [0] * 14, 5, 5, False, False, 10)
    # 8 letters of 8 copies fill the depth exactly
    witnesses, _, _, _ = kernels.run_search(8, [0] * 9, 8, 8, False, False, 1)
    assert witnesses == []


# Called with 15 letters of 5 copies, the compiled kernel used to write past
# its 64-letter word and die with SIGSEGV; run it in a child process so a
# regression fails this test instead of killing pytest. It makes the call
# through kernels.run_search and then on the backend module itself, which
# must guard its own memory.
OVERFLOW_CALL = LOAD_PACKAGE + """
for run_search in (kernels.run_search, kernels.load_backend(kernels.backend_name()).run_search):
    try:
        run_search(15, [0] * 16, 5, 5, False, False, 10**6)
    except ValueError as e:
        print(kernels.backend_name(), "ValueError:", e)
"""


@pytest.mark.parametrize("backend", ["python", "c"])
def test_overlong_word_raises_instead_of_crashing(backend, request):
    done = run_child(OVERFLOW_CALL, backend, request)
    assert done.returncode == 0, (done.returncode, done.stderr)
    lines = done.stdout.splitlines()
    assert len(lines) == 2, done.stdout
    for line in lines:
        assert line.startswith(f"{backend} ValueError: n * max_copies"), done.stdout


# 70 graphs on 15 letters, one edge each, the last 70 pairs up to {14, 15}:
# graph bitsets of two words, and letter 15 in every table of the compiled
# run_batch. Each first witness takes at most 29 nodes, so the union search
# ends under the budgets; with find_all, every graph passes 3000 nodes, with
# witnesses, and the batch falls back to one search per graph. In groups of
# 60 and 10, across the two words, the union drops entries of both groups,
# as the Python kernel does. In a child process, as above, so that a memory
# fault fails this test instead of killing pytest.
WIDE_BATCH = LOAD_PACKAGE + """
from rep132.graphs import LabeledGraph, edge_bitset
pairs = [(u, v) for u in range(1, 16) for v in range(u + 1, 16)]
graphs = [LabeledGraph(15, [p]) for p in pairs[-70:]]
masks = [g.adjacency_masks() for g in graphs]
keys = [edge_bitset(g) for g in graphs]
for find_all, budgets in ((False, [None] * 69 + [10**6]), (True, [3000] * 70)):
    got = kernels.run_batch(15, keys, 1, 2, True, find_all, budgets)
    want = [kernels.run_search(15, m, 1, 2, True, find_all, b)
            for m, b in zip(masks, budgets)]
    print(kernels.backend_name(), len(got), got == want,
          sum(bool(w) for w, _, _, _ in got), sum(cut for _, _, _, cut in got))
# reversed, each group's first entry has its earliest witness
want = [kernels.run_search(15, m, 1, 2, True, False, None) for m in masks[::-1]]
got = kernels.run_batch(15, keys[::-1], 1, 2, True, False, [None] * 2, [60, 10])
py = kernels.load_backend("python").run_batch(15, keys[::-1], 1, 2, True, False,
                                              [None] * 2, [60, 10])
print(got == py, got[0] == want[0], got[60] == want[60], got.count(None))
"""


def test_compiled_batch_of_more_than_64_graphs_on_15_letters(request):
    done = run_child(WIDE_BATCH, "c", request)
    assert done.returncode == 0, (done.returncode, done.stderr)
    out = done.stdout.split()
    assert out[:10] == ["c", "70", "True", "70", "0",
                        "c", "70", "True", "70", "70"], done.stdout
    assert out[10:] == ["True", "True", "True", "68"], done.stdout


# The compiled kernel's run_search and run_batch are the Python driver's, so
# they run the Python kernel's masks_key, batch_shape and check_keys:
# counted calls. Then its two traversals, called directly, past every
# check, with rows packed here as the driver packs them: each
# must raise for what its arrays cannot hold (misfit shapes, rows of the
# wrong length or type, n = 16, min_copies = 0, n * max_copies > 64, a
# negative budget, a list of budgets for the union's one), and read only
# masks 1..n of a row that is not a graph, and stay in bounds on repeated
# rows, which the driver never passes, rather than send the C code past
# the end of an array. In a child process, as above.
SHAPE_FROM_PYTHON = LOAD_PACKAGE + """
from rep132 import _kernel_py
compiled = kernels.load_backend("c")
calls = []
for name in ("batch_shape", "check_keys", "masks_key"):
    def counted(*args, check=getattr(_kernel_py, name), name=name):
        calls.append(name)
        return check(*args)
    setattr(_kernel_py, name, counted)

def packed(masks):
    return sum(m << 16 * v for v, m in enumerate(masks)).to_bytes(32, "little")

k3 = [0, 0b1100, 0b1010, 0b0110]
row = packed(k3)
pair = row + packed([0] * 4)
compiled.run_search(3, k3, 1, 2, True, False, None)
compiled.run_batch(3, [7, 6], 1, 2, True, False, [None] * 2)
print(*calls)
search_graph, union_search = compiled._search_graph, compiled._union_search

def refused(call, *args):
    try:
        call(*args)
    except (SystemError, TypeError) as e:
        return type(e).__name__
    return "answered"

for n, min_copies, max_copies, budget in [(16, 1, 2, None), (3, 0, 2, None),
                                          (13, 5, 5, None), (3, 1, 2, -1)]:
    print(refused(search_graph, n, row, min_copies, max_copies, True, False, budget),
          refused(union_search, n, pair, budget, [2], min_copies, max_copies, True,
                  False))
for bad in (row[:-1], row + b"x", bytearray(row)):
    print(refused(search_graph, 3, bad, 1, 2, True, False, None))
for rows, budget, sizes in [(row, None, [2]), (pair, None, [1]), (pair, None, [3, -1]),
                            (row, None, [0, 1]), (row, None, [1, 1]), (row[:-1], None, [1]),
                            (pair + b"x", None, [2]), (bytearray(row), None, [1]),
                            (pair, [None] * 2, [2])]:
    print(refused(union_search, 3, rows, budget, sizes, 1, 2, True, False))
bad_rows = [
    b"\\xff" * 32,                         # bits past n, masks past n, mask 0
    packed([0, 0b1110, 0b1100, 0b1010]),   # a self-loop
    packed([0, 0b0100, 0, 0]),             # 1-2 but not 2-1
]
flags = [(forbid, find_all, budget) for forbid in (True, False)
         for find_all in (True, False) for budget in (None, 5)]
for bad in bad_rows:
    answers = [search_graph(3, bad, 1, 2, *flag) for flag in flags] + [
        union_search(3, rows, budget, [1] * count, 1, 2, forbid, find_all)
        for rows, count in ((bad + row, 2), (row + bad * 70, 71), (row * 3, 3))
        for forbid, find_all, budget in flags]
    print(len(answers))
"""


def test_compiled_kernel_takes_its_argument_checks_from_the_python_kernel(request):
    done = run_child(SHAPE_FROM_PYTHON, "c", request)
    assert done.returncode == 0, (done.returncode, done.stderr)
    lines = done.stdout.splitlines()
    assert lines[0] == "masks_key batch_shape check_keys batch_shape check_keys"
    assert lines[1:5] == ["SystemError SystemError"] * 4, done.stdout
    assert lines[5:8] == ["SystemError", "SystemError", "TypeError"], done.stdout
    assert lines[8:17] == ["SystemError"] * 7 + ["TypeError"] * 2, done.stdout
    assert lines[17:] == ["32"] * 3, done.stdout


def test_one_driver_runs_both_kernels(request):
    # run_batch and run_search are written once, in the Python kernel; the
    # compiled module holds only its two traversals and binds the same two
    # functions over them, so its source restates no check and no driver
    py = kernels.load_backend("python")
    compiled = request.getfixturevalue("compiled_kernel")
    for name in ("run_batch", "run_search"):
        assert getattr(compiled, name).__code__ is getattr(py, name).__code__, name
    methods = [name for name, obj in vars(compiled).items() if inspect.isbuiltin(obj)]
    assert sorted(methods) == ["_search_graph", "_union_search"]
    source = (Path(kernels.__file__).resolve().parent / "_kernel.c").read_text()
    for name in ("batch_shape", "check_keys", "masks_key"):
        assert name not in source, name


# The messages of the kernels' checks, those before a call's first entry,
# check_keys' on each entry and masks_key's on run_search's masks: the
# Python kernel states them, and no other source may restate them. "n must
# be in" is left out: search.py states the scan's own bound on n with it.
STATED_ONCE = ["one node budget per group", "group sizes of at least 1",
               "a key must be an int", "a key must be in", REPEATED_KEY,
               "keys must be ints, not", "must be an int, not bool",
               "adjacency masks, got", "has bits outside", "must be empty", "has a self-loop", "disagree",
               "min_copies <= max_copies", "max_copies must be at most",
               "must not be negative"]


def test_the_checks_before_the_first_entry_are_stated_once():
    package = Path(kernels.__file__).resolve().parent
    sources = sorted(package.glob("*.py")) + sorted(package.glob("*.c"))
    assert package / "_kernel.c" in sources
    found = {message: [path.name for path in sources if message in path.read_text()]
             for message in STATED_ONCE}
    assert found == {message: ["_kernel_py.py"] for message in STATED_ONCE}


def test_only_the_kernels_know_the_row_format():
    # run_batch takes keys; the packed rows of the traversals are built by
    # the Python kernel's driver and read by the two traversals, so no other
    # source names the row size
    package = Path(kernels.__file__).resolve().parent
    sources = [*package.rglob("*.py"), *package.rglob("*.c")]
    assert len(sources) > 10
    assert sorted(path.name for path in sources if "ROW_BYTES" in path.read_text()) == [
        "_kernel.c", "_kernel_py.py"]
    assert not hasattr(kernels, "ROW_BYTES")


def test_kernel_calls_leave_no_cyclic_garbage():
    # A kernel call's tables go when it returns, not at the next collection.
    # gc.collect() frees a cycle through a generator but may count 0 for it
    # (CPython 3.11), so also look for what a finished call made alive: a
    # generator of the package, or a function of the Python kernel, such as
    # a traversal's rec, that was not there before the calls.
    py = kernels.load_backend("python")
    graphs = [wheel(5), prism(3), cycle(6)]
    keys = [edge_bitset(g) for g in graphs]
    calls = [
        lambda: py.run_search(6, graphs[0].adjacency_masks(), 1, 2, True, False, None),
        lambda: py.run_batch(6, keys, 1, 2, True, False, [None], [3]),
        lambda: py.run_batch(6, keys, 1, 2, True, False, [1], [3]),
        lambda: kernels.run_search(6, graphs[2].adjacency_masks(), 1, 2, True, True, None),
        lambda: kernels.run_batch(6, keys, 1, 2, True, True, [None] * 3),
    ]
    package = os.path.dirname(py.__file__)

    def call_state():
        return [o for o in gc.get_objects()
                if type(o) is types.GeneratorType
                and os.path.dirname(o.gi_code.co_filename) == package
                or type(o) is types.FunctionType and o.__code__.co_filename == py.__file__]

    gc.collect()
    gc.disable()
    try:
        before = call_state()  # the module's functions and the drivers' closures
        for i, call in enumerate(calls):
            call()
            assert [o for o in call_state() if not any(o is b for b in before)] == [], i
            assert gc.collect() == 0, i
    finally:
        gc.enable()


def test_kernel_source_compiles_without_warnings(tmp_path):
    # The user build adds no warning flags; this keeps the hand-written
    # kernel clean under the strict ones.
    cc, include = c_compiler()
    source = Path(__file__).resolve().parent.parent / "src" / "rep132" / "_kernel.c"
    done = subprocess.run(
        [*cc, "-Wall", "-Wextra", "-Werror", "-O3", f"-I{include}",
         "-c", str(source), "-o", str(tmp_path / "_kernel.o")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
