"""DFS kernel: backend parity, one contract, budgets, and the brute-force
oracle, which shows on both backends that each prune cuts no witness."""

import gc
import importlib.util
import inspect
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    LOAD_PACKAGE,
    brute_buckets,
    c_compiler,
    pack_rows,
    run_child,
)
from rep132 import kernels
from rep132.graphs import (
    LabeledGraph,
    complete,
    cycle,
    enumerate_graphs,
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
    assert [p for p, _ in shape(py.run_batch_unchecked)] == \
        [p for p, _ in shape(py.run_batch)]
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
        n, pack_rows(g.adjacency_masks() for g in graphs), args["min_copies"],
        args["max_copies"], args["forbid_132"], args["find_all"], budgets, groups,
    )


def by_order(graphs):
    out = {}
    for g in graphs:
        out.setdefault(g.n, []).append(g)
    return out


# BATTERY by order, each batch with a graph of every class of its order up
# to 4 vertices, so batches share prefixes and hold graphs both with and
# without each edge
BATCHES = by_order(BATTERY + [g for n in (2, 3, 4) for g in enumerate_graphs(n)])


def dropped_entries(results, groups):
    """The entries a run_batch without find_all drops, given each entry's
    run_search result: those with no first witness before, in DFS order,
    the earliest first witness of the entries before them in their group.
    DFS order is tuple order: lexicographic, a prefix first.
    """
    out = set()
    start = 0
    for size in groups:
        earliest = None
        for i in range(start, start + size):
            witnesses = results[i][0]
            mine = witnesses[0] if witnesses else None
            if earliest is not None and (mine is None or earliest < mine):
                out.add(i)
            if mine is not None and (earliest is None or mine < earliest):
                earliest = mine
        start += size
    return out


@pytest.fixture
def batch_agrees(compiled_kernel):
    """Check both backends' run_batch against per-graph run_search on both.

    Every entry that is not None equals run_search's result. Only a batch
    in groups without find_all drops entries: exactly dropped_entries when
    the union search ends under the budgets, as it does with none, and
    none when the batch falls back to one search per graph.
    """
    py = kernels.load_backend("python")

    def agree(n, graphs, budgets, groups=None, **kw):
        got = batch(py, n, graphs, budgets, groups, **kw)
        assert batch(compiled_kernel, n, graphs, budgets, groups, **kw) == got, (
            n, budgets, groups, kw)
        for backend in (py, compiled_kernel):
            expected = [run(backend, g, node_budget=b, **kw)
                        for g, b in zip(graphs, budgets)]
            assert [res for res in got if res is not None] == \
                [want for want, res in zip(expected, got) if res is not None], (
                    backend.__name__, n, budgets, groups, kw)
        dropped = {i for i, res in enumerate(got) if res is None}
        if groups is None or kw.get("find_all", True):
            assert not dropped
        elif all(b is None for b in budgets):
            assert dropped == dropped_entries(expected, groups)
        else:
            assert dropped in (set(), dropped_entries(expected, groups))
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
                    got = batch_agrees(n, graphs, [None] * count, groups, **kw)
                    drops += got.count(None)
                    # over the smallest budget, one search per graph drops nothing
                    budgets = [None] * (count - 1) + [1]
                    assert None not in batch_agrees(n, graphs, budgets, groups, **kw)
            batch_agrees(n, graphs, [None] * count, groups, min_copies=2,
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
    got = batch_agrees(6, graphs, [None] * 122, [60, 10, 52], find_all=False)
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
    py = kernels.load_backend("python")
    graphs = BATCHES[5]
    each = [run(py, g, find_all=False) for g in graphs]
    calls = []
    search_graph = py._search_graph

    def counting(*args):
        calls.append(args)
        return search_graph(*args)

    monkeypatch.setattr(py, "_search_graph", counting)
    total = sum(nodes for _, nodes, _, _ in each)
    assert batch(py, 5, graphs, [total] * len(graphs), find_all=False) == each
    assert calls == []
    smallest = max(nodes for _, nodes, _, _ in each) - 1
    budgets = [None] * (len(graphs) - 1) + [smallest]
    expected = [run(py, g, find_all=False, node_budget=b) for g, b in zip(graphs, budgets)]
    del calls[:]
    assert batch(py, 5, graphs, budgets, find_all=False) == expected
    assert len(calls) == len(graphs)
    # in one group, the union drops the entries after the first hit; the
    # fallback drops none
    one_group = [len(graphs)]
    del calls[:]
    got = batch(py, 5, graphs, [total] * len(graphs), one_group, find_all=False)
    assert calls == [] and None in got
    budgets = [None] * (len(graphs) - 1) + [1]
    expected = [run(py, g, find_all=False, node_budget=b) for g, b in zip(graphs, budgets)]
    del calls[:]
    assert batch(py, 5, graphs, budgets, one_group, find_all=False) == expected
    assert len(calls) == len(graphs)
    # the compiled run_batch falls back at the same budget, with the same results
    compiled = request.getfixturevalue("compiled_kernel")
    assert batch(compiled, 5, graphs, budgets, one_group, find_all=False) == expected
    assert batch(compiled, 5, graphs, [total] * len(graphs), one_group,
                 find_all=False) == got
    budgets = [None] * (len(graphs) - 1) + [smallest]
    expected = [run(py, g, find_all=False, node_budget=b) for g, b in zip(graphs, budgets)]
    assert batch(compiled, 5, graphs, budgets, find_all=False) == expected
    assert batch(compiled, 5, graphs, [total] * len(graphs), find_all=False) == each


def test_batch_answers_duplicates_entry_by_entry(request):
    py = kernels.load_backend("python")
    for backend in python_then_compiled(request):
        for find_all in (False, True):
            got = batch(backend, 5, [cycle(5)] * 3, [None] * 3, find_all=find_all)
            assert got == [run(py, cycle(5), find_all=find_all)] * 3
        # equal graphs in one group hit at the same leaf, and all keep their
        # results: no entry drops another that hits with it
        got = batch(backend, 5, [cycle(5)] * 3, [None] * 3, [3], find_all=False)
        assert got == [run(py, cycle(5), find_all=False)] * 3
        got = batch(backend, 5, [path(5), cycle(5), path(5)], [None] * 3, [3],
                    find_all=False)
        first = [run(py, g, find_all=False) for g in (path(5), cycle(5))]
        assert first[0][0][0] < first[1][0][0]
        assert got == [first[0], None, first[0]]
        graphs = [wheel(5), prism(3), wheel(5), prism(3)]
        budgets = [None, None, None, 10**6]
        got = batch(backend, 6, graphs, budgets, find_all=False)
        assert got == [run(py, g, find_all=False, node_budget=b)
                       for g, b in zip(graphs, budgets)]


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
    expected = [run(py, g, find_all=False) for g in graphs]
    dropped = dropped_entries(expected, groups)
    assert len(dropped) > 5
    got = batch(py, 5, graphs, [None] * len(graphs), groups, find_all=False)
    assert got == [None if i in dropped else want for i, want in enumerate(expected)]
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


def test_batch_shape_keeps_bytes_rows():
    # rows that are bytes already go to the kernel as they are, not copied
    rows = pack_rows([complete(3).adjacency_masks()])
    assert kernels.batch_shape(3, rows, 1, 2, [None], None)[0] is rows
    copied = kernels.batch_shape(3, bytearray(rows), 1, 2, [None], None)[0]
    assert type(copied) is bytes and copied == rows


def test_empty_batch(request):
    assert batch(kernels, 3, [], []) == []
    for backend in python_then_compiled(request):
        assert batch(backend, 3, [], []) == []
        assert batch(backend, 3, [], [], []) == []


def test_batch_rejects_what_run_search_rejects(request):
    good = complete(3).adjacency_masks()
    # what each backend rejects, then what kernels adds for a graph; a row
    # holds 16 masks, so a batch cannot have the wrong number of masks
    invalid = [
        (0, [0], 1, 2, None),
        (16, [0] * 16, 1, 2, None),
        (3, [0] * 4, 0, 2, None),
        (13, [0] * 14, 5, 5, None),
        (3, [0] * 4, 1, 2, -5),
        (3, [0, 1 << 4, 0, 0], 1, 2, None),
    ]
    not_graphs = [
        (3, [1 << 1, 0, 0, 0], 1, 2, None),       # mask 0 is not a vertex
        (3, [0, 1 << 1, 0, 0], 1, 2, None),       # self-loop
        (3, [0, 1 << 2, 0, 0], 1, 2, None),       # 1-2 but not 2-1
    ]

    def rejects_alike(backend, cases):
        for n, adj, min_copies, max_copies, budget in cases:
            with pytest.raises(ValueError) as single:
                backend.run_search(n, adj, min_copies, max_copies, True, False, budget)
            masks = [good, adj] if n == 3 else [adj]
            with pytest.raises(ValueError) as batched:
                backend.run_batch(n, pack_rows(masks), min_copies, max_copies, True,
                                  False, [None] + [budget] if n == 3 else [budget])
            assert str(batched.value) == str(single.value)
        # what only a batch can get wrong: its shape, a mask past n, groups
        rows = pack_rows([good, good])
        faults = [
            (rows, [None]),
            (rows[:-1], [None, None]),
            (rows + pack_rows([[0, 0, 0, 0, 1 << 1]]), [None] * 3),
            (rows + pack_rows([[0] * 15 + [1 << 1]]), [None] * 3),
        ]
        messages = []
        for fault_rows, budgets in faults:
            with pytest.raises(ValueError) as raised:
                backend.run_batch(3, fault_rows, 1, 2, True, False, budgets)
            messages.append(str(raised.value))
        for groups in ([1], [3], [2, 0], [0, 2], [1, 1, 1], [-1, 3]):
            with pytest.raises(ValueError) as raised:
                backend.run_batch(3, rows, 1, 2, True, False, [None] * 2, groups)
            messages.append(str(raised.value))
        with pytest.raises(TypeError):
            backend.run_batch(3, [good, good], 1, 2, True, False, [None] * 2)
        with pytest.raises(TypeError):
            backend.run_batch(3, rows, 1, 2, True, False, [None] * 2, [1.0, 1])
        return tuple(messages)

    messages = {rejects_alike(kernels, invalid + not_graphs)}
    for backend in python_then_compiled(request):
        messages.add(rejects_alike(backend, invalid))
    assert len(messages) == 1, messages
    assert messages.pop() == (
        "need one node budget per graph: 2 graphs, 1 budgets",
        "need 32 bytes per graph, got 63 bytes",
        "adjacency mask 4 is past n = 3",
        "adjacency mask 15 is past n = 3",
        *["need group sizes of at least 1 that add up to 2 graphs"] * 6,
    )


def test_non_int_counts_and_budgets_raise_one_type_error(request):
    # The Python kernel used to run with a float budget and ignore it, so a
    # search with one never ended; every entry point now raises the
    # compiled kernel's TypeError for a float n, copy count or budget.
    masks = complete(3).adjacency_masks()
    rows = pack_rows([masks, masks])
    cases = [(3.0, 1, 2, None), (3, 1.0, 2, None), (3, 1, 2.0, None), (3, 1, 2, 1.5)]
    messages = set()
    for backend in itertools.chain([kernels], python_then_compiled(request)):
        for n, min_copies, max_copies, budget in cases:
            with pytest.raises(TypeError) as single:
                backend.run_search(n, masks, min_copies, max_copies, True, False, budget)
            messages.add(str(single.value))
            for budgets in ([budget, None], [None, budget]):
                with pytest.raises(TypeError) as batched:
                    backend.run_batch(n, rows, min_copies, max_copies, True, False,
                                      budgets)
                messages.add(str(batched.value))
    assert messages == {"'float' object cannot be interpreted as an integer"}


# A float mask, and a float n with no rows or with rows of the wrong
# length: the compiled kernel's argument parsing raises its TypeError before
# any other check, and so must every layer, through run_search and run_batch
# alike.
FLOAT_CALLS = [
    ("run_search", (3, [0, 1.0, 0, 0], 1, 2, True, False, None)),
    ("run_batch", (3.0, b"", 1, 2, True, False, [])),
    ("run_batch", (3.0, b"x", 1, 2, True, False, [None])),
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
    assert done.stdout.splitlines() == [f"{backend} {FLOAT_MESSAGE}"] * 3
    module = kernels.load_backend("python")
    if backend == "c":
        module = request.getfixturevalue("compiled_kernel")
    for name, args in FLOAT_CALLS:
        with pytest.raises(TypeError) as raised:
            getattr(module, name)(*args)
        assert str(raised.value) == FLOAT_MESSAGE, (name, args)


def test_run_search_is_a_one_row_run_batch(request):
    # The contract on every layer: run_search(n, adj, ..., b) is
    # run_batch(n, adj's row, ..., [b])[0], searches and errors alike.
    rnd = random.Random(18)
    small = [g for n in range(1, 5) for g in labeled_graphs(n)]
    pairs = {n: list(itertools.combinations(range(1, n + 1), 2)) for n in (5, 6, 7)}
    larger = [LabeledGraph(n, [p for p in pairs[n] if rnd.random() < 0.5])
              for n in (5, 6, 7) for _ in range(3)]
    cutting = 7
    every = [(b, forbid, find_all) for b in (None, 0, cutting)
             for forbid in (True, False) for find_all in (True, False)]
    # unbudgeted searches of 5..7 letters stay short with the pattern prune
    # and the first witness
    cheap = [(None, True, False), (0, True, False)] + [
        (cutting, forbid, find_all) for forbid in (True, False)
        for find_all in (True, False)]
    bad = [(complete(3), 0, 2), (complete(3), 3, 2),
           (LabeledGraph(kernels.MAX_N + 1, []), 1, 2)]
    first = {}  # each search's result on the first layer
    for layer in itertools.chain([kernels], python_then_compiled(request)):
        for graphs, cases in ((small, every), (larger, cheap)):
            for g in graphs:
                adj = g.adjacency_masks()
                for budget, forbid, find_all in cases:
                    single = layer.run_search(g.n, adj, 1, 2, forbid, find_all, budget)
                    assert layer.run_batch(g.n, pack_rows([adj]), 1, 2, forbid,
                                           find_all, [budget]) == [single], (
                        layer.__name__, g.n, g.edge_list(), budget, forbid, find_all)
                    key = (g.n, adj, budget, forbid, find_all)
                    assert first.setdefault(key, single) == single, layer.__name__
        # test_input_validation's bad inputs, with the same error from both calls
        for g, min_copies, max_copies in bad:
            adj = g.adjacency_masks()
            with pytest.raises(ValueError) as single:
                layer.run_search(g.n, adj, min_copies, max_copies, True, True, None)
            with pytest.raises(ValueError) as batched:
                layer.run_batch(g.n, pack_rows([adj]), min_copies, max_copies, True,
                                True, [None])
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


# Counts the calls of the two check helpers, pack_row (run_search's checks
# of what a row cannot express) and batch_shape (run_batch's checks before
# its entries), in a child process whose kernels module selected the
# pure-Python backend: kernels.run_search makes each once, as
# kernels.run_batch does, and then enters the kernel past its own checks; a
# direct call on the kernel still makes each.
COUNT_CHECKS = """
from collections import Counter
from rep132 import _kernel_py, kernels
from rep132.graphs import complete
calls = Counter()
def counting(name):
    check = getattr(_kernel_py, name)
    def counted(*args):
        calls[name] += 1
        return check(*args)
    setattr(kernels, name, counted)
    setattr(_kernel_py, name, counted)
counting("pack_row")
counting("batch_shape")
g = complete(4)
for find_all in (False, True):
    kernels.run_search(g.n, g.adjacency_masks(), 1, 2, True, find_all, None)
print(kernels.backend_name(), calls["pack_row"], calls["batch_shape"])
row = sum(m << 16 * v for v, m in enumerate(g.adjacency_masks())).to_bytes(32, "little")
kernels.run_batch(g.n, row, 1, 2, True, False, [None])
print(calls["pack_row"], calls["batch_shape"])
_kernel_py.run_search(g.n, g.adjacency_masks(), 1, 2, True, False, None)
print(calls["pack_row"], calls["batch_shape"])
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


def test_batch_raises_the_first_faulty_entrys_error():
    # kernels.run_batch tests CHECK_ROWS entries at once and checks entry
    # by entry only a batch that fails, so the error is run_search's on the
    # first faulty entry, wherever it sits in a batch of any length
    good = complete(4).adjacency_masks()
    faults = [
        ([0, 1 << 2, 0, 0, 0], None),             # 1-2 but not 2-1
        ([0, (1 << 1) | (1 << 2), 1 << 1, 0, 0], None),  # self-loop on 1
        ([0, 1 << 5, 0, 0, 0], None),             # bit outside 1..n
        ([1 << 1, 1, 0, 0, 0], None),             # mask 0 is not a vertex
        ([0, 0, 0, 0, 0, 1 << 1], None),          # a mask past n
        ([0] * 15 + [1 << 15], None),             # the top lane of a row
        (good, -1),                               # negative budget
    ]

    def message(adj, budget):
        if len(adj) > 5:
            return f"adjacency mask {len(adj) - 1} is past n = 4"
        with pytest.raises(ValueError) as single:
            kernels.run_search(4, adj, 1, 2, True, False, budget)
        return str(single.value)

    for (adj, budget), (later, later_budget) in itertools.product(faults, repeat=2):
        for at in (0, 1, 70, kernels.CHECK_ROWS - 1, kernels.CHECK_ROWS + 5):
            masks = [good] * at + [adj] + [good] * 3 + [later] + [good]
            budgets = [None] * at + [budget] + [None] * 3 + [later_budget, None]
            with pytest.raises(ValueError) as batched:
                kernels.run_batch(4, pack_rows(masks), 1, 2, True, False, budgets)
            assert str(batched.value) == message(adj, budget)


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
from rep132.graphs import LabeledGraph
pairs = [(u, v) for u in range(1, 16) for v in range(u + 1, 16)]
masks = [LabeledGraph(15, [p]).adjacency_masks() for p in pairs[-70:]]
rows = b"".join(sum(m << 16 * v for v, m in enumerate(adj)).to_bytes(32, "little")
                for adj in masks)
for find_all, budgets in ((False, [None] * 69 + [10**6]), (True, [3000] * 70)):
    got = kernels.run_batch(15, rows, 1, 2, True, find_all, budgets)
    want = [kernels.run_search(15, m, 1, 2, True, find_all, b)
            for m, b in zip(masks, budgets)]
    print(kernels.backend_name(), len(got), got == want,
          sum(bool(w) for w, _, _, _ in got), sum(cut for _, _, _, cut in got))
# reversed, each group's first entry has its earliest witness
rows = b"".join(rows[i:i + 32] for i in range(len(rows) - 32, -1, -32))
want = [kernels.run_search(15, m, 1, 2, True, False, None) for m in masks[::-1]]
got = kernels.run_batch(15, rows, 1, 2, True, False, [None] * 70, [60, 10])
py = kernels.load_backend("python").run_batch(15, rows, 1, 2, True, False, [None] * 70,
                                              [60, 10])
print(got == py, got[0] == want[0], got[60] == want[60], got.count(None))
"""


def test_compiled_batch_of_more_than_64_graphs_on_15_letters(request):
    done = run_child(WIDE_BATCH, "c", request)
    assert done.returncode == 0, (done.returncode, done.stderr)
    out = done.stdout.split()
    assert out[:10] == ["c", "70", "True", "70", "0",
                        "c", "70", "True", "70", "70"], done.stdout
    assert out[10:] == ["True", "True", "True", "68"], done.stdout


def test_kernel_calls_leave_no_cyclic_garbage():
    # A kernel call's tables go when it returns, not at the next collection.
    py = kernels.load_backend("python")
    graphs = [wheel(5), prism(3), cycle(6)]
    masks = [g.adjacency_masks() for g in graphs]
    rows = pack_rows(masks)
    calls = [
        lambda: py.run_search(6, masks[0], 1, 2, True, False, None),
        lambda: py.run_batch(6, rows, 1, 2, True, False, [None] * 3, [3]),
        lambda: kernels.run_search(6, masks[2], 1, 2, True, True, None),
        lambda: kernels.run_batch(6, rows, 1, 2, True, True, [None] * 3),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
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


def test_compare_backends_runs_the_python_kernel_it_times(monkeypatch, capsys):
    # benchmarks/compare_backends.py times each backend in turn. Every
    # search calls kernels.run_batch, so the script must swap that too, or
    # its "python" column runs the backend kernels chose.
    script = Path(__file__).resolve().parent.parent / "benchmarks" / "compare_backends.py"
    spec = importlib.util.spec_from_file_location("compare_backends", script)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    py = kernels.load_backend("python")
    calls = []
    run_batch = py.run_batch

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(py, "run_batch", counting)
    original = kernels.run_search, kernels.run_batch
    assert compare.main(["--cases", "wheel5", "--repeat", "1"]) == 0
    assert len(calls) > 0
    assert (kernels.run_search, kernels.run_batch) == original
    assert capsys.readouterr().out.startswith("case")
