"""Labeled graphs, builders, canonical forms, automorphisms, enumeration."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rep132.graphs import (
    LabeledGraph,
    _children,
    _columns,
    _enumerate_graphs,
    _lane_tables,
    _lanes,
    automorphisms,
    canonical_form,
    complete,
    components,
    cycle,
    degree,
    edge_bitset,
    enumerate_graphs,
    graph_from_bitset,
    identity_labeling,
    inverse_labeling,
    path,
    prism,
    relabel,
    star,
    wheel,
)


def random_graph(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return LabeledGraph(n, edges)


graphs = st.composite(random_graph)()
perms = st.permutations


# ------------------------------------------------------------------- basics


def test_graph_normalizes_edges():
    g = LabeledGraph(3, [(2, 1), (3, 1)])
    assert g.edge_list() == [(1, 2), (1, 3)]
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(2, 3)
    assert g.neighbors(1) == (2, 3)
    assert g.vertices() == range(1, 4)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        LabeledGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        LabeledGraph(3, [(0, 2)])
    with pytest.raises(ValueError):
        LabeledGraph(3, [(2, 4)])
    # not integers: refused where the graph is built, not by a later use
    with pytest.raises(TypeError):
        LabeledGraph(3, [(1.5, 2)])
    with pytest.raises(TypeError):
        LabeledGraph(2.5)


@pytest.mark.parametrize("n, edges", [
    (2, [(True, 2)]),
    (3, [(1, 2), (3, True)]),
    (True, []),
])
def test_graph_rejects_bools(n, edges):
    # a bool is an int, so LabeledGraph(2, [(True, 2)]) used to have the
    # edge {1, 2}
    with pytest.raises(TypeError, match="not a bool"):
        LabeledGraph(n, edges)


def test_adjacency_masks():
    g = LabeledGraph(3, [(1, 2), (2, 3)])
    masks = g.adjacency_masks()
    assert masks[1] == 1 << 2
    assert masks[2] == (1 << 1) | (1 << 3)
    assert masks[3] == 1 << 2


def test_degree():
    g = star(3)
    assert degree(g, 4) == 3
    assert degree(g, 1) == 1


# ------------------------------------------------------------------ builders


def test_builders():
    assert complete(3).edge_list() == [(1, 2), (1, 3), (2, 3)]
    assert path(4).edge_list() == [(1, 2), (2, 3), (3, 4)]
    assert cycle(4).edge_list() == [(1, 2), (1, 4), (2, 3), (3, 4)]
    assert star(3).edge_list() == [(1, 4), (2, 4), (3, 4)]
    assert wheel(3) == complete(4)
    # wheel: rim cycle 1..n plus apex n+1
    w5 = wheel(5)
    assert degree(w5, 6) == 5
    assert all(degree(w5, v) == 3 for v in range(1, 6))
    # prism: two triangles joined by a perfect matching
    p3 = prism(3)
    assert p3.n == 6 and len(p3.edges) == 9
    assert all(degree(p3, v) == 3 for v in p3.vertices())


def test_builder_bounds():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        wheel(2)
    with pytest.raises(ValueError):
        prism(2)
    with pytest.raises(ValueError):
        star(0)


# ----------------------------------------------------------------- relabeling


def test_relabel_moves_edges():
    g = path(3)                      # 1-2-3
    h = relabel(g, (2, 3, 1))        # 1->2, 2->3, 3->1
    assert h.edge_list() == [(1, 3), (2, 3)]


def test_relabel_identity_and_inverse():
    g = prism(3)
    assert relabel(g, identity_labeling(6)) == g
    sigma = (3, 1, 4, 2, 6, 5)
    assert relabel(relabel(g, sigma), inverse_labeling(sigma)) == g


def test_relabel_rejects_non_permutations():
    with pytest.raises(ValueError):
        relabel(path(3), (1, 1, 2))
    with pytest.raises(ValueError):
        relabel(path(3), (1, 2))
    with pytest.raises(TypeError):
        relabel(path(3), (1.0, 2.0, 3.0))


@settings(max_examples=60)
@given(graphs, st.randoms())
def test_relabel_composition(g, rnd):
    sigma = list(identity_labeling(g.n))
    rnd.shuffle(sigma)
    tau = list(identity_labeling(g.n))
    rnd.shuffle(tau)
    combo = tuple(tau[sigma[v - 1] - 1] for v in g.vertices())
    assert relabel(relabel(g, tuple(sigma)), tuple(tau)) == relabel(g, combo)


# ------------------------------------------------------------ canonical form


def test_canonical_form_fixed_points():
    # the canonical star points out of vertex 1
    assert canonical_form(path(3)).edge_list() == [(1, 2), (1, 3)]
    assert canonical_form(star(3)).edge_list() == [(1, 2), (1, 3), (1, 4)]
    assert canonical_form(complete(4)) == complete(4)


def test_canonical_forms_of_graphs_full_of_twins():
    # A star's leaves, each side of K_{2,7} and the isolated vertices of a
    # one-edge graph are twins, of which the labeling search tries one per
    # label; the forms must not depend on which one, or on the input labels
    k27 = LabeledGraph(9, [(i, j) for i in (1, 2) for j in range(3, 10)])
    cases = [
        (star(9), [(1, v) for v in range(2, 11)]),
        (k27, [(1, v) for v in range(2, 9)] + [(v, 9) for v in range(2, 9)]),
        (LabeledGraph(10, [(1, 2)]), [(1, 2)]),
    ]
    for g, edges in cases:
        assert canonical_form(g).edge_list() == edges
        reverse = tuple(range(g.n, 0, -1))
        assert canonical_form(relabel(g, reverse)).edge_list() == edges


@settings(max_examples=80)
@given(graphs, st.randoms())
def test_canonical_form_is_relabeling_invariant(g, rnd):
    sigma = list(identity_labeling(g.n))
    rnd.shuffle(sigma)
    assert canonical_form(relabel(g, tuple(sigma))) == canonical_form(g)


@settings(max_examples=40)
@given(graphs)
def test_canonical_form_is_idempotent_and_isomorphic(g):
    c = canonical_form(g)
    assert canonical_form(c) == c
    assert c.n == g.n and len(c.edges) == len(g.edges)
    degs = sorted(degree(g, v) for v in g.vertices())
    assert sorted(degree(c, v) for v in c.vertices()) == degs


# ------------------------------------------------------------- automorphisms


def test_automorphism_group_orders():
    assert len(automorphisms(complete(4))) == math.factorial(4)
    assert len(automorphisms(cycle(5))) == 10
    assert len(automorphisms(cycle(6))) == 12
    assert len(automorphisms(path(3))) == 2
    assert len(automorphisms(prism(3))) == 12
    assert len(automorphisms(wheel(5))) == 10
    assert len(automorphisms(LabeledGraph(1, []))) == 1


def test_automorphisms_fix_the_graph():
    g = prism(3)
    for alpha in automorphisms(g):
        assert relabel(g, alpha) == g


def test_automorphisms_form_a_group():
    g = cycle(4)
    auts = set(automorphisms(g))
    for a in auts:
        assert inverse_labeling(a) in auts
        for b in auts:
            composed = tuple(b[a[v - 1] - 1] for v in g.vertices())
            assert composed in auts


# ----------------------------------------------------------------- bitsets


def test_edge_bitset_orders_pair_12_first():
    n = 4
    g12 = LabeledGraph(n, [(1, 2)])
    g34 = LabeledGraph(n, [(3, 4)])
    assert edge_bitset(g12) > edge_bitset(g34)
    assert graph_from_bitset(n, edge_bitset(g12)) == g12


@settings(max_examples=60)
@given(graphs)
def test_bitset_round_trip(g):
    assert graph_from_bitset(g.n, edge_bitset(g)) == g


def test_graph_from_bitset_refuses_bits_of_no_pair():
    # bits is a key as kernels.run_batch takes it: an int, not a bool, in
    # 0 .. 2**C(n, 2) - 1. -1 once gave K3 and 1 << 10 the empty graph.
    assert graph_from_bitset(3, 7) == complete(3)
    assert graph_from_bitset(3, 0) == LabeledGraph(3, [])
    assert graph_from_bitset(1, 0) == LabeledGraph(1, [])
    for n, bits in ((3, -1), (3, 8), (3, 1 << 10), (1, 1), (0, 1), (4, -(1 << 6))):
        with pytest.raises(ValueError, match=r"bits must be in 0 \.\. 2\*\*"):
            graph_from_bitset(n, bits)
    for bits in (True, False, 1.0, "7", None, b"\x07"):
        with pytest.raises(TypeError, match="bits must be an int"):
            graph_from_bitset(3, bits)


def test_graph_from_bitset_decodes_every_pair():
    # graph_from_bitset decodes each set bit to its pair; every single-edge
    # graph up to 30 vertices, and the lowest pairs of larger ones, whose
    # keys are small, come back as they went in
    for n in range(2, 31):
        for pair in itertools.combinations(range(1, n + 1), 2):
            g = LabeledGraph(n, [pair])
            assert graph_from_bitset(n, edge_bitset(g)) == g
    for n in (100, 10**4, 10**9):
        g = LabeledGraph(n, [(n - 3, n - 1), (n - 2, n - 1), (n - 2, n), (n - 1, n)])
        assert graph_from_bitset(n, edge_bitset(g)) == g


# -------------------------------------------------------------- enumeration


def test_enumerate_graphs_counts():
    assert sum(1 for _ in enumerate_graphs(1)) == 1
    assert sum(1 for _ in enumerate_graphs(2)) == 2
    assert sum(1 for _ in enumerate_graphs(3)) == 4
    assert sum(1 for _ in enumerate_graphs(4)) == 11
    assert sum(1 for _ in enumerate_graphs(4, isolate_free=True)) == 7
    assert sum(1 for _ in enumerate_graphs(5, isolate_free=True)) == 23
    assert sum(1 for _ in enumerate_graphs(6, isolate_free=True)) == 122


def test_enumerate_graphs_returns_canonical_representatives():
    for g in enumerate_graphs(4):
        assert canonical_form(g) == g


def test_enumerate_graphs_covers_every_graph():
    reps = {edge_bitset(g) for g in enumerate_graphs(4)}
    pairs = list(itertools.combinations(range(1, 5), 2))
    seen = set()
    for bits in range(1 << len(pairs)):
        g = graph_from_bitset(4, bits)
        seen.add(edge_bitset(canonical_form(g)))
    assert seen == reps


def test_enumerate_graphs_bounds():
    with pytest.raises(ValueError):
        enumerate_graphs(8)
    with pytest.raises(ValueError):
        enumerate_graphs(0)


def orbit_walk_bitsets(n, isolate_free):
    """The canonical bitsets of the orbit walk enumerate_graphs once used.

    Walks all 2^(n choose 2) edge bitsets; an unseen one has its whole
    permutation orbit marked, and the orbit's largest member is kept. It
    shares no code with the package, so it is an oracle for the orderly
    generator.
    """
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    top = len(pairs) - 1
    rank = {p: i for i, p in enumerate(pairs)}
    bitmaps = []
    for sigma in itertools.permutations(range(1, n + 1)):
        m = [0] * len(pairs)
        for a, b in pairs:
            u, v = sorted((sigma[a - 1], sigma[b - 1]))
            m[top - rank[(a, b)]] = top - rank[(u, v)]
        bitmaps.append(m)
    seen = bytearray(1 << len(pairs))
    found = set()
    for bits in range(1 << len(pairs)):
        if seen[bits]:
            continue
        canon = -1
        for m in bitmaps:
            img = sum(1 << m[i] for i in range(len(pairs)) if bits >> i & 1)
            seen[img] = 1
            canon = max(canon, img)
        covered = set()
        for i in range(len(pairs)):
            if canon >> (top - i) & 1:
                covered.update(pairs[i])
        if not isolate_free or len(covered) == n:
            found.add(canon)
    return found


@pytest.mark.parametrize("n", range(1, 7))
def test_orderly_generation_matches_the_orbit_walk(n):
    for isolate_free in (False, True):
        got = [edge_bitset(g) for g in enumerate_graphs(n, isolate_free)]
        assert len(got) == len(set(got))
        assert set(got) == orbit_walk_bitsets(n, isolate_free)


@pytest.mark.parametrize("n", range(1, 7))
def test_clearing_the_lowest_bit_keeps_a_bitset_canonical(n):
    # the parent rule orderly generation rests on: every canonical graph
    # with k + 1 edges is a canonical graph with k edges plus one edge
    canonical = orbit_walk_bitsets(n, False)
    for bits in canonical - {0}:
        assert bits & (bits - 1) in canonical


def test_enumerate_graphs_yields_by_edge_count_then_edge_list():
    for n in (5, 6):
        got = list(enumerate_graphs(n))
        assert got == sorted(got, key=lambda h: (len(h.edges), h.edge_list()))


def test_enumerate_graphs_matches_the_graph_atlas():
    nx = pytest.importorskip("networkx")
    atlas = {n: set() for n in range(1, 8)}
    isolate_free = {n: 0 for n in range(1, 8)}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n == 0:
            continue
        g = LabeledGraph(n, [(u + 1, v + 1) for u, v in h.edges()])
        atlas[n].add(canonical_form(g))
        isolate_free[n] += min(dict(h.degree()).values()) > 0
    counts = [1, 2, 4, 11, 34, 156, 1044]
    assert [len(atlas[n]) for n in range(1, 8)] == counts
    for n in range(1, 8):
        got = list(enumerate_graphs(n))
        assert len(got) == counts[n - 1]
        assert set(got) == atlas[n]
        assert all(canonical_form(g) == g for g in got)
        free = sum(1 for _ in enumerate_graphs(n, isolate_free=True))
        assert free == isolate_free[n]
    assert [isolate_free[n] for n in (5, 6, 7)] == [23, 122, 888]


def test_orderly_generation_reaches_order_eight():
    # enumerate_graphs stops at 7, the largest order a scan can finish; the
    # generator itself finds the 12,346 classes on 8 vertices, 11,302 of
    # them isolate-free (OEIS A000088, A002494). A generator that repeats
    # classes stops here one past the count
    total = free = 0
    for g in itertools.islice(_enumerate_graphs(8, isolate_free=False), 12347):
        total += 1
        free += all(degree(g, v) for v in g.vertices())
    assert (total, free) == (12346, 11302)



@pytest.mark.parametrize("n", range(1, 7))
def test_lane_test_accepts_a_candidate_iff_it_is_canonical(n):
    # Every orderly candidate: each canonical graph plus one pair below its
    # lowest set bit. The lane test (_children) must accept exactly those
    # that canonical_form, the independent pruned search, keeps as they are,
    # and give each the block sums that _lane_tables defines for it
    size = n * (n - 1) // 2
    empty, offsets, high = _lane_tables(n)
    columns = _columns(n)
    _, width = _lanes(n)
    ones = int.from_bytes((1).to_bytes(width, sys.byteorder) * math.factorial(n - 1),
                          sys.byteorder)
    top = (1 << 8 * width - 1) - 1
    walked, candidates, stack = [], 0, [(0, empty)]
    while stack:
        bits, sums = stack.pop()
        walked.append(bits)
        accepted = dict(_children(bits, sums, offsets, high))
        low = (bits & -bits).bit_length() - 1 if bits else size
        kids = [bits | 1 << pos for pos in range(low)]
        candidates += len(kids)
        assert set(accepted) == {
            c for c in kids if edge_bitset(canonical_form(graph_from_bitset(n, c))) == c}
        for child, child_sums in accepted.items():
            edges = [size - 1 - pos for pos in range(size) if child >> pos & 1]
            assert child_sums == [sum(block[i] for i in edges) + (top - child) * ones
                                  for block in columns]
        stack.extend(accepted.items())
    assert sorted(walked) == sorted(edge_bitset(g) for g in enumerate_graphs(n))
    assert candidates == [0, 1, 6, 24, 91, 393][n - 1]


def test_lanes_keep_a_spare_top_bit_or_raise():
    # the lane test reads each lane's top bit, so a key must leave it free
    for n in range(1, 9):
        _, width = _lanes(n)
        assert n * (n - 1) // 2 < 8 * width
    for n in (9, 10, 12):
        with pytest.raises(ValueError, match="spare top bit"):
            _lanes(n)
        with pytest.raises(ValueError, match="spare top bit"):
            next(_enumerate_graphs(n, False))


# -------------------------------------------------------------- components


def test_components():
    g = LabeledGraph(5, [(1, 2), (4, 5)])
    comps = components(g)
    assert [sorted(c) for c in comps] == [[1, 2], [3], [4, 5]]
    assert components(complete(3)) == [(1, 2, 3)]
    assert components(LabeledGraph(0)) == []


@settings(max_examples=80)
@given(st.composite(lambda draw: random_graph(draw, max_n=12))())
def test_neighbors_degree_and_components_match_their_definitions(g):
    # against has_edge, vertex by vertex, and components grown by has_edge
    # from each vertex not yet reached, in order
    for v in g.vertices():
        nbrs = tuple(u for u in g.vertices() if g.has_edge(u, v))
        assert g.neighbors(v) == nbrs
        assert degree(g, v) == len(nbrs)
    want, reached = [], set()
    for v in g.vertices():
        comp = {v} - reached
        while comp:
            grown = comp | {u for u in g.vertices() for w in comp if g.has_edge(u, w)}
            if grown == comp:
                want.append(tuple(sorted(comp)))
                reached |= comp
                break
            comp = grown
    assert components(g) == want


# The graph helpers at n = 10**5, in a child process with a timeout, so a
# helper that walks every vertex or vertex pair again fails this test
# instead of hanging the suite: graph_from_bitset decodes the set bits
# only, neighbors and degree read the edge set, and components is
# O(n + edges). Each took seconds at n = 2,000 or 3,000 when it walked the
# vertices or pairs.
LARGE_GRAPHS = """
import sys
sys.path.insert(0, sys.argv[1])
from rep132.graphs import LabeledGraph, components, degree, edge_bitset, graph_from_bitset, path
n = 10**5
assert graph_from_bitset(n, 0) == LabeledGraph(n)
low = LabeledGraph(n, [(n - 2, n), (n - 1, n)])
assert graph_from_bitset(n, edge_bitset(low)) == low
assert graph_from_bitset(n, 0b101) == LabeledGraph(n, [(n - 2, n - 1), (n - 1, n)])
far = LabeledGraph(10**7, [(1, 2), (2, 10**7)])
assert degree(far, 2) == 2 and far.neighbors(2) == (1, 10**7) and degree(far, 5) == 0
assert components(LabeledGraph(n)) == [(v,) for v in range(1, n + 1)]
assert components(path(n)) == [tuple(range(1, n + 1))]
halves = LabeledGraph(n, [(v, v + 2) for v in range(1, n - 1)])
assert components(halves) == [tuple(range(1, n + 1, 2)), tuple(range(2, n + 1, 2))]
print("ok")
"""


def test_graph_helpers_scale_with_the_edges():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", LARGE_GRAPHS, str(src)],
                          env=dict(os.environ), capture_output=True, text=True,
                          timeout=30)
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr
