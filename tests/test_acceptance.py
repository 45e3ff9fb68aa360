"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line naming the property it certifies,
with the instance count and time budget it was run under.
"""

import random
import time

import pytest

from rankchi import (
    ChiBoundFn,
    Graph,
    chi_bounded_coloring,
    chromatic_number,
    clique_number,
    complete,
    cube,
    cube_minus,
    cut_diversity,
    cut_matrix,
    cut_rank,
    cycle,
    decomposition_diversity,
    decomposition_rank,
    exact_node_oracle,
    exact_rank_width,
    has_vertex_minor,
    is_proper,
    key_lemma_coloring,
    no_max_clique_monochromatic,
    one_join_compose,
    path_graph,
    piece_graph,
    root_normalize,
    wheel,
)
from rankchi.generate import (
    random_connected_graph,
    random_decomposition,
    random_graph,
    random_join_tree,
)
from rankchi.oracles import canonical_form
from rankchi.coloring import compose_sequential

from helpers import naive_chromatic_number, random_vertex_subset, tree_adjacency


def report(number, label, ok):
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_rank_diversity_sandwich():
    """rank <= diversity <= 2^rank on 1000 random cuts with n <= 16, under 5 s."""
    rng = random.Random(101)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 16))
        w = random_vertex_subset(rng, g.n)
        m = cut_matrix(g, w)
        r, dv = cut_rank(m), cut_diversity(m)
        if w == 0 or w == g.vertex_mask:
            ok = ok and r == 0 and dv == 0
        else:
            ok = ok and r <= dv <= (1 << r)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(1, f"rank/diversity sandwich (1000 cuts, {elapsed:.2f}s < 5s)", ok)


def test_criterion_2_key_lemma_at_scale():
    """500 random connected graphs n <= 12: palette <= d(k+1) and every
    maximum clique gets two colors, under 60 s."""
    rng = random.Random(102)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        n = rng.randint(2, 12)
        g = random_connected_graph(rng, n, rng.uniform(0.2, 0.8))
        d = random_decomposition(rng, g)
        dd = max(1, decomposition_diversity(g, d))
        normalized = root_normalize(d)
        k = 1
        for v in range(normalized.num_nodes):
            k = max(k, chromatic_number(piece_graph(g, normalized, v))[0])
        col = key_lemma_coloring(g, d, exact_node_oracle, dd, k)
        ok = ok and col.palette_size <= dd * (k + 1)
        ok = ok and no_max_clique_monochromatic(g, col)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(2, f"key lemma palette and clique split (500 graphs, {elapsed:.1f}s < 60s)", ok)


@pytest.fixture(scope="module")
def witness_corpus():
    """>= 300 graphs with n <= 9 paired with exact rank-width witnesses of
    width <= 2, plus the wall time spent building them."""
    rng = random.Random(103)
    corpus = []
    start = time.perf_counter()
    sizes = [4, 5, 5, 6, 6, 7, 7, 8, 8, 9]
    while len(corpus) < 300:
        n = rng.choice(sizes)
        g = random_graph(rng, n, rng.uniform(0.15, 0.7))
        width, witness = exact_rank_width(g)
        if width <= 2:
            corpus.append((g, width, witness.decomposition))
    return corpus, time.perf_counter() - start


def test_criterion_3_recursive_coloring_end_to_end(witness_corpus):
    """chi_bounded_coloring with f == 3 on 300 width-<=2 witnesses is proper
    and uses at most (4 * 2^r)^(omega - 1) colors, under 10 min total."""
    corpus, build_time = witness_corpus
    start = time.perf_counter()
    ok = True
    for g, width, dec in corpus:
        bound = ChiBoundFn.constant(3, width)
        col = chi_bounded_coloring(g, dec, exact_node_oracle, bound)
        omega = clique_number(g)
        ok = ok and is_proper(g, col)
        ok = ok and col.palette_size <= (4 * (1 << width)) ** max(0, omega - 1)
    elapsed = build_time + (time.perf_counter() - start)
    ok = ok and elapsed < 600.0
    report(
        3,
        f"recursive coloring proper and within (4*2^r)^(omega-1) "
        f"({len(corpus)} witnesses, {elapsed:.1f}s < 600s)",
        ok,
    )


def test_criterion_4_witness_pieces_tripartite(witness_corpus):
    """Every piece graph of every witness is 3-partite with respect to the
    vertex classes induced by the components of T - v."""
    corpus, _ = witness_corpus
    ok = True
    for g, _width, dec in corpus:
        adj = tree_adjacency(dec)
        for v in range(dec.num_nodes):
            comp = {}
            for startnode in adj[v]:
                if startnode in comp:
                    continue
                stack = [startnode]
                comp[startnode] = startnode
                while stack:
                    x = stack.pop()
                    for y in adj[x]:
                        if y != v and y not in comp:
                            comp[y] = startnode
                            stack.append(y)
            sides = {}
            for u in range(g.n):
                key = comp.get(dec.tau[u], v)
                sides[key] = sides.get(key, 0) | 1 << u
            ok = ok and len(sides) <= 3
            piece = piece_graph(g, dec, v)
            for side in sides.values():
                for u, w in piece.edges():
                    if side >> u & 1 and side >> w & 1:
                        ok = False
    report(4, f"witness pieces 3-partite by tree split ({len(corpus)} witnesses)", ok)


def test_criterion_5_rank_width_sanity():
    """Known rank-width values, cross-checked by a second enumeration order."""
    cases = (
        [(complete(n), 1) for n in range(4, 7)]
        + [(path_graph(n), 1) for n in range(2, 8)]
        + [(cycle(n), 2) for n in range(5, 8)]
    )
    rng = random.Random(105)
    ok = True
    for g, expected in cases:
        ok = ok and exact_rank_width(g)[0] == expected
        order = list(range(g.n))
        rng.shuffle(order)
        ok = ok and exact_rank_width(g, leaf_order=order)[0] == expected
    report(5, "rank-width sanity values under two enumeration orders", ok)


def test_criterion_6_join_tree_pipeline():
    """200 random join trees: composed decomposition has rank <= 1,
    composition is edge-order independent, and the coloring it drives is
    proper."""
    rng = random.Random(106)
    ok = True
    for _ in range(200):
        jt = random_join_tree(rng, rng.randint(1, 5), extra=4)
        composed, dec, _ = one_join_compose(jt)
        ok = ok and decomposition_rank(composed, dec) <= 1
        for _ in range(2):
            order = list(jt.joins)
            rng.shuffle(order)
            ok = ok and compose_sequential(jt, order) == composed
        if composed.n == 0:
            continue
        normalized = root_normalize(dec)
        k = 1
        for v in range(normalized.num_nodes):
            k = max(k, chromatic_number(piece_graph(composed, normalized, v))[0])
        col = chi_bounded_coloring(
            composed, dec, exact_node_oracle, ChiBoundFn.constant(k, 1)
        )
        ok = ok and is_proper(composed, col)
    report(6, "join-tree rank <= 1, order independence, proper coloring (200 trees)", ok)


def test_criterion_7_chromatic_oracle_cross_validation():
    """All non-isomorphic graphs with n <= 6: chromatic_number matches an
    exhaustive labeling search and chi >= omega, under 30 s."""
    start = time.perf_counter()
    reps = [Graph(1, (0,))]
    by_size = {1: list(reps)}
    for n in range(2, 7):
        seen = {}
        for g in by_size[n - 1]:
            for nb in range(1 << (n - 1)):
                adj = list(g.adj) + [0]
                for u in range(n - 1):
                    if nb >> u & 1:
                        adj[u] |= 1 << (n - 1)
                        adj[n - 1] |= 1 << u
                h = Graph(n, tuple(adj))
                seen.setdefault(canonical_form(h), h)
        by_size[n] = list(seen.values())
    ok = len(by_size[6]) == 156
    count = 0
    for n, graphs in by_size.items():
        for g in graphs:
            chi = chromatic_number(g)[0]
            ok = ok and chi == naive_chromatic_number(g)
            ok = ok and chi >= clique_number(g)
            count += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(
        7,
        f"chromatic number vs exhaustive labeling ({count} graphs incl. 156 on "
        f"6 vertices, {elapsed:.1f}s < 30s)",
        ok,
    )


def test_criterion_8_vertex_minor_desk_checks():
    """Fixed vertex-minor verdicts and reflexivity on the named catalog."""
    ok = has_vertex_minor(cycle(5), complete(3))
    ok = ok and not has_vertex_minor(cycle(5), wheel(5))
    catalog = [
        wheel(5),
        wheel(7),
        cube(),
        cube_minus(),
        cycle(5),
        cycle(7),
        path_graph(4),
        complete(4),
    ]
    for g in catalog:
        ok = ok and has_vertex_minor(g, g)
    report(8, "vertex-minor desk checks and catalog reflexivity", ok)
