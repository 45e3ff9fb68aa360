import random

import pytest

from rankchi import (
    Decomposition,
    Graph,
    InputError,
    ResourceError,
    StateError,
    ValidationError,
    bitset,
    complete,
    cut_diversity,
    cut_matrix,
    cut_rank,
    cycle,
    decomposition_diversity,
    decomposition_rank,
    edge_cut,
    exact_rank_width,
    origin,
    outside_partition,
    path_graph,
    piece_graph,
    restrict,
    root_normalize,
    star_decomposition,
    validate_rank_decomposition,
)
from rankchi.decomposition import rooted_parents, subtree_preimages
from rankchi.generate import (
    random_cubic_decomposition,
    random_decomposition,
    random_graph,
)

from helpers import (
    matrix_of_cut,
    naive_cut_diversity,
    naive_edge_cut,
    naive_gf2_rank,
    naive_origin,
    naive_outside_classes,
    naive_parents,
    naive_piece_edges,
    naive_subtree_preimages,
    random_vertex_subset,
)


def path_tree_decomposition():
    """Tree x-y-z with tau(a)=x, tau(b)=y, tau(c)=z."""
    return Decomposition(3, ((0, 1), (1, 2)), (0, 1, 2))


class TestStructure:
    def test_disconnected_tree_rejected(self):
        with pytest.raises(InputError):
            Decomposition(4, ((0, 1), (2, 3), (0, 1)), (0,))

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(InputError):
            Decomposition(3, ((0, 1),), (0,))

    def test_root_must_be_empty_leaf(self):
        with pytest.raises(InputError):
            Decomposition(2, ((0, 1),), (0, 1), root=1)
        with pytest.raises(InputError):
            Decomposition(3, ((0, 1), (1, 2)), (0, 2), root=1)


class TestEdgeCut:
    def test_star_leaf_cut_degenerate(self):
        g = complete(3)
        d = Decomposition(4, ((0, 1), (0, 2), (0, 3)), (0, 0, 0))
        assert edge_cut(g, d, (0, 1)) == (g.vertex_mask, 0)

    def test_two_leaf_tree(self):
        g = path_graph(2)
        d = Decomposition(2, ((0, 1),), (0, 1))
        assert edge_cut(g, d, (0, 1)) == (0b01, 0b10)

    def test_path_tree(self):
        g = complete(3)
        d = path_tree_decomposition()
        assert edge_cut(g, d, (0, 1)) == (0b001, 0b110)

    def test_non_edge_rejected(self):
        d = path_tree_decomposition()
        with pytest.raises(InputError):
            edge_cut(complete(3), d, (0, 2))


class TestRankDiversity:
    def test_star_rank_at_most_one(self):
        rng = random.Random(0)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 12))
            assert decomposition_rank(g, star_decomposition(g)) <= 1

    def test_single_node_tree(self):
        g = complete(4)
        d = Decomposition(1, (), (0, 0, 0, 0))
        assert decomposition_rank(g, d) == 0
        assert decomposition_diversity(g, d) == 0

    def test_diversity_sandwich_random(self):
        rng = random.Random(1)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 12))
            d = random_decomposition(rng, g)
            for e in d.tree_edges:
                side, _ = edge_cut(g, d, e)
                m = cut_matrix(g, side)
                r, dv = cut_rank(m), cut_diversity(m)
                assert r <= dv <= (1 << r) or (r == 0 and dv == 0)


class TestPieceGraph:
    def test_center_keeps_triangle(self):
        g = complete(3)
        d = path_tree_decomposition()
        assert piece_graph(g, d, 1) == g

    def test_end_node_drops_far_edge(self):
        g = complete(3)
        d = path_tree_decomposition()
        assert sorted(piece_graph(g, d, 0).edges()) == [(0, 1), (0, 2)]

    def test_single_node_tree_keeps_all(self):
        g = cycle(5)
        d = Decomposition(1, (), (0,) * 5)
        assert piece_graph(g, d, 0) == g

    def test_edge_cover(self):
        rng = random.Random(2)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 9))
            d = random_decomposition(rng, g)
            covered = set()
            for v in range(d.num_nodes):
                covered.update(piece_graph(g, d, v).edges())
            assert covered == set(g.edges())


class TestOrigin:
    def test_same_node(self):
        d = Decomposition(3, ((0, 1), (1, 2)), (1, 1), root=0)
        assert origin(d, 0, 1) == 1

    def test_branching(self):
        # root 0 with child 1; 1 has children 2 and 3
        d = Decomposition(4, ((0, 1), (1, 2), (1, 3)), (2, 3), root=0)
        assert origin(d, 0, 1) == 1

    def test_chain(self):
        d = Decomposition(3, ((0, 1), (1, 2)), (1, 2), root=0)
        assert origin(d, 0, 1) == 1

    def test_unrooted_raises(self):
        d = path_tree_decomposition()
        with pytest.raises(StateError):
            origin(d, 0, 1)

    def test_vertex_out_of_range_raises(self):
        d = Decomposition(3, ((0, 1), (1, 2)), (1, 2), root=0)
        for u, w in ((0, 2), (2, 0), (-1, 0)):
            with pytest.raises(InputError):
                origin(d, u, w)


class TestOutsidePartition:
    def test_whole_graph_single_zero_class(self):
        g = cycle(4)
        d = Decomposition(2, ((0, 1),), (1, 1, 1, 1), root=0)
        parts = outside_partition(g, d, 1)
        assert parts == [g.vertex_mask]

    def test_k22_one_nonzero_class(self):
        g = Graph.from_edges(4, [(u, v) for u in (0, 1) for v in (2, 3)])
        d = Decomposition(3, ((0, 1), (0, 2)), (1, 1, 2, 2))
        rooted = root_normalize(d)
        parts = outside_partition(g, rooted, 1)
        assert parts == [0, 0b0011]

    def test_matches_cut_matrix_rows(self):
        rng = random.Random(3)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 12))
            d = root_normalize(random_decomposition(rng, g))
            pre = subtree_preimages(g, d)
            for v in range(d.num_nodes):
                if v == d.root:
                    continue
                parts = outside_partition(g, d, v)
                vv = pre[v]
                assert sum(parts) == vv  # disjoint masks partitioning V_v
                # group rows of the cut matrix of (V_v, rest) for comparison
                groups = {}
                for u in range(g.n):
                    if vv >> u & 1:
                        groups.setdefault(g.adj[u] & ~vv, 0)
                        groups[g.adj[u] & ~vv] |= 1 << u
                nonzero = sorted(m for key, m in groups.items() if key)
                assert sorted(p for p in parts[1:]) == nonzero
                assert parts[0] == groups.get(0, 0)


class TestRestrict:
    def test_identity(self):
        g = cycle(5)
        d = random_decomposition(random.Random(4), g)
        h, d2, _ = restrict(g, d, g.vertex_mask)
        assert h == g and d2 == d

    def test_empty(self):
        g = cycle(5)
        d = star_decomposition(g)
        h, d2, _ = restrict(g, d, 0)
        assert h.n == 0 and d2.tau == ()

    def test_rank_never_increases(self):
        rng = random.Random(5)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 10))
            d = random_decomposition(rng, g)
            s = rng.randrange(1 << g.n)
            h, d2, _ = restrict(g, d, s)
            assert decomposition_rank(h, d2) <= decomposition_rank(g, d)
            assert decomposition_diversity(h, d2) <= decomposition_diversity(g, d)


class TestValidateRankDecomposition:
    def test_two_leaf_valid(self):
        g = path_graph(2)
        d = Decomposition(2, ((0, 1),), (0, 1))
        assert validate_rank_decomposition(g, d).width == 1

    def test_star_center_degree_violation(self):
        g = Graph(4, (0, 0, 0, 0))
        d = Decomposition(5, ((4, 0), (4, 1), (4, 2), (4, 3)), (0, 1, 2, 3))
        with pytest.raises(ValidationError):
            validate_rank_decomposition(g, d)

    def test_non_injective_rejected(self):
        g = path_graph(2)
        d = Decomposition(2, ((0, 1),), (0, 0))
        with pytest.raises(ValidationError):
            validate_rank_decomposition(g, d)

    def test_uncovered_leaf_rejected(self):
        g = path_graph(2)
        d = Decomposition(4, ((2, 0), (2, 1), (2, 3)), (0, 1))
        with pytest.raises(ValidationError):
            validate_rank_decomposition(g, d)

    def test_caterpillar_on_k5(self):
        g = complete(5)
        # caterpillar: leaves 0..4, spine 5,6,7
        edges = ((0, 5), (1, 5), (5, 6), (2, 6), (6, 7), (3, 7), (4, 7))
        d = Decomposition(8, edges, (0, 1, 2, 3, 4))
        assert validate_rank_decomposition(g, d).width == 1


class TestExactRankWidth:
    def test_complete_graphs(self):
        for n in range(4, 7):
            assert exact_rank_width(complete(n))[0] == 1

    def test_paths(self):
        for n in range(2, 8):
            assert exact_rank_width(path_graph(n))[0] == 1

    def test_cycles(self):
        for n in range(5, 8):
            assert exact_rank_width(cycle(n))[0] == 2

    def test_second_enumeration_order_agrees(self):
        rng = random.Random(6)
        for _ in range(10):
            n = rng.randint(2, 7)
            g = random_graph(rng, n)
            order = list(range(n))
            rng.shuffle(order)
            assert exact_rank_width(g)[0] == exact_rank_width(g, leaf_order=order)[0]

    def test_witness_validates_at_width(self):
        g = cycle(6)
        width, witness = exact_rank_width(g)
        assert witness.width == width
        revalidated = validate_rank_decomposition(g, witness.decomposition)
        assert revalidated.width == width

    def test_never_beaten_by_supplied_decomposition(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 7)
            g = random_graph(rng, n)
            d = random_cubic_decomposition(rng, g)
            supplied = validate_rank_decomposition(g, d).width
            assert exact_rank_width(g)[0] <= supplied

    def test_limit_enforced(self):
        with pytest.raises(ResourceError):
            exact_rank_width(random_graph(random.Random(0), 10), limit=9)

    def test_trivial_sizes(self):
        assert exact_rank_width(Graph(0, ()))[0] == 0
        assert exact_rank_width(Graph(1, (0,)))[0] == 0


class TestPieceThreePartite:
    def test_rank_decomposition_pieces_are_tripartite(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(2, 7)
            g = random_graph(rng, n)
            d = random_cubic_decomposition(rng, g)
            validate_rank_decomposition(g, d)
            for v in range(d.num_nodes):
                piece = piece_graph(g, d, v)
                for side in _tree_component_split(g, d, v):
                    for u, w in piece.edges():
                        assert not (side >> u & 1 and side >> w & 1)


def _tree_component_split(g, d, v):
    """Vertex classes given by the components of T - v (plus tau^{-1}(v))."""
    adj = d.node_adjacency()
    comp = {}
    for start in adj[v]:
        if start in comp:
            continue
        stack = [start]
        comp[start] = start
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y != v and y not in comp:
                    comp[y] = start
                    stack.append(y)
    sides = {}
    for u in range(g.n):
        node = d.tau[u]
        key = comp.get(node, v)
        sides.setdefault(key, 0)
        sides[key] |= 1 << u
    return list(sides.values())


class TestRootNormalize:
    def test_already_rooted_unchanged(self):
        d = Decomposition(2, ((0, 1),), (1,), root=0)
        assert root_normalize(d) is d

    def test_existing_empty_leaf_used(self):
        d = Decomposition(2, ((0, 1),), (1, 1))
        assert root_normalize(d).root == 0

    def test_fresh_leaf_attached(self):
        d = Decomposition(2, ((0, 1),), (0, 1))
        normalized = root_normalize(d)
        assert normalized.num_nodes == 3 and normalized.root == 2
        g = path_graph(2)
        assert decomposition_rank(g, normalized) == decomposition_rank(g, d)


def random_tree_decomposition(rng, g):
    """Random tree with shuffled node ids and 0-3 extra empty leaves; half the
    time rooted at an empty leaf, when there is one."""
    k = rng.randint(1, 7)
    ids = list(range(k))
    rng.shuffle(ids)
    edges = [(ids[rng.randrange(v)], ids[v]) for v in range(1, k)]
    tau = tuple(ids[rng.randrange(k)] for _ in range(g.n))
    for fresh in range(k, k + rng.randint(0, 3)):
        edges.append((rng.randrange(fresh), fresh))
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    rng.shuffle(edges)
    degree = [0] * (len(edges) + 1)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    empty_leaves = [v for v in range(len(degree)) if degree[v] <= 1 and v not in tau]
    root = rng.choice(empty_leaves) if empty_leaves and rng.random() < 0.5 else None
    return Decomposition(len(degree), tuple(edges), tau, root)


def assert_view_matches_oracles(g, d):
    cuts = []
    for a, b in d.tree_edges:
        assert edge_cut(g, d, (a, b)) == naive_edge_cut(g, d, (a, b))
        assert edge_cut(g, d, (b, a)) == naive_edge_cut(g, d, (b, a))
        cuts.append(naive_edge_cut(g, d, (a, b))[0])
    sides = [[v for v in range(g.n) if side >> v & 1] for side in cuts]
    assert decomposition_rank(g, d) == max(
        (naive_gf2_rank(matrix_of_cut(g, side)) for side in sides), default=0
    )
    diversity = decomposition_diversity(g, d)
    assert diversity == max((naive_cut_diversity(g, side) for side in cuts), default=0)
    assert diversity == max((cut_diversity(cut_matrix(g, side)) for side in cuts), default=0)
    for v in range(d.num_nodes):
        assert set(piece_graph(g, d, v).edges()) == naive_piece_edges(g, d, v)
    if d.root is None:
        return
    assert subtree_preimages(g, d) == naive_subtree_preimages(d)
    for v in range(d.num_nodes):
        if v != d.root:
            assert outside_partition(g, d, v) == naive_outside_classes(g, d, v)
    for u in range(g.n):
        for w in range(u, g.n):
            assert origin(d, u, w) == origin(d, w, u) == naive_origin(d, u, w)


class TestRootedViewAgainstOracles:
    def test_random_trees_normalized_and_restricted(self):
        rng = random.Random(9)
        for _ in range(150):
            g = random_graph(rng, rng.randint(0, 9))
            d = random_tree_decomposition(rng, g)
            normalized = root_normalize(d)
            assert_view_matches_oracles(g, d)
            assert_view_matches_oracles(g, normalized)
            s = random_vertex_subset(rng, g.n)
            for dec in (d, normalized):
                h, sub, _ = restrict(g, dec, s)
                assert_view_matches_oracles(h, sub)

    def test_rooted_parents_and_non_edges(self):
        rng = random.Random(10)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 8))
            d = root_normalize(random_tree_decomposition(rng, g))
            assert rooted_parents(d) == naive_parents(d)
            edges = {frozenset(e) for e in d.tree_edges}
            for a in range(-1, d.num_nodes + 1):
                for b in range(-1, d.num_nodes + 1):
                    if frozenset((a, b)) not in edges:
                        with pytest.raises(InputError):
                            edge_cut(g, d, (a, b))
