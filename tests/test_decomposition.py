import random
from dataclasses import replace

import pytest

from rankchi import (
    ContractError,
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
    exact_node_oracle,
    exact_rank_width,
    induced_subgraph,
    origin,
    outside_partition,
    path_graph,
    piece_graph,
    restrict,
    root_normalize,
    star_decomposition,
    twin_classes,
    validate_rank_decomposition,
)
from rankchi import coloring, decomposition
from rankchi.coloring import _piece_quotient, one_join_compose
from rankchi.cuts import column_classes, cut_rank_of, gf2_rank, nested_cut_rows
from rankchi.decomposition import rooted_parents, subtree_preimages
from rankchi.generate import (
    random_cubic_decomposition,
    random_decomposition,
    random_graph,
    random_join_tree,
)
from rankchi.graph import iter_bits

from helpers import (
    matrix_of_cut,
    naive_cut_classes,
    naive_cut_diversity,
    naive_edge_cut,
    naive_gf2_rank,
    naive_kept_nodes,
    naive_origin,
    naive_outside_classes,
    naive_parents,
    naive_piece_edges,
    naive_rank_width,
    naive_subtree_preimages,
    random_vertex_subset,
    tree_adjacency,
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
        for tau in ((0, 1), (1, 0)):  # the root leaf holds vertex 1, then vertex 0 alone
            with pytest.raises(InputError, match="^root leaf must have an empty preimage$"):
                Decomposition(2, ((0, 1),), tau, root=1)
        with pytest.raises(InputError, match="^root must be a leaf$"):
            Decomposition(3, ((0, 1), (1, 2)), (0, 2), root=1)


    def test_degree_counts_the_tree_edges_at_a_node(self):
        """RootedView.degree against the edges listed at each node, on random trees
        rooted at an empty leaf, viewed from node 0 when unrooted, and normalized."""
        rng = random.Random(29)
        for _ in range(150):
            g = random_graph(rng, rng.randint(0, 9))
            d = random_tree_decomposition(rng, g)
            for dec in (d, replace(d, root=None), root_normalize(d)):
                expected = [len(nodes) for nodes in tree_adjacency(dec)]
                assert [dec.view.degree(x) for x in range(dec.num_nodes)] == expected


def three_node_path():
    """P_3 and the tree 0-1-2 rooted at the empty leaf 0; tau_for(n) maps n vertices
    alternately to nodes 1 and 2."""
    return Graph.from_edges(3, [(0, 1), (1, 2)]), lambda n: Decomposition(
        3, ((0, 1), (1, 2)), tuple(1 + v % 2 for v in range(n)), root=0)


TAU_READERS = {
    "edge_cut": lambda g, d: edge_cut(g, d, (0, 1)),
    "decomposition_rank": decomposition_rank,
    "decomposition_diversity": decomposition_diversity,
    "piece_graph": lambda g, d: piece_graph(g, d, 1),
    "subtree_preimages": subtree_preimages,
    "outside_partition": lambda g, d: outside_partition(g, d, 1),
    "restrict": lambda g, d: restrict(g, d, 0b011),
    "key_lemma": lambda g, d: coloring._key_lemma(
        g, d, g.vertex_mask, exact_node_oracle, 4, 4, False, {}),
}


class TestTauContract:
    @pytest.mark.parametrize("n", [2, 4], ids=["short", "long"])
    @pytest.mark.parametrize("reader", list(TAU_READERS))
    def test_wrong_length_tau_refused_by_every_reader(self, reader, n):
        """A tau one vertex short of the graph or one vertex past it is refused by every
        reader of the graph against the decomposition, with one message."""
        g, tau_for = three_node_path()
        TAU_READERS[reader](g, tau_for(3))  # the right length is read
        with pytest.raises(InputError, match=f"^decomposition maps {n} vertices, graph has 3$"):
            TAU_READERS[reader](g, tau_for(n))


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

    def test_short_tau_refused(self):
        """A tau that leaves a vertex of the graph unmapped is refused with InputError,
        by rank and diversity alike."""
        g = Graph.from_edges(3, [(0, 1)])
        d = Decomposition(2, ((0, 1),), (0, 1))
        for measure in (decomposition_rank, decomposition_diversity):
            with pytest.raises(InputError, match="^decomposition maps 2 vertices, graph has 3$"):
                measure(g, d)

    def test_side_past_the_graph_refused(self):
        """A tau that maps a vertex id past the graph, which would put it on a cut's
        side, is refused with InputError by rank and diversity alike, with the message
        of a short tau."""
        g = path_graph(3)
        d = Decomposition(2, ((0, 1),), (0, 1, 1, 1))
        for measure in (decomposition_rank, decomposition_diversity):
            with pytest.raises(InputError, match="^decomposition maps 4 vertices, graph has 3$"):
                measure(g, d)

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

    def test_diversity_against_naive_edge_cuts_on_large_trees(self):
        """decomposition_diversity is the naive maximum over the tree's edge cuts on
        join trees of 20-60 pieces, rooted or not, and on random decompositions of
        graphs with 10-40 vertices, where the diversity runs past 2."""
        rng = random.Random(14)
        cases = []
        for _ in range(6):
            g, dec, _ = one_join_compose(random_join_tree(rng, rng.randint(20, 60), extra=3))
            cases += [(g, dec), (g, root_normalize(dec))]
        for _ in range(20):
            g = random_graph(rng, rng.randint(10, 40), rng.uniform(0.1, 0.9))
            cases.append((g, random_decomposition(rng, g, rng.randint(2, 30))))
        for g, dec in cases:
            sides = [naive_edge_cut(g, dec, e)[0] for e in dec.tree_edges]
            naive = max((naive_cut_diversity(g, side) for side in sides), default=0)
            assert decomposition_diversity(g, dec) == naive
        assert max(decomposition_diversity(g, dec) for g, dec in cases) > 2


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

    def test_node_out_of_range_refused(self):
        """A node id outside 0..num_nodes - 1 is refused, not wrapped around to the
        root (-1) or to another node (-2)."""
        d = root_normalize(star_decomposition(path_graph(4)))  # fresh root leaf 5
        for v in (-1, -2, d.num_nodes):
            with pytest.raises(InputError, match=f"^node {v} out of range$"):
                outside_partition(path_graph(4), d, v)

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

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(9)
        for _ in range(220):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            expected, _ = naive_rank_width(g)
            order = list(range(n))
            rng.shuffle(order)
            for leaf_order in (None, order):
                width, witness = exact_rank_width(g, leaf_order=leaf_order)
                assert width == expected
                assert validate_rank_decomposition(g, witness.decomposition).width == width

    def test_smallest_witness_trees(self):
        _, witness = exact_rank_width(path_graph(2))
        assert witness.decomposition.num_nodes == 2
        assert witness.decomposition.tree_edges == ((0, 1),)
        _, witness = exact_rank_width(cycle(3))
        assert witness.decomposition.num_nodes == 4
        assert witness.decomposition.tree_edges == ((0, 3), (1, 3), (2, 3))

    def test_witness_validates_at_width(self):
        g = cycle(6)
        width, witness = exact_rank_width(g)
        assert witness.width == width
        revalidated = validate_rank_decomposition(g, witness.decomposition)
        assert revalidated.width == width

    def test_witness_off_the_searched_width_is_refused(self, monkeypatch):
        """The witness's recomputed rank is compared with the width the search
        found, so a witness one wider than the search is a contract failure."""
        true_rank = decomposition.decomposition_rank
        monkeypatch.setattr(decomposition, "decomposition_rank",
                            lambda g, d: true_rank(g, d) + 1)
        with pytest.raises(ContractError, match="witness has width 3"):
            exact_rank_width(cycle(6))

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
    adj = tree_adjacency(d)
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

    def test_one_rooting_pass_per_unrooted_decomposition(self, monkeypatch):
        """root_normalize picks the root without building a rerooted tree: the
        decomposition it returns roots its tree once."""
        calls = []
        root_tree = decomposition._root_tree
        monkeypatch.setattr(decomposition, "_root_tree",
                            lambda *args: (calls.append(args[2]), root_tree(*args))[1])
        rng = random.Random(4)
        for _ in range(30):
            g = random_graph(rng, rng.randint(0, 9))
            d = random_decomposition(rng, g, rng.randint(1, 8))
            calls.clear()
            normalized = root_normalize(d)
            assert calls == [normalized.root]

    def test_restrictions_with_one_root_share_one_tree(self, monkeypatch):
        """The key lemma reads every vertex set off the decomposition's own view, on
        its one rooted tree, d.view, whether d has a root leaf, an empty leaf or none;
        that tree is rooted as the restriction of d to the set is."""
        views = []
        monkeypatch.setattr(coloring, "nested_cut_rows", lambda g, s, view: (
            views.append(view), nested_cut_rows(g, s, view))[1])
        g = path_graph(600)
        star = star_decomposition(g)  # leaf i + 1 holds vertex i
        path = Decomposition(3, ((0, 1), (1, 2)), (0, 2) * 300)  # no empty leaf
        sets = (bitset(range(300, 303)), bitset(range(400, 406)))
        for d in (star, path, root_normalize(path)):
            restricted = [restrict(g, d, s)[1] for s in sets]  # these read d's own view
            views.clear()
            for s, sub in zip(sets, restricted):
                coloring._key_lemma(g, d, s, exact_node_oracle, 64, 64, True, {})
                assert list(views[-1].parent) == naive_parents(sub)[0]
            assert len(views) == 2 and all(view is d.view for view in views)


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


def random_connected_set(rng, g):
    """A vertex set of g grown from a random vertex by random neighbors: connected."""
    s = 1 << rng.randrange(g.n)
    for _ in range(rng.randint(0, g.n)):
        reach = 0
        for u in iter_bits(s):
            reach |= g.adj[u]
        reach &= ~s
        if not reach:
            break
        s |= 1 << rng.choice(list(iter_bits(reach)))
    return s


class ReadLog(tuple):
    """A tuple that records, in reads, the index of every item read from it."""

    def __init__(self, items):
        self.reads = set()

    def __getitem__(self, x):
        self.reads.add(x)
        return tuple.__getitem__(self, x)


def assert_cut_rows_match_restriction(g, dec, s):
    """nested_cut_rows(g, s, dec.view) against the restriction of dec to s: the kept
    nodes, each one's side s - rest and kept nodes nearest below (in reverse BFS
    order, so by the descending lowest vertex of dec below the child they lie under),
    and the rows and the columns refined from them,
    read one matrix entry at a time in g[s]; a pass-through node has the side of the
    kept node below it, so repeats its cut.  Each kept node comes before the kept node
    above it, so the walk, the output reversed, has the one above first.  Returns the
    number of pass-through nodes."""
    out = list(nested_cut_rows(g, s, dec.view))
    h, sub, remap = restrict(g, dec, s)
    parent = naive_parents(sub)[0]
    pre, kept = naive_subtree_preimages(sub), naive_kept_nodes(sub)
    whole = naive_subtree_preimages(dec)  # siblings go by the lowest vertex of dec below them

    def in_h(mask):
        return bitset(map(remap.get, iter_bits(mask)))

    assert [v for v, *_ in out] == list(dict.fromkeys(v for v, *_ in out))
    assert {v for v, *_ in out} == set(kept.values())
    position = {v: i for i, (v, *_) in enumerate(out)}
    merged = {}
    for v, below, rest, rows in out:
        assert rest == s & ~dec.view.pre[v] and in_h(s & ~rest) == pre[v]
        children = [c for c in range(dec.num_nodes) if parent[c] == v and c in kept]
        children.sort(key=lambda c: whole[c] & -whole[c])
        assert below == tuple(kept[c] for c in reversed(children))
        x = parent[v]  # the kept node above v, if any
        while x != -1 and kept[x] != x:
            x = parent[x]
        assert x == -1 or position[v] < position[x]
        merged[v] = rows, column_classes(rows, rest)[0]
    for v, below in kept.items():
        assert pre[v] == pre[below]  # so a pass-through node repeats the cut below it
    for v in merged:
        rows, cols = ({in_h(key): in_h(part) for key, part in classes.items()}
                      for classes in merged[v])
        assert (rows, cols) == naive_cut_classes(h, pre[v])
        assert gf2_rank(merged[v][0]) == cut_rank_of(h, pre[v])
    return sum(below != v for v, below in kept.items())


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

    def test_piece_quotient_matches_twin_classes_of_piece_graph(self):
        """At every kept node, the quotient read off the merged cuts equals the one
        twin_classes and induced_subgraph give on the n-vertex piece graph.  At a
        pass-through node, which the key lemma skips, no vertex is piece-active."""
        rng = random.Random(11)
        empty_children = skipped = 0
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.2, 0.8))
            d = random_tree_decomposition(rng, g)
            h, sub, _ = restrict(g, d, random_vertex_subset(rng, g.n))
            for graph, dec in ((g, root_normalize(d)), (h, root_normalize(sub))):
                view = dec.view
                cuts = {v: (rows, column_classes(rows, rest)[0], below)
                        for v, below, rest, rows in nested_cut_rows(graph, graph.vertex_mask, view)}
                for v in (v for v in range(dec.num_nodes) if v != dec.root and view.pre[v]):
                    piece = piece_graph(graph, dec, v)
                    active = bitset(
                        u for u in iter_bits(outside_partition(graph, dec, v)[0])
                        if piece.adj[u] or dec.tau[u] == v
                    )
                    if v not in cuts:
                        assert not active
                        skipped += 1
                        continue
                    empty_children += sum(not view.pre[c] for c in view.children[v])
                    expected = twin_classes(piece)
                    quotient, _ = induced_subgraph(piece, sum(m & -m for m in expected))
                    assert _piece_quotient(graph, graph.vertex_mask, view, v, cuts) == (
                        expected, quotient, active)
        assert empty_children > 100 and skipped > 50

    def test_merged_classes_equal_each_cut_read_once(self):
        """Along the kept nodes nested_cut_rows finds for a connected vertex set s, the
        rows merged bottom-up and the columns refined from them are the naive grouping
        of each occupied node's cut matrix in g[s] (at a pass-through node, of the cut
        of its kept descendant), and their GF(2) rank is cut_rank_of's."""
        rng = random.Random(23)
        pass_through = 0
        for trial in range(300):
            if trial % 3 == 0:
                g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.2, 0.8))
                dec = random_decomposition(rng, g, rng.randint(1, 10))
            elif trial % 3 == 1:
                g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.8))
                dec = random_cubic_decomposition(rng, g)
            else:
                g, dec, _ = one_join_compose(random_join_tree(rng, rng.randint(2, 12), extra=3))
            pass_through += assert_cut_rows_match_restriction(g, dec, random_connected_set(rng, g))
        assert pass_through > 100
        g = random_graph(rng, 600, 0.01)  # a star with 600 leaves
        s = random_connected_set(rng, g)
        assert s.bit_count() > 100
        assert_cut_rows_match_restriction(g, star_decomposition(g), s)

    def test_subset_view_on_every_node(self):
        """For any vertex set s, the nodes nested_cut_rows keeps, their kept nodes
        nearest below, their sides and rows are those of the restriction of the
        decomposition to s, each after the kept nodes below it; s is read at every
        node off the decomposition's own view, as pre & s and own & s."""
        rng = random.Random(29)
        cases = []
        for trial in range(120):
            if trial % 3 == 0:
                g = random_graph(rng, rng.randint(1, 12))
                dec = random_decomposition(rng, g, rng.randint(1, 10))
            elif trial % 3 == 1:
                g = random_graph(rng, rng.randint(2, 12))
                dec = random_cubic_decomposition(rng, g)
            else:
                g, dec, _ = one_join_compose(random_join_tree(rng, rng.randint(2, 12), extra=3))
            cases.append((g, dec))
        g = random_graph(rng, 6)
        cases.append((g, Decomposition(4, ((0, 1), (0, 2), (2, 3)), (0, 0, 1, 3, 2, 0))))
        g = random_graph(rng, 8)  # a path 2,000 nodes deep with the vertices at its bottom
        tau = tuple(2000 - rng.randrange(6) for _ in range(g.n))
        deep = tuple((i, i + 1) for i in range(2000))
        cases += [(g, Decomposition(2001, deep, tau)), (g, Decomposition(2001, deep, tau, 0))]
        g = random_graph(rng, 600, 0.01)  # a star with 600 leaves, read on random subsets
        cases.append((g, star_decomposition(g)))  # only: the naive classes of all 600 take 0.6 s
        deep_sets = wide_sets = 0
        for g, dec in cases:
            sets = [random_vertex_subset(rng, g.n) for _ in range(4)]
            for s in sets if g.n == 600 else [g.vertex_mask, *sets]:
                view = dec.view
                _, sub, remap = restrict(g, dec, s)
                pre, own = naive_subtree_preimages(sub), [0] * dec.num_nodes
                for u in iter_bits(s):
                    own[dec.tau[u]] |= 1 << u
                for x in range(dec.num_nodes):
                    assert bitset(map(remap.get, iter_bits(view.pre[x] & s))) == pre[x]
                    assert view.own[x] & s == own[x]
                assert_cut_rows_match_restriction(g, dec, s)
                deep_sets += dec.num_nodes > 2000 and s != 0
                wide_sets += dec.num_nodes > 600 and s.bit_count() > 200
        assert deep_sets >= 8 and wide_sets >= 4

    def test_walk_reads_nothing_above_the_lowest_common_node(self):
        """nested_cut_rows reads pre of no node strictly above the lowest node whose pre
        holds all of s, the pass-through chain that yields nothing, and yields what it
        yields on the plain view: on the 2,000-deep path with the vertices at its bottom,
        on join trees, and on join trees hung 50 empty nodes below a root leaf."""
        rng = random.Random(31)
        g = random_graph(rng, 8)
        tau = tuple(2000 - rng.randrange(6) for _ in range(g.n))
        deep = tuple((i, i + 1) for i in range(2000))
        cases = [(g, Decomposition(2001, deep, tau)), (g, Decomposition(2001, deep, tau, 0))]
        for trial in range(60):
            g, dec, _ = one_join_compose(random_join_tree(rng, rng.randint(2, 12), extra=3))
            if trial % 2:
                k = dec.num_nodes
                chain = ((0, k),) + tuple((x, x + 1) for x in range(k, k + 50))
                dec = Decomposition(k + 51, dec.tree_edges + chain, dec.tau, k + 50)
            cases.append((g, dec))
        skipped = 0
        for g, dec in cases:
            view, depth = dec.view, naive_parents(dec)[1]
            for s in [g.vertex_mask] + [random_vertex_subset(rng, g.n) for _ in range(4)]:
                if not s:
                    continue
                lowest = max((x for x in range(dec.num_nodes) if not s & ~view.pre[x]),
                             key=depth.__getitem__)
                above, x = set(), view.parent[lowest]
                while x != -1:
                    above.add(x)
                    x = view.parent[x]
                pre = ReadLog(view.pre)
                assert list(nested_cut_rows(g, s, replace(view, pre=pre))) == list(
                    nested_cut_rows(g, s, view))
                assert not pre.reads & above
                skipped += len(above) > 1  # the root's child is read by a walk from the root
        assert skipped > 100
        assert all(dec.view.tau == dec.tau for _, dec in cases)

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
