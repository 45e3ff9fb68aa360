import random

import pytest

from rankchi import (
    ChiBoundFn,
    Coloring,
    ContractError,
    Decomposition,
    Graph,
    InputError,
    JoinEdge,
    JoinTree,
    chi_bounded_coloring,
    chromatic_number,
    clique_number,
    color_bound,
    complete,
    compose_sequential,
    cycle,
    decomposition_diversity,
    decomposition_rank,
    exact_node_oracle,
    exact_rank_width,
    greedy_node_oracle,
    is_proper,
    key_lemma_coloring,
    no_max_clique_monochromatic,
    one_join_compose,
    path_graph,
    piece_graph,
    root_normalize,
    star_decomposition,
)
from rankchi.generate import (
    random_connected_graph,
    random_cubic_decomposition,
    random_decomposition,
    random_join_tree,
)
from rankchi import coloring
from rankchi.decomposition import restrict

from helpers import naive_subtree_preimages


def measured_budgets(g, d):
    """Measured diversity and max piece chromatic number of a decomposition."""
    dd = max(1, decomposition_diversity(g, d))
    normalized = root_normalize(d)
    k = 1
    for v in range(normalized.num_nodes):
        k = max(k, chromatic_number(piece_graph(g, normalized, v))[0])
    return dd, k


class TestChiBoundFn:
    def test_call_and_extension(self):
        f = ChiBoundFn((2, 3, 5), 1)
        assert [f(s) for s in (1, 2, 3, 4, 9)] == [2, 3, 5, 5, 5]

    def test_validation(self):
        with pytest.raises(InputError):
            ChiBoundFn((3, 2), 1)
        with pytest.raises(InputError):
            ChiBoundFn((0,), 1)
        with pytest.raises(InputError):
            ChiBoundFn((1,), -1)
        with pytest.raises(InputError):
            ChiBoundFn((1,), 0)(0)


class TestColorBound:
    def test_base_case(self):
        assert color_bound(ChiBoundFn.constant(7, 3), 1) == 1

    def test_one_step(self):
        assert color_bound(ChiBoundFn.constant(3, 1), 2) == 8

    def test_rank_zero_product(self):
        f = ChiBoundFn((2, 3, 4), 0)
        assert color_bound(f, 4) == (3 + 1) * (4 + 1) * (4 + 1)

    def test_invalid_s(self):
        with pytest.raises(InputError):
            color_bound(ChiBoundFn.constant(1, 0), 0)


class TestKeyLemma:
    def test_k2_on_single_node(self):
        g = complete(2)
        d = Decomposition(2, ((0, 1),), (0, 0), root=1)
        col = key_lemma_coloring(g, d, exact_node_oracle, 1, 2, check=True)
        assert col.colors[0] != col.colors[1]
        assert col.palette_size <= 3

    def test_complete_graph_star(self):
        # the piece at the star center is K_n itself, so the piece budget is n
        for n in (3, 5, 7):
            g = complete(n)
            d = star_decomposition(g)
            col = key_lemma_coloring(g, d, exact_node_oracle, 1, n, check=True)
            assert col.palette_size <= n + 1
            assert no_max_clique_monochromatic(g, col)

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            key_lemma_coloring(g, star_decomposition(g), exact_node_oracle, 2, 2)

    def test_too_small_rejected(self):
        g = Graph(1, (0,))
        with pytest.raises(InputError):
            key_lemma_coloring(g, star_decomposition(g), exact_node_oracle, 1, 1)

    def test_diversity_budget_violation(self):
        g = cycle(6)
        d = random_decomposition(random.Random(0), g, 4)
        div = decomposition_diversity(g, d)
        if div > 1:
            with pytest.raises(ContractError):
                key_lemma_coloring(g, d, exact_node_oracle, 1, 6)

    def test_oracle_budget_violation(self):
        g = complete(4)
        d = Decomposition(2, ((0, 1),), (0, 0, 0, 0), root=1)
        with pytest.raises(ContractError):
            key_lemma_coloring(g, d, exact_node_oracle, 1, 2)

    def test_improper_oracle_detected(self):
        g = complete(3)
        d = Decomposition(2, ((0, 1),), (0, 0, 0), root=1)

        def bad_oracle(h):
            return Coloring((1,) * h.n)

        with pytest.raises(ContractError):
            key_lemma_coloring(g, d, bad_oracle, 1, 3)

    def test_fuzz_with_property_checks(self):
        rng = random.Random(1)
        for _ in range(120):
            n = rng.randint(2, 12)
            g = random_connected_graph(rng, n, rng.uniform(0.2, 0.8))
            d = random_decomposition(rng, g)
            dd, k = measured_budgets(g, d)
            col = key_lemma_coloring(g, d, exact_node_oracle, dd, k, check=True)
            assert col.palette_size <= dd * (k + 1)
            assert no_max_clique_monochromatic(g, col)
            # a loose budget changes nothing: the palette follows the measured diversity
            loose = key_lemma_coloring(g, d, exact_node_oracle, 64, k)
            assert loose == col
            assert loose.palette_size <= max(1, decomposition_diversity(g, d)) * (k + 1)

    def test_work_follows_the_occupied_subtree(self, monkeypatch):
        """On a few vertices of a large star, the cut is read and the check=True
        properties verified once per node with a nonempty preimage."""
        calls = {"cut_classes": 0, "_check_step": 0}

        def counted(name):
            original = getattr(coloring, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(coloring, name, counted(name))
        g = path_graph(2000)
        h, sub, _ = restrict(g, star_decomposition(g), (1 << 1000) - (1 << 995))
        col = key_lemma_coloring(h, sub, exact_node_oracle, 2, 2, check=True)
        assert no_max_clique_monochromatic(h, col) and col.palette_size <= 2 * 3
        normalized = root_normalize(sub)
        occupied = sum(1 for x, side in enumerate(naive_subtree_preimages(normalized))
                       if side and x != normalized.root)
        assert occupied == 6  # the center and the five leaves holding h
        assert calls == {"cut_classes": occupied, "_check_step": occupied}


class TestChiBoundedColoring:
    def test_edgeless_single_color(self):
        g = Graph(5, (0,) * 5)
        col = chi_bounded_coloring(
            g, star_decomposition(g), exact_node_oracle, ChiBoundFn.constant(1, 1)
        )
        assert set(col.colors) == {1}

    def test_cycle5_with_optimal_witness(self):
        g = cycle(5)
        width, witness = exact_rank_width(g)
        assert width == 2
        col = chi_bounded_coloring(
            g, witness.decomposition, exact_node_oracle, ChiBoundFn.constant(3, 2), check=True
        )
        assert is_proper(g, col)
        assert col.palette_size <= 16

    def test_rank_budget_violation(self):
        g = cycle(5)
        _, witness = exact_rank_width(g)
        with pytest.raises(ContractError):
            chi_bounded_coloring(
                g, witness.decomposition, exact_node_oracle, ChiBoundFn.constant(3, 1)
            )

    def test_disconnected_inputs(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
        d = star_decomposition(g)
        col = chi_bounded_coloring(g, d, exact_node_oracle, ChiBoundFn.constant(3, 1))
        assert is_proper(g, col)

    def test_fuzz_rank_decompositions(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(2, 7)
            g = random_connected_graph(rng, n, 0.5)
            d = random_cubic_decomposition(rng, g)
            r = decomposition_rank(g, d)
            bound = ChiBoundFn.constant(3, r)
            col = chi_bounded_coloring(g, d, exact_node_oracle, bound, check=True)
            assert is_proper(g, col)
            assert col.palette_size <= color_bound(bound, clique_number(g))

    def test_greedy_oracle_fallback(self):
        g = complete(6)
        d = star_decomposition(g)
        col = chi_bounded_coloring(
            g, d, greedy_node_oracle(6), ChiBoundFn.constant(6, 1)
        )
        assert is_proper(g, col)

    def test_greedy_oracle_budget_enforced(self):
        with pytest.raises(ContractError):
            greedy_node_oracle(2)(complete(4))


class TestJoinTree:
    def test_invariants(self):
        p3 = path_graph(3)
        with pytest.raises(InputError):
            JoinTree((p3, p3), ())  # missing join edge
        with pytest.raises(InputError):
            JoinTree((p3, p3, p3), (JoinEdge(0, 1, 0, 0), JoinEdge(0, 1, 1, 1)))
        with pytest.raises(InputError):
            JoinTree((p3, p3), (JoinEdge(0, 1, 5, 0),))
        with pytest.raises(InputError):
            JoinTree(
                (p3, p3, p3),
                (JoinEdge(0, 1, 0, 0), JoinEdge(0, 2, 0, 0)),  # marker reused
            )

    def test_single_piece_identity(self):
        g = cycle(4)
        composed, dec, _ = one_join_compose(JoinTree((g,), ()))
        assert composed == g
        assert dec.num_nodes == 1

    def test_two_path_centers_make_c4(self):
        p3 = path_graph(3)
        jt = JoinTree((p3, p3), (JoinEdge(0, 1, 1, 1),))
        composed, dec, _ = one_join_compose(jt, check=True)
        assert sorted(composed.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert decomposition_rank(composed, dec) <= 1

    def test_fuzz_rank_and_order_independence(self):
        rng = random.Random(3)
        for _ in range(60):
            jt = random_join_tree(rng, rng.randint(1, 5), extra=4)
            composed, dec, _ = one_join_compose(jt, check=True)
            assert decomposition_rank(composed, dec) <= 1
            order = list(jt.joins)
            rng.shuffle(order)
            assert compose_sequential(jt, order) == composed

    def test_join_order_does_not_change_the_composition(self):
        """The frontiers follow the decomposition's sorted tree adjacency, so
        listing the joins backwards, or each one mirrored, composes the same."""
        rng = random.Random(5)
        for _ in range(40):
            jt = random_join_tree(rng, rng.randint(2, 12), extra=4)
            composed, dec, vmap = one_join_compose(jt)
            mirrored = tuple(JoinEdge(e.right, e.left, e.right_marker, e.left_marker)
                             for e in jt.joins)
            for joins in (tuple(reversed(jt.joins)), mirrored):
                other, other_dec, other_vmap = one_join_compose(JoinTree(jt.pieces, joins))
                assert other == composed
                assert other_dec.tau == dec.tau and other_vmap == vmap

    def test_long_marker_chain_composes(self):
        """Adjacent markers pass each frontier on through every piece of a path of
        triangles, so the frontiers chain 1,500 pieces deep."""
        pieces = 1500
        jt = JoinTree((complete(3),) * pieces,
                      tuple(JoinEdge(i, i + 1, 1, 0) for i in range(pieces - 1)))
        composed, dec, _ = one_join_compose(jt)
        n = pieces + 2  # every kept vertex is adjacent to every other
        assert composed.n == n and composed.num_edges == n * (n - 1) // 2
        assert decomposition_rank(composed, dec) <= 1

    def test_marker_chain_matches_sequential_joins(self):
        pieces = 60
        jt = JoinTree((complete(3),) * pieces,
                      tuple(JoinEdge(i, i + 1, 1, 0) for i in range(pieces - 1)))
        composed, _, _ = one_join_compose(jt, check=True)
        assert compose_sequential(jt, list(jt.joins)) == composed

    def test_composed_coloring_proper(self):
        rng = random.Random(4)
        for _ in range(20):
            jt = random_join_tree(rng, rng.randint(2, 4))
            composed, dec, _ = one_join_compose(jt)
            if composed.n == 0:
                continue
            _, k = measured_budgets(composed, dec)
            bound = ChiBoundFn.constant(k, 1)
            col = chi_bounded_coloring(composed, dec, exact_node_oracle, bound)
            assert is_proper(composed, col)
