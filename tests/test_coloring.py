import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankchi import (
    ChiBoundFn,
    Coloring,
    ContractError,
    Decomposition,
    Graph,
    InputError,
    JoinEdge,
    JoinTree,
    ResourceError,
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
    iter_bits,
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
    random_graph,
    random_join_tree,
)
from rankchi import coloring, config, decomposition, graph, oracles
from rankchi.decomposition import restrict

from helpers import (
    full_step_check,
    naive_color_bound,
    naive_cut_classes,
    naive_cut_diversity,
    naive_edge_cut,
    naive_kept_nodes,
    random_vertex_subset,
)


def path_join_tree(pieces):
    """pieces random pieces joined in a path, each one's marker 1 (the first one's
    marker 0) to the next one's marker 0: a decomposition pieces - 1 nodes deep."""
    rng = random.Random(1)

    def piece(i):  # its degree in the path plus 1 to 4 vertices
        degree = 1 if i in (0, pieces - 1) else 2
        return random_connected_graph(rng, degree + rng.randint(1, 4), 0.3)

    joins = tuple(JoinEdge(i, i + 1, 1 if i else 0, 0) for i in range(pieces - 1))
    return JoinTree(tuple(map(piece, range(pieces))), joins)


@st.composite
def join_trees(draw):
    """Join trees of up to 8 pieces with edge probability up to 1, so markers are
    often adjacent and a join rewrites the row of a marker joined later."""
    k = draw(st.integers(1, 8))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, k)]
    degree = Counter(i for edge in tree for i in edge)
    p = draw(st.floats(0, 1))
    pieces, pools = [], []
    for i in range(k):
        size = degree[i] + draw(st.integers(1, 3))
        pieces.append(random_connected_graph(random.Random(draw(st.integers(0, 2**16))), size, p))
        pools.append(draw(st.permutations(range(size))))
    joins = tuple(JoinEdge(a, b, pools[a].pop(), pools[b].pop()) for a, b in tree)
    return JoinTree(tuple(pieces), joins)


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

    def test_matches_the_level_by_level_product(self):
        rng = random.Random(23)
        for _ in range(300):
            table = tuple(sorted(rng.randint(1, 40) for _ in range(rng.randint(1, 8))))
            bound = ChiBoundFn(table, rng.randint(0, 50))
            s = rng.randint(1, 60)
            assert color_bound(bound, s) == naive_color_bound(bound, s)

    def test_chi_bounded_coloring_hands_back_the_bound_it_checked(self, monkeypatch):
        """_coloring_and_omega computes B(max(omega, 1)) once, as the pair (M, N) of
        _bound_parts with B = M·2^N, and returns it, so the CLI prints the bound the
        palette was checked against without recomputing or building it."""
        calls = []
        parts = coloring._bound_parts

        def counted(bound, s):
            calls.append(s)
            return parts(bound, s)

        monkeypatch.setattr(coloring, "_bound_parts", counted)
        bound = ChiBoundFn.constant(3, 2)
        for g, omega in ((cycle(5), 2), (Graph(0, ()), 0), (Graph(3, (0, 0, 0)), 1)):
            calls.clear()
            col, got, (m, shift) = coloring._coloring_and_omega(
                g, star_decomposition(g), exact_node_oracle, bound, False)
            assert (got, m << shift, calls) == (omega, naive_color_bound(bound, max(omega, 1)),
                                                [max(omega, 1)])
            assert col.palette_size <= m << shift

    def test_palette_checked_against_the_unbuilt_bound(self, monkeypatch):
        """ceil(palette / 2^N) <= M holds exactly when palette <= M·2^N: with the bound
        forced to each M·2^N around the palette, the coloring passes at or above it and
        is refused below it."""
        g = cycle(7)  # palette 3 on its star decomposition
        dec, bound = star_decomposition(g), ChiBoundFn.constant(3, 1)
        palette = chi_bounded_coloring(g, dec, exact_node_oracle, bound).palette_size
        passed = refused = 0
        for shift in range(4):
            for m in range(1, 6):
                monkeypatch.setattr(coloring, "_bound_parts", lambda bound, s: (m, shift))
                result = outcome(lambda: chi_bounded_coloring(g, dec, exact_node_oracle, bound))
                if palette <= m << shift:
                    assert isinstance(result, Coloring)
                    passed += 1
                else:
                    assert result == (ContractError, "constructed coloring exceeds the color bound")
                    refused += 1
        assert (palette, passed, refused) == (3, 17, 3)  # refused at 1, 2 and 1 << 1


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

    @pytest.mark.parametrize("edges, below, shape", [
        ([(0, 2), (0, 3), (1, 3), (1, 4)], 0b00011, [2, 3]),
        ([(0, 3), (1, 4), (2, 3), (2, 4)], 0b00111, [3, 2]),
    ], ids=["more_columns", "more_rows"])
    def test_more_classes_than_the_budget_refused_before_coloring(
            self, monkeypatch, edges, below, shape):
        """W = {u1, u2} with rows {x1, x2} and {x2, x3} makes a cut with two distinct
        rows but three distinct columns; W = {u1, u2, u3} with rows {x1}, {x2} and
        {x1, x2} one with three rows but two columns.  Either side past the budget
        d = 2 is refused while the cuts are built: no piece is colored and no step
        checked.  d = 3 colors it."""
        g = Graph.from_edges(5, edges)
        d = Decomposition(3, ((0, 1), (1, 2)), tuple(2 if below >> u & 1 else 1 for u in range(5)),
                          root=0)
        assert [len(side) for side in naive_cut_classes(g, below)] == shape
        calls = []
        monkeypatch.setattr(coloring, "_check_step", lambda *args: calls.append("check"))

        def oracle(h):
            calls.append("oracle")
            return exact_node_oracle(h)

        for run in (lambda: key_lemma_coloring(g, d, oracle, 2, 3, check=True),
                    lambda: coloring._key_lemma(g, d, g.vertex_mask, oracle, 2, 3, False, {})):
            with pytest.raises(ContractError, match="^decomposition diversity exceeds budget 2$"):
                run()
        assert calls == []
        col = key_lemma_coloring(g, d, oracle, 3, 3, check=True)
        assert no_max_clique_monochromatic(g, col) and "oracle" in calls

    def test_the_measured_diversity_is_the_refusal_threshold(self):
        """With k = n, so that no piece coloring is refused, key_lemma_coloring colors at
        d = D, the largest count of distinct rows or columns among the 0/1 matrices of
        the tree edges' cuts, and refuses at d = D - 1 whenever that is at least 1.
        Among the cases are ones where only a cut's columns reach D."""
        rng = random.Random(29)
        refused = columns_decide = 0
        for _ in range(400):
            g = random_connected_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.8))
            d = random_decomposition(rng, g, rng.randint(2, 8))
            sides = [naive_edge_cut(g, d, e)[0] for e in d.tree_edges]
            top = max((naive_cut_diversity(g, side) for side in sides), default=0)
            col = key_lemma_coloring(g, d, exact_node_oracle, max(top, 1), g.n)
            assert no_max_clique_monochromatic(g, col)
            if top < 2:
                continue
            with pytest.raises(ContractError,
                               match=f"^decomposition diversity exceeds budget {top - 1}$"):
                key_lemma_coloring(g, d, exact_node_oracle, top - 1, g.n)
            refused += 1
            most_rows = max(len(naive_cut_classes(g, side)[0]) for side in sides if side)
            columns_decide += most_rows < top
        assert refused > 300 and columns_decide > 20

    @pytest.mark.parametrize("d, k, error, message", [
        (0, 2, InputError, "diversity budget d must be at least 1"),
        (2, 0, InputError, "piece color budget k must be at least 1"),
        (2, 1, ContractError, "piece oracle used 2 colors, budget 1"),
    ], ids=["d_zero", "k_zero", "k_one"])
    def test_budget_refusals(self, d, k, error, message):
        """On the path P4 with its star decomposition (diversity 2), a budget below 1
        is refused as input before any cut is read, and k = 1 passes that check and is
        refused by the first piece coloring that needs 2 colors."""
        g = path_graph(4)
        with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
            key_lemma_coloring(g, star_decomposition(g), exact_node_oracle, d, k)
        assert type(refused.value) is error

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

    @pytest.mark.parametrize("extra", [1, -1], ids=["too_long", "too_short"])
    def test_wrong_length_oracle_answer_is_a_contract_violation(self, extra):
        """A piece coloring with more or fewer entries than the quotient has vertices
        breaks the oracle's contract (exit 4), not the input's (exit 2)."""
        g = complete(3)
        d = Decomposition(2, ((0, 1),), (0, 0, 0), root=1)

        def oracle(h):
            return Coloring(tuple(range(1, h.n + 1 + extra)))

        with pytest.raises(ContractError, match="^piece oracle returned an improper coloring$"):
            key_lemma_coloring(g, d, oracle, 1, 3)

    def test_fuzz_with_property_checks(self):
        rng = random.Random(1)

        def connected(decompose):
            g = random_connected_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.8))
            return g, decompose(rng, g)

        inputs = [connected(random_decomposition) for _ in range(120)]
        inputs += [connected(random_cubic_decomposition) for _ in range(40)]
        inputs += [one_join_compose(random_join_tree(rng, rng.randint(2, 5), extra=2))[:2]
                   for _ in range(40)]
        for g, d in inputs:
            dd, k = measured_budgets(g, d)
            col = key_lemma_coloring(g, d, exact_node_oracle, dd, k, check=True)
            assert col.palette_size <= dd * (k + 1)
            assert no_max_clique_monochromatic(g, col)
            # a loose budget changes nothing: the palette follows the measured diversity
            loose = key_lemma_coloring(g, d, exact_node_oracle, 64, k)
            assert loose == col
            assert loose.palette_size <= max(1, decomposition_diversity(g, d)) * (k + 1)

    def test_work_follows_the_kept_nodes(self, monkeypatch):
        """On a few vertices of a large star, a cut's classes are built and the
        check=True properties verified once per kept node.  Along the color classes
        of a 300-piece path join tree, classes are built once per kept node of each
        key-lemma call, and the pass-through nodes skipped are many."""
        calls = {"column_classes": 0, "_check_step": 0}

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
        kept = naive_kept_nodes(sub)
        assert len(kept) == len(set(kept.values())) == 6  # the center and the five leaves
        assert calls == {"column_classes": 6, "_check_step": 6}

        key_lemma_sets = []
        key_lemma = coloring._key_lemma
        monkeypatch.setattr(coloring, "_key_lemma", lambda g, dec, s, *rest: (
            key_lemma_sets.append(s), key_lemma(g, dec, s, *rest))[1])
        monkeypatch.setattr(config, "limits", lambda: config.Limits(clique_n=100_000))
        calls["column_classes"] = 0
        g, dec, _ = one_join_compose(path_join_tree(300))
        chi_bounded_coloring(g, dec, exact_node_oracle, ChiBoundFn.constant(32, 1))
        walked = kept_nodes = 0
        for s in key_lemma_sets:
            tau = tuple(dec.tau[u] for u in iter_bits(s))
            kept = naive_kept_nodes(Decomposition(dec.num_nodes, dec.tree_edges, tau))
            walked += len(kept)
            kept_nodes += len(set(kept.values()))
        assert calls["column_classes"] == kept_nodes < walked / 2


def outcome(run):
    """run()'s result, or the type and message of the ContractError or InputError it raised."""
    try:
        return run()
    except (ContractError, InputError) as exc:
        return type(exc), str(exc)


def color_map(masks):
    """The vertex -> color map of color classes masks, masks[c - 1] colored c."""
    return {u: c for c, mask in enumerate(masks, 1) for u in iter_bits(mask)}


class TestKeyLemmaOnVertexSets:
    def test_vertex_set_colors_as_its_restriction(self):
        """The key lemma on a connected vertex set s of g, over g's own decomposition,
        gives what key_lemma_coloring gives on restrict(g, dec, s), mapped back
        through the remap, with check=True too; budget refusals carry the same
        message.  A set the key lemma cannot take is refused by key_lemma_coloring."""
        rng = random.Random(13)
        colored = refused = 0
        for trial in range(80):
            if trial % 2:
                g, dec, _ = one_join_compose(random_join_tree(rng, rng.randint(2, 7), extra=3))
            else:
                g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.3, 0.8))
                dec = random_cubic_decomposition(rng, g)
            s = random_vertex_subset(rng, g.n)
            big = max(graph._components(g.adj, s), key=int.bit_count, default=0)
            for d in (dec, root_normalize(dec)):
                for mask in (s, big, g.vertex_mask):
                    h, sub, remap = restrict(g, d, mask)
                    if mask.bit_count() < 2 or len(graph._components(g.adj, mask)) > 1:
                        with pytest.raises(InputError):
                            key_lemma_coloring(h, sub, exact_node_oracle, 64, 64)
                        continue
                    budgets = rng.choice((1, 2, 64)), rng.choice((2, 64))
                    for check in (False, True):
                        mine = outcome(lambda: color_map(coloring._key_lemma(
                            g, d, mask, exact_node_oracle, *budgets, check, {})))
                        theirs = outcome(lambda: key_lemma_coloring(
                            h, sub, exact_node_oracle, *budgets, check))
                        if isinstance(theirs, Coloring):
                            theirs = {old: theirs.colors[new] for old, new in remap.items()}
                            colored += 1
                        else:
                            refused += 1
                        assert mine == theirs
        assert colored > 300 and refused > 200

    def test_walked_root_colors_as_a_fresh_root_leaf(self):
        """The key lemma walks the root of dec's tree like any other node: on a
        connected vertex set it gives what it gives with a fresh empty root leaf hung
        on that root, with check=True too, and budget refusals carry the same message.
        The cases include roots that carry vertices and roots that pass through."""
        rng = random.Random(17)
        colored = refused = root_holds = 0
        for trial in range(90):
            if trial % 3 == 0:
                g, dec, _ = one_join_compose(random_join_tree(rng, rng.randint(2, 7), extra=3))
            else:
                g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.3, 0.8))
                dec = (random_cubic_decomposition(rng, g) if trial % 3 == 1
                       else random_decomposition(rng, g, rng.randint(1, 6)))
            k, root = dec.num_nodes, 0 if dec.root is None else dec.root
            hung = Decomposition(k + 1, dec.tree_edges + ((root, k),), dec.tau, k)
            root_holds += root in dec.tau
            sets = graph._components(g.adj, g.vertex_mask)
            sets += graph._components(g.adj, random_vertex_subset(rng, g.n))
            for mask in (s for s in sets if s & (s - 1)):
                budgets = rng.choice((1, 2, 64)), rng.choice((2, 64))
                for check in (False, True):
                    walked, fresh = (outcome(lambda: coloring._key_lemma(
                        g, d, mask, exact_node_oracle, *budgets, check, {})) for d in (dec, hung))
                    assert walked == fresh
                    if isinstance(walked, list):
                        colored += 1
                    else:
                        refused += 1
        assert colored > 100 and refused > 50 and root_holds > 20

    def test_recursion_builds_no_subgraph(self, monkeypatch):
        """chi_bounded_coloring colors components and color classes as vertex sets
        of the input graph: it makes no induced subgraph, restricted decomposition
        or re-rooted copy, at any binding of those functions."""
        calls = Counter()
        targets = {fn: fn.__name__ for fn in (
            decomposition.restrict, decomposition.root_normalize, graph.induced_subgraph)}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[targets[fn]] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, module in list(sys.modules.items()):
            if name == "rankchi" or name.startswith("rankchi."):
                for attr, value in list(vars(module).items()):
                    if callable(value) and value in targets:
                        monkeypatch.setattr(module, attr, counted(value))
        key_lemma_sets = []
        key_lemma = coloring._key_lemma
        monkeypatch.setattr(coloring, "_key_lemma", lambda g, dec, s, *rest: (
            key_lemma_sets.append(s), key_lemma(g, dec, s, *rest))[1])
        rng = random.Random(7)
        for _ in range(6):
            g, dec, _ = one_join_compose(random_join_tree(rng, 6, extra=3, p=0.6))
            bound = ChiBoundFn.constant(g.n, 1)
            col = chi_bounded_coloring(g, dec, exact_node_oracle, bound, check=True)
            assert is_proper(g, col)
        assert len(key_lemma_sets) > 6  # the recursion went below the six top levels
        assert calls == Counter()

    def test_no_tree_rooted_while_coloring(self, monkeypatch):
        """Every view the coloring reads is built on the decomposition's one rooted
        tree, so once the decomposition exists no tree is rooted again: on a star
        decomposition, which has no empty leaf, and on a join tree's."""
        monkeypatch.setattr(config, "limits", lambda: config.Limits(clique_n=100_000))
        rng = random.Random(5)
        g = random_connected_graph(rng, 12, 0.4)
        cases = [(g, star_decomposition(g)), one_join_compose(random_join_tree(rng, 8, extra=3))[:2]]
        calls = []
        root_tree = decomposition._root_tree
        monkeypatch.setattr(decomposition, "_root_tree", lambda *args: (
            calls.append(args[2]), root_tree(*args))[1])
        for g, dec in cases:
            col = chi_bounded_coloring(g, dec, exact_node_oracle, ChiBoundFn.constant(g.n, 1))
            assert is_proper(g, col)
        assert calls == []


def relabeled(rng, dec):
    """dec with its nodes renamed by a random permutation that fixes its root, or node 0
    when it is unrooted, where the walk starts."""
    fixed = 0 if dec.root is None else dec.root
    others = [x for x in range(dec.num_nodes) if x != fixed]
    name = dict(zip(others, rng.sample(others, len(others))))
    name[fixed] = fixed
    return Decomposition(dec.num_nodes, tuple((name[a], name[b]) for a, b in dec.tree_edges),
                         tuple(name[x] for x in dec.tau), dec.root)


class TestNodeIds:
    def test_colorings_do_not_depend_on_node_ids(self, monkeypatch):
        """Renaming the nodes of a decomposition, its root kept, reorders the kept nodes
        among their siblings and nothing else, and a step's colors depend only on the
        steps at its ancestors; siblings go by the lowest vertex below them, so the walk
        does not depend on node ids either: chi_bounded_coloring and key_lemma_coloring
        color alike and refuse alike, with the same message, on 3,000 runs over random,
        cubic and join-tree decompositions, checked or not, under loose and tight
        budgets."""
        monkeypatch.setattr(config, "limits", lambda: config.Limits(clique_n=100_000))
        rng = random.Random(17)
        refused = colored = 0
        for i in range(1500):
            if i % 3 == 0:
                g = random_connected_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.8))
                dec = random_decomposition(rng, g, rng.randint(1, 10))
            elif i % 3 == 1:
                g = random_connected_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.8))
                dec = random_cubic_decomposition(rng, g)
            else:
                g, dec, _ = one_join_compose(random_join_tree(rng, rng.randint(2, 12), extra=3))
            renamed, check = relabeled(rng, dec), i % 2 == 0
            d, k = rng.choice([1, 2, 64]), rng.choice([1, 2, 3, 64])
            bound = ChiBoundFn(tuple(sorted(rng.randint(1, 4) for _ in range(3))),
                               rng.choice([0, 1, 2, 8]))
            for run in (lambda dec: key_lemma_coloring(g, dec, exact_node_oracle, d, k, check),
                        lambda dec: chi_bounded_coloring(g, dec, exact_node_oracle, bound, check)):
                before = outcome(lambda: run(dec))
                assert outcome(lambda: run(renamed)) == before
                colored += isinstance(before, Coloring)
                refused += not isinstance(before, Coloring)
        assert colored > 1000 and refused > 1000

    def test_renaming_keeps_the_refused_piece(self):
        """A 10-piece join tree with two pieces over the budget k = 2 on different
        branches, the one the walk reaches first needing 3 colors and the other 4.
        Renaming its nodes, root kept, made the refusal name the other one while
        siblings were walked by node id; by the lowest vertex below them, both refuse
        at the same piece."""
        rng = random.Random(1439)
        g, dec, _ = one_join_compose(random_join_tree(rng, rng.randint(2, 12), extra=3))
        renamed = relabeled(rng, dec)
        assert (g.n, dec.num_nodes) == (20, 10) and renamed != dec
        for d in (dec, renamed):
            refusal = outcome(lambda: key_lemma_coloring(g, d, exact_node_oracle, 64, 2))
            assert refusal == (ContractError, "piece oracle used 3 colors, budget 2")


EDGE = "edge with processed origin has uncolored endpoint"
HOME = "vertex mapped to processed node is uncolored"
CLASS = "class of an unprocessed subtree is multicolored"
MONO = "monochromatic edge not confined to a nonzero outside class"


def moved(masks, u, to):
    """A copy of the color classes masks with u taken out of its class and put in
    masks[to], in a class of its own past the others if to is len(masks), or in none
    if to is None."""
    bit = 1 << u
    out = [mask & ~bit for mask in masks] + [0]
    if to is not None:
        out[to] |= bit
    return out if out[-1] else out[:-1]


def corrupt(message, g, s, view, v, cuts, masks, new):
    """A copy of masks after the step at v with one vertex that step colored moved so
    that the property whose refusal reads message breaks, or None."""
    colored = 0
    for mask in masks:
        colored |= mask
    if message == EDGE:  # every vertex the step colors is an end of an edge with origin v
        return moved(masks, (new & -new).bit_length() - 1, None) if new else None
    held = {}  # new vertex -> the class of the kept child of v holding it
    for c in cuts[v][2]:  # the kept nodes nearest below v
        for part in cuts[c][0].values():
            held.update(dict.fromkeys(iter_bits(part & new), part))
    for u in iter_bits(new):
        others = held.get(u, 0) & colored & ~(1 << u)
        if message == CLASS and others:  # u leaves its class's color for a fresh one
            return moved(masks, u, len(masks))
        if message == MONO and not others:  # so property 3 stays, whatever u's color
            for w in iter_bits(g.adj[u] & colored & ~held.get(u, 0)):
                (to,) = (i for i, mask in enumerate(masks) if mask >> w & 1)
                return moved(masks, u, to)
    return None


def step_checks(monkeypatch, seed, cases, each_step):
    """Color cases seeded random graphs on random and cubic decompositions with
    check=True, calling each_step(g, dec, walked, args) after each step passes its
    check, where walked are the nodes stepped at so far, the checked one last, and args
    are the check's own arguments."""
    check_step = coloring._check_step
    current = []

    def after(*args):
        check_step(*args)
        current[2].append(args[3])
        each_step(*current, args)

    monkeypatch.setattr(coloring, "_check_step", after)
    rng = random.Random(seed)
    for i in range(cases):
        g = random_connected_graph(rng, rng.randint(3, 14), rng.uniform(0.2, 0.7))
        dec = (random_decomposition if i % 2 else random_cubic_decomposition)(rng, g)
        current[:] = g, dec, []
        key_lemma_coloring(g, dec, exact_node_oracle, 64, 64, True)


def refusal(check, *args):
    """The message of the ContractError check(*args) raises, or None."""
    try:
        check(*args)
    except ContractError as error:
        return str(error)
    return None


class TestStepChecks:
    @pytest.mark.parametrize("message", [EDGE, CLASS, MONO], ids=["edge", "class", "mono"])
    def test_each_property_refuses_a_corrupted_coloring(self, monkeypatch, message):
        """After each real step passes, a copy of the coloring in which one vertex the
        step colored is moved to break one property is refused with that property's
        message."""
        check_step = coloring._check_step
        refused = []

        def each_step(g, dec, walked, args):
            bad = corrupt(message, *args)
            if bad is not None:
                refused.append(refusal(check_step, *args[:-2], bad, args[-1]))

        step_checks(monkeypatch, 6, 30, each_step)
        assert len(refused) > 10 and set(refused) == {message}

    def test_an_uncolored_vertex_mapped_to_the_walked_node_is_refused(self, monkeypatch):
        """Every vertex a step colors is an end of an edge with origin v, so only a
        vertex colored above it reaches the fourth message: one mapped to v with all
        its neighbors outside V_v, uncolored again after the step at v."""
        check_step = coloring._check_step
        refused = []

        def each_step(g, dec, walked, args):
            _, s, view, v, _, masks, new = args
            vv = view.pre[v] & s
            lone = [u for u in iter_bits(vv) if dec.tau[u] == v and not g.adj[u] & vv]
            if lone:
                refused.append(refusal(check_step, *args[:-2], moved(masks, lone[0], None), new))

        step_checks(monkeypatch, 6, 30, each_step)
        assert len(refused) > 5 and set(refused) == {HOME}

    def test_refuses_what_the_full_check_refuses(self, monkeypatch):
        """Each step's check reads only what the step changed, yet on every
        single-vertex change of the vertices it colored (uncolored, moved to each
        other color, or to a fresh one) it refuses exactly when the full check over
        the whole coloring does, with the same message."""
        check_step = coloring._check_step
        seen = Counter()

        def each_step(g, dec, walked, args):
            s, masks, new = args[1], args[-2], args[-1]
            assert refusal(full_step_check, g, dec, s, walked, masks) is None
            for u in iter_bits(new):
                for to in [None, *range(len(masks) + 1)]:
                    bad = moved(masks, u, to)
                    expected = refusal(full_step_check, g, dec, s, walked, bad)
                    assert refusal(check_step, *args[:-2], bad, new) == expected
                    seen[expected] += 1

        step_checks(monkeypatch, 8, 40, each_step)
        assert set(seen) == {None, EDGE, CLASS, MONO} and min(seen.values()) > 20


class TestPieceOracleAnswers:
    def test_each_distinct_quotient_is_asked_once_per_call(self, monkeypatch):
        """On a seeded join tree the walk meets most twin quotients more than once,
        but within one chi_bounded_coloring call the oracle is asked once per
        distinct quotient; a second call asks for them all again, in the same order."""
        monkeypatch.setattr(config, "limits", lambda: config.Limits(clique_n=100_000))
        used, asked = [], []
        piece_quotient = coloring._piece_quotient

        def recording_quotient(*args):
            members, quotient, w_mask = piece_quotient(*args)
            if w_mask:  # the quotient is colored
                used.append(quotient.adj)
            return members, quotient, w_mask

        def oracle(h):
            asked.append(h.adj)
            return exact_node_oracle(h)

        monkeypatch.setattr(coloring, "_piece_quotient", recording_quotient)
        g, dec, _ = one_join_compose(random_join_tree(random.Random(11), 40, extra=3))
        bound = ChiBoundFn.constant(32, 1)
        first = chi_bounded_coloring(g, dec, oracle, bound)
        first_asked, first_used = asked[:], used[:]
        assert len(first_asked) == len(set(first_asked)) == len(set(first_used))
        assert set(first_asked) == set(first_used) and len(first_used) > 2 * len(first_asked)
        asked.clear()
        assert chi_bounded_coloring(g, dec, oracle, bound) == first
        assert asked == first_asked

    def test_a_kept_answer_is_refused_past_a_smaller_budget(self):
        """The budget k changes from level to level, so a kept answer is checked
        against k at every use: with the answers of a first pass at k = 64 kept, a
        second pass at a k below the widest of them is refused without asking again."""
        rng = random.Random(3)
        g = random_connected_graph(rng, 12, 0.3)
        dec = random_cubic_decomposition(rng, g)
        asked = []

        def oracle(h):  # proper and wasteful: one color per vertex
            asked.append(h.adj)
            return Coloring(tuple(range(1, h.n + 1)))

        answers = {}
        coloring._key_lemma(g, dec, g.vertex_mask, oracle, 64, 64, False, answers)
        widest = max(c.palette_size for c in answers.values())
        assert len(asked) == len(answers) and widest > 2
        asked.clear()
        with pytest.raises(ContractError,
                           match=rf"^piece oracle used {widest} colors, budget {widest - 1}$"):
            coloring._key_lemma(g, dec, g.vertex_mask, oracle, 64, widest - 1, False, answers)
        assert asked == []

    def test_an_improper_answer_is_refused_at_first_sight_and_not_kept(self):
        """An improper answer is refused the first time its quotient is asked for,
        and the answers keep nothing of it."""
        asked = []

        def bad_oracle(h):
            asked.append(h.adj)
            return Coloring((1,) * h.n)

        g = complete(3)
        answers = {}
        with pytest.raises(ContractError, match="^piece oracle returned an improper coloring$"):
            coloring._key_lemma(g, Decomposition(2, ((0, 1),), (0, 0, 0), root=1),
                                g.vertex_mask, bad_oracle, 1, 3, False, answers)
        assert len(asked) == 1 and answers == {}
        g, dec, _ = one_join_compose(random_join_tree(random.Random(2), 6, extra=3, p=0.6))
        asked.clear()
        with pytest.raises(ContractError, match="^piece oracle returned an improper coloring$"):
            chi_bounded_coloring(g, dec, bad_oracle, ChiBoundFn.constant(g.n, 1))
        assert len(asked) == 1


class TestChiBoundedColoring:
    def test_edgeless_single_color(self):
        g = Graph(5, (0,) * 5)
        col = chi_bounded_coloring(
            g, star_decomposition(g), exact_node_oracle, ChiBoundFn.constant(1, 1)
        )
        assert set(col.colors) == {1}

    def test_short_tau_refused(self):
        """A decomposition that leaves a vertex unmapped is refused before any coloring."""
        with pytest.raises(InputError, match="^decomposition maps 1 vertices, graph has 3$"):
            chi_bounded_coloring(Graph(3, (0,) * 3), Decomposition(1, (), (0,)),
                                 exact_node_oracle, ChiBoundFn.constant(1, 1))

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

    def test_rank_is_read_on_the_whole_graph(self):
        """Two disjoint edges each of rank 1 at node 1, whose union has rank 2 there: the
        rank check reads all of g, not each component, so budget 1 is refused."""
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        dec = Decomposition(3, ((0, 1), (0, 2)), (1, 2, 1, 2))
        assert decomposition_rank(g, dec) == 2
        for comp in (0b0011, 0b1100):
            assert decomposition_rank(*restrict(g, dec, comp)[:2]) == 1
        with pytest.raises(ContractError, match="^decomposition rank 2 exceeds budget 1$"):
            chi_bounded_coloring(g, dec, exact_node_oracle, ChiBoundFn.constant(3, 1))
        col = chi_bounded_coloring(g, dec, exact_node_oracle, ChiBoundFn.constant(3, 2))
        assert is_proper(g, col)

    def test_a_coloring_walks_the_whole_graph_once(self, monkeypatch):
        """The nested cut rows of V(g) are read once per coloring of a connected g: the
        rank check and the first key-lemma call share them.  Counted at both bindings
        of nested_cut_rows, the coloring's and decomposition_rank's."""
        wholes = Counter()
        for module in (coloring, decomposition):
            walk = module.nested_cut_rows
            monkeypatch.setattr(module, "nested_cut_rows", lambda g, s, view, walk=walk: (
                wholes.update([s == g.vertex_mask]), walk(g, s, view))[1])
        rng = random.Random(17)
        cases = []
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(2, 9), 0.5)
            cases += [(g, star_decomposition(g)), (g, exact_rank_width(g)[1].decomposition)]
            g, dec, _ = one_join_compose(random_join_tree(rng, 6, extra=3, p=0.6))
            cases.append((g, dec))
        colored = deeper = 0
        for g, dec in cases:
            if len(graph.connected_components(g)) != 1:
                continue
            bound = ChiBoundFn.constant(g.n, decomposition_rank(g, dec))
            wholes.clear()
            assert is_proper(g, chi_bounded_coloring(g, dec, exact_node_oracle, bound))
            assert wholes[True] == 1
            colored += 1
            deeper += wholes[False]  # walks of the color classes, one level down
        assert colored > 12 and deeper > 12

    def test_isolated_vertices_take_the_first_color_together(self, monkeypatch):
        """The vertices of a set with no neighbor in it take color 1 as one mask, so
        _components is never handed one of them."""
        seen = []
        components = coloring._components
        monkeypatch.setattr(coloring, "_components", lambda adj, s: (
            seen.append(s), components(adj, s))[1])
        rng = random.Random(19)
        loners = 0
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.5))
            seen.clear()
            col = chi_bounded_coloring(g, star_decomposition(g), exact_node_oracle,
                                       ChiBoundFn.constant(g.n, 1))
            assert is_proper(g, col)
            for u in range(g.n):
                if not g.adj[u]:
                    assert col.colors[u] == 1
                    loners += 1
            assert all(g.adj[u] & s for s in seen for u in iter_bits(s))
        assert loners > 10

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

    @pytest.mark.parametrize("check, calls", [(False, 3), (True, 1)])
    def test_a_class_keeping_the_clique_number_is_refused(self, monkeypatch, check, calls):
        """A key lemma that leaves a maximum clique in one color class is caught.  With
        check off, the class's claimed clique number drops 4 -> 3 -> 2 unsearched and
        the refusal comes at claim 1; with check=True the decision query refuses the
        first class, before it reaches the key lemma."""
        seen = []
        monkeypatch.setattr(coloring, "_key_lemma", lambda g, dec, s, *rest: seen.append(s) or [s])
        g = complete(4)
        with pytest.raises(ContractError, match="^a color class kept the clique number$"):
            chi_bounded_coloring(g, star_decomposition(g), exact_node_oracle,
                                 ChiBoundFn.constant(4, 1), check=check)
        assert seen == [g.vertex_mask] * calls

    def test_one_clique_search_per_coloring(self, monkeypatch):
        """With check off and a piece oracle that searches no clique, a coloring runs
        one clique search, on its input: every color class inherits its component's
        clique number less one."""
        g, dec, _ = one_join_compose(random_join_tree(random.Random(1), 40, extra=4, p=0.3))
        monkeypatch.setattr(config, "limits", lambda: config.Limits(clique_n=g.n))
        searched = []
        search = oracles._max_clique_size

        def recorded(adj, cand, best=0):
            searched.append(cand)
            return search(adj, cand, best)

        for module in (oracles, coloring):
            monkeypatch.setattr(module, "_max_clique_size", recorded)
        col = chi_bounded_coloring(g, dec, greedy_node_oracle(g.n), ChiBoundFn.constant(g.n, 1))
        assert is_proper(g, col)
        assert searched == [g.vertex_mask]

    def test_recursion_deeper_than_the_call_stack(self):
        """A chain of 80 triangles composes to K_82, whose coloring recurses through
        82 clique numbers.  The color classes wait on an explicit stack, so it colors
        with 82 colors with room for 150 nested calls; run in a subprocess, so this
        process's recursion limit is left alone."""
        script = (
            "import sys\n"
            "from rankchi import (ChiBoundFn, JoinEdge, JoinTree, chi_bounded_coloring, complete,\n"
            "                     exact_node_oracle, one_join_compose)\n"
            "jt = JoinTree((complete(3),) * 80, tuple(JoinEdge(i, i + 1, 1, 0) for i in range(79)))\n"
            "g, dec, _ = one_join_compose(jt)\n"
            "sys.setrecursionlimit(150)\n"
            "print(chi_bounded_coloring(g, dec, exact_node_oracle, ChiBoundFn.constant(3, 1)).palette_size)\n"
        )
        src = str(Path(coloring.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, RANKCHI_CLIQUE_LIMIT="82")
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "82\n", "")

    def test_clique_ceiling_checked_once_on_the_input(self, monkeypatch):
        """The clique-search ceiling applies to the input graph, once per call: every
        later search runs on a subset of it."""
        cap = config.LIMITS.clique_n
        g = Graph(cap + 1, (0,) * (cap + 1))
        with pytest.raises(ResourceError, match=rf"^clique search limited to n <= {cap} "
                                                rf"\(got {cap + 1}\)$"):
            chi_bounded_coloring(g, star_decomposition(g), exact_node_oracle,
                                 ChiBoundFn.constant(1, 0))
        checks = []
        check_ceiling = oracles.check_ceiling
        monkeypatch.setattr(oracles, "check_ceiling",
                            lambda *args: (checks.append(args[:2]), check_ceiling(*args))[1])
        g, dec, _ = one_join_compose(random_join_tree(random.Random(3), 6, extra=3, p=0.6))
        col = chi_bounded_coloring(g, dec, greedy_node_oracle(g.n), ChiBoundFn.constant(g.n, 1))
        assert is_proper(g, col) and col.palette_size > 1
        assert checks == [("clique search", g.n)]


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
        """Joins along a tree commute and each is applied in place, so listing
        the joins backwards, or each one mirrored, composes the same."""
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

    @given(join_trees(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_in_place_joins_match_sequential_joins(self, jt, data):
        composed, dec, vmap = one_join_compose(jt)
        assert compose_sequential(jt, data.draw(st.permutations(jt.joins))) == composed
        mirrored = tuple(JoinEdge(e.right, e.left, e.right_marker, e.left_marker)
                         for e in jt.joins)
        for joins in (tuple(reversed(jt.joins)), mirrored):
            other, other_dec, other_vmap = one_join_compose(JoinTree(jt.pieces, joins))
            assert other == composed
            assert other_dec.tau == dec.tau and other_vmap == vmap

    def test_long_marker_chain_composes(self):
        """In a path of 1,500 triangles each piece's two markers are adjacent, so
        every join rewrites the row of the marker joined next."""
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

    def test_an_edge_order_not_a_permutation_of_the_joins_is_refused(self):
        """Dropping a join, repeating one, giving none or giving one the tree does not
        have is refused as input before any join is applied."""
        jt = random_join_tree(random.Random(1), 5)
        joins = list(jt.joins)
        stranger = JoinEdge(1, 2, 0, 1)
        for order in (joins[1:], joins + joins[:1], joins[:-1] + joins[:1], [],
                      joins[:-1] + [stranger]):
            with pytest.raises(InputError,
                               match="^edge order must be a permutation of the join tree's joins$"):
                compose_sequential(jt, order)

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
