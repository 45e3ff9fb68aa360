import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankchi import (
    Graph,
    InputError,
    bitset,
    blow_up,
    are_isomorphic,
    complete,
    connected_components,
    cube,
    cube_minus,
    cycle,
    induced_subgraph,
    local_complement,
    named_graph,
    one_join,
    path_graph,
    twin_classes,
    wheel,
)
from rankchi.generate import random_graph
from rankchi.graph import _classes, _renumber

from helpers import naive_classes


def graphs(max_n=8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            lambda seed: random_graph(random.Random(seed), n),
            st.integers(0, 10**6),
        )
    )


class TestConstruction:
    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            Graph(2, (0b10, 0b00))

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            Graph(1, (0b1,))

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            Graph(2, (0b100, 0b0))
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(InputError, match="nonnegative"):
            Graph.from_edges(-1, [])

    def test_edges_roundtrip(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert g.num_edges == 3


class TestInducedSubgraph:
    def test_clique_hereditary(self):
        sub, remap = induced_subgraph(complete(4), bitset([0, 1, 2]))
        assert sub == complete(3)
        assert remap == {0: 0, 1: 1, 2: 2}

    def test_identity(self):
        g = cycle(5)
        sub, _ = induced_subgraph(g, g.vertex_mask)
        assert sub == g

    def test_cycle_to_path(self):
        sub, _ = induced_subgraph(cycle(5), bitset([0, 1, 2]))
        assert sub == path_graph(3)

    def test_out_of_range(self):
        with pytest.raises(InputError):
            induced_subgraph(complete(3), bitset([3]))


class TestTwinClasses:
    def test_triangle_all_distinct(self):
        assert twin_classes(complete(3)) == [1, 2, 4]

    def test_edgeless_single_class(self):
        assert twin_classes(Graph(4, (0, 0, 0, 0))) == [0b1111]

    def test_k23_two_sides(self):
        g = Graph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
        assert sorted(twin_classes(g)) == sorted([0b00011, 0b11100])

    def test_twins_nonadjacent(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 9))
            for mask in twin_classes(g):
                for u, v in g.edges():
                    assert not (mask >> u & 1 and mask >> v & 1)


class TestClasses:
    def test_matches_the_naive_grouping(self):
        """_classes(table, side, cols) against grouping the members of side one at a
        time, on random tables with bits past cols, including an empty side and cols
        of -1, of 0 and of a negative ~mask, and grouping into a dict passed in: the
        dict itself comes back, each class it held grown by the new members."""
        rng = random.Random(41)
        seen = set()
        for _ in range(1500):
            n = rng.randint(0, 20)
            table = tuple(rng.randrange(1 << rng.randint(0, 24)) for _ in range(n))
            side = rng.randrange(1 << n) if n and rng.random() < 0.9 else 0
            mask = rng.randrange(1 << 24)
            cols = rng.choice((-1, 0, mask, ~mask))
            kind = "-1" if cols == -1 else "0" if cols == 0 else "~mask" if cols < 0 else "mask"
            seen.update({kind, "empty side" if not side else "side"})
            expected = naive_classes(table, side, cols)
            assert _classes(table, side, cols) == expected
            first = rng.randrange(1 << n) if n else 0  # grouped already, into a dict
            into = naive_classes(table, first & ~side, cols)
            assert _classes(table, side, cols, into) is into
            assert into == naive_classes(table, first & ~side | side, cols)
            seen.add("into")
        assert seen == {"-1", "0", "mask", "~mask", "empty side", "side", "into"}

    def test_empty_side_leaves_into_as_it_was(self):
        into = {5: 0b11}
        assert _classes((1, 2, 3), 0, -1) == {}
        assert _classes((1, 2, 3), 0, -1, into) is into and into == {5: 0b11}
        assert _classes((0b110, 0b011, 0b100), 0b111, ~0b010) == {0b100: 0b101, 0b001: 0b010}


class TestLocalComplement:
    def test_path_center_makes_triangle(self):
        assert local_complement(path_graph(3), 1) == complete(3)

    def test_triangle_becomes_path(self):
        assert local_complement(complete(3), 1) == Graph.from_edges(3, [(0, 1), (1, 2)])

    def test_involution_random(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 10)
            g = random_graph(rng, n)
            v = rng.randrange(n)
            assert local_complement(local_complement(g, v), v) == g

    @given(graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_involution_hypothesis(self, g, data):
        v = data.draw(st.integers(0, g.n - 1))
        assert local_complement(local_complement(g, v), v) == g

    def test_out_of_range(self):
        with pytest.raises(InputError):
            local_complement(complete(3), 3)


class TestOneJoin:
    def test_two_path_centers_make_c4(self):
        p = path_graph(3)
        joined, m1, m2 = one_join(p, 1, p, 1)
        # hand enumeration: survivors {0,2} x {0,2}, cross edges all four pairs
        expect = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert joined == expect
        assert m1 == {0: 0, 2: 1} and m2 == {0: 2, 2: 3}

    def test_isolated_marker_gives_disjoint_union(self):
        g1 = Graph.from_edges(3, [(0, 1)])  # vertex 2 isolated
        g2 = complete(3)
        joined, _, _ = one_join(g1, 2, g2, 0)
        assert sorted(joined.edges()) == [(0, 1), (2, 3)]

    def test_k2_k2(self):
        joined, _, _ = one_join(complete(2), 0, complete(2), 1)
        assert joined == complete(2)

    def test_symmetry_up_to_iso(self):
        rng = random.Random(3)
        for _ in range(30):
            g1 = random_graph(rng, rng.randint(1, 6))
            g2 = random_graph(rng, rng.randint(1, 6))
            v1, v2 = rng.randrange(g1.n), rng.randrange(g2.n)
            a, _, _ = one_join(g1, v1, g2, v2)
            b, _, _ = one_join(g2, v2, g1, v1)
            assert are_isomorphic(a, b)

    def test_against_the_definition(self):
        """Random pairs, one-vertex graphs and edgeless ones included: two survivors are
        adjacent iff they were adjacent before, or one saw v1 and the other v2, and the
        output passes Graph's own validation."""
        rng = random.Random(30)
        for _ in range(400):
            g1 = random_graph(rng, rng.randint(1, 7), rng.random())
            g2 = random_graph(rng, rng.randint(1, 7), rng.random())
            v1, v2 = rng.randrange(g1.n), rng.randrange(g2.n)
            out, m1, m2 = one_join(g1, v1, g2, v2)
            assert Graph(out.n, out.adj) == out
            assert out.n == g1.n + g2.n - 2
            old = [(1, u) for u in m1] + [(2, w) for w in m2]
            new = [m1[u] for u in m1] + [m2[w] for w in m2]
            assert sorted(new) == list(range(out.n))
            graph, marker = {1: g1, 2: g2}, {1: v1, 2: v2}
            for (i, a), x in zip(old, new):
                for (j, b), y in zip(old, new):
                    sees = graph[i].has_edge(a, marker[i]) and graph[j].has_edge(b, marker[j])
                    expect = graph[i].has_edge(a, b) if i == j else sees
                    assert out.has_edge(x, y) == expect


class TestRenumber:
    def test_against_per_bit_renumbering(self):
        """Random rows renumbered through random one-to-one maps, given as a list or
        as a dict, against each member looked up and set on its own; empty rows, no
        rows and an empty map included."""
        rng = random.Random(29)
        cases = [((), []), ((), {}), ((0,), {}), ((0, 0), [])]
        for _ in range(300):
            n = rng.randint(0, 20)
            new = rng.sample(range(n + rng.randint(0, 20)), n)
            rows = tuple(rng.randrange(1 << n) if n and rng.random() < 0.8 else 0
                         for _ in range(rng.randint(0, 8)))
            cases.append((rows, new if rng.random() < 0.5 else dict(enumerate(new))))
        for rows, new in cases:
            expected = []
            for row in rows:
                renumbered = 0
                for u in range(row.bit_length()):
                    if row >> u & 1:
                        renumbered |= 1 << new[u]
                expected.append(renumbered)
            assert _renumber(rows, new) == tuple(expected)
            assert _renumber(iter(rows), new) == tuple(expected)


class TestBlowUp:
    def test_k2_to_path3(self):
        g, members = blow_up(complete(2), 0, 2)
        assert are_isomorphic(g, path_graph(3))
        assert members == (0, 2)

    def test_t1_identity(self):
        g, _ = blow_up(cycle(5), 3, 1)
        assert g == cycle(5)

    def test_path_center_to_k23(self):
        g, _ = blow_up(path_graph(3), 1, 3)
        k23 = Graph.from_edges(5, [(u, v) for u in (0, 2) for v in (1, 3, 4)])
        assert g == k23

    def test_t0_rejected(self):
        with pytest.raises(InputError):
            blow_up(complete(2), 0, 0)

    def test_contract_back_recovers(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7))
            v = rng.randrange(g.n)
            t = rng.randint(2, 4)
            blown, members = blow_up(g, v, t)
            keep = blown.vertex_mask & ~bitset(members[1:])
            back, _ = induced_subgraph(blown, keep)
            assert back == g


class TestNamedCatalog:
    def test_w5(self):
        g = wheel(5)
        assert (g.n, g.num_edges, g.degree(5)) == (6, 10, 5)
        assert named_graph("w5") == g

    def test_cube(self):
        g = cube()
        assert (g.n, g.num_edges) == (8, 12)
        assert all(g.degree(v) == 3 for v in range(8))
        # bipartite by parity of popcount
        assert all((u.bit_count() + v.bit_count()) % 2 == 1 for u, v in g.edges())

    def test_cube_minus(self):
        g = cube_minus()
        assert (g.n, g.num_edges) == (7, 9)
        assert named_graph("cube-") == g

    def test_parameterized_names(self):
        assert named_graph("cycle:5") == cycle(5)
        assert named_graph("complete:4") == complete(4)
        assert named_graph("path:3") == path_graph(3)
        with pytest.raises(InputError):
            named_graph("frob")


def test_connected_components():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert connected_components(g) == [0b00011, 0b01100, 0b10000]
