import random

import pytest

from rankchi import (
    CutMatrix,
    Decomposition,
    Graph,
    InputError,
    bitset,
    complete,
    cut_diversity,
    cut_diversity_of,
    cut_matrix,
    cut_rank,
    cut_rank_of,
    cycle,
    decomposition_diversity,
    decomposition_rank,
    exact_rank_width,
    gf2_rank,
    iter_bits,
    local_complement,
)
from rankchi.cuts import _rank, column_classes, nested_cut_rows
from rankchi.generate import random_decomposition, random_graph

from helpers import (
    matrix_of_cut,
    naive_cut_classes,
    naive_cut_diversity,
    naive_gf2_rank,
    random_vertex_subset,
    transpose,
)


class TestCutMatrix:
    def test_complete_graph_all_ones(self):
        m = cut_matrix(complete(4), bitset([0, 1]))
        assert m.rows == (0b11, 0b11)
        assert m.row_index == (0, 1) and m.col_index == (2, 3)

    def test_edgeless_zero(self):
        m = cut_matrix(Graph(4, (0, 0, 0, 0)), bitset([0, 2]))
        assert m.rows == (0, 0)

    def test_cycle4_permutation(self):
        m = cut_matrix(cycle(4), bitset([0, 1]))
        # row for 0 hits column 3, row for 1 hits column 2
        assert m.rows == (0b10, 0b01)

    def test_degenerate_sides(self):
        g = complete(3)
        assert cut_rank(cut_matrix(g, 0)) == 0
        assert cut_diversity(cut_matrix(g, g.vertex_mask)) == 0

    def test_out_of_range(self):
        with pytest.raises(InputError):
            cut_matrix(complete(3), bitset([4]))


class TestCutRank:
    def test_all_ones(self):
        m = CutMatrix((0b11111,) * 3, (0, 1, 2), (3, 4, 5, 6, 7))
        assert cut_rank(m) == 1

    def test_identity(self):
        m = CutMatrix((0b01, 0b10), (0, 1), (2, 3))
        assert cut_rank(m) == 2

    def test_against_naive_elimination(self):
        rng = random.Random(1)
        for _ in range(1000):
            n = rng.randint(2, 12)
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            w = random_vertex_subset(rng, n)
            got = cut_rank(cut_matrix(g, w))
            side = [v for v in range(n) if w >> v & 1]
            want = naive_gf2_rank(matrix_of_cut(g, side)) if 0 < len(side) < n else 0
            assert got == want


class TestOneElimination:
    def test_against_naive_elimination(self):
        """_rank(table, side, cols), the rank of table[u] & cols for u in side, against
        the textbook elimination on random row tables and random side and column
        masks, among them an empty side, cols of -1 and of 0 and rows with bits outside
        cols."""
        rng = random.Random(26)
        seen = set()
        for trial in range(1500):
            k, width = rng.randint(0, 12), rng.randint(0, 16)
            table = tuple(rng.getrandbits(width) for _ in range(k))
            side = 0 if trial % 10 == 0 else random_vertex_subset(rng, k)
            cols = (-1, 0, rng.getrandbits(width))[trial % 3]
            rows = [table[u] & cols for u in iter_bits(side)]
            want = naive_gf2_rank([[row >> j & 1 for j in range(width)] for row in rows])
            assert _rank(table, side, cols) == want
            if not side:
                seen.add("empty side")
            if cols in (-1, 0):
                seen.add(f"cols {cols}")
            if any(table[u] & ~cols for u in iter_bits(side)) and cols != -1:
                seen.add("bits outside cols")
        assert seen == {"empty side", "cols -1", "cols 0", "bits outside cols"}

    def test_gf2_rank_takes_any_iterable(self):
        rows = [0b011, 0b101, 0b110, 0b1000]  # the first three span a plane
        assert gf2_rank(rows) == 3
        assert gf2_rank(row for row in rows) == 3  # a one-shot generator
        assert gf2_rank(dict.fromkeys(rows, "part").keys()) == 3
        assert gf2_rank(iter(())) == 0


def _twin_blow_up(rng: random.Random, n: int, classes: int, flips: int) -> Graph:
    """n vertices dealt into twin classes over a random graph on the classes (a class
    adjacent to itself is a clique), then flips random vertex pairs toggled: every cut
    rank is at most classes + flips, so cuts of a large graph stay cheap to eliminate."""
    base = random_graph(rng, classes, 0.5)
    loops = [rng.random() < 0.5 for _ in range(classes)]
    of = [rng.randrange(classes) for _ in range(n)]
    members = [0] * classes
    for u, c in enumerate(of):
        members[c] |= 1 << u
    reach = [members[c] if loops[c] else 0 for c in range(classes)]
    for c in range(classes):
        for d in iter_bits(base.adj[c]):
            reach[c] |= members[d]
    adj = [reach[c] & ~(1 << u) for u, c in enumerate(of)]
    for _ in range(flips):
        u, v = rng.sample(range(n), 2)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    return Graph(n, tuple(adj))


class TestCutRankTheory:
    """Properties of cut-rank that need no second implementation: invariance under local
    complementation (Oum, "Rank-width and vertex-minors", JCTB 95, 2005), symmetry and
    submodularity (Oum & Seymour, JCTB 96, 2006).  Each also asserts that the ranks it
    compared were not all alike, so that a routine answering a constant cannot pass."""

    def test_local_complementation_keeps_cut_ranks(self):
        rng = random.Random(15)
        ranks, diversity_moved = set(), False
        for _ in range(200):
            n = rng.randint(2, 40)
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            d = random_decomposition(rng, g, rng.randint(2, 12))
            h = g
            for _ in range(rng.randint(1, 5)):
                h = local_complement(h, rng.randrange(n))
            rank = decomposition_rank(g, d)
            assert decomposition_rank(h, d) == rank
            ranks.add(rank)
            diversity_moved |= decomposition_diversity(h, d) != decomposition_diversity(g, d)
            for _ in range(5):
                w = random_vertex_subset(rng, n)
                r = cut_rank_of(g, w)
                assert cut_rank_of(h, w) == r
                ranks.add(r)
        assert diversity_moved and len(ranks) > 3

    def test_local_complementation_keeps_rank_width(self):
        rng = random.Random(16)
        widths = set()
        for i in range(12):
            n = 8 + i % 3
            g = random_graph(rng, n, (0.15, 0.3, 0.5, 0.7)[i % 4])
            h = g
            for _ in range(rng.randint(1, 5)):
                h = local_complement(h, rng.randrange(n))
            width = exact_rank_width(g)[0]
            assert exact_rank_width(h)[0] == width
            widths.add(width)
        assert len(widths) > 1

    @staticmethod
    def _large_graph_and_sets(seed: int) -> tuple[Graph, list[int]]:
        """A seeded 1,200-vertex graph and vertex sets of every size, small ones
        included, each followed by a copy with 1 to 20 vertices toggled."""
        rng = random.Random(seed)
        n = 1200
        g = _twin_blow_up(rng, n, 10, 12)
        sets = []
        for size in [rng.randint(1, 40) for _ in range(6)] + [rng.randint(1, n - 1) for _ in range(6)]:
            x = bitset(rng.sample(range(n), size))
            sets.append(x)
            sets.append(x ^ bitset(rng.sample(range(n), rng.randint(1, 20))))
        return g, sets

    def test_symmetric_at_n_1200(self):
        """rho(X) = rho(V - X), through cut_rank_of and through the elimination reading
        the rows off either side."""
        g, sets = self._large_graph_and_sets(17)
        full, ranks = g.vertex_mask, set()
        for x in sets:
            r = cut_rank_of(g, x)
            assert r == cut_rank_of(g, full ^ x)
            assert r == _rank(g.adj, x, full ^ x) == _rank(g.adj, full ^ x, x)
            ranks.add(r)
        assert len(ranks) > 3

    def test_submodular_at_n_1200(self):
        """rho(X) + rho(Y) >= rho(X & Y) + rho(X | Y) on every pair of the sets."""
        g, sets = self._large_graph_and_sets(18)
        rank = {x: cut_rank_of(g, x) for x in sets}
        for i, x in enumerate(sets):
            for y in sets[i + 1:]:
                assert rank[x] + rank[y] >= cut_rank_of(g, x & y) + cut_rank_of(g, x | y)
        assert len(set(rank.values())) > 3


class TestCutDiversity:
    def test_all_ones(self):
        m = CutMatrix((0b11111,) * 3, (0, 1, 2), (3, 4, 5, 6, 7))
        assert cut_diversity(m) == 1

    def test_identity(self):
        m = CutMatrix((0b01, 0b10), (0, 1), (2, 3))
        assert cut_diversity(m) == 2

    def test_zero_row_counts(self):
        # rows 10, 11, 00 -> 3 distinct rows; columns 110, 010 -> 2 distinct
        m = CutMatrix((0b01, 0b11, 0b00), (0, 1, 2), (3, 4))
        assert cut_diversity(m) == 3


class TestCutClasses:
    def test_against_naive_grouping(self):
        """Rows and columns of the 0/1 matrix grouped one by one, on random cuts
        that include empty and full sides, against the rows nested_cut_rows merges at
        the cut's node of a two-node decomposition and the columns column_classes
        refines from them; the diversity against the matrix's distinct rows and
        columns."""
        rng = random.Random(6)
        for trial in range(400):
            n = rng.randint(0, 12)
            g = random_graph(rng, n, rng.uniform(0.05, 0.95))
            if trial % 10:
                w = random_vertex_subset(rng, n)
            else:  # every tenth cut has an empty or a full side
                w = g.vertex_mask if trial % 20 else 0
            d = Decomposition(2, ((0, 1),), tuple(w >> v & 1 for v in range(n)))
            merged = {v: rows for v, *_, rows in nested_cut_rows(g, g.vertex_mask, d.view)}
            rows = merged.get(1, {})  # node 1 holds w, and is not in the view when w is empty
            cols, diversity = column_classes(rows, g.vertex_mask & ~w)
            assert (rows, cols) == naive_cut_classes(g, w)
            assert cut_diversity_of(g, w) == diversity == naive_cut_diversity(g, w)

    def test_side_outside_the_graph(self):
        for reader in (cut_diversity_of, cut_rank_of):
            with pytest.raises(InputError, match="^cut side contains vertices outside the graph$"):
                reader(complete(3), bitset([3]))


class TestDiversityReaders:
    def test_three_readers_agree(self):
        """cut_diversity on the cut matrix, cut_diversity_of on the graph and the naive
        count of a matrix's distinct rows and columns agree on every cut, among them
        cuts with repeated columns, with an all-zero column and with an empty side."""
        rng = random.Random(12)
        cases = [
            (Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 0b0001),  # three equal columns
            (Graph.from_edges(4, [(0, 1), (1, 2)]), 0b0001),  # columns 2 and 3 all-zero
            (complete(3), 0),
            (complete(3), 0b111),
            (Graph(0, ()), 0),
        ]
        for _ in range(800):
            n = rng.randint(0, 14)
            g = random_graph(rng, n, rng.uniform(0.05, 0.95))
            cases.append((g, random_vertex_subset(rng, n)))
        seen = set()
        for g, w in cases:
            expected = naive_cut_diversity(g, w)
            assert cut_diversity(cut_matrix(g, w)) == expected
            assert cut_diversity_of(g, w) == expected
            rest = g.vertex_mask & ~w
            if not w or not rest:
                seen.add("empty side")
                assert expected == 0
                continue
            columns = [g.adj[x] & w for x in iter_bits(rest)]
            if len(set(columns)) < len(columns):
                seen.add("repeated columns")
            if 0 in columns:
                seen.add("all-zero column")
        assert seen == {"empty side", "repeated columns", "all-zero column"}


class TestProperties:
    def test_rank_diversity_sandwich(self):
        rng = random.Random(2)
        for _ in range(1000):
            n = rng.randint(2, 12)
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            w = random_vertex_subset(rng, n)
            if w == 0 or w == g.vertex_mask:
                continue
            m = cut_matrix(g, w)
            r, d = cut_rank(m), cut_diversity(m)
            assert r <= d <= (1 << r)

    def test_rank_transpose_invariant(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(2, 10)
            g = random_graph(rng, n)
            w = random_vertex_subset(rng, n)
            m = cut_matrix(g, w)
            assert cut_rank(m) == cut_rank(transpose(m))

    def test_rank_bounded_by_sides(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(2, 10)
            g = random_graph(rng, n)
            w = random_vertex_subset(rng, n)
            r = cut_rank_of(g, w)
            assert r <= min(w.bit_count(), n - w.bit_count())

    def test_larger_side_read_through_the_smaller(self):
        """A side larger than half is read as the transposed cut; its rank is the
        rank of the cut matrix, of the cut from the other side and of the elimination
        passed the larger side as side."""
        rng = random.Random(6)
        for _ in range(500):
            n = rng.randint(3, 12)
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            side = rng.sample(range(n), rng.randint(n // 2 + 1, n - 1))
            w = bitset(side)
            r = cut_rank_of(g, w)
            assert r == naive_gf2_rank(matrix_of_cut(g, side))
            assert r == cut_rank_of(g, g.vertex_mask & ~w)
            assert r == _rank(g.adj, w, g.vertex_mask & ~w)

    def test_complement_gives_transpose(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 10)
            g = random_graph(rng, n)
            w = random_vertex_subset(rng, n)
            m = cut_matrix(g, w)
            mc = cut_matrix(g, g.vertex_mask & ~w)
            t = transpose(m)
            assert mc.rows == t.rows
            assert mc.row_index == t.row_index and mc.col_index == t.col_index
