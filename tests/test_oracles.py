import contextlib
import inspect
import random
import sys

import pytest

from rankchi import (
    Coloring,
    Graph,
    InputError,
    ResourceError,
    are_isomorphic,
    bitset,
    canonical_form,
    chromatic_number,
    clique_number,
    complete,
    cube,
    cube_minus,
    cycle,
    exact_rank_width,
    greedy_coloring,
    has_vertex_minor,
    induced_subgraph,
    is_proper,
    iter_bits,
    maximum_cliques,
    no_max_clique_monochromatic,
    wheel,
)
from rankchi import config
from rankchi.config import LIMITS
from rankchi.generate import random_graph

from helpers import (
    cocktail_party,
    naive_chromatic_number,
    naive_clique_number,
    naive_is_proper,
    naive_maximum_cliques,
    petersen,
    reference_greedy_coloring,
)


@contextlib.contextmanager
def call_depth_room(frames: int):
    """Let the code in the block nest at most about frames more Python calls."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class TestCliques:
    def test_complete(self):
        assert clique_number(complete(5)) == 5
        assert maximum_cliques(complete(5)) == [0b11111]

    def test_cycle5_edges(self):
        cliques = maximum_cliques(cycle(5))
        assert clique_number(cycle(5)) == 2
        assert len(cliques) == 5

    def test_petersen_triangle_free(self):
        assert clique_number(petersen()) == 2

    def test_against_naive(self):
        rng = random.Random(0)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 8))
            assert clique_number(g) == naive_clique_number(g)

    def test_limit(self):
        with pytest.raises(ResourceError):
            maximum_cliques(complete(5), limit=4)

    def test_agrees_with_enumeration(self):
        rng = random.Random(20)
        for _ in range(200):
            g = random_graph(rng, rng.randint(9, 22), rng.uniform(0.1, 0.9))
            assert clique_number(g) == maximum_cliques(g)[0].bit_count()

    def test_maximum_cliques_are_the_omega_cliques(self):
        rng = random.Random(22)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
            cliques = maximum_cliques(g)
            assert len(set(cliques)) == len(cliques)
            assert set(cliques) == naive_maximum_cliques(g)

    def test_cocktail_party(self):
        for k in range(1, 21):
            assert clique_number(cocktail_party(k), limit=40) == k

    def test_edgeless_and_empty(self):
        assert clique_number(Graph(4, (0, 0, 0, 0))) == 1
        assert clique_number(Graph(0, ())) == 0

    def test_clique_number_limit(self):
        with pytest.raises(ResourceError):
            clique_number(complete(5), limit=4)
        assert clique_number(complete(5), limit=5) == 5

    # A search that recursed once per clique vertex would raise RecursionError
    # on a 300-clique with room for 100 nested calls.
    def test_clique_number_deeper_than_the_call_stack(self):
        g = complete(300)
        with call_depth_room(100):
            omega = clique_number(g, limit=300)
        assert omega == 300

    def test_maximum_cliques_deeper_than_the_call_stack(self):
        g = complete(300)
        with call_depth_room(100):
            cliques = maximum_cliques(g, limit=300)
        assert cliques == [g.vertex_mask]


class TestChromaticNumber:
    def test_odd_cycle(self):
        assert chromatic_number(cycle(5))[0] == 3

    def test_complete(self):
        for n in range(1, 7):
            assert chromatic_number(complete(n))[0] == n

    # On an odd cycle in vertex order the search fixes one color per vertex and
    # backtracks only from the last: a recursion once per vertex would raise
    # RecursionError with room for 100 nested calls.
    def test_chromatic_number_deeper_than_the_call_stack(self):
        with call_depth_room(100):
            chi, witness = chromatic_number(cycle(1201), limit=1201)
        assert chi == 3 and is_proper(cycle(1201), witness)

    def test_guarded_by_its_own_ceiling_alone(self, monkeypatch):
        """A chromatic ceiling raised past the clique ceiling (24) is the only one
        that applies, whether passed as limit= or set as RANKCHI_CHROMATIC_LIMIT."""
        assert chromatic_number(cycle(27), limit=40)[0] == 3
        monkeypatch.setenv("RANKCHI_CHROMATIC_LIMIT", "40")
        monkeypatch.setattr(config, "limits", config.Limits.from_env)
        assert chromatic_number(cycle(27))[0] == 3

    def test_petersen(self):
        chi, witness = chromatic_number(petersen())
        assert chi == 3
        assert is_proper(petersen(), witness)

    def test_witness_proper_and_optimal(self):
        rng = random.Random(1)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8))
            chi, witness = chromatic_number(g)
            assert is_proper(g, witness)
            assert witness.palette_size <= chi
            assert chi == naive_chromatic_number(g)

    def test_chi_at_least_omega(self):
        rng = random.Random(2)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 9))
            assert chromatic_number(g)[0] >= clique_number(g)

    def test_greedy_is_proper(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 10))
            assert is_proper(g, greedy_coloring(g))

    def test_greedy_matches_the_recomputing_reference(self):
        """Saturations kept up to date as vertices are colored pick the same vertex
        and color at every step as saturations recomputed in full."""
        rng = random.Random(12)
        for _ in range(3000):
            g = random_graph(rng, rng.randint(0, 25), rng.uniform(0.05, 0.95))
            assert greedy_coloring(g) == reference_greedy_coloring(g)


class TestIsProper:
    def test_injective_always_proper(self):
        g = random_graph(random.Random(4), 6)
        assert is_proper(g, Coloring(tuple(range(1, 7))))

    def test_constant_on_edge(self):
        assert not is_proper(complete(2), Coloring((1, 1)))

    def test_bipartite_alternation(self):
        assert is_proper(cycle(4), Coloring((1, 2, 1, 2)))

    def test_partial_rejected(self):
        with pytest.raises(InputError):
            is_proper(complete(3), Coloring((1, 2)))

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError):
            Coloring((0, 1))

    def test_against_the_edge_loop(self):
        """Random colorings from a few colors, most of them improper, judged as
        the pair-by-pair reference judges them."""
        rng = random.Random(13)
        verdicts = []
        for _ in range(2000):
            n = rng.randint(1, 14)
            g = random_graph(rng, n, rng.uniform(0.05, 0.6))
            c = Coloring(tuple(rng.randint(1, rng.randint(1, n)) for _ in range(n)))
            verdicts.append(is_proper(g, c))
            assert verdicts[-1] == naive_is_proper(g, c.colors)
        assert 0 < sum(verdicts) < len(verdicts) / 2


class TestMaxCliqueMonochromatic:
    def test_proper_always_passes(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8))
            assert no_max_clique_monochromatic(g, chromatic_number(g)[1])

    def test_constant_on_triangle(self):
        assert not no_max_clique_monochromatic(complete(3), Coloring((1, 1, 1)))

    def test_omega_one_convention(self):
        g = Graph(3, (0, 0, 0))
        assert no_max_clique_monochromatic(g, Coloring((1, 1, 1)))

    def test_against_enumeration(self):
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            palette = rng.randint(1, 3)
            c = Coloring(tuple(rng.randint(1, palette) for _ in range(n)))
            cliques = maximum_cliques(g)
            expect = cliques[0].bit_count() <= 1 or all(
                len({c.colors[v] for v in iter_bits(q)}) >= 2 for q in cliques
            )
            assert no_max_clique_monochromatic(g, c) == expect

    def test_against_per_class_omega(self):
        rng = random.Random(6)
        for _ in range(500):
            n = rng.randint(1, 10)
            g = random_graph(rng, n)
            c = Coloring(tuple(rng.randint(1, 3) for _ in range(n)))
            omega = clique_number(g)
            if omega <= 1:
                expect = True
            else:
                expect = True
                for color in set(c.colors):
                    mask = bitset(v for v in range(n) if c.colors[v] == color)
                    sub, _ = induced_subgraph(g, mask)
                    if sub.n and clique_number(sub) >= omega:
                        expect = False
            assert no_max_clique_monochromatic(g, c) == expect


class TestCanonicalForm:
    def test_permutation_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 7)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            adj = [0] * n
            for u, v in g.edges():
                adj[perm[u]] |= 1 << perm[v]
                adj[perm[v]] |= 1 << perm[u]
            assert canonical_form(g) == canonical_form(Graph(n, tuple(adj)))

    def test_distinguishes_nonisomorphic(self):
        assert canonical_form(cycle(4)) != canonical_form(complete(4))
        assert canonical_form(cycle(6)) != canonical_form(
            Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        )

    def test_counts_all_four_vertex_graphs(self):
        forms = set()
        for bits in range(1 << 6):
            pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
            edges = [pairs[i] for i in range(6) if bits >> i & 1]
            forms.add(canonical_form(Graph.from_edges(4, edges)))
        assert len(forms) == 11  # graphs on 4 vertices up to isomorphism


class TestVertexMinor:
    def test_reflexive(self):
        for g in (wheel(5), wheel(7), cube(), cube_minus(), cycle(5), complete(4)):
            assert has_vertex_minor(g, g)

    def test_c5_contains_k3(self):
        assert has_vertex_minor(cycle(5), complete(3))

    def test_too_large_target(self):
        assert not has_vertex_minor(cycle(5), wheel(5))

    def test_monotone_under_induced_subgraphs(self):
        rng = random.Random(8)
        for _ in range(15):
            n = rng.randint(3, 6)
            g = random_graph(rng, n, 0.6)
            s = rng.randrange(1, 1 << n)
            sub, _ = induced_subgraph(g, s)
            if sub.n < 1:
                continue
            h_mask = rng.randrange(1, 1 << sub.n)
            h, _ = induced_subgraph(sub, h_mask)
            if h.n and has_vertex_minor(sub, h):
                assert has_vertex_minor(g, h)

    def test_limit(self):
        with pytest.raises(ResourceError):
            has_vertex_minor(random_graph(random.Random(0), 10), complete(3), limit=9)


def test_are_isomorphic():
    assert are_isomorphic(cycle(4), Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)]))
    assert not are_isomorphic(cycle(4), complete(4))


def _vertex_minor_of_k1(g, limit=None):
    return has_vertex_minor(g, complete(1), limit=limit)


@pytest.mark.parametrize(
    "search, what, default",
    [
        (maximum_cliques, "clique enumeration", LIMITS.clique_n),
        (clique_number, "clique search", LIMITS.clique_n),
        (chromatic_number, "chromatic number", LIMITS.chromatic_n),
        (_vertex_minor_of_k1, "vertex-minor search", LIMITS.vertex_minor_n),
        (exact_rank_width, "exact rank-width", LIMITS.rank_width_n),
    ],
    ids=["maximum_cliques", "clique_number", "chromatic_number", "has_vertex_minor",
         "exact_rank_width"],
)
def test_ceiling_message(search, what, default):
    """An explicit limit= wins over the RANKCHI_* default (4 vertices pass every
    default), and both ceilings refuse with the same message."""
    for n, limit, cap in ((4, 3, 3), (default + 1, None, default)):
        with pytest.raises(ResourceError) as info:
            search(Graph(n, (0,) * n), limit=limit)
        assert str(info.value) == f"{what} limited to n <= {cap} (got {n})"
    search(Graph(3, (0,) * 3), limit=3)  # n at the cap runs the search
