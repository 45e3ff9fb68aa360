"""Colorings pinned to recorded values, so refactors stay bit-identical.

tests/data/pinned_colorings.json holds the colorings that
chi_bounded_coloring with exact_node_oracle produced for the fixed seeded
cases below.  A change to the construction that alters any color (for
example the order of outside classes or of fresh colors) fails here even
when the new coloring is still proper and within the bound.
Regenerate the file only for an intended change of colorings:

    PYTHONPATH=src python tests/test_pinned_colorings.py > tests/data/pinned_colorings.json
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from rankchi import (
    ChiBoundFn,
    Decomposition,
    Graph,
    chi_bounded_coloring,
    decomposition_rank,
    exact_node_oracle,
    exact_rank_width,
    one_join_compose,
    star_decomposition,
)
from rankchi.generate import (
    random_connected_graph,
    random_cubic_decomposition,
    random_graph,
    random_join_tree,
)

PINNED = Path(__file__).parent / "data" / "pinned_colorings.json"


def cocktail_party(k: int) -> Graph:
    """K_{2xk}: vertices 2i and 2i+1 are the only non-adjacent pairs."""
    n = 2 * k
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n) if a // 2 != b // 2])


def cherry_caterpillar(k: int) -> Decomposition:
    """Rooted rank-1 decomposition of K_{2xk}: spine 0..k-1, cherry k+i holds
    pair i, and the empty root leaf 2k hangs off spine node 0."""
    tree = [(i, i + 1) for i in range(k - 1)] + [(i, k + i) for i in range(k)] + [(0, 2 * k)]
    return Decomposition(2 * k + 1, tuple(tree), tuple(k + v // 2 for v in range(2 * k)), 2 * k)


def cases():
    """(name, graph, decomposition, bound, check) for every pinned coloring.

    The order of siblings cannot change a coloring, as their subtrees are
    disjoint, so no case targets it.
    """
    rng = random.Random(2011)
    for i in range(10):
        jt = random_join_tree(rng, rng.randint(2, 9), extra=3, p=0.4)
        g, dec, _ = one_join_compose(jt)
        if g.n <= 22:
            yield f"jointree-{i}", g, dec, ChiBoundFn.constant(32, 1), False
    for k in range(1, 7):
        g = cocktail_party(k)
        yield f"cocktail-star-{k}", g, star_decomposition(g), ChiBoundFn.constant(6, 1), False
        yield f"cocktail-caterpillar-{k}", g, cherry_caterpillar(k), ChiBoundFn.constant(3, 1), False
    rng = random.Random(107)
    found = 0
    while found < 12:
        g = random_graph(rng, rng.randint(4, 7), rng.uniform(0.2, 0.7))
        width, witness = exact_rank_width(g)
        if width <= 2:
            yield f"witness-{found}", g, witness.decomposition, ChiBoundFn.constant(3, width), True
            found += 1
    # Random cubic trees reach rank 5, so nodes have many outside classes.
    rng = random.Random(108)
    for i in range(12):
        g = random_connected_graph(rng, rng.randint(6, 12), rng.uniform(0.2, 0.6))
        dec = random_cubic_decomposition(rng, g)
        yield f"cubic-{i}", g, dec, ChiBoundFn.constant(4, decomposition_rank(g, dec)), True


def colorings() -> dict[str, list[int]]:
    return {
        name: list(chi_bounded_coloring(g, dec, exact_node_oracle, bound, check=check).colors)
        for name, g, dec, bound, check in cases()
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(PINNED.read_text())


def test_colorings_match_recorded(recorded):
    got = colorings()
    assert sorted(got) == sorted(recorded)
    changed = [name for name in got if got[name] != recorded[name]]
    assert not changed, f"colorings differ from the recorded ones: {changed}"


if __name__ == "__main__":
    # Prints the current colorings as the JSON this test compares against.
    rows = (f"{json.dumps(name)}: {json.dumps(colors)}" for name, colors in sorted(colorings().items()))
    print("{\n" + ",\n".join(rows) + "\n}")
