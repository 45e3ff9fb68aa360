#!/usr/bin/env python3
"""End-to-end demo: generate a random graph, find its exact rank-width,
color it with the recursive bounded-palette algorithm, and verify the result.

Usage:
    python3 scripts/demo_pipeline.py [--n N] [--seed S] [--p P]
"""

import argparse
import random
import time

from rankchi import (
    ChiBoundFn,
    chi_bounded_coloring,
    chromatic_number,
    clique_number,
    color_bound,
    decomposition_diversity,
    exact_node_oracle,
    exact_rank_width,
    is_proper,
    no_max_clique_monochromatic,
    piece_graph,
    root_normalize,
)
from rankchi.generate import random_connected_graph


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8, help="number of vertices")
    ap.add_argument("--seed", type=int, default=0, help="random seed")
    ap.add_argument("--p", type=float, default=0.4, help="edge probability")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    g = random_connected_graph(rng, args.n, args.p)
    print(f"graph: n={g.n} m={g.num_edges}")

    t0 = time.perf_counter()
    width, witness = exact_rank_width(g)
    print(f"rank-width: {width}  ({time.perf_counter() - t0:.3f}s subset DP)")

    dec = witness.decomposition
    normalized = root_normalize(dec)
    piece_chi = max(
        chromatic_number(piece_graph(g, normalized, v))[0]
        for v in range(normalized.num_nodes)
    )
    diversity = decomposition_diversity(g, dec)
    print(f"decomposition: diversity={diversity}  max piece chi={piece_chi}")

    bound = ChiBoundFn.constant(piece_chi, width)
    omega = clique_number(g)
    t0 = time.perf_counter()
    coloring = chi_bounded_coloring(g, dec, exact_node_oracle, bound, check=True)
    print(
        f"coloring: palette={coloring.palette_size}  "
        f"bound={color_bound(bound, omega)} (omega={omega})  "
        f"({time.perf_counter() - t0:.3f}s)"
    )

    chi = chromatic_number(g)[0]
    print(f"exact chromatic number for comparison: {chi}")
    assert is_proper(g, coloring)
    assert no_max_clique_monochromatic(g, coloring)
    print("verified: proper, and no maximum clique is monochromatic")


if __name__ == "__main__":
    main()
