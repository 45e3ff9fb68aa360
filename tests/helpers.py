"""Independent brute-force oracles used only by the test suite.

Deliberately naive implementations: they share no code path with the
package internals they check.
"""

from __future__ import annotations

import itertools
import random

from rankchi import Graph


def naive_gf2_rank(matrix: list[list[int]]) -> int:
    """Textbook Gaussian elimination over integers mod 2, entry by entry."""
    m = [row[:] for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(pivot_row, n_rows):
            if m[r][col] % 2 == 1:
                pivot = r
                break
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        for r in range(n_rows):
            if r != pivot_row and m[r][col] % 2 == 1:
                m[r] = [(a + b) % 2 for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def matrix_of_cut(g: Graph, w_side: list[int]) -> list[list[int]]:
    other = [v for v in range(g.n) if v not in w_side]
    return [[1 if g.has_edge(u, v) else 0 for v in other] for u in w_side]


def naive_chromatic_number(g: Graph) -> int:
    """Smallest k admitting a proper labeling, by exhaustive enumeration."""
    if g.n == 0:
        return 0
    edges = list(g.edges())
    if not edges:
        return 1
    for k in range(1, g.n + 1):
        for labeling in itertools.product(range(k), repeat=g.n):
            if all(labeling[u] != labeling[v] for u, v in edges):
                return k
    raise AssertionError("unreachable: n colors always suffice")


def naive_clique_number(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                return size
    return best


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def random_vertex_subset(rng: random.Random, n: int) -> int:
    return rng.randrange(1 << n) if n else 0


# --- decomposition oracles: a fresh tree walk per query, sharing nothing with
# Decomposition.view ------------------------------------------------------------


def tree_adjacency(d) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(d.num_nodes)]
    for a, b in d.tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def naive_edge_cut(g: Graph, d, e: tuple[int, int]) -> tuple[int, int]:
    """(a-side, b-side) vertex bitsets of tree edge e = (a, b), by DFS from a."""
    a, b = e
    adj = tree_adjacency(d)
    side_nodes = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if (x, y) != (a, b) and y not in side_nodes:
                side_nodes.add(y)
                stack.append(y)
    side_a = sum(1 << v for v, node in enumerate(d.tau) if node in side_nodes)
    return side_a, g.vertex_mask & ~side_a


def naive_cut_diversity(g: Graph, side: int) -> int:
    """max(#distinct rows, #distinct columns) of the 0/1 cut matrix; 0 if a side is empty."""
    w_side = [v for v in range(g.n) if side >> v & 1]
    matrix = matrix_of_cut(g, w_side)
    if not matrix or not matrix[0]:
        return 0
    return max(len({tuple(row) for row in matrix}), len({tuple(col) for col in zip(*matrix)}))


def naive_piece_edges(g: Graph, d, v: int) -> set[tuple[int, int]]:
    """Edges (u, w), u < w, not inside one component of T - v, by DFS per component."""
    adj = tree_adjacency(d)
    comp = {}
    for start in adj[v]:
        if start in comp:
            continue
        comp[start] = start
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y != v and y not in comp:
                    comp[y] = start
                    stack.append(y)
    kept = set()
    for u, w in g.edges():
        cu, cw = comp.get(d.tau[u]), comp.get(d.tau[w])
        if cu is None or cw is None or cu != cw:
            kept.add((u, w))
    return kept


def naive_parents(d) -> tuple[list[int], list[int]]:
    """Parent (-1 at the root) and depth of every node, by DFS from d.root."""
    adj = tree_adjacency(d)
    parent = [-1] * d.num_nodes
    depth = [0] * d.num_nodes
    stack = [d.root]
    seen = {d.root}
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                parent[y] = x
                depth[y] = depth[x] + 1
                stack.append(y)
    return parent, depth


def naive_subtree_preimages(d) -> list[int]:
    """Vertices mapped into each subtree, summed from the deepest nodes up."""
    parent, depth = naive_parents(d)
    pre = [0] * d.num_nodes
    for v, node in enumerate(d.tau):
        pre[node] |= 1 << v
    for x in sorted(range(d.num_nodes), key=lambda y: -depth[y]):
        if parent[x] != -1:
            pre[parent[x]] |= pre[x]
    return pre


def naive_outside_classes(g: Graph, d, v: int) -> list[int]:
    """Class with no outside neighbors first, then classes by outside neighborhood."""
    vv = naive_subtree_preimages(d)[v]
    groups: dict[int, int] = {}
    for u in range(g.n):
        if vv >> u & 1:
            out = g.adj[u] & ~vv
            groups[out] = groups.get(out, 0) | (1 << u)
    return [groups.pop(0, 0)] + [groups[key] for key in sorted(groups)]


def naive_origin(d, u: int, w: int) -> int:
    """Lowest common ancestor of tau(u) and tau(w) by climbing to equal depth."""
    parent, depth = naive_parents(d)
    a, b = d.tau[u], d.tau[w]
    while depth[a] > depth[b]:
        a = parent[a]
    while depth[b] > depth[a]:
        b = parent[b]
    while a != b:
        a, b = parent[a], parent[b]
    return a
