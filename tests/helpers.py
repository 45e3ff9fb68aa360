"""Independent brute-force oracles used only by the test suite.

Deliberately naive implementations: they share no code path with the
package internals they check.
"""

from __future__ import annotations

import itertools
import random

from rankchi import Coloring, ContractError, CutMatrix, Decomposition, Graph, iter_bits


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


def transpose(m: CutMatrix) -> CutMatrix:
    """The cut matrix with rows and columns swapped, one entry at a time."""
    cols = []
    for j in range(len(m.col_index)):
        c = 0
        for i, row in enumerate(m.rows):
            if row >> j & 1:
                c |= 1 << i
        cols.append(c)
    return CutMatrix(tuple(cols), m.col_index, m.row_index)


def matrix_of_cut(g: Graph, w_side: list[int]) -> list[list[int]]:
    side = set(w_side)
    other = [v for v in range(g.n) if v not in side]
    return [[1 if g.has_edge(u, v) else 0 for v in other] for u in w_side]


def naive_rank_width(g: Graph) -> tuple[int, Decomposition]:
    """Minimum width over all (2n-5)!! leaf-labeled cubic trees, with the first
    tree that reaches it.

    Leaves are inserted in vertex order, each one subdividing every edge in
    turn and taking the fresh internal node n + i - 2; vertex 0 is the root
    leaf.  Cut ranks come from the 0/1 matrix of each cut.
    """
    n = g.n
    if n <= 1:
        return 0, Decomposition(1, (), (0,) * n)
    ranks: dict[int, int] = {}

    def rank(mask: int) -> int:
        if mask not in ranks:
            ranks[mask] = naive_gf2_rank(matrix_of_cut(g, [v for v in range(n) if mask >> v & 1]))
        return ranks[mask]

    parent = {1: 0}  # every node except the root leaf 0; edge = (node, parent)
    below = {1: 1 << 1}  # vertices in the subtree under each node
    best_width, best_parent = n + 1, parent

    def insert(m: int) -> None:
        nonlocal best_width, best_parent
        if m == n:
            width = 0
            for mask in below.values():
                width = max(width, rank(mask))
                if width >= best_width:
                    return
            best_width, best_parent = width, dict(parent)
            return
        t = n + m - 2
        for c in list(parent):
            p = parent[c]
            parent[t], parent[c], parent[m] = p, t, t
            below[t], below[m] = below[c] | 1 << m, 1 << m
            x = p
            while x != 0:
                below[x] |= 1 << m
                x = parent[x]
            insert(m + 1)
            x = p
            while x != 0:
                below[x] &= ~(1 << m)
                x = parent[x]
            parent[c] = p
            del parent[t], parent[m], below[t], below[m]

    insert(2)
    edges = tuple(sorted((min(v, p), max(v, p)) for v, p in best_parent.items()))
    return best_width, Decomposition(2 * n - 2, edges, tuple(range(n)))


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


def naive_color_bound(bound, s: int) -> int:
    """The paper's palette bound B(s), level by level: B(1) = 1 and
    B(i) = 2^r (f(i) + 1) B(i - 1), with f read off the table (the last entry
    repeated past its end) and r the rank budget."""
    table, r = bound.table, bound.rank_budget
    b = 1
    for i in range(2, s + 1):
        b = b * 2**r * (table[min(i, len(table)) - 1] + 1)
    return b


def naive_clique_number(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                return size
    return best


def naive_maximum_cliques(g: Graph) -> set[int]:
    """The vertex bitsets of every clique of size omega(g), by trying every vertex
    subset of each size from n down."""
    for size in range(g.n, 0, -1):
        found = {sum(1 << v for v in combo)
                 for combo in itertools.combinations(range(g.n), size)
                 if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2))}
        if found:
            return found
    return set()


def reference_greedy_coloring(g: Graph) -> Coloring:
    """DSATUR recomputing every saturation at every step: the uncolored vertex of
    largest (saturation, degree), the first one on ties, takes the smallest free color."""
    colors = [0] * g.n
    for _ in range(g.n):
        pick, key = -1, (-1, -1)
        for v in range(g.n):
            if colors[v]:
                continue
            sat = len({colors[u] for u in iter_bits(g.adj[v]) if colors[u]})
            cand = (sat, g.degree(v))
            if cand > key:
                key, pick = cand, v
        used = {colors[u] for u in iter_bits(g.adj[pick])}
        c = 1
        while c in used:
            c += 1
        colors[pick] = c
    return Coloring(tuple(colors))


def naive_is_proper(g: Graph, colors: tuple[int, ...]) -> bool:
    """No pair of adjacent vertices shares a color, pair by pair."""
    return all(
        colors[u] != colors[v]
        for u, v in itertools.combinations(range(g.n), 2)
        if g.has_edge(u, v)
    )


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def cocktail_party(k: int) -> Graph:
    """K_{2xk}: vertices 2i and 2i+1 are the only non-adjacent pairs."""
    n = 2 * k
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n) if a // 2 != b // 2])


def naive_classes(table, side: int, cols: int) -> dict[int, int]:
    """The members u of side listed one at a time and grouped by table[u] & cols, each
    group then summed into a bitset: {row: vertices of side with that row}."""
    members: dict[int, list[int]] = {}
    for u in range(len(table)):
        if side >> u & 1:
            members.setdefault(table[u] & cols, []).append(u)
    return {row: sum(1 << u for u in us) for row, us in members.items()}


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


def naive_cut_classes(g: Graph, side: int) -> tuple[dict[int, int], dict[int, int]]:
    """The 0/1 matrix of the cut (side, rest) grouped one entry at a time: each distinct
    row, as the bitset of its 1 columns, mapped to the vertices of side having it, and
    each distinct column, as the bitset of its 1 rows, to the vertices of rest having it."""
    w_side = [v for v in range(g.n) if side >> v & 1]
    other = [v for v in range(g.n) if not side >> v & 1]
    matrix = matrix_of_cut(g, w_side)
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    for u, row in zip(w_side, matrix):
        key = sum(1 << x for x, bit in zip(other, row) if bit)
        rows[key] = rows.get(key, 0) | 1 << u
    for j, x in enumerate(other):
        key = sum(1 << u for u, row in zip(w_side, matrix) if row[j])
        cols[key] = cols.get(key, 0) | 1 << x
    return rows, cols


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
    """Parent (-1 at the root) and depth of every node, by DFS from d.root, or from
    node 0 when d is unrooted."""
    adj = tree_adjacency(d)
    parent = [-1] * d.num_nodes
    depth = [0] * d.num_nodes
    root = 0 if d.root is None else d.root
    stack = [root]
    seen = {root}
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


def naive_kept_nodes(d) -> dict[int, int]:
    """Each node with a nonempty subtree preimage, the root included, mapped to itself if
    a vertex maps to it or it has other than one such child, else to what that child
    maps to.  Rooted as naive_parents roots d."""
    parent, depth = naive_parents(d)
    pre = naive_subtree_preimages(d)
    children: list[list[int]] = [[] for _ in range(d.num_nodes)]
    for x in range(d.num_nodes):
        if parent[x] != -1 and pre[x]:
            children[parent[x]].append(x)
    kept: dict[int, int] = {}
    for x in sorted(range(d.num_nodes), key=lambda y: -depth[y]):
        if pre[x]:
            through = x not in d.tau and len(children[x]) == 1
            kept[x] = kept[children[x][0]] if through else x
    return kept


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


# --- key-lemma step oracle ----------------------------------------------------


def full_step_check(g: Graph, dec, s: int, processed, masks: list[int]) -> None:
    """Properties 2-4 of the key lemma's induction over the whole coloring masks of the
    vertex set s, after the steps at the nodes processed of dec restricted to s: every
    processed node, every class of every unprocessed kept node and every monochromatic
    edge are read, with the facts they need built here from g, dec and s alone.  Raises
    ContractError with the step check's messages.
    """
    parent, _ = naive_parents(dec)
    pre = [0] * dec.num_nodes  # the vertices of s mapped into each subtree
    for u in iter_bits(s):
        x = dec.tau[u]
        while x != -1:
            pre[x] |= 1 << u
            x = parent[x]
    sub = Decomposition(dec.num_nodes, dec.tree_edges, tuple(dec.tau[u] for u in iter_bits(s)),
                        dec.root)
    classes = {}  # kept node -> its cut's row classes in g[s], class zero first
    for x in set(naive_kept_nodes(sub).values()):
        groups: dict[int, int] = {}
        for u in iter_bits(pre[x]):
            row = g.adj[u] & s & ~pre[x]
            groups[row] = groups.get(row, 0) | 1 << u
        classes[x] = [groups.pop(0, 0), *groups.values()]
    together = dict.fromkeys(iter_bits(s), 0)  # u -> the vertices sharing a nonzero class
    for parts in classes.values():
        for part in parts[1:]:
            for u in iter_bits(part):
                together[u] |= part
    ends: dict[int, int] = {}  # node -> the ends of the edges with that origin
    homes: dict[int, int] = {}  # node -> the vertices mapped to it
    unconfined = {}  # u -> its neighbors w > u in s sharing no nonzero class with it
    for u in together:
        homes[dec.tau[u]] = homes.get(dec.tau[u], 0) | 1 << u
        later = g.adj[u] & s >> (u + 1) << (u + 1)
        for w in iter_bits(later):
            x = dec.tau[u]
            while not pre[x] >> w & 1:
                x = parent[x]
            ends[x] = ends.get(x, 0) | 1 << u | 1 << w
        unconfined[u] = later & ~together[u]
    colored = 0
    for mask in masks:
        colored |= mask
    if any(ends.get(x, 0) & ~colored for x in processed):
        raise ContractError("edge with processed origin has uncolored endpoint")
    if any(homes.get(x, 0) & ~colored for x in processed):
        raise ContractError("vertex mapped to processed node is uncolored")
    shared = [seen for x, parts in classes.items() if x not in processed
              for part in parts if (seen := part & colored) & (seen - 1)]
    if any(0 < seen & mask < seen for seen in shared for mask in masks):
        raise ContractError("class of an unprocessed subtree is multicolored")
    if any(unconfined[u] & mask for mask in masks for u in iter_bits(mask)):
        raise ContractError("monochromatic edge not confined to a nonzero outside class")
