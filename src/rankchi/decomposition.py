"""Tree decompositions (tree + total vertex mapping), their cuts and pieces.

A decomposition is a tree T over dense node ids together with a total map tau
from graph vertices to tree nodes.  Every tree edge induces a cut of the
graph; the rank/diversity of the decomposition is the maximum over its edges.

All cuts, pieces, outside classes and origins are read off one rooted view
(Decomposition.view), built with the decomposition by a single breadth-first pass
from the root, or node 0 when unrooted, its children by the lowest vertex below them:
every walk, and so which refusal comes first, is fixed by g, tau and the root, not by
node ids.  Every tree edge is (parent[v], v) with cut pre[v], the vertices mapped into
the subtree at v, so a piece graph takes one bitset mask per vertex; rank and diversity
merge the rows of the kept nodes bottom-up (cuts.nested_cut_rows), diversity refining
each cut's columns by them
(cuts.column_classes).  The coloring recursion reads each vertex set s of the graph
off that same view: nested_cut_rows climbs from tau of the lowest vertex of s to the
lowest node whose pre holds s and descends from there only into the subtrees whose pre
meets s, so no view of s is built and no node above that one is read.  Every reader
of a graph and a decomposition starts at _view, the one check of tau against g.
Rank-decompositions and exact rank-width, by a dynamic programme over vertex
subsets, live here too.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

from .config import check_ceiling
from .cuts import _rank, column_classes, gf2_rank, nested_cut_rows
from .errors import ContractError, InputError, StateError, ValidationError
from .graph import Graph, _classes, induced_subgraph, iter_bits


@dataclass(frozen=True)
class RootedView:
    """The rooted tree, parent -1 at the root and children by the lowest vertex mapped
    below them (none first).

    tau is the decomposition's, pre[x] the bitset of vertices mapped into the subtree
    at x and own[x] those mapped to x.  A vertex set s is read off the same view, as
    pre[x] & s and own[x] & s, from the lowest node whose pre holds s: the first one
    with no vertex of s outside its pre on the climb from tau of the lowest vertex of s."""

    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    tau: tuple[int, ...]
    pre: tuple[int, ...]
    own: tuple[int, ...]

    def degree(self, x: int) -> int:
        """The number of tree edges at node x: its children and, but at the root, its parent."""
        return len(self.children[x]) + (self.parent[x] >= 0)


def _root_tree(
    num_nodes: int, tree_edges: tuple[tuple[int, int], ...], root: int, tau: tuple[int, ...]
) -> RootedView:
    """The tree rooted at root, with pre and own of tau, by one breadth-first pass, the
    children then sorted by pre; raises InputError unless the edges form a tree."""
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for a, b in tree_edges:
        if not (0 <= a < num_nodes and 0 <= b < num_nodes) or a == b:
            raise InputError(f"bad tree edge ({a},{b})")
        adj[a].append(b)
        adj[b].append(a)
    parent = [-2] * num_nodes  # -2 until reached
    parent[root] = -1
    children: list[list[int]] = [[] for _ in range(num_nodes)]
    order = [root]
    for x in order:
        for y in adj[x]:
            if parent[y] == -2:
                parent[y] = x
                children[x].append(y)
                order.append(y)
    if len(order) != num_nodes:
        raise InputError("tree edges do not form a connected tree")
    pre = [0] * num_nodes
    for v, x in enumerate(tau):
        pre[x] |= 1 << v
    own = tuple(pre)
    for x in reversed(order[1:]):
        pre[parent[x]] |= pre[x]
    for nodes in children:
        if len(nodes) > 1:
            nodes.sort(key=lambda c: pre[c] & -pre[c])
    return RootedView(tuple(parent), tuple(map(tuple, children)), tau, tuple(pre), own)


@dataclass(frozen=True)
class Decomposition:
    """Tree over num_nodes node ids plus tau: vertex index -> node id.

    Its rooted view, pre and own included, is built once, here, and kept as view
    (not a field, so equality, hashing and repr ignore it); every vertex set the
    coloring reads is read off that.
    """

    num_nodes: int
    tree_edges: tuple[tuple[int, int], ...]
    tau: tuple[int, ...]
    root: int | None = None

    def __post_init__(self) -> None:
        k = self.num_nodes
        if k < 1:
            raise InputError("decomposition needs at least one node")
        if len(self.tree_edges) != k - 1:
            raise InputError("tree must have exactly num_nodes - 1 edges")
        if self.root is not None and not 0 <= self.root < k:
            raise InputError("root out of range")
        for v, node in enumerate(self.tau):
            if not 0 <= node < k:
                raise InputError(f"tau maps vertex {v} to a non-node")
        view = _root_tree(k, self.tree_edges, 0 if self.root is None else self.root, self.tau)
        object.__setattr__(self, "view", view)
        if self.root is not None:
            if len(view.children[self.root]) > 1:
                raise InputError("root must be a leaf")
            if view.own[self.root]:
                raise InputError("root leaf must have an empty preimage")


@dataclass(frozen=True)
class RankDecomposition:
    """A validated rank-decomposition together with its width."""

    decomposition: Decomposition
    width: int


def _view(g: Graph, d: Decomposition) -> RootedView:
    """d's view; raises InputError unless tau maps exactly the vertices of g."""
    if len(d.tau) != g.n:
        raise InputError(f"decomposition maps {len(d.tau)} vertices, graph has {g.n}")
    return d.view


def _rooted(d: Decomposition) -> Decomposition:
    if d.root is None:
        raise StateError("decomposition is not rooted")
    return d


def edge_cut(g: Graph, d: Decomposition, e: tuple[int, int]) -> tuple[int, int]:
    """Vertex bitsets of the two sides induced by tree edge e (a-side first)."""
    a, b = e
    view = _view(g, d)
    if 0 <= a < d.num_nodes and 0 <= b < d.num_nodes:
        if view.parent[b] == a:
            return g.vertex_mask & ~view.pre[b], view.pre[b]
        if view.parent[a] == b:
            return view.pre[a], g.vertex_mask & ~view.pre[a]
    raise InputError(f"({a},{b}) is not a tree edge")


def _table_rank(table: Iterable[tuple]) -> int:
    """The largest GF(2) rank among the cuts of a nested_cut_rows table; 0 for none."""
    return max((gf2_rank(rows) for *_, rows in table), default=0)


def decomposition_rank(g: Graph, d: Decomposition) -> int:
    return _table_rank(nested_cut_rows(g, g.vertex_mask, _view(g, d)))


def decomposition_diversity(g: Graph, d: Decomposition) -> int:
    """Max over tree edges of the cut's max(#distinct rows, #distinct columns)."""
    cuts = nested_cut_rows(g, g.vertex_mask, _view(g, d))
    return max((column_classes(rows, rest)[1] for _, _, rest, rows in cuts), default=0)


def piece_graph(g: Graph, d: Decomposition, v: int) -> Graph:
    """Spanning subgraph keeping edges whose endpoint images straddle node v.

    Drops the edges inside one component of T - v: a child subtree of v, or
    everything outside the subtree at v.  A reference for tests and callers:
    the key lemma reads the piece's twin quotient off the view instead.
    """
    view = _view(g, d)
    if not 0 <= v < d.num_nodes:
        raise InputError(f"node {v} out of range")
    inside = view.pre[v]
    adj = list(g.adj)
    for u in iter_bits(g.vertex_mask & ~inside):
        adj[u] &= inside
    for c in view.children[v]:
        below = view.pre[c]
        for u in iter_bits(below):
            adj[u] &= ~below
    return Graph(g.n, tuple(adj))


def rooted_parents(d: Decomposition) -> tuple[list[int], list[int]]:
    """Parent and depth arrays of the rooted tree; requires a root."""
    view = _rooted(d).view
    depth, order = [0] * d.num_nodes, [d.root]
    for x in order:
        for c in view.children[x]:
            depth[c] = depth[x] + 1
            order.append(c)
    return list(view.parent), depth


def origin(d: Decomposition, u: int, w: int) -> int:
    """Nearest common ancestor of tau(u) and tau(w) in the rooted tree: the
    lowest node at or above tau(u) whose subtree preimage contains w."""
    view = _rooted(d).view
    if not (0 <= u < len(d.tau) and 0 <= w < len(d.tau)):
        raise InputError(f"vertex pair ({u},{w}) out of range")
    x = d.tau[u]
    while not view.pre[x] >> w & 1:
        x = view.parent[x]
    return x


def subtree_preimages(g: Graph, d: Decomposition) -> list[int]:
    """For each node v, the bitset of vertices mapped into the subtree at v."""
    return list(_view(g, _rooted(d)).pre)


def outside_partition(g: Graph, d: Decomposition, v: int) -> list[int]:
    """Partition of the subtree preimage V_v by neighborhoods outside V_v.

    Index 0 is the class with no outside neighbors (possibly empty); the
    remaining classes are ordered by their outside-neighborhood bitsets.
    """
    view = _view(g, _rooted(d))
    if not 0 <= v < d.num_nodes:
        raise InputError(f"node {v} out of range")
    if v == d.root:
        raise InputError("outside partition is undefined at the root")
    return _outside_classes(_classes(g.adj, view.pre[v], ~view.pre[v]))


def _outside_classes(rows: dict[int, int]) -> list[int]:
    """The classes of a cut's rows (row -> vertices), class zero, possibly empty, first
    and then the others by row: the one order of outside classes."""
    ordered = map(rows.__getitem__, sorted(rows))
    return [*ordered] if 0 in rows else [0, *ordered]


def restrict(g: Graph, d: Decomposition, s: int) -> tuple[Graph, Decomposition, dict[int, int]]:
    """Induced subgraph on s with tau restricted; tree and root unchanged."""
    _view(g, d)  # for its check of tau against g
    h, remap = induced_subgraph(g, s)
    return h, replace(d, tau=tuple(d.tau[u] for u in remap)), remap


def root_normalize(d: Decomposition) -> Decomposition:
    """Ensure a root leaf with empty preimage: the first leaf no vertex maps to,
    else a fresh leaf attached to node 0.

    The added edge induces the degenerate (empty, V) cut of rank zero, so rank
    and diversity are unchanged.
    """
    if d.root is not None:
        return d
    view, fresh = d.view, d.num_nodes
    root = next((v for v in range(fresh) if view.degree(v) <= 1 and not view.own[v]), fresh)
    edges = d.tree_edges if root < fresh else d.tree_edges + ((0, fresh),)
    return Decomposition(len(edges) + 1, edges, d.tau, root)


def star_decomposition(g: Graph) -> Decomposition:
    """Star tree with every vertex on its own leaf and an empty center."""
    n = g.n
    if n == 0:
        return Decomposition(1, (), ())
    edges = tuple((0, i + 1) for i in range(n))
    return Decomposition(n + 1, edges, tuple(v + 1 for v in range(n)))


def validate_rank_decomposition(g: Graph, d: Decomposition) -> RankDecomposition:
    """Check the cubic-tree/leaf-bijection shape and report the width."""
    degree = list(map(d.view.degree, range(d.num_nodes)))
    leaves = {v for v in range(d.num_nodes) if degree[v] <= 1}
    for v in range(d.num_nodes):
        if v not in leaves and degree[v] != 3:
            raise ValidationError(f"inner node {v} has degree {degree[v]}, expected 3")
    if len(set(d.tau)) != len(d.tau):
        raise ValidationError("tau is not injective")
    for v, node in enumerate(d.tau):
        if node not in leaves:
            raise ValidationError(f"vertex {v} is mapped to inner node {node}")
    if uncovered := leaves - set(d.tau):
        raise ValidationError(f"leaves {sorted(uncovered)} carry no vertex")
    return RankDecomposition(d, decomposition_rank(g, d))


def exact_rank_width(
    g: Graph, limit: int | None = None, leaf_order: list[int] | None = None
) -> tuple[int, RankDecomposition]:
    """Rank-width of g with an optimal rank-decomposition as witness.

    Subset dynamic programme (Oum, "Computing rank-width exactly", IPL 2009).
    The leaf r = leaf_order[0] (vertex 0 by default) hangs off a rooted binary
    tree over S = V - r, and for every nonempty X of S

        w(X) = max(cutrank(X), min over splits {A, X - A} of max(w(A), w(X - A)))

    with w({v}) = cutrank({v}); the width is w(S).  Every cubic tree is such a
    rooted tree below any of its leaves, so the width is the same for every
    choice of r.  The rest of leaf_order is not used, but leaf_order must be a
    permutation of the vertices.  The witness is built from the first optimal
    split found for each X.  Each cutrank(X) is one call of the one GF(2)
    elimination (cuts._rank) on the adjacency, its rows read off the smaller side of
    the cut; X lies inside V by construction, so nothing is re-checked.  Time
    O(3^n), memory O(2^n).
    """
    n = g.n
    check_ceiling("exact rank-width", n, limit, "rank_width_n")
    if n <= 1:
        d = Decomposition(1, (), tuple(0 for _ in range(n)))
        return 0, RankDecomposition(d, 0)

    order = list(range(n)) if leaf_order is None else list(leaf_order)
    if sorted(order) != list(range(n)):
        raise InputError("leaf_order must be a permutation of the vertices")

    root_leaf = order[0]
    adj, full, half = g.adj, g.vertex_mask, n // 2
    top = full & ~(1 << root_leaf)
    width = [0] * (1 << n)
    split = [0] * (1 << n)  # for |X| >= 2, the side A of an optimal split of X
    x = 0
    while x != top:  # nonempty subsets of top in increasing order, so A < X
        x = (x - top) & top
        # the cut rank of X, its rows read off the smaller side
        r = _rank(adj, x, full ^ x) if x.bit_count() <= half else _rank(adj, full ^ x, x)
        low = x & -x
        if x != low:
            # A holds the lowest vertex of X, so each split is tried once; a
            # split as good as the cut of X itself cannot be beaten.
            rest = x ^ low
            sub = rest
            best = n
            while sub and best > r:
                sub = (sub - 1) & rest
                a = low | sub
                # max(w(A), w(X - A)) < best, strict so that the first optimal split stays
                if (wa := width[a]) < best and (wb := width[x ^ a]) < best:
                    best = wa if wa > wb else wb
                    split[x] = a
            if best > r:
                r = best
        width[x] = r

    # Node ids: leaves are the vertex ids, internals are allocated at n..2n-3.
    edges = []
    stack = [(top, root_leaf)]  # (vertex set, the node it hangs below)
    fresh = n
    while stack:
        x, above = stack.pop()
        if x & (x - 1):
            node = fresh
            fresh += 1
            stack.append((split[x], node))
            stack.append((x ^ split[x], node))
        else:
            node = x.bit_length() - 1
        edges.append((min(node, above), max(node, above)))
    d = Decomposition(2 * n - 2, tuple(sorted(edges)), tuple(range(n)))
    witness = validate_rank_decomposition(g, d)
    if witness.width != width[top]:
        raise ContractError(f"witness has width {witness.width}, the search found {width[top]}")
    return width[top], witness
