"""Tree decompositions (tree + total vertex mapping), their cuts and pieces.

A decomposition is a tree T over dense node ids together with a total map tau
from graph vertices to tree nodes.  Every tree edge induces a cut of the
graph; the rank/diversity of the decomposition is the maximum over its edges.

All cuts, pieces, outside classes and origins are read off one rooted view
(Decomposition.view), built by a single breadth-first pass from the root, or
node 0 when unrooted.  Every tree edge is (parent[v], v) with cut pre[v], the
vertices mapped into the subtree at v, so rank and diversity take one pass
over the nodes and a piece graph one bitset mask per vertex.  Restrictions
share the tree part of the view and rebuild only pre.  Rank-decompositions
and exhaustive exact rank-width search live here too.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, replace
from functools import cached_property

from .config import LIMITS
from .cuts import cut_rank_of
from .errors import InputError, ResourceError, StateError, ValidationError
from .graph import Graph, induced_subgraph, iter_bits


@dataclass(frozen=True)
class RootedView:
    """The tree in BFS order from root over ascending adj; parent[root] is -1.

    pre[x] is the bitset of vertices mapped into the subtree at x; it is
    empty in the tree-only part that restrictions share.
    """

    root: int
    adj: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]
    parent: tuple[int, ...]
    depth: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    pre: tuple[int, ...] = ()


def _root_tree(num_nodes: int, tree_edges: tuple[tuple[int, int], ...], root: int) -> RootedView:
    """Breadth-first pass from root; raises InputError unless the edges form a tree."""
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for a, b in tree_edges:
        if not (0 <= a < num_nodes and 0 <= b < num_nodes) or a == b:
            raise InputError(f"bad tree edge ({a},{b})")
        adj[a].append(b)
        adj[b].append(a)
    for nbrs in adj:
        nbrs.sort()
    parent = [-1] * num_nodes
    depth = [0] * num_nodes
    children: list[list[int]] = [[] for _ in range(num_nodes)]
    seen = [False] * num_nodes
    seen[root] = True
    order = [root]
    for x in order:
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                depth[y] = depth[x] + 1
                children[x].append(y)
                order.append(y)
    if len(order) != num_nodes:
        raise InputError("tree edges do not form a connected tree")
    return RootedView(
        root,
        tuple(map(tuple, adj)),
        tuple(order),
        tuple(parent),
        tuple(depth),
        tuple(map(tuple, children)),
    )


@dataclass(frozen=True)
class Decomposition:
    """Tree over num_nodes node ids plus tau: vertex index -> node id.

    shared_tree, the tree-only view of a decomposition with the same tree and
    root, is trusted instead of rebuilt.
    """

    num_nodes: int
    tree_edges: tuple[tuple[int, int], ...]
    tau: tuple[int, ...]
    root: int | None = None
    shared_tree: InitVar[RootedView | None] = None

    def __post_init__(self, shared_tree: RootedView | None) -> None:
        k = self.num_nodes
        if k < 1:
            raise InputError("decomposition needs at least one node")
        if len(self.tree_edges) != k - 1:
            raise InputError("tree must have exactly num_nodes - 1 edges")
        if self.root is not None and not 0 <= self.root < k:
            raise InputError("root out of range")
        tree = shared_tree
        if tree is None:
            tree = _root_tree(k, self.tree_edges, 0 if self.root is None else self.root)
        object.__setattr__(self, "_tree", tree)
        for v, node in enumerate(self.tau):
            if not 0 <= node < k:
                raise InputError(f"tau maps vertex {v} to a non-node")
        if self.root is not None:
            if len(tree.adj[self.root]) > 1:
                raise InputError("root must be a leaf")
            if any(node == self.root for node in self.tau):
                raise InputError("root leaf must have an empty preimage")

    @cached_property
    def view(self) -> RootedView:
        """The rooted tree with pre[v] for this tau, built on first use."""
        tree = self._tree
        pre = [0] * self.num_nodes
        for v, node in enumerate(self.tau):
            pre[node] |= 1 << v
        for x in reversed(tree.order[1:]):
            pre[tree.parent[x]] |= pre[x]
        return replace(tree, pre=tuple(pre))

    def node_adjacency(self) -> list[list[int]]:
        return [list(nbrs) for nbrs in self._tree.adj]


@dataclass(frozen=True)
class RankDecomposition:
    """A validated rank-decomposition together with its width."""

    decomposition: Decomposition
    width: int


def _rooted_view(d: Decomposition) -> RootedView:
    if d.root is None:
        raise StateError("decomposition is not rooted")
    return d.view


def edge_cut(g: Graph, d: Decomposition, e: tuple[int, int]) -> tuple[int, int]:
    """Vertex bitsets of the two sides induced by tree edge e (a-side first)."""
    a, b = e
    view = d.view
    if 0 <= a < d.num_nodes and 0 <= b < d.num_nodes:
        if view.parent[b] == a:
            side_b = view.pre[b]
            return g.vertex_mask & ~side_b, side_b
        if view.parent[a] == b:
            side_a = view.pre[a]
            return side_a, g.vertex_mask & ~side_a
    raise InputError(f"({a},{b}) is not a tree edge")


def decomposition_rank(g: Graph, d: Decomposition) -> int:
    view = d.view
    return max((cut_rank_of(g, view.pre[v]) for v in view.order[1:]), default=0)


def decomposition_diversity(g: Graph, d: Decomposition) -> int:
    """Max over tree edges of the cut's max(#distinct rows, #distinct columns)."""
    view = d.view
    full = g.vertex_mask
    best = 0
    for v in view.order[1:]:
        side = view.pre[v]
        other = full & ~side
        if side and other:
            rows = set()
            reached = 0
            for u in iter_bits(side):
                row = g.adj[u] & other
                rows.add(row)
                reached |= row
            cols = {g.adj[w] & side for w in iter_bits(reached)}
            if other & ~reached:  # the columns of unreached vertices are all zero
                cols.add(0)
            best = max(best, len(rows), len(cols))
    return best


def piece_graph(g: Graph, d: Decomposition, v: int) -> Graph:
    """Spanning subgraph keeping edges whose endpoint images straddle node v.

    Drops the edges inside one component of T - v: a child subtree of v, or
    everything outside the subtree at v.
    """
    if not 0 <= v < d.num_nodes:
        raise InputError(f"node {v} out of range")
    view = d.view
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
    view = _rooted_view(d)
    return list(view.parent), list(view.depth)


def origin(d: Decomposition, u: int, w: int) -> int:
    """Nearest common ancestor of tau(u) and tau(w) in the rooted tree: the
    lowest node above tau(u) whose subtree preimage contains w."""
    view = _rooted_view(d)
    if not (0 <= u < len(d.tau) and 0 <= w < len(d.tau)):
        raise InputError(f"vertex pair ({u},{w}) out of range")
    x = d.tau[u]
    while not view.pre[x] >> w & 1:
        x = view.parent[x]
    return x


def subtree_preimages(g: Graph, d: Decomposition) -> list[int]:
    """For each node v, the bitset of vertices mapped into the subtree at v."""
    return list(_rooted_view(d).pre)


def outside_partition(g: Graph, d: Decomposition, v: int) -> list[int]:
    """Partition of the subtree preimage V_v by neighborhoods outside V_v.

    Index 0 is the class with no outside neighbors (possibly empty); the
    remaining classes are ordered by their outside-neighborhood bitsets.
    """
    view = _rooted_view(d)
    if v == d.root:
        raise InputError("outside partition is undefined at the root")
    vv = view.pre[v]
    groups: dict[int, int] = {}
    for u in iter_bits(vv):
        out = g.adj[u] & ~vv
        groups[out] = groups.get(out, 0) | (1 << u)
    classes = [groups.pop(0, 0)]
    classes.extend(groups[key] for key in sorted(groups))
    return classes


def restrict(g: Graph, d: Decomposition, s: int) -> tuple[Graph, Decomposition, dict[int, int]]:
    """Induced subgraph on s with tau restricted; tree and root unchanged."""
    h, remap = induced_subgraph(g, s)
    tau = [0] * h.n
    for old, new in remap.items():
        tau[new] = d.tau[old]
    return h, replace(d, tau=tuple(tau), shared_tree=d._tree), remap


def root_normalize(d: Decomposition) -> Decomposition:
    """Ensure a root leaf with empty preimage, attaching a fresh leaf if needed.

    The added edge induces the degenerate (empty, V) cut of rank zero, so rank
    and diversity are unchanged.
    """
    if d.root is not None:
        return d
    adj = d._tree.adj
    used = set(d.tau)
    for v in range(d.num_nodes):
        if len(adj[v]) <= 1 and v not in used:
            return replace(d, root=v)
    fresh = d.num_nodes
    return Decomposition(
        num_nodes=d.num_nodes + 1,
        tree_edges=d.tree_edges + ((0, fresh),),
        tau=d.tau,
        root=fresh,
    )


def star_decomposition(g: Graph) -> Decomposition:
    """Star tree with every vertex on its own leaf and an empty center."""
    n = g.n
    if n == 0:
        return Decomposition(1, (), ())
    edges = tuple((0, i + 1) for i in range(n))
    return Decomposition(n + 1, edges, tuple(v + 1 for v in range(n)))


def validate_rank_decomposition(g: Graph, d: Decomposition) -> RankDecomposition:
    """Check the cubic-tree/leaf-bijection shape and report the width."""
    adj = d._tree.adj
    leaves = {v for v in range(d.num_nodes) if len(adj[v]) <= 1}
    for v in range(d.num_nodes):
        if v not in leaves and len(adj[v]) != 3:
            raise ValidationError(f"inner node {v} has degree {len(adj[v])}, expected 3")
    if len(set(d.tau)) != len(d.tau):
        raise ValidationError("tau is not injective")
    for v, node in enumerate(d.tau):
        if node not in leaves:
            raise ValidationError(f"vertex {v} is mapped to inner node {node}")
    uncovered = leaves - set(d.tau)
    if uncovered:
        raise ValidationError(f"leaves {sorted(uncovered)} carry no vertex")
    return RankDecomposition(d, decomposition_rank(g, d))


def exact_rank_width(
    g: Graph, limit: int | None = None, leaf_order: list[int] | None = None
) -> tuple[int, RankDecomposition]:
    """Minimum width over all leaf-labeled unrooted cubic trees, with witness.

    Enumerates the (2n-5)!! cubic trees by iterative leaf insertion, aborting
    the evaluation of a candidate as soon as a cut reaches the best width
    found so far.  leaf_order controls the insertion order (any permutation of
    the vertices); results agree for all orders.
    """
    n = g.n
    cap = limit if limit is not None else LIMITS.rank_width_n
    if n > cap:
        raise ResourceError(f"exact rank-width limited to n <= {cap} (got {n})")
    if n <= 1:
        d = Decomposition(1, (), tuple(0 for _ in range(n)))
        return 0, RankDecomposition(d, 0)

    order = list(range(n)) if leaf_order is None else list(leaf_order)
    if sorted(order) != list(range(n)):
        raise InputError("leaf_order must be a permutation of the vertices")

    full = g.vertex_mask
    rank_memo: dict[int, int] = {}

    def rank_of(mask: int) -> int:
        key = min(mask, full ^ mask)
        r = rank_memo.get(key)
        if r is None:
            other = full ^ key
            r = 0
            pivots: dict[int, int] = {}
            for u in iter_bits(key):
                row = g.adj[u] & other
                while row:
                    lead = row.bit_length() - 1
                    if lead in pivots:
                        row ^= pivots[lead]
                    else:
                        pivots[lead] = row
                        r += 1
                        break
            rank_memo[key] = r
        return r

    root_leaf = order[0]
    first = order[1]
    parent: dict[int, int] = {first: root_leaf}
    mask: dict[int, int] = {first: 1 << first}
    nodes = [first]  # every node except the root leaf; edge = (node, parent)
    best_width = n + 1
    best_parent: dict[int, int] | None = None

    def evaluate() -> None:
        nonlocal best_width, best_parent
        w = 0
        for v in nodes:
            r = rank_of(mask[v])
            if r > w:
                w = r
                if w >= best_width:
                    return
        best_width = w
        best_parent = dict(parent)

    def insert(idx: int) -> None:
        if idx == n:
            evaluate()
            return
        m = order[idx]
        mbit = 1 << m
        t = n + idx - 2  # one fresh internal node per inserted leaf
        for c in list(nodes):
            p = parent[c]
            parent[t] = p
            parent[c] = t
            parent[m] = t
            mask[t] = mask[c] | mbit
            mask[m] = mbit
            anc = p
            while anc != root_leaf:
                mask[anc] |= mbit
                anc = parent[anc]
            nodes.append(t)
            nodes.append(m)

            insert(idx + 1)

            nodes.pop()
            nodes.pop()
            anc = p
            while anc != root_leaf:
                mask[anc] &= ~mbit
                anc = parent[anc]
            parent[c] = p
            del parent[t], parent[m], mask[t], mask[m]

    insert(2)
    assert best_parent is not None
    num_nodes = 2 * n - 2
    # Node ids: leaves are the vertex ids, internals were allocated at n..2n-3.
    edges = tuple(sorted((v, p) if v < p else (p, v) for v, p in best_parent.items()))
    d = Decomposition(num_nodes, edges, tuple(range(n)))
    return best_width, validate_rank_decomposition(g, d)
