"""Constructive colorings driven by low-rank decompositions.

key_lemma_coloring builds, node by node over a rooted decomposition, a
coloring with at most d(k+1) colors under which no maximum clique is
monochromatic.  chi_bounded_coloring turns that into a proper coloring by
recursing on the clique number over the color classes.  one_join_compose
realizes the 1-join tree construction together with its rank-1 decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .decomposition import (
    Decomposition,
    decomposition_diversity,
    decomposition_rank,
    origin,
    outside_partition,
    piece_graph,
    restrict,
    root_normalize,
)
from .errors import ContractError, InputError
from .graph import Graph, bitset, connected_components, induced_subgraph, is_connected, iter_bits, twin_classes
from .oracles import Coloring, chromatic_number, clique_number, greedy_coloring, is_proper

NodeColoringOracle = Callable[[Graph], Coloring]


def exact_node_oracle(g: Graph) -> Coloring:
    """Default piece-coloring oracle: exact chromatic number."""
    return chromatic_number(g)[1]


def greedy_node_oracle(budget: int) -> NodeColoringOracle:
    """Greedy fallback for larger pieces; raises if the budget is exceeded."""

    def oracle(g: Graph) -> Coloring:
        c = greedy_coloring(g)
        if c.palette_size > budget:
            raise ContractError(
                f"greedy piece coloring needs {c.palette_size} colors, budget {budget}"
            )
        return c

    return oracle


@dataclass(frozen=True)
class ChiBoundFn:
    """Clique-number-to-color-budget table f plus the rank budget r.

    table[s-1] is f(s); arguments beyond the table reuse the last entry.
    """

    table: tuple[int, ...]
    rank_budget: int

    def __post_init__(self) -> None:
        if not self.table or any(v < 1 for v in self.table):
            raise InputError("color budgets must be positive")
        if list(self.table) != sorted(self.table):
            raise InputError("color budget table must be nondecreasing")
        if self.rank_budget < 0:
            raise InputError("rank budget must be nonnegative")

    def __call__(self, s: int) -> int:
        if s < 1:
            raise InputError("clique number must be at least 1")
        return self.table[min(s, len(self.table)) - 1]

    @classmethod
    def constant(cls, value: int, rank_budget: int) -> "ChiBoundFn":
        return cls((value,), rank_budget)


def color_bound(bound: ChiBoundFn, s: int) -> int:
    """Palette bound B(s) of the recursion: B(1)=1, B(s)=2^r (f(s)+1) B(s-1)."""
    if s < 1:
        raise InputError("clique number must be at least 1")
    b = 1
    for i in range(2, s + 1):
        b *= (1 << bound.rank_budget) * (bound(i) + 1)
    return b


def _twin_consistent_proper_coloring(
    piece: Graph, oracle: NodeColoringOracle, k: int
) -> list[int]:
    """Proper coloring of piece, constant on twin classes, via quotient+lift.

    Twin classes are pairwise fully joined or fully non-adjacent, so the
    quotient on class representatives is an induced subgraph and the oracle's
    budget transfers.
    """
    classes = twin_classes(piece)
    reps = [(m & -m).bit_length() - 1 for m in classes]
    quotient, remap = induced_subgraph(piece, bitset(reps))
    qcol = oracle(quotient)
    if not is_proper(quotient, qcol):
        raise ContractError("piece oracle returned an improper coloring")
    if qcol.palette_size > k:
        raise ContractError(
            f"piece oracle used {qcol.palette_size} colors, budget {k}"
        )
    lifted = [0] * piece.n
    for mask, rep in zip(classes, reps):
        c = qcol.colors[remap[rep]]
        for u in iter_bits(mask):
            lifted[u] = c
    return lifted


def key_lemma_coloring(
    g: Graph,
    d_input: Decomposition,
    oracle: NodeColoringOracle,
    d: int,
    k: int,
    check: bool = False,
) -> Coloring:
    """Color g with at most d(k+1) colors so no maximum clique is monochromatic.

    Requires g connected with at least two vertices, decomposition diversity
    at most d, and an oracle coloring every piece graph with at most k colors.
    With check=True the four inductive properties of the construction are
    verified after every node step.
    """
    if g.n < 2:
        raise InputError("key lemma needs a graph with at least two vertices")
    if not is_connected(g):
        raise InputError("key lemma needs a connected graph")
    if d < 1:
        raise InputError("diversity budget d must be at least 1")
    if k < 1:
        raise InputError("piece color budget k must be at least 1")
    dec = root_normalize(d_input)
    diversity = decomposition_diversity(g, dec)
    if diversity > d:
        raise ContractError(f"decomposition diversity {diversity} exceeds budget {d}")

    view = dec.view
    order, parent, pre = view.order, view.parent, view.pre
    classes = {v: outside_partition(g, dec, v) for v in order[1:]}
    class_of: dict[int, dict[int, int]] = {}
    for v, parts in classes.items():
        lookup: dict[int, int] = {}
        for j, mask in enumerate(parts):
            for u in iter_bits(mask):
                lookup[u] = j
        class_of[v] = lookup

    palette_cap = d * (k + 1)
    phi: dict[int, int] = {}
    colored_mask = 0

    for step, v in enumerate(order[1:], start=2):
        vv = pre[v]
        used_on_vv = {phi[u] for u in iter_bits(vv & colored_mask)}
        if len(used_on_vv) > d:
            raise ContractError(
                f"{len(used_on_vv)} colors already on a subtree preimage, budget {d}"
            )
        uncolored = vv & ~colored_mask
        if check and uncolored != classes[v][0]:
            raise ContractError("uncolored subtree vertices differ from class zero")

        w_list: list[int] = []
        if classes[v][0]:  # else every vertex of V_v is colored already
            piece = piece_graph(g, dec, v)
            w_list = [
                u
                for u in iter_bits(classes[v][0])
                if piece.adj[u] or dec.tau[u] == v
            ]
        if not w_list:
            if check:
                _check_step(g, dec, order[:step], phi, classes)
            continue

        psi1 = _twin_consistent_proper_coloring(piece, oracle, k)
        psi2: dict[int, int] = {}
        for u in w_list:
            if dec.tau[u] == v:
                psi2[u] = 1
            else:
                child = dec.tau[u]
                while parent[child] != v:
                    child = parent[child]
                j = class_of[child][u]
                if j < 1:
                    raise ContractError("piece-active vertex landed in class zero of a child")
                psi2[u] = j

        pairs = sorted({(psi1[u], psi2[u]) for u in w_list})
        fresh = [c for c in range(1, palette_cap + 1) if c not in used_on_vv]
        if len(pairs) > len(fresh):
            raise ContractError(
                f"{len(pairs)} fresh color classes but only {len(fresh)} colors left"
            )
        assignment = {pair: fresh[i] for i, pair in enumerate(pairs)}
        for u in w_list:
            phi[u] = assignment[(psi1[u], psi2[u])]
            colored_mask |= 1 << u

        if check:
            _check_step(g, dec, order[:step], phi, classes)

    if len(phi) != g.n:
        raise ContractError("construction left some vertex uncolored")
    result = Coloring(tuple(phi[u] for u in range(g.n)))
    if result.palette_size > palette_cap:
        raise ContractError("palette exceeded d(k+1)")
    return result


def _check_step(
    g: Graph,
    dec: Decomposition,
    processed: list[int],
    phi: dict[int, int],
    classes: dict[int, list[int]],
) -> None:
    """Debug-mode verification of the four inductive step properties."""
    processed_set = set(processed)
    # property 2: vertices incident to edges with processed origin are colored,
    # as are all vertices mapped to processed nodes
    for u, w in g.edges():
        if origin(dec, u, w) in processed_set:
            if u not in phi or w not in phi:
                raise ContractError("edge with processed origin has uncolored endpoint")
    for u in range(g.n):
        if dec.tau[u] in processed_set and u not in phi:
            raise ContractError("vertex mapped to processed node is uncolored")
    # property 3: classes of unprocessed subtrees are uniformly colored or untouched
    for v, parts in classes.items():
        if v in processed_set:
            continue
        for mask in parts:
            cols = {phi[u] for u in iter_bits(mask) if u in phi}
            if len(cols) > 1:
                raise ContractError("class of an unprocessed subtree is multicolored")
    # property 4: a monochromatic edge lies inside some V_v^j with j >= 1
    for u, w in g.edges():
        if u in phi and w in phi and phi[u] == phi[w]:
            both = (1 << u) | (1 << w)
            if not any(
                mask & both == both
                for parts in classes.values()
                for mask in parts[1:]
            ):
                raise ContractError(
                    "monochromatic edge not confined to a nonzero outside class"
                )


def chi_bounded_coloring(
    g: Graph,
    dec: Decomposition,
    oracle: NodeColoringOracle,
    bound: ChiBoundFn,
    check: bool = False,
) -> Coloring:
    """Proper coloring of g within color_bound(bound, omega(g)).

    Recursion on the clique number: the key-lemma coloring splits every
    maximum clique, each color class is restricted and recolored, and the
    (outer, inner) color pairs are flattened.
    """
    rank = decomposition_rank(g, dec)
    if rank > bound.rank_budget:
        raise ContractError(
            f"decomposition rank {rank} exceeds budget {bound.rank_budget}"
        )
    omega = clique_number(g)
    result = _color_recursive(g, dec, oracle, bound, check, omega)
    if g.n:
        if not is_proper(g, result):
            raise ContractError("constructed coloring is not proper")
        if result.palette_size > color_bound(bound, omega):
            raise ContractError("constructed coloring exceeds the color bound")
    return result


def _color_recursive(
    g: Graph,
    dec: Decomposition,
    oracle: NodeColoringOracle,
    bound: ChiBoundFn,
    check: bool,
    omega: int,
) -> Coloring:
    """Coloring of g within color_bound(bound, omega), where omega = ω(g)."""
    if g.n == 0:
        return Coloring(())
    if omega <= 1:
        return Coloring((1,) * g.n)

    comps = connected_components(g)
    if len(comps) > 1:
        # components are colored independently with a shared palette
        colors = [0] * g.n
        for comp in comps:
            sub_g, sub_d, remap = restrict(g, dec, comp)
            sub = _color_recursive(sub_g, sub_d, oracle, bound, check, clique_number(sub_g))
            for old, new in remap.items():
                colors[old] = sub.colors[new]
        return Coloring(tuple(colors))

    d = max(1, min(decomposition_diversity(g, dec), 1 << bound.rank_budget))
    k = bound(omega)
    phi = key_lemma_coloring(g, dec, oracle, d, k, check)

    outer_colors = sorted(set(phi.colors))
    inner: dict[int, Coloring] = {}
    remaps: dict[int, dict[int, int]] = {}
    widest = 1
    for c in outer_colors:
        mask = bitset(u for u in range(g.n) if phi.colors[u] == c)
        sub_g, sub_d, remap = restrict(g, dec, mask)
        sub_omega = clique_number(sub_g)
        if sub_omega >= omega:
            raise ContractError("a color class kept the clique number")
        sub = _color_recursive(sub_g, sub_d, oracle, bound, check, sub_omega)
        inner[c] = sub
        remaps[c] = remap
        widest = max(widest, sub.palette_size)

    flat = [0] * g.n
    for idx, c in enumerate(outer_colors):
        remap = remaps[c]
        for old, new in remap.items():
            flat[old] = idx * widest + inner[c].colors[new]
    # compress to 1..m preserving distinctness
    rank_of = {val: i + 1 for i, val in enumerate(sorted(set(flat)))}
    return Coloring(tuple(rank_of[val] for val in flat))


# --- 1-join trees -----------------------------------------------------------


@dataclass(frozen=True)
class JoinEdge:
    """Tree edge between pieces left/right with their marker vertices."""

    left: int
    right: int
    left_marker: int
    right_marker: int


@dataclass(frozen=True)
class JoinTree:
    """Pieces plus a tree of pairwise 1-joins at distinguished markers."""

    pieces: tuple[Graph, ...]
    joins: tuple[JoinEdge, ...]

    def __post_init__(self) -> None:
        p = len(self.pieces)
        if p < 1:
            raise InputError("join tree needs at least one piece")
        # raises unless the joins form a tree over the pieces
        Decomposition(p, tuple((e.left, e.right) for e in self.joins), ())
        markers: dict[int, set[int]] = {i: set() for i in range(p)}
        for e in self.joins:
            for piece, marker in ((e.left, e.left_marker), (e.right, e.right_marker)):
                if not 0 <= marker < self.pieces[piece].n:
                    raise InputError(f"marker {marker} out of range in piece {piece}")
                if marker in markers[piece]:
                    raise InputError(f"marker {marker} of piece {piece} used twice")
                markers[piece].add(marker)


def _marker_sets(jt: JoinTree) -> tuple[dict[tuple[int, int], int], list[list[int]]]:
    marker_of: dict[tuple[int, int], int] = {}
    nbr: list[list[int]] = [[] for _ in jt.pieces]
    for e in jt.joins:
        marker_of[(e.left, e.right)] = e.left_marker
        marker_of[(e.right, e.left)] = e.right_marker
        nbr[e.left].append(e.right)
        nbr[e.right].append(e.left)
    return marker_of, nbr


def one_join_compose(
    jt: JoinTree, check: bool = False
) -> tuple[Graph, Decomposition, dict[tuple[int, int], int]]:
    """Compose the pieces along the join tree; emit the rank-1 decomposition.

    Cross edges are found by propagating marker-neighborhood frontiers over
    the tree, which makes the result manifestly independent of any join
    order.  With check=True the composition is also replayed as sequential
    pairwise joins in two different edge orders and compared.
    """
    marker_of, nbr = _marker_sets(jt)
    consumed = [bitset(marker_of[(i, j)] for j in nbr[i]) for i in range(len(jt.pieces))]
    vmap: dict[tuple[int, int], int] = {}
    for i, piece in enumerate(jt.pieces):
        for u in range(piece.n):
            if not consumed[i] >> u & 1:
                vmap[(i, u)] = len(vmap)
    n = len(vmap)

    frontier_memo: dict[tuple[int, int], int] = {}

    def frontier(i: int, j: int) -> int:
        """Global bitset transmitted from piece i's side across tree edge (i, j)."""
        key = (i, j)
        if key in frontier_memo:
            return frontier_memo[key]
        w = marker_of[key]
        s = 0
        for u in iter_bits(jt.pieces[i].adj[w] & ~consumed[i]):
            s |= 1 << vmap[(i, u)]
        for h in nbr[i]:
            if h != j and jt.pieces[i].has_edge(w, marker_of[(i, h)]):
                s |= frontier(h, i)
        frontier_memo[key] = s
        return s

    adj = [0] * n
    for i, piece in enumerate(jt.pieces):
        for u, w in piece.edges():
            if consumed[i] >> u & 1 or consumed[i] >> w & 1:
                continue
            gu, gw = vmap[(i, u)], vmap[(i, w)]
            adj[gu] |= 1 << gw
            adj[gw] |= 1 << gu
    for e in jt.joins:
        left = frontier(e.left, e.right)
        right = frontier(e.right, e.left)
        for u in iter_bits(left):
            adj[u] |= right
        for w in iter_bits(right):
            adj[w] |= left
    composed = Graph(n, tuple(adj))

    tau = [0] * n
    for (i, _), gid in vmap.items():
        tau[gid] = i
    dec = Decomposition(
        num_nodes=len(jt.pieces),
        tree_edges=tuple((e.left, e.right) for e in jt.joins),
        tau=tuple(tau),
    )
    rank = decomposition_rank(composed, dec)
    if rank > 1:
        raise ContractError(f"1-join decomposition has rank {rank} > 1")
    if check:
        for order in (list(jt.joins), list(reversed(jt.joins))):
            if compose_sequential(jt, order) != composed:
                raise ContractError("sequential join replay disagrees with composition")
    return composed, dec, vmap


def compose_sequential(jt: JoinTree, edge_order: list[JoinEdge]) -> Graph:
    """Oracle route: apply pairwise 1-joins in the given order.

    Returns the composed graph relabeled to the same global ids that
    one_join_compose assigns, so results are directly comparable.
    """
    from .graph import one_join

    marker_of, nbr = _marker_sets(jt)
    consumed = [bitset(marker_of[(i, j)] for j in nbr[i]) for i in range(len(jt.pieces))]
    vmap: dict[tuple[int, int], int] = {}
    for i, piece in enumerate(jt.pieces):
        for u in range(piece.n):
            if not consumed[i] >> u & 1:
                vmap[(i, u)] = len(vmap)

    comp_of = list(range(len(jt.pieces)))
    graphs: dict[int, Graph] = dict(enumerate(jt.pieces))
    labels: dict[int, list[tuple[int, int]]] = {
        i: [(i, u) for u in range(p.n)] for i, p in enumerate(jt.pieces)
    }
    for e in edge_order:
        ca, cb = comp_of[e.left], comp_of[e.right]
        ga, gb = graphs[ca], graphs[cb]
        la, lb = labels[ca], labels[cb]
        va = la.index((e.left, e.left_marker))
        vb = lb.index((e.right, e.right_marker))
        joined, map_a, map_b = one_join(ga, va, gb, vb)
        merged: list[tuple[int, int]] = [(-1, -1)] * joined.n
        for old, new in map_a.items():
            merged[new] = la[old]
        for old, new in map_b.items():
            merged[new] = lb[old]
        graphs[ca] = joined
        labels[ca] = merged
        for i, c in enumerate(comp_of):
            if c == cb:
                comp_of[i] = ca
        del graphs[cb], labels[cb]

    (final,) = graphs.values()
    (final_labels,) = labels.values()
    perm = [0] * final.n
    for pos, label in enumerate(final_labels):
        perm[pos] = vmap[label]
    adj = [0] * final.n
    for pos in range(final.n):
        row = 0
        for q in iter_bits(final.adj[pos]):
            row |= 1 << perm[q]
        adj[perm[pos]] = row
    return Graph(final.n, tuple(adj))
