"""Constructive colorings driven by low-rank decompositions.

key_lemma_coloring builds, node by node over a rooted decomposition, a
coloring with at most d(k+1) colors under which no maximum clique is
monochromatic; a node costs its cut's classes, merged in one pass from those below it.
chi_bounded_coloring turns that into a proper coloring by recursing on
the color classes, each one clique number lower with no new search, as vertex
sets of the input graph on its own tree, a recursive generator run on _unwind, not
the call stack.  Both pass one bitset per color and ask the piece oracle once per
distinct twin quotient in a call.  one_join_compose realizes the 1-join tree
construction together with its rank-1 decomposition.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator
from dataclasses import dataclass
from itertools import count, islice, zip_longest

from .cuts import column_classes, nested_cut_rows
from .decomposition import (Decomposition, RootedView, _outside_classes, _table_rank, _view,
                            decomposition_rank)
from .errors import ContractError, InputError
from .graph import (Graph, _classes, _components, _renumber, _unwind, bitset, connected_components,
                    iter_bits, one_join)
from .oracles import (Coloring, _max_clique_size, chromatic_number, clique_number,
                      greedy_coloring, is_proper)

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
    """Palette bound B(s) = M << N of the recursion, (M, N) = _bound_parts(bound, s): its
    power of two one shift, linear in N, where a product level by level is quadratic."""
    m, shift = _bound_parts(bound, s)
    return m << shift


def _bound_parts(bound: ChiBoundFn, s: int) -> tuple[int, int]:
    """B(1)=1, B(s)=2^r (f(s)+1) B(s-1) as (M, N), B(s) = M·2^N: M = prod_{i=2..s}
    (f(i)+1) and N = r(s-1).  The one source of B; the coloring path never builds it."""
    if s < 1:
        raise InputError("clique number must be at least 1")
    return math.prod(bound(i) + 1 for i in range(2, s + 1)), bound.rank_budget * (s - 1)


def _piece_quotient(
    g: Graph, s: int, view: RootedView, v: int, cuts: dict
) -> tuple[list[int], Graph, int]:
    """twin_classes(piece_graph(g[s], dec, v)), the quotient on their smallest members,
    and the vertices of class zero of V_v with a piece edge or mapped to v.  The piece
    rows are read off cuts[x], the rows and columns of the cut at x in g[s] and the
    kept nodes nearest below x: an outside vertex keeps its column of the cut at v, a
    vertex below a kept child c its row of the cut at c, and a vertex of s mapped to v
    all its neighbors in s.  Row zero holds the isolated ones."""
    rows, cols, below = cuts[v]
    groups = dict(cols)  # piece row -> the vertices with that row
    for c in below:
        for row, part in cuts[c][0].items():
            groups[row] = groups.get(row, 0) | part
    _classes(g.adj, view.own[v] & s, s, groups)
    isolated = groups.get(0, 0)
    ordered = sorted(groups.items(), key=lambda item: item[1] & -item[1])
    bit = {part & -part: 1 << i for i, (_, part) in enumerate(ordered)}  # smallest member -> bit
    reps = sum(bit)  # distinct single bits, so their union
    qadj = []  # graph._renumber's loop keyed by bit, inline: this is the key lemma's hot path
    for row, _ in ordered:
        row &= reps
        q = 0
        while row:
            low = row & -row
            q |= bit[low]
            row ^= low
        qadj.append(q)
    w_mask = rows.get(0, 0) & (view.own[v] & s | ~isolated)
    return [part for _, part in ordered], Graph._trusted(len(qadj), tuple(qadj)), w_mask


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
    at most the budget d, and an oracle coloring every piece graph with at
    most k colors.  The construction then works with the measured diversity,
    so the palette is at most max(1, diversity)·(k+1), however loose d is.
    The walk runs top-down from d_input's root, or node 0 when unrooted; a root
    that carries vertices colors as an empty leaf hung above it would.
    With check=True the four inductive properties are verified at each walked node,
    against only what its step changed.
    """
    if g.n < 2:
        raise InputError("key lemma needs a graph with at least two vertices")
    if len(connected_components(g)) != 1:
        raise InputError("key lemma needs a connected graph")
    return _coloring_of(_key_lemma(g, d_input, g.vertex_mask, oracle, d, k, check, {}), g.n)


def _coloring_of(masks: list[int], n: int) -> Coloring:
    """The coloring of n vertices that gives color c to the vertices of masks[c - 1]."""
    colors = [0] * n
    for c, mask in enumerate(masks, 1):
        for u in iter_bits(mask):
            colors[u] = c
    return Coloring(tuple(colors))


def _key_lemma(
    g: Graph, dec: Decomposition, s: int, oracle: NodeColoringOracle, d: int, k: int,
    check: bool, answers: dict[tuple[int, ...], Coloring], table: list | None = None,
) -> list[int]:
    """key_lemma_coloring of g[s] and tau cut down to s, on dec's own rooted tree, as
    color classes: masks[c - 1] holds the vertices colored c, none empty.  s must
    induce a connected subgraph with at least two vertices.  Only kept nodes are
    walked, the root among them unless it passes through: a pass-through node colors
    nothing and is the origin of no edge.  One bottom-up pass finds them and merges
    their cuts' rows, whose classes give the diversity, outside classes and piece twin
    quotients.  The steps run in the view's BFS order: a step colors V_v alone, so any
    order with ancestors first gives the same colors, and this one fixes the refusal.
    answers maps a quotient's rows to the oracle's verified coloring; k is checked on every use.
    table, when given, is the output of nested_cut_rows(g, s, dec.view), read already."""
    if d < 1:
        raise InputError("diversity budget d must be at least 1")
    if k < 1:
        raise InputError("piece color budget k must be at least 1")
    view = _view(g, dec)
    pre, own = view.pre, view.own
    # refused at the first cut past d classes on a side, before any vertex is colored
    cuts, diversity = {}, 1
    for v, below, rest, rows in nested_cut_rows(g, s, view) if table is None else table:
        cols, measured = column_classes(rows, rest)
        if measured > d:
            raise ContractError(f"decomposition diversity exceeds budget {d}")
        cuts[v] = rows, cols, below
        if measured > diversity:
            diversity = measured

    palette_cap = diversity * (k + 1)
    masks: list[int] = []
    colored_mask = 0

    # BFS order: each kept node after the kept node above it
    for v, (rows, _, kept) in reversed(cuts.items()):
        zero = rows.get(0, 0)  # class zero: no neighbor outside V_v
        if check and pre[v] & s & ~colored_mask != zero:
            raise ContractError("uncolored subtree vertices differ from class zero")

        w_mask = 0
        if zero:  # else every vertex of V_v is colored already
            members, quotient, w_mask = _piece_quotient(g, s, view, v, cuts)
        if w_mask:
            qcol = answers.get(quotient.adj)
            if qcol is None:
                qcol = oracle(quotient)
                if len(qcol.colors) != quotient.n or not is_proper(quotient, qcol):
                    raise ContractError("piece oracle returned an improper coloring")
                answers[quotient.adj] = qcol
            palette = qcol.palette_size
            if palette > k:
                raise ContractError(f"piece oracle used {palette} colors, budget {k}")
            # psi1[a - 1]: the piece vertices of color a, a union of twin classes
            psi1 = [0] * palette
            for part, a in zip(members, qcol.colors):
                psi1[a - 1] |= part
            # psi2[j]: the vertices of w_mask in outside class j of the child holding them,
            # of which a child's cut has at most diversity past class zero, which must stay
            # empty; class 1 also takes v's own
            psi2 = [0, w_mask & own[v]] + [0] * (diversity - 1)
            for c in kept:
                for j, part in enumerate(_outside_classes(cuts[c][0])):
                    psi2[j] |= part & w_mask
            if psi2[0]:
                raise ContractError("piece-active vertex landed in class zero of a child")
            # one fresh class per pair (a, j) that meets, in the pairs' sorted order
            fresh = [part for one in psi1 for two in psi2 if (part := one & two)]
            # every mask lies in colored_mask: no color is on V_v while colored_vv is 0
            colored_vv = pre[v] & colored_mask
            used_on_vv = ({c for c, mask in enumerate(masks, 1) if mask & colored_vv}
                          if colored_vv else set())
            left = palette_cap - len(used_on_vv)
            if len(fresh) > left:
                raise ContractError(f"{len(fresh)} fresh color classes but only {left} colors left")
            # fresh class i takes the i-th smallest color not on V_v
            for part, c in zip(fresh, (c for c in count(1) if c not in used_on_vv)):
                if c > len(masks):  # the free colors past the palette come in order
                    masks.append(0)
                masks[c - 1] |= part
            colored_mask |= w_mask

        if check:
            _check_step(g, s, view, v, cuts, masks, w_mask)

    if sum(map(int.bit_count, masks)) != s.bit_count():
        raise ContractError("construction left some vertex uncolored")
    if len(masks) > palette_cap:
        raise ContractError("palette exceeded d(k+1)")
    return masks


def _check_step(g: Graph, s: int, view: RootedView, v: int, cuts: dict, masks: list[int],
                new: int) -> None:
    """Debug-mode verification of inductive properties 2-4 after the step at v, which
    colored new.  Colors are only ever added, the steps above v were checked, and new
    lies in V_v with no neighbor outside it, so only v, its kept children's classes
    and the edges at new are read."""
    vv, kept = view.pre[v] & s, cuts[v][2]
    colored = 0
    for mask in masks:
        colored |= mask
    # property 2: the ends of the edges with origin v are colored, as are the vertices
    # mapped to v.  Below a kept child c an end has a neighbor in V_v - V_c, so its row
    # of the cut at c meets V_v; a vertex mapped to v is an end with any neighbor in V_v
    home, ends = view.own[v] & s, 0
    for c in kept:
        for row, part in cuts[c][0].items():
            if row & vv:
                ends |= part
    ends |= bitset(u for u in iter_bits(home) if g.adj[u] & vv)
    if ends & ~colored:
        raise ContractError("edge with processed origin has uncolored endpoint")
    if home & ~colored:
        raise ContractError("vertex mapped to processed node is uncolored")
    # property 3, for the kept children alone: a class of a node x below kept child c
    # lies inside one class of c, since s - V_c is a subset of s - V_x, and no
    # unprocessed node outside V_v's subtree meets V_v
    confined = {}  # new vertex u -> the nonzero class of the kept child holding it
    for c in kept:
        for row, part in cuts[c][0].items():
            seen = part & colored
            if seen & (seen - 1) and any(0 < seen & mask < seen for mask in masks):
                raise ContractError("class of an unprocessed subtree is multicolored")
            if row:
                confined.update(dict.fromkeys(iter_bits(part & new), part))
    # property 4: an edge this step made monochromatic lies inside one nonzero class
    # of the kept child holding it
    for mask in masks:
        for u in iter_bits(mask & new):
            if g.adj[u] & mask & ~confined.get(u, 0):
                raise ContractError("monochromatic edge not confined to a nonzero outside class")


def chi_bounded_coloring(
    g: Graph,
    dec: Decomposition,
    oracle: NodeColoringOracle,
    bound: ChiBoundFn,
    check: bool = False,
) -> Coloring:
    """Proper coloring of g within color_bound(bound, omega(g)).

    Recursion on the clique number: the key-lemma coloring splits every
    maximum clique, each color class is recolored as a vertex set of g on the
    same tree, and the classes' colors are laid end to end.
    """
    return _coloring_and_omega(g, dec, oracle, bound, check)[0]


def _coloring_and_omega(g: Graph, dec: Decomposition, oracle: NodeColoringOracle, bound: ChiBoundFn,
                        check: bool) -> tuple[Coloring, int, tuple[int, int]]:
    """chi_bounded_coloring's coloring, omega(g), which it searches once, and the
    palette bound (M, N) = _bound_parts(bound, max(omega, 1)) it was checked against,
    as ceil(palette / 2^N) <= M, with no B built.  The nested
    cut rows of the whole vertex set are read once: the rank check, which refuses
    before the clique search, takes its rank from them, and the key lemma on a
    connected g reuses them."""
    table = list(nested_cut_rows(g, g.vertex_mask, _view(g, dec)))
    rank = _table_rank(table)
    if rank > bound.rank_budget:
        raise ContractError(
            f"decomposition rank {rank} exceeds budget {bound.rank_budget}"
        )
    omega = clique_number(g)
    masks = _color_recursive(g, dec, oracle, bound, check, omega + 1, table)
    result = _coloring_of(masks, g.n)
    m, shift = _bound_parts(bound, max(omega, 1))
    if not is_proper(g, result):
        raise ContractError("constructed coloring is not proper")
    if -(-result.palette_size >> shift) > m:
        raise ContractError("constructed coloring exceeds the color bound")
    return result, omega, (m, shift)


def _color_recursive(
    g: Graph, dec: Decomposition, oracle: NodeColoringOracle, bound: ChiBoundFn,
    check: bool, below: int, table: list,
) -> list[int]:
    """The color classes, one bitset per color, of a coloring of g, whose clique number
    must be less than below.  color(s, claim), from s = V(g) and claim = below - 1,
    colors each component of g[s] within color_bound(bound, claim), with no clique
    search.  The vertices with no neighbor in s take the first color, as one mask, and
    only the rest is split into components.  The key lemma splits every maximum clique
    of any other component, so each of its classes has clique number below the claim
    and is colored by color(part, claim - 1), its colors after those of the classes
    before it.  The components share one palette, merged color by color.  A claim
    above the true one only loosens k = f(claim), which picks no color.  A component
    under a claim below 2, or with check=True one with a clique past its claim, is
    refused.  Each call is yielded to _unwind, so the recursion, one level per clique
    number, is not bounded by the call stack.  table holds the nested cut rows of V(g),
    which the key lemma on the whole vertex set reads instead of walking the tree again.
    One answers dict, _key_lemma's piece-oracle cache, serves the whole recursion."""

    adj, whole, answers = g.adj, g.vertex_mask, {}
    budget = 1 << min(bound.rank_budget, g.n.bit_length())

    def color(s: int, claim: int) -> Generator:
        seen, left = 0, s  # the vertices with a neighbor in s, by symmetry of adj
        while left:
            low = left & -left
            seen |= adj[low.bit_length() - 1]
            left ^= low
        isolated = s & ~seen
        masks = [isolated] if isolated else []
        for comp in _components(adj, s & ~isolated):
            if claim < 2 or check and _max_clique_size(adj, comp, claim) > claim:
                raise ContractError("a color class kept the clique number")
            line: list[int] = []  # the component's classes, its parts' end to end
            # _key_lemma measures the diversity against the budget 2^r, capped past n
            for part in _key_lemma(g, dec, comp, oracle, budget, bound(claim),
                                   check, answers, table if comp == whole else None):
                line += (yield color(part, claim - 1)) if part & (part - 1) else [part]
            masks = [a | b for a, b in zip_longest(masks, line, fillvalue=0)]
        return masks

    return _unwind(color(whole, below - 1))


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


def _vertex_ids(jt: JoinTree) -> dict[tuple[int, int], int]:
    """The global id of every (piece, vertex): those that no join consumes take
    0..n-1 in (piece, vertex) order, then the markers take n, n+1, ..."""
    markers = {(i, w) for e in jt.joins
               for i, w in ((e.left, e.left_marker), (e.right, e.right_marker))}
    labels = [(i, u) for i, piece in enumerate(jt.pieces) for u in range(piece.n)]
    return {label: k for k, label in enumerate(sorted(labels, key=markers.__contains__))}


def one_join_compose(
    jt: JoinTree, check: bool = False
) -> tuple[Graph, Decomposition, dict[tuple[int, int], int]]:
    """Compose the pieces along the join tree; emit the rank-1 decomposition.

    All pieces, markers included, are rows of one bitset graph, and each 1-join
    is applied in place: with both markers' neighborhoods read first, every
    neighbor of one marker drops it and gains the other's neighborhood.  The
    joins' order does not matter: u and w end adjacent exactly when, along the
    tree path between their pieces, u sees the first marker, each inner
    piece's two markers are adjacent and the last marker sees w.  No live row
    keeps a joined marker's bit, so the first n rows are the composed graph.
    With check=True the composition is also replayed as sequential pairwise
    joins in two different edge orders and compared.
    """
    ids = _vertex_ids(jt)
    n = len(ids) - 2 * len(jt.joins)
    adj = [0] * len(ids)
    for i, piece in enumerate(jt.pieces):
        new = [ids[(i, u)] for u in range(piece.n)]
        for k, row in zip(new, _renumber(piece.adj, new)):
            adj[k] = row
    for e in jt.joins:
        a, b = ids[(e.left, e.left_marker)], ids[(e.right, e.right_marker)]
        na, nb, bit_a, bit_b = adj[a], adj[b], 1 << a, 1 << b
        for u in iter_bits(na):
            adj[u] = adj[u] ^ bit_a | nb
        for w in iter_bits(nb):
            adj[w] = adj[w] ^ bit_b | na
    vmap = dict(islice(ids.items(), n))
    dec = Decomposition(
        num_nodes=len(jt.pieces),
        tree_edges=tuple((e.left, e.right) for e in jt.joins),
        tau=tuple(i for i, _ in vmap),
    )
    composed = Graph._trusted(n, tuple(adj[:n]))
    rank = decomposition_rank(composed, dec)
    if rank > 1:
        raise ContractError(f"1-join decomposition has rank {rank} > 1")
    if check:
        for order in (list(jt.joins), list(reversed(jt.joins))):
            if compose_sequential(jt, order) != composed:
                raise ContractError("sequential join replay disagrees with composition")
    return composed, dec, vmap


def compose_sequential(jt: JoinTree, edge_order: list[JoinEdge]) -> Graph:
    """Oracle route: apply pairwise 1-joins in the given order, a permutation of jt.joins.

    Returns the composed graph relabeled to the same global ids that
    one_join_compose assigns, so results are directly comparable.
    """
    if len(edge_order) != len(jt.joins) or set(edge_order) != set(jt.joins):
        raise InputError("edge order must be a permutation of the join tree's joins")
    comp_of = list(range(len(jt.pieces)))
    # component -> its graph and the (piece, vertex) label of each of its vertices
    comps = {i: (p, [(i, u) for u in range(p.n)]) for i, p in enumerate(jt.pieces)}
    for e in edge_order:
        ca, cb = comp_of[e.left], comp_of[e.right]
        (ga, la), (gb, lb) = comps[ca], comps.pop(cb)
        va, vb = la.index((e.left, e.left_marker)), lb.index((e.right, e.right_marker))
        # one_join keeps each side's order, ga's first, so the labels join by slicing
        comps[ca] = one_join(ga, va, gb, vb)[0], la[:va] + la[va + 1:] + lb[:vb] + lb[vb + 1:]
        comp_of = [ca if c == cb else c for c in comp_of]
    ((final, labels),) = comps.values()
    vmap = _vertex_ids(jt)
    new = [vmap[label] for label in labels]  # vertex i of final is vertex new[i]
    rows = (final.adj[i] for i in sorted(range(final.n), key=new.__getitem__))
    return Graph(final.n, _renumber(rows, new))
