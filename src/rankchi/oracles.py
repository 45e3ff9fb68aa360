"""Brute-force ground truth: cliques, chromatic number, vertex-minor search.

Everything here is exact and independent of the constructive coloring code,
so it can verify the guarantees of the latter at desk scale.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from .config import check_ceiling
from .errors import InputError
from .graph import Graph, _unwind, bitset, induced_subgraph, iter_bits, local_complement


@dataclass(frozen=True)
class Coloring:
    """Total map from vertex ids to positive integer colors."""

    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(not isinstance(c, int) or c < 1 for c in self.colors):
            raise InputError("colors must be positive integers")

    @property
    def palette_size(self) -> int:
        return max(self.colors, default=0)


def maximum_cliques(g: Graph, limit: int | None = None) -> list[int]:
    """All vertex bitsets inducing cliques of size omega(g), in the order found by
    Bron-Kerbosch with pivoting: expand(r, p, x) extends the clique r by candidates p,
    x holding those tried, and branches on the candidates outside the neighborhood of
    a pivot with most neighbors in p.  Its calls run on _unwind, not the call stack."""
    check_ceiling("clique enumeration", g.n, limit, "clique_n")
    maximal: list[int] = []

    def expand(r: int, p: int, x: int) -> Generator:
        if not p | x:
            maximal.append(r)
            return
        pivot = max(iter_bits(p | x), key=lambda u: (g.adj[u] & p).bit_count())
        for v in iter_bits(p & ~g.adj[pivot]):
            yield expand(r | 1 << v, p & g.adj[v], x & g.adj[v])
            p ^= 1 << v
            x |= 1 << v

    if g.n:
        _unwind(expand(0, g.vertex_mask, 0))
    omega = max(map(int.bit_count, maximal), default=0)
    return [r for r in maximal if r.bit_count() == omega]


def _max_clique_size(adj: tuple[int, ...], cand: int, best: int = 0) -> int:
    """Size of a largest clique inside the vertex bitset cand, or best if larger.

    Branch and bound (Tomita-Seki 2003): the candidates are greedily colored
    into independent sets and tried in reverse color order, and a branch is
    cut as soon as size + color cannot beat the best clique found.  Passing
    best = s - 1 turns the search into the decision "is there an s-clique?".
    """

    def color_order(cand: int) -> list[tuple[int, int]]:
        """(vertex, color) of a greedy coloring of cand, in color order."""
        order: list[tuple[int, int]] = []
        rest, color = cand, 0
        while rest:
            color += 1
            free = rest
            while free:
                low = free & -free
                v = low.bit_length() - 1
                rest ^= low
                free &= ~(adj[v] | low)
                order.append((v, color))
        return order

    # The branch being searched is (size, cand, order); the branches above it wait on
    # a positional stack, not the call stack, nor _unwind's slower generators: a hot path.
    stack: list[tuple[int, int, list[tuple[int, int]]]] = []
    size, order = 0, color_order(cand)
    while True:
        while order:
            v, color = order.pop()
            if size + color <= best:
                break
            sub = cand & adj[v]
            cand ^= 1 << v
            if sub:
                stack.append((size, cand, order))
                size, cand, order = size + 1, sub, color_order(sub)
            elif size >= best:
                best = size + 1
        if not stack:
            return best
        size, cand, order = stack.pop()


def clique_number(g: Graph, limit: int | None = None) -> int:
    """omega(g), by branch and bound on its size; 0 for the empty graph."""
    check_ceiling("clique search", g.n, limit, "clique_n")
    return _max_clique_size(g.adj, g.vertex_mask)


def greedy_coloring(g: Graph) -> Coloring:
    """DSATUR greedy proper coloring (used as an upper bound and fallback): the
    uncolored vertex with the most distinct neighbor colors, then the highest
    degree, then the lowest id, takes the smallest color its neighbors lack."""
    n, adj = g.n, g.adj
    seen = [0] * n  # seen[v]: bitset of the colors on v's colored neighbors
    key = [row.bit_count() for row in adj]  # saturation * (n + 1) + degree
    colors = [0] * n
    uncolored = g.vertex_mask
    while uncolored:
        best, rest = -1, uncolored
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if key[v] > best:
                best, pick = key[v], v
            rest ^= low
        uncolored ^= 1 << pick
        taken = seen[pick] | 1  # bit 0 stands for no color
        colors[pick] = c = ((taken + 1) & ~taken).bit_length() - 1
        rest = adj[pick] & uncolored
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            if not seen[u] >> c & 1:
                seen[u] |= 1 << c
                key[u] += n + 1
    return Coloring(tuple(colors))


def _try_k_coloring(g: Graph, k: int) -> list[int] | None:
    """A proper coloring of g in colors 1..k, or None, by backtracking over the vertices
    by decreasing degree, each trying the colors that fit up to one past the highest
    before it.  The search path is positions 0..i of order, not the call stack, nor
    _unwind's slower generators: a hot path."""
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    colors = [0] * g.n
    # per position i: the colors on its vertex's neighbors (bit 0 stands for no color),
    # and at i + 1 the highest color up to i
    forbidden, used = [0] * g.n, [0] * (g.n + 1)
    i = 0
    while 0 <= i < g.n:
        v = order[i]
        if not colors[v]:  # a new position, not one backtracked to
            seen = 0
            for u in iter_bits(g.adj[v]):
                seen |= 1 << colors[u]
            forbidden[i] = seen
        c, top = colors[v] + 1, min(k, used[i] + 1)
        while c <= top and forbidden[i] >> c & 1:
            c += 1
        if c > top:
            colors[v] = 0
            i -= 1
        else:
            colors[v] = c
            used[i + 1] = max(used[i], c)
            i += 1
    return colors if i == g.n else None


def chromatic_number(g: Graph, limit: int | None = None) -> tuple[int, Coloring]:
    """Exact chromatic number with a witness, by branch and bound.

    Lower bound from the clique number, upper bound from DSATUR, then a
    backtracking search with symmetry breaking on the color indices.
    """
    check_ceiling("chromatic number", g.n, limit, "chromatic_n")
    lb = _max_clique_size(g.adj, g.vertex_mask)
    ub_coloring = greedy_coloring(g)
    ub = ub_coloring.palette_size
    for k in range(lb, ub):
        found = _try_k_coloring(g, k)
        if found is not None:
            return k, Coloring(tuple(found))
    return ub, ub_coloring


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff no vertex has a neighbor of its own color; the coloring must be total."""
    if len(c.colors) != g.n:
        raise InputError("coloring is not total on the vertex set")
    masks: dict[int, int] = {}
    for v, color in enumerate(c.colors):
        masks[color] = masks.get(color, 0) | 1 << v
    return not any(row & masks[color] for row, color in zip(g.adj, c.colors))


def no_max_clique_monochromatic(g: Graph, c: Coloring, limit: int | None = None) -> bool:
    """True iff every maximum clique sees at least two colors.

    For omega(g) <= 1 this is vacuously true by convention: the guarantee
    only matters when maximum cliques contain edges.
    """
    if len(c.colors) != g.n:
        raise InputError("coloring is not total on the vertex set")
    omega = clique_number(g, limit)
    if omega <= 1:
        return True
    for color in set(c.colors):
        mask = bitset(v for v in range(g.n) if c.colors[v] == color)
        if _max_clique_size(g.adj, mask, omega - 1) >= omega:
            return False
    return True


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Canonical relabeling certificate: two graphs are isomorphic iff equal.

    Branch-and-bound over vertex orderings maximizing, level by level, the
    bitset of each vertex's adjacency to the already-placed prefix.
    """
    n = g.n
    if n == 0:
        return ()
    best: tuple[int, ...] | None = None
    placed: list[int] = []
    code: list[int] = []

    def rec(placed_mask: int) -> None:
        nonlocal best
        i = len(placed)
        if i == n:
            t = tuple(code)
            if best is None or t > best:
                best = t
            return
        candidates = []
        for v in range(n):
            if placed_mask >> v & 1:
                continue
            c = 0
            for j, u in enumerate(placed):
                if g.adj[v] >> u & 1:
                    c |= 1 << j
            candidates.append((c, v))
        candidates.sort(reverse=True)
        for c, v in candidates:
            if best is not None and len(best) > i:
                prefix = best[:i] if i else ()
                if tuple(code) == prefix and c < best[i]:
                    break  # all remaining candidates are smaller
            placed.append(v)
            code.append(c)
            rec(placed_mask | (1 << v))
            placed.pop()
            code.pop()

    rec(0)
    assert best is not None
    return best


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


def has_vertex_minor(g: Graph, h: Graph, limit: int | None = None) -> bool:
    """Whether some sequence of local complementations and deletions turns
    g into a graph isomorphic to h.

    Memoized search over canonical forms; local complementations are explored
    at every size down to |V(h)| (equal-size containment means local
    equivalence, so the orbit must still be walked there).
    """
    check_ceiling("vertex-minor search", g.n, limit, "vertex_minor_n")
    if h.n > g.n:
        return False
    target = canonical_form(h)
    seen: set[tuple[int, ...]] = set()
    stack = [g]
    while stack:
        cur = stack.pop()
        key = canonical_form(cur)
        if key in seen:
            continue
        seen.add(key)
        if cur.n == h.n and key == target:
            return True
        for v in range(cur.n):
            stack.append(local_complement(cur, v))
            if cur.n > h.n:
                sub, _ = induced_subgraph(cur, cur.vertex_mask & ~(1 << v))
                stack.append(sub)
    return False
