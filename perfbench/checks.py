"""Output checks for the benchmark, independent of the code they check.

Everything here reads only a graph's adjacency bitsets and the plain data of
an output (color tuples, tree edges, file text).  No rankchi algorithm is
called, so a defect in the package cannot hide itself from these checks.
"""

from __future__ import annotations

import hashlib


def edges(adj: tuple[int, ...]):
    """Yield every edge (u, v) with u < v, by a plain loop over the rows."""
    for u, row in enumerate(adj):
        v = 0
        row >>= u + 1
        while row:
            if row & 1:
                yield u, u + 1 + v
            row >>= 1
            v += 1


def proper_failures(adj: tuple[int, ...], colors: tuple[int, ...]) -> list[str]:
    """Why colors is not a proper coloring of the graph (empty when it is)."""
    if len(colors) != len(adj):
        return [f"coloring covers {len(colors)} of {len(adj)} vertices"]
    if any(not isinstance(c, int) or c < 1 for c in colors):
        return ["coloring uses a color that is not a positive integer"]
    for u, v in edges(adj):
        if colors[u] == colors[v]:
            return [f"edge ({u},{v}) is monochromatic"]
    return []


def _greedy_class_count(cand: int, adj: tuple[int, ...]) -> int:
    """Number of classes of a greedy coloring of cand; bounds its clique number."""
    classes = 0
    while cand:
        classes += 1
        avail = cand
        while avail:
            v = avail.bit_length() - 1
            cand &= ~(1 << v)
            avail &= ~(1 << v) & ~adj[v]
    return classes


def clique_number(adj: tuple[int, ...]) -> int:
    """Maximum clique size by branch and bound with a greedy-coloring bound."""
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        if size + _greedy_class_count(cand, adj) <= best:
            return
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            expand(size + 1, cand & adj[v])

    expand(0, (1 << len(adj)) - 1)
    return best


def palette_bound(f: int, rank_budget: int, omega: int) -> int:
    """B(omega) = prod_{s=2..omega} 2^r (f + 1) for a constant budget f."""
    return ((1 << rank_budget) * (f + 1)) ** max(0, omega - 1)


def palette_failures(colors: tuple[int, ...], f: int, rank_budget: int, omega: int) -> list[str]:
    palette = max(colors, default=0)
    limit = palette_bound(f, rank_budget, omega)
    if palette > limit:
        return [f"palette {palette} exceeds the bound {limit} at omega {omega}"]
    return []


def parse_coloring(text: str, n: int) -> tuple[int, ...] | None:
    """Colors from `c <vertex> <color>` lines; None unless each vertex appears once."""
    colors: dict[int, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "c":
            return None
        try:
            v, c = int(parts[1]), int(parts[2])
        except ValueError:
            return None
        if v in colors:
            return None
        colors[v] = c
    if sorted(colors) != list(range(n)):
        return None
    return tuple(colors[v] for v in range(n))


def _gf2_rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def decomposition_width(
    adj: tuple[int, ...], tree_edges: tuple[tuple[int, int], ...], tau: tuple[int, ...]
) -> int:
    """Maximum GF(2) cut rank over the tree edges, recomputed from scratch."""
    nbrs: dict[int, list[int]] = {}
    for a, b in tree_edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    full = (1 << len(adj)) - 1
    width = 0
    for a, b in tree_edges:
        side_nodes = {a}
        stack = [a]
        while stack:
            x = stack.pop()
            for y in nbrs[x]:
                if y not in side_nodes and not (x == a and y == b):
                    side_nodes.add(y)
                    stack.append(y)
        side = 0
        for v, node in enumerate(tau):
            if node in side_nodes:
                side |= 1 << v
        other = full & ~side
        rows = [adj[u] & other for u in range(len(adj)) if side >> u & 1]
        width = max(width, _gf2_rank(rows))
    return width


def digest(colorings: list[tuple[int, ...] | None]) -> str:
    """Short hash of a list of colorings, in order; None marks a missing one."""
    h = hashlib.sha256()
    for colors in colorings:
        h.update(b"-" if colors is None else ",".join(map(str, colors)).encode())
        h.update(b";")
    return h.hexdigest()[:16]
