"""Undirected simple graphs on dense integer ids with int-bitset adjacency.

Vertex sets are plain Python ints used as bitsets; bit v set means vertex v
is a member.  Graphs are immutable and hashable, so they can be memoized and
shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Generator, Iterable, Iterator, Sequence

from .errors import InputError


def bitset(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into an int bitset."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _classes(table: Sequence[int], side: int, cols: int, into: dict | None = None) -> dict:
    """Each distinct row table[u] & cols, u in the bitset side, mapped to the bitset of the
    u having it, grouped into the dict into when one is given: the one routine grouping
    vertices by row, reading rows through the masks that cuts._rank reads them through."""
    groups = {} if into is None else into
    while side:
        low = side & -side
        row = table[low.bit_length() - 1] & cols
        groups[row] = groups.get(row, 0) | low
        side ^= low
    return groups


def _unwind(top: Generator) -> Any:
    """Run a recursion written as generators, with a list in place of the call stack:
    each generator yields the generator of every call it makes and is sent back that
    call's return value.  Returns what top returns."""
    stack, value = [top], None
    while True:
        try:
            call = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(call)
            value = None


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; adj[v] is the neighbor bitset of vertex v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.adj) != self.n:
            raise InputError("adjacency tuple length must equal vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise InputError(f"vertex {v} has a neighbor out of range")
            if row >> v & 1:
                raise InputError(f"self-loop at vertex {v}")
            for u in iter_bits(row):
                if not self.adj[u] >> v & 1:
                    raise InputError(f"asymmetric adjacency between {v} and {u}")

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph whose rows are symmetric, loop-free and in range by construction."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, adj=adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise InputError(f"vertex count must be nonnegative (got {n})")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls._trusted(n, tuple(adj))

    @cached_property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    @property
    def num_edges(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(self.n)) // 2


def connected_components(g: Graph) -> list[int]:
    """Vertex bitsets of the connected components, ordered by smallest member."""
    return _components(g.adj, g.vertex_mask)


def _components(adj: tuple[int, ...], s: int) -> list[int]:
    """Vertex bitsets of the components of the subgraph induced on s, by smallest member."""
    comps = []
    while s:
        comp = frontier = s & -s
        while frontier:
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= adj[u]
            frontier = nxt & s & ~comp
            comp |= frontier
        comps.append(comp)
        s &= ~comp
    return comps


def _renumber(rows: Iterable[int], new: Sequence[int] | dict[int, int]) -> tuple[int, ...]:
    """Each row with every member u replaced by new[u], one shift per bit: the one
    renumbering of bitset rows."""
    out = []
    for row in rows:
        r = 0
        while row:
            low = row & -row
            r |= 1 << new[low.bit_length() - 1]
            row ^= low
        out.append(r)
    return tuple(out)


def induced_subgraph(g: Graph, s: int) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on vertex set s, with the old->new id remapping."""
    if s & ~g.vertex_mask:
        raise InputError("vertex set contains ids outside the graph")
    remap = {u: i for i, u in enumerate(iter_bits(s))}
    return Graph(len(remap), _renumber((g.adj[u] & s for u in remap), remap)), remap


def twin_classes(g: Graph) -> list[int]:
    """Partition of V(g) into classes of equal open neighborhoods.

    Classes are returned as bitsets ordered by their smallest member.
    """
    return sorted(_classes(g.adj, g.vertex_mask, -1).values(), key=lambda m: m & -m)


def local_complement(g: Graph, v: int) -> Graph:
    """Complement the edge set inside the neighborhood of v."""
    if not 0 <= v < g.n:
        raise InputError(f"vertex {v} out of range")
    nv = g.adj[v]
    adj = list(g.adj)
    for u in iter_bits(nv):
        # flip u's adjacency to the other neighbors of v
        adj[u] ^= nv & ~(1 << u)
    return Graph(g.n, tuple(adj))


def one_join(
    g1: Graph, v1: int, g2: Graph, v2: int
) -> tuple[Graph, dict[int, int], dict[int, int]]:
    """Join g1 and g2 at marker vertices v1, v2.

    Both markers are deleted; every neighbor of v1 becomes adjacent to every
    neighbor of v2.  Returns the joined graph plus the id remappings of the
    surviving vertices of g1 and g2, which keep each side's order, g1's first.
    """
    if not 0 <= v1 < g1.n:
        raise InputError(f"vertex {v1} out of range in first graph")
    if not 0 <= v2 < g2.n:
        raise InputError(f"vertex {v2} out of range in second graph")
    map1 = {u: u - (u > v1) for u in range(g1.n) if u != v1}
    map2 = {u: g1.n - 1 + u - (u > v2) for u in range(g2.n) if u != v2}
    rows1 = _renumber((row & ~(1 << v1) for row in g1.adj), map1)
    rows2 = _renumber((row & ~(1 << v2) for row in g2.adj), map2)
    # a neighbor of one marker gains the other marker's neighbors, its row at the marker
    adj = [rows1[u] | (rows2[v2] if g1.adj[u] >> v1 & 1 else 0) for u in map1]
    adj += [rows2[w] | (rows1[v1] if g2.adj[w] >> v2 & 1 else 0) for w in map2]
    # each side's rows are symmetric and loop-free, and each new edge joins a neighbor of
    # v1 to a neighbor of v2 in both rows, so the result needs no validation
    return Graph._trusted(len(adj), tuple(adj)), map1, map2


def blow_up(g: Graph, v: int, t: int) -> tuple[Graph, tuple[int, ...]]:
    """Replace v by an independent set of t vertices sharing v's neighborhood.

    Vertex v keeps its id as the first member; the t-1 extra copies get the
    new ids n, n+1, ....  All other vertex ids are unchanged.
    """
    if not 0 <= v < g.n:
        raise InputError(f"vertex {v} out of range")
    if t < 1:
        raise InputError("blow-up size must be at least 1 (use induced_subgraph to delete)")
    n = g.n + t - 1
    adj = list(g.adj) + [g.adj[v]] * (t - 1)
    for u in iter_bits(g.adj[v]):
        for c in range(g.n, n):
            adj[u] |= 1 << c
    members = (v,) + tuple(range(g.n, n))
    return Graph(n, tuple(adj)), members


# --- named catalog (fixed vertex numbering so tests are reproducible) ---


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def wheel(rim: int) -> Graph:
    """Cycle on vertices 0..rim-1 plus a dominating hub with id rim."""
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return Graph.from_edges(rim + 1, edges)


def cube() -> Graph:
    """3-dimensional hypercube: vertices are {0,1}^3, edges at Hamming distance 1."""
    edges = [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)]
    return Graph.from_edges(8, edges)


def cube_minus() -> Graph:
    """The cube with vertex 7 removed."""
    g, _ = induced_subgraph(cube(), bitset(range(7)))
    return g


def named_graph(name: str) -> Graph:
    """Resolve a catalog name: w5, w7, cube, cube-, cycle:N, path:N, complete:N."""
    return _catalog(name)[0]()


def _catalog(name: str) -> tuple[Callable[[], Graph], int | None]:
    """A builder of the graph a catalog name resolves to, and its vertex count read off
    the name: N for cycle:N, path:N and complete:N, None for the fixed ones."""
    key = name.lower()
    fixed = {"w5": lambda: wheel(5), "w7": lambda: wheel(7), "cube": cube, "cube-": cube_minus}
    if key in fixed:
        return fixed[key], None
    if ":" in key:
        kind, _, arg = key.partition(":")
        try:
            m = int(arg)
        except ValueError as exc:
            raise InputError(f"bad size in graph name {name!r}") from exc
        sized = {"cycle": cycle, "path": path_graph, "complete": complete}
        if kind in sized:
            return lambda: sized[kind](m), m
    raise InputError(f"unknown graph name {name!r}")
