"""Cuts of vertex bipartitions: row/column classes, GF(2) rank and diversity.

There is one GF(2) elimination, _rank: it reads each row off a row table through a
side mask and a column mask and eliminates it as it reads it.  gf2_rank calls it on a
list of rows, cut_rank_of on the adjacency and the smaller side of a single cut, and
exact_rank_width's subset search once per subset.  Along the nested cuts of a
vertex set on a rooted decomposition's tree, nested_cut_rows finds the kept nodes by
one pruned descent from the lowest node whose subtree holds the whole set, so the
chain of nodes above it, which keeps nothing, is never read.  It merges each cut's row
classes from the cuts just below it on the way back up, and column_classes refines the
other side by them, so a cut costs its classes, not its side.  column_classes is the
one reader of a cut's columns and the one count of a cut's diversity: a single cut's,
a CutMatrix's, a decomposition's and the key lemma's budget check all read it there.
graph._classes groups every cut's rows, graph._renumber renumbers a CutMatrix's
columns, and _other_side is the one check of a cut side given against a graph."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InputError
from .graph import Graph, _classes, _renumber, iter_bits

if TYPE_CHECKING:
    from .decomposition import RootedView


@dataclass(frozen=True)
class CutMatrix:
    """0/1 matrix of a cut (W, V\\W); rows[i] is a bitset over col_index."""

    rows: tuple[int, ...]
    row_index: tuple[int, ...]
    col_index: tuple[int, ...]


def _other_side(g: Graph, w: int) -> int:
    """V(g) - w; raises InputError unless w lies inside V(g): the one check of a cut side."""
    if w & ~g.vertex_mask:
        raise InputError("cut side contains vertices outside the graph")
    return g.vertex_mask & ~w


def cut_matrix(g: Graph, w: int) -> CutMatrix:
    """Matrix of the cut (w, V(g)\\w); empty when either side is empty."""
    other = _other_side(g, w)
    row_index, col_index = tuple(iter_bits(w)), tuple(iter_bits(other))
    colpos = {v: i for i, v in enumerate(col_index)}
    return CutMatrix(_renumber((g.adj[u] & other for u in row_index), colpos), row_index, col_index)


def _rank(table: Sequence[int], side: int, cols: int) -> int:
    """GF(2) rank of the rows table[u] & cols for u in the bitset side, each row
    eliminated on leading bits as it is read off the table, so none is listed."""
    pivots: dict[int, int] = {}
    while side:
        low = side & -side
        row = table[low.bit_length() - 1] & cols
        side ^= low
        while row:
            lead = row.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
    return len(pivots)


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of bitset rows, any iterable of them, by the one elimination
    (_rank) with every column kept."""
    rows = tuple(rows)
    return _rank(rows, (1 << len(rows)) - 1, -1)


def cut_rank(m: CutMatrix) -> int:
    """GF(2) rank of the cut matrix; 0 for an empty matrix."""
    return gf2_rank(m.rows)


def cut_diversity(m: CutMatrix) -> int:
    """max(#distinct rows, #distinct columns); 0 for an empty matrix."""
    rows = _classes(m.rows, (1 << len(m.rows)) - 1, -1)
    return column_classes(rows, (1 << len(m.col_index)) - 1)[1]


def cut_rank_of(g: Graph, w: int) -> int:
    """Rank of the cut (w, rest) by the one elimination (_rank), its rows read off the
    adjacency on the smaller side (a matrix and its transpose have one rank)."""
    other = _other_side(g, w)  # all rows are zero when a side is empty
    return _rank(g.adj, w, other) if w.bit_count() <= other.bit_count() else _rank(g.adj, other, w)


def cut_diversity_of(g: Graph, w: int) -> int:
    """max(#distinct rows, #distinct columns) of the cut (w, rest); 0 if a side is empty."""
    rest = _other_side(g, w)
    return column_classes(_classes(g.adj, w, rest), rest)[1]


def nested_cut_rows(g: Graph, s: int, view: RootedView) -> Iterator[tuple[int, tuple, int, dict]]:
    """For each kept node v of the vertex set s, in reverse BFS order: v, the tuple of
    kept nodes nearest below v (last first), rest = s - pre[v] and the rows of the cut
    (pre[v] & s, rest) of g[s], each distinct row mapped to the vertices having it.
    The descent starts at the lowest node whose pre holds all of s, reached by climbing
    from tau of the lowest vertex of s; every node above it passes through, so none is
    read.  It enters a child only when its pre meets s.  Back up, a node with no vertex
    of s of its own and one such child passes through, repeating its cut; every other
    node is kept, its rows those of the kept nodes nearest below cut down to rest plus
    those of its own vertices in s, which are grouped only when it has some."""
    children, parent, pre, own, adj = view.children, view.parent, view.pre, view.own, g.adj
    order = []  # the nodes whose subtree meets s, from the lowest one holding s, in BFS order
    if s:
        top = view.tau[(s & -s).bit_length() - 1]
        while s & ~pre[top]:
            top = parent[top]
        order.append(top)
    for x in order:
        for c in children[x]:
            if pre[c] & s:
                order.append(c)
    below, rows_of = {}, {}  # node -> the kept nodes nearest below it so far; kept node -> rows
    for x in reversed(order):
        nodes = below.pop(x, ())
        mine = own[x] & s
        if mine or len(nodes) != 1:  # else x repeats that node's cut
            rest = s & ~pre[x]
            rows = rows_of[x] = {}
            for c in nodes:
                for row, part in rows_of.pop(c).items():
                    row &= rest
                    rows[row] = rows.get(row, 0) | part
            yield x, nodes, rest, _classes(adj, mine, rest, rows) if mine else rows
            nodes = (x,)
        if (up := parent[x]) in below:  # the root's parent, -1, is never read
            below[up] += nodes
        else:
            below[up] = nodes


def column_classes(rows: dict[int, int], rest: int) -> tuple[dict[int, int], int]:
    """The columns of the cut with these rows and other side rest, grouped as
    nested_cut_rows groups rows: rest refined by each nonzero row (the zero row splits no
    atom), an atom keyed by the union of the parts whose rows hold it.  Also the cut's
    diversity, the larger of the two class counts, or 0 when a side is empty: the one
    count every diversity reads."""
    cols = {0: rest} if rest else {}
    for row, part in rows.items():
        if not row:
            continue
        split: dict[int, int] = {}
        for key, atom in cols.items():
            if inside := atom & row:
                split[key | part] = inside
            if outside := atom ^ inside:
                split[key] = outside
        cols = split
    return cols, max(len(rows), len(cols)) if rows and cols else 0
