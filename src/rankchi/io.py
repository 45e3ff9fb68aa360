"""Plain-text file formats for graphs, decompositions, colorings, join trees.

All formats are line based, whitespace separated, 0-based ids, with
`#`-prefixed comment lines ignored.
"""

from __future__ import annotations

from .coloring import JoinEdge, JoinTree
from .decomposition import Decomposition
from .errors import InputError, ParseError
from .graph import Graph
from .oracles import Coloring


def _tokens(text: str) -> list[list[str]]:
    """The fields of each line that is neither blank nor a comment."""
    return [line for line in map(str.split, text.splitlines()) if line and line[0][0] != "#"]


def _ints(parts: list[str], line: list[str]) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"non-integer field in line {' '.join(line)!r}") from exc


def graph_to_text(g: Graph) -> str:
    lines = [f"p {g.n} {g.num_edges}"]
    lines += [f"e {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def _graph_block(header: list[str], edge_lines: list[list[str]]) -> Graph:
    """The graph of a 'p <n> <m>' header line and the edge lines under it."""
    n, m = _ints(header[1:], header)
    edges = []
    for line in edge_lines:
        if line[0] != "e" or len(line) != 3:
            raise ParseError(f"expected 'e <u> <v>', got {' '.join(line)!r}")
        try:
            edges.append((int(line[1]), int(line[2])))
        except ValueError:
            _ints(line[1:], line)  # raises the ParseError
    if len(edges) != m:
        raise ParseError(f"header promises {m} edges, file has {len(edges)}")
    try:
        return Graph.from_edges(n, edges)
    except InputError as exc:
        raise ParseError(f"invalid graph: {exc}") from exc


def graph_from_text(text: str) -> Graph:
    lines = _tokens(text)
    if not lines or lines[0][0] != "p" or len(lines[0]) != 3:
        raise ParseError("graph file must start with a 'p <n> <m>' line")
    return _graph_block(lines[0], lines[1:])


def decomposition_to_text(d: Decomposition) -> str:
    lines = [f"d {d.num_nodes}"]
    lines += [f"t {a} {b}" for a, b in d.tree_edges]
    lines += [f"m {v} {node}" for v, node in enumerate(d.tau)]
    if d.root is not None:
        lines.append(f"r {d.root}")
    return "\n".join(lines) + "\n"


def decomposition_from_text(text: str, n_vertices: int) -> Decomposition:
    lines = _tokens(text)
    if not lines or lines[0][0] != "d" or len(lines[0]) != 2:
        raise ParseError("decomposition file must start with a 'd <num_nodes>' line")
    (num_nodes,) = _ints(lines[0][1:], lines[0])
    edges: list[tuple[int, int]] = []
    tau: dict[int, int] = {}
    root = None
    for line in lines[1:]:
        if line[0] == "t" and len(line) == 3:
            a, b = _ints(line[1:], line)
            edges.append((a, b))
        elif line[0] == "m" and len(line) == 3:
            v, node = _ints(line[1:], line)
            if v in tau:
                raise ParseError(f"vertex {v} mapped twice")
            tau[v] = node
        elif line[0] == "r" and len(line) == 2:
            if root is not None:
                raise ParseError("root given twice")
            (root,) = _ints(line[1:], line)
        else:
            raise ParseError(f"unrecognized decomposition line {' '.join(line)!r}")
    if sorted(tau) != list(range(n_vertices)):
        raise ParseError("mapping lines must cover every vertex exactly once")
    try:
        return Decomposition(num_nodes, tuple(edges), tuple(tau[v] for v in range(n_vertices)), root)
    except InputError as exc:
        raise ParseError(f"invalid decomposition: {exc}") from exc


def coloring_to_text(c: Coloring) -> str:
    return "".join(f"c {v} {col}\n" for v, col in enumerate(c.colors))


def coloring_from_text(text: str, n_vertices: int) -> Coloring:
    lines = _tokens(text)
    assigned: dict[int, int] = {}
    for line in lines:
        if line[0] != "c" or len(line) != 3:
            raise ParseError(f"expected 'c <vertex> <color>', got {' '.join(line)!r}")
        v, col = _ints(line[1:], line)
        if v in assigned:
            raise ParseError(f"vertex {v} colored twice")
        assigned[v] = col
    if sorted(assigned) != list(range(n_vertices)):
        raise ParseError("coloring must cover every vertex exactly once")
    try:
        return Coloring(tuple(assigned[v] for v in range(n_vertices)))
    except InputError as exc:
        raise ParseError(f"invalid coloring: {exc}") from exc


def join_tree_to_text(jt: JoinTree) -> str:
    lines = [f"j {len(jt.pieces)}"]
    for piece in jt.pieces:
        lines.append(graph_to_text(piece).rstrip("\n"))
    for e in jt.joins:
        lines.append(f"J {e.left} {e.right} {e.left_marker} {e.right_marker}")
    return "\n".join(lines) + "\n"


def join_tree_from_text(text: str) -> JoinTree:
    lines = _tokens(text)
    if not lines or lines[0][0] != "j" or len(lines[0]) != 2:
        raise ParseError("join tree file must start with a 'j <num_pieces>' line")
    (num_pieces,) = _ints(lines[0][1:], lines[0])
    idx = 1
    pieces = []
    for _ in range(num_pieces):
        if idx >= len(lines) or lines[idx][0] != "p" or len(lines[idx]) != 3:
            raise ParseError("expected a 'p <n> <m>' piece header")
        _, m = _ints(lines[idx][1:], lines[idx])
        pieces.append(_graph_block(lines[idx], lines[idx + 1 : idx + 1 + m]))
        idx += 1 + m
    joins = []
    for line in lines[idx:]:
        if line[0] != "J" or len(line) != 5:
            raise ParseError(f"expected 'J <i> <j> <wij> <wji>', got {' '.join(line)!r}")
        i, j, wij, wji = _ints(line[1:], line)
        joins.append(JoinEdge(i, j, wij, wji))
    try:
        return JoinTree(tuple(pieces), tuple(joins))
    except InputError as exc:
        raise ParseError(f"invalid join tree: {exc}") from exc
