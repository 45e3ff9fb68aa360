"""The benchmark's workloads: seeded instance batches and the calls they time.

Each workload has four steps.  `setup` builds the batch from a seeded
random.Random and is timed as set-up.  `call` is the timed work for one
instance.  `output` turns what `call` returned into an Output, untimed.
`check` lists what is wrong with an Output, also untimed, with the
independent checkers of perfbench/checks.py.

Calls go through module attributes (`coloring.chi_bounded_coloring`), never
through names imported into this file, so the layer tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io as textio
import random
from dataclasses import dataclass
from pathlib import Path

from rankchi import cli, coloring, decomposition, generate, io
from rankchi.errors import RankchiError
from rankchi.graph import Graph

import checks


@dataclass
class Output:
    """What one instance produced: its coloring (or None) and what to check."""

    colors: tuple[int, ...] | None
    error: str | None = None
    extra: object = None


@dataclass(frozen=True)
class Instance:
    name: str
    graph: Graph
    data: tuple
    size: int  # the workload's size parameter: pieces, k or n


class JoinTree:
    """`rankchi color` on rank-1 graphs composed from random 1-join trees.

    Runs the CLI in-process, so file parsing, cmd_color's re-verification and
    the coloring file are all in the timed call.  The decomposition tree walks
    dominate here; clique queries take a few percent and rank-width is absent.
    """

    name = "jointree"
    f = 32  # one piece budget no seed exceeds; const:3 is refused on some pieces
    rank_budget = 1
    # Pieces per instance.  The batch's median instance is the middle one of
    # the nine 50-piece graphs, so instance_ref_p50 is a median of nine random
    # trees of one size, not a pick between two sizes; the four 120-piece
    # graphs carry most of the time.
    sizes = (20,) * 3 + (50,) * 9 + (120,) * 4
    smoke_sizes = (3, 5)

    def __init__(self, workdir: Path, smoke: bool) -> None:
        self.workdir = workdir
        self.smoke = smoke

    def setup(self, rng: random.Random) -> list[Instance]:
        batch = []
        for i, pieces in enumerate(self.smoke_sizes if self.smoke else self.sizes):
            jt = generate.random_join_tree(rng, pieces, extra=4, p=0.3)
            g, dec, _ = coloring.one_join_compose(jt)
            stem = self.workdir / f"jt{i:02d}"
            paths = tuple(str(stem.with_suffix(ext)) for ext in (".graph", ".dec", ".col"))
            Path(paths[0]).write_text(io.graph_to_text(g))
            Path(paths[1]).write_text(io.decomposition_to_text(dec))
            batch.append(Instance(f"jt{i:02d}-p{pieces}-n{g.n}", g, paths, pieces))
        return batch

    def call(self, inst: Instance):
        graph_path, dec_path, col_path = inst.data
        argv = ["color", graph_path, dec_path, "--f", f"const:{self.f}",
                "--r", str(self.rank_budget), "-o", col_path]
        out = textio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def output(self, inst: Instance, raw) -> Output:
        code, text = raw
        col_path = Path(inst.data[2])
        if code != 0 or not col_path.exists():
            return Output(None, f"exit code {code}: {text.strip()[-200:]}")
        col_text = col_path.read_text()
        col_path.unlink()
        return Output(checks.parse_coloring(col_text, inst.graph.n), extra=(col_text, text))

    def check(self, inst: Instance, out: Output) -> tuple[list[str], int]:
        col_text, stdout = out.extra
        if out.colors is None:
            return ["coloring file does not parse"], 0
        fails = []
        try:
            via_io = io.coloring_from_text(col_text, inst.graph.n).colors
        except RankchiError as exc:
            via_io = f"error: {exc}"
        if via_io != out.colors:
            fails.append("coloring file parses differently through rankchi.io")
        omega = checks.clique_number(inst.graph.adj)
        reported = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
        if reported.get("omega") != str(omega):
            fails.append(f"CLI reported omega={reported.get('omega')}, expected {omega}")
        if reported.get("palette") != str(max(out.colors)):
            fails.append("CLI reported a palette other than the file's")
        fails += checks.proper_failures(inst.graph.adj, out.colors)
        fails += checks.palette_failures(out.colors, self.f, self.rank_budget, omega)
        return fails, omega


def cocktail_party(rng: random.Random, k: int) -> tuple[Graph, decomposition.Decomposition]:
    """K_{2xk} with its rank-1 caterpillar-of-cherries decomposition.

    Spine nodes 0..k-1 form a path, cherry node k+i hangs off spine node i and
    holds the i-th non-adjacent pair, and a root leaf with no vertices hangs
    off spine node 0.  Vertex labels and node ids are shuffled by rng; the
    root's place is fixed so that every seed colors the same rooted tree.
    """
    n = 2 * k
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[a], label[b]) for a in range(n) for b in range(a + 1, n) if a // 2 != b // 2]
    g = Graph.from_edges(n, edges)
    node = list(range(2 * k + 1))
    rng.shuffle(node)
    root = node[2 * k]
    tree = [(node[i], node[i + 1]) for i in range(k - 1)]
    tree += [(node[i], node[k + i]) for i in range(k)]
    tree.append((root, node[0]))
    rng.shuffle(tree)
    tau = [0] * n
    for a in range(n):
        tau[label[a]] = node[k + a // 2]
    return g, decomposition.Decomposition(2 * k + 1, tuple(tree), tuple(tau), root)


class Cocktail:
    """chi_bounded_coloring on cocktail-party graphs K_{2xk}.

    2^k maximum cliques on a tiny tree: clique-number queries dominate and
    the tree walks barely run.  The palette is k, which is optimal.
    """

    name = "cocktail"
    f = 3  # every piece is a complete multipartite graph with at most 3 parts
    rank_budget = 1
    sizes = (12, 13, 14, 15, 16)
    smoke_sizes = (3, 4)

    def __init__(self, workdir: Path, smoke: bool) -> None:
        self.smoke = smoke

    def setup(self, rng: random.Random) -> list[Instance]:
        bound = coloring.ChiBoundFn.constant(self.f, self.rank_budget)
        batch = []
        for k in self.smoke_sizes if self.smoke else self.sizes:
            g, dec = cocktail_party(rng, k)
            batch.append(Instance(f"k2x{k}", g, (dec, bound, k), k))
        return batch

    def call(self, inst: Instance):
        dec, bound, _ = inst.data
        return coloring.chi_bounded_coloring(inst.graph, dec, coloring.exact_node_oracle, bound)

    def output(self, inst: Instance, raw) -> Output:
        return Output(raw.colors)

    def check(self, inst: Instance, out: Output) -> tuple[list[str], int]:
        omega = checks.clique_number(inst.graph.adj)
        fails = [] if omega == inst.data[2] else [f"omega {omega} is not k={inst.data[2]}"]
        fails += checks.proper_failures(inst.graph.adj, out.colors)
        fails += checks.palette_failures(out.colors, self.f, self.rank_budget, omega)
        return fails, omega


class Witness:
    """exact_rank_width, then coloring along the witness when its width is <= 2.

    The acceptance-criterion-3 pipeline on seeded random graphs with
    n in {7, 8, 9}; rank-width search is about 97% of the time, the rest is
    small-tree coloring with check=True.
    """

    name = "witness"
    f = 3
    max_width = 2
    # The batch's median instance is the middle one of the forty n=8 graphs,
    # whose times vary with each graph's density and width; a group this large
    # keeps that median from moving with the seed.  The eight n=9 graphs carry
    # most of the time.
    sizes = (7,) * 8 + (8,) * 40 + (9,) * 8
    smoke_sizes = (5, 6)

    def __init__(self, workdir: Path, smoke: bool) -> None:
        self.smoke = smoke

    def setup(self, rng: random.Random) -> list[Instance]:
        batch = []
        for i, n in enumerate(self.smoke_sizes if self.smoke else self.sizes):
            g = generate.random_graph(rng, n, rng.uniform(0.15, 0.7))
            batch.append(Instance(f"rw{i:02d}-n{n}", g, (), n))
        return batch

    def call(self, inst: Instance):
        width, witness = decomposition.exact_rank_width(inst.graph)
        if width > self.max_width:
            return width, witness.decomposition, None
        bound = coloring.ChiBoundFn.constant(self.f, width)
        colored = coloring.chi_bounded_coloring(
            inst.graph, witness.decomposition, coloring.exact_node_oracle, bound, check=True
        )
        return width, witness.decomposition, colored

    def output(self, inst: Instance, raw) -> Output:
        width, dec, colored = raw
        return Output(None if colored is None else colored.colors, extra=(width, dec))

    def check(self, inst: Instance, out: Output) -> tuple[list[str], int]:
        width, dec = out.extra
        adj = inst.graph.adj
        fails = []
        recomputed = checks.decomposition_width(adj, dec.tree_edges, dec.tau)
        if recomputed != width:
            fails.append(f"witness has rank {recomputed}, reported width {width}")
        if out.colors is None:
            return fails, 0
        omega = checks.clique_number(adj)
        fails += checks.proper_failures(adj, out.colors)
        fails += checks.palette_failures(out.colors, self.f, width, omega)
        return fails, omega


WORKLOADS = {wl.name: wl for wl in (JoinTree, Cocktail, Witness)}
