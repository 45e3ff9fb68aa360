"""Command-line front end.

Exit codes: 0 success, 1 a verification check failed, 2 parse/input error,
3 resource limit exceeded or input too large to allocate, 4 contract
violation.

main(argv) may be called repeatedly in one process: its argument parser is
built on the first call, not at import, and kept for the later ones, and the
RANKCHI_* limits are read once per process (config.limits).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from functools import cache
from pathlib import Path

from . import io
from .coloring import (
    ChiBoundFn,
    _coloring_and_omega,
    exact_node_oracle,
    one_join_compose,
)
from .config import check_ceiling, limits
from .cuts import cut_diversity_of, cut_rank_of
from .decomposition import (
    decomposition_rank,
    exact_rank_width,
    validate_rank_decomposition,
)
from .errors import (
    ContractError,
    InputError,
    ParseError,
    RankchiError,
    ResourceError,
    ValidationError,
)
from .generate import random_graph, random_join_tree
from .graph import _catalog, bitset
from .oracles import (
    has_vertex_minor,
    is_proper,
    no_max_clique_monochromatic,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str):
    return io.graph_from_text(_read(path))


def _parse_vertex_set(spec: str, n: int) -> int:
    try:
        ids = [int(tok) for tok in spec.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"bad vertex set {spec!r}") from exc
    if not all(0 <= v < n for v in ids):  # before 1 << id allocates for a huge id
        raise InputError("vertex set contains ids outside the graph")
    return bitset(ids)


def _parse_bound(f_spec: str, r: int) -> ChiBoundFn:
    try:
        if f_spec.startswith("const:"):
            return ChiBoundFn.constant(int(f_spec.split(":", 1)[1]), r)
        table = tuple(int(tok) for tok in f_spec.split(","))
    except ValueError as exc:
        raise ParseError(f"bad --f value {f_spec!r}") from exc
    return ChiBoundFn(table, r)


def _bound_text(m: int, shift: int) -> str:
    """B = m << shift in decimal while it fits Python's int-to-str limit (4300 when off),
    else 2^shift*m, m in hex past it too; B is built only once known to fit."""
    top = 10 ** (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300)
    if m < -(-top >> shift):  # m << shift < top, the least integer past the limit
        return str(m << shift)
    return f"2^{shift}*{m if m < top else hex(m)}"


def cmd_cutrank(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    w = _parse_vertex_set(args.set, g.n)
    print(f"rank={cut_rank_of(g, w)} diversity={cut_diversity_of(g, w)}")
    return 0


def cmd_rankwidth(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    width, witness = exact_rank_width(g)
    out = args.out or args.graph + ".rankdec"
    Path(out).write_text(io.decomposition_to_text(witness.decomposition))
    print(f"rankwidth={width}")
    print(f"witness={out}")
    return 0


def cmd_color(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    g = _load_graph(args.graph)
    dec = io.decomposition_from_text(_read(args.decomposition), g.n)
    bound = _parse_bound(args.f, args.r)
    coloring, omega, (m, shift) = _coloring_and_omega(g, dec, exact_node_oracle, bound, False)
    # _coloring_and_omega raises ContractError unless the coloring is proper and within
    # B(max(omega, 1)) = m << shift, so both checks reported below have passed
    out = args.out or args.graph + ".coloring"
    Path(out).write_text(io.coloring_to_text(coloring))
    print(f"omega={omega}")
    print(f"palette={coloring.palette_size}")
    print(f"bound={_bound_text(m, shift)}")
    print("check:proper=pass")
    print("check:palette_within_bound=pass")
    print(f"coloring={out}")
    print(f"time={time.perf_counter() - start:.3f}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    coloring = io.coloring_from_text(_read(args.coloring), g.n)
    results = {
        "proper": is_proper(g, coloring),
        "max_clique_split": no_max_clique_monochromatic(g, coloring),
    }
    width = None
    if args.decomposition:
        dec = io.decomposition_from_text(_read(args.decomposition), g.n)
        try:
            rd = validate_rank_decomposition(g, dec)
            results["rank_decomposition"] = True
            width = rd.width
        except ValidationError:
            results["rank_decomposition"] = False
    for name, ok in results.items():
        print(f"check:{name}={'pass' if ok else 'fail'}")
    if width is not None:
        print(f"width={width}")
    return 0 if all(results.values()) else 1


def cmd_gen(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    if args.n < 0:
        raise InputError("--n must be nonnegative")
    if not 0 <= args.p <= 1:  # false for nan too
        raise InputError(f"--p must be a probability in [0, 1], got {args.p}")

    def emit(ext: str, text: str) -> str:
        path = f"{args.out}.{ext}"
        Path(path).write_text(text)
        return path

    if args.mode == "er":
        g = random_graph(rng, args.n, args.p)
        print(f"graph={emit('graph', io.graph_to_text(g))}")
    elif args.mode == "rw":
        g = random_graph(rng, args.n, args.p)
        width, witness = exact_rank_width(g)
        print(f"graph={emit('graph', io.graph_to_text(g))}")
        print(f"witness={emit('rankdec', io.decomposition_to_text(witness.decomposition))}")
        print(f"rankwidth={width}")
    elif args.mode == "jointree":
        if args.n < 2:
            raise InputError("--n counts the pieces of a join tree and must be at least 2")
        jt = random_join_tree(rng, args.n, p=args.p)
        composed, dec, _ = one_join_compose(jt)
        print(f"jointree={emit('jointree', io.join_tree_to_text(jt))}")
        print(f"graph={emit('graph', io.graph_to_text(composed))}")
        print(f"decomposition={emit('dec', io.decomposition_to_text(dec))}")
        print(f"rank={decomposition_rank(composed, dec)}")
    else:
        raise InputError(f"unknown mode {args.mode!r}")
    return 0


def cmd_vminor(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    target = args.target
    if target.endswith(".graph") or "/" in target or Path(target).exists():
        h = _load_graph(target)
    else:
        build, size = _catalog(target)
        if size is not None and size > max(g.n, 2):  # has_vertex_minor's answer, unbuilt
            check_ceiling("vertex-minor search", g.n, None, "vertex_minor_n")
            print("free")
            return 0
        h = build()
    verdict = has_vertex_minor(g, h)
    print("contains" if verdict else "free")
    return 0


@cache  # built on main's first call, then shared: parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankchi",
        description="Decompose graphs along cuts of small GF(2) rank and color them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cutrank", help="rank and diversity of a cut")
    p.add_argument("graph")
    p.add_argument("--set", required=True, help="comma-separated vertex ids of W")
    p.set_defaults(func=cmd_cutrank)

    p = sub.add_parser("rankwidth", help="exact rank-width with witness")
    p.add_argument("graph")
    p.add_argument("-o", "--out", help="witness decomposition file")
    p.set_defaults(func=cmd_rankwidth)

    p = sub.add_parser("color", help="chi-bounded coloring from a decomposition")
    p.add_argument("graph")
    p.add_argument("decomposition")
    p.add_argument("--f", required=True, help="const:N or a comma-separated table")
    p.add_argument("--r", type=int, required=True, help="decomposition rank budget")
    p.add_argument("-o", "--out", help="coloring output file")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="re-check a coloring (and decomposition)")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--decomposition")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="write reproducible random instances")
    p.add_argument("--mode", required=True, choices=["er", "jointree", "rw"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("vminor", help="vertex-minor containment check")
    p.add_argument("graph")
    p.add_argument("--target", required=True, help="w5|w7|cube|cube-|<file>")
    p.set_defaults(func=cmd_vminor)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        limits()  # refuses a malformed RANKCHI_* setting before any command runs
        return args.func(args)
    except (ResourceError, MemoryError, OverflowError) as exc:
        # MemoryError, OverflowError: a size read from the input cannot be allocated
        too_large = f"input too large to allocate ({type(exc).__name__})"
        print(f"error: {exc if isinstance(exc, ResourceError) else too_large}", file=sys.stderr)
        return 3
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RankchiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
