"""Per-layer tracing from outside the program.

Each traced function is replaced by a timing wrapper at every binding in the
rankchi modules, because `from .x import y` copies the name into the
importing module.  A call's self time is its duration minus the durations of
the wrapped calls nested inside it.  The wrappers are removed on exit, so an
untraced run executes the program's own code objects only.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# module -> functions traced there; exact_node_oracle is reported as
# coloring.piece_oracle, the oracle every piece coloring goes through.
TRACED = {
    "cuts": ("cut_matrix", "cut_diversity", "cut_rank_of"),
    "decomposition": (
        "edge_cut", "decomposition_diversity", "decomposition_rank", "subtree_preimages",
        "rooted_parents", "outside_partition", "piece_graph", "origin", "restrict",
        "root_normalize", "exact_rank_width",
    ),
    "coloring": ("chi_bounded_coloring", "key_lemma_coloring", "exact_node_oracle"),
    "oracles": ("clique_number", "maximum_cliques", "chromatic_number", "is_proper"),
    "graph": ("induced_subgraph", "twin_classes", "connected_components"),
    "io": ("graph_from_text", "decomposition_from_text", "coloring_to_text"),
    "cli": ("cmd_color",),
}
RENAMED = {"coloring.exact_node_oracle": "coloring.piece_oracle"}

LABELS = tuple(
    RENAMED.get(f"{mod}.{fn}", f"{mod}.{fn}") for mod, fns in TRACED.items() for fn in fns
)
WALKS = ("decomposition.edge_cut", "decomposition.subtree_preimages",
         "decomposition.rooted_parents", "decomposition.piece_graph")


class Tracer:
    """Installs the wrappers and accumulates calls, self time and counters."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.key_lemma_decs: list = []
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.key_lemma_decs.clear()

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "rankchi" or name.startswith("rankchi."))]
        for mod, fns in TRACED.items():
            home = sys.modules[f"rankchi.{mod}"]
            for fn_name in fns:
                label = RENAMED.get(f"{mod}.{fn_name}", f"{mod}.{fn_name}")
                original = getattr(home, fn_name)
                wrapper = self._wrap(label, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def _wrap(self, label: str, fn):
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts
        clock = time.perf_counter
        hook = {
            "oracles.maximum_cliques": lambda args, res: counts.update(cliques_returned=len(res)),
            "graph.twin_classes": lambda args, res: counts.update(piece_vertices=args[0].n),
            "coloring.piece_oracle": lambda args, res: counts.update(quotient_vertices=args[0].n),
            "coloring.key_lemma_coloring": lambda args, res: self.key_lemma_decs.append(args[1]),
        }.get(label)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                calls[label] += 1
                self_s[label] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper
