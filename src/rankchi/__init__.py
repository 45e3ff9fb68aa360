"""Coloring graphs decomposed along cuts of small GF(2) rank.

Public surface: graph surgery primitives, cut matrices with rank/diversity,
tree decompositions and exact rank-width, brute-force oracles, and the
constructive colorings built on top of them.
"""

from .coloring import (
    ChiBoundFn,
    JoinEdge,
    JoinTree,
    chi_bounded_coloring,
    color_bound,
    compose_sequential,
    exact_node_oracle,
    greedy_node_oracle,
    key_lemma_coloring,
    one_join_compose,
)
from .cuts import (CutMatrix, cut_diversity, cut_diversity_of, cut_matrix, cut_rank,
                   cut_rank_of, gf2_rank)
from .decomposition import (
    Decomposition,
    RankDecomposition,
    decomposition_diversity,
    decomposition_rank,
    edge_cut,
    exact_rank_width,
    origin,
    outside_partition,
    piece_graph,
    restrict,
    root_normalize,
    star_decomposition,
    validate_rank_decomposition,
)
from .errors import (
    ContractError,
    InputError,
    ParseError,
    RankchiError,
    ResourceError,
    StateError,
    ValidationError,
)
from .graph import (
    Graph,
    bitset,
    blow_up,
    complete,
    connected_components,
    cube,
    cube_minus,
    cycle,
    induced_subgraph,
    iter_bits,
    local_complement,
    named_graph,
    one_join,
    path_graph,
    twin_classes,
    wheel,
)
from .oracles import (
    Coloring,
    are_isomorphic,
    canonical_form,
    chromatic_number,
    clique_number,
    greedy_coloring,
    has_vertex_minor,
    is_proper,
    maximum_cliques,
    no_max_clique_monochromatic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
