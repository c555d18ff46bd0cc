"""Cograph substrate: cotrees, cographs, generators, recognition, validation.

This package is the graph-theoretic foundation the paper assumes as given:
the cotree representation (properties (4)-(6)), the cograph algebra (union,
join, complement), recognition from a plain graph, adjacency oracles, and the
:class:`PathCover` result type with its validators.
"""

from .binary import BinaryCotree, binarize_cotree
from .cotree import JOIN, LEAF, PRIME, UNION, Cotree, CotreeError, kind_name
from .flat import FlatCotree, as_flat_cotree, canonical_key
from .forest import FlatForest, pack, unpack
from .generators import (
    balanced_cotree,
    caterpillar_cotree,
    clique,
    complete_bipartite,
    independent_set,
    join_of_independent_sets,
    random_cograph_edges,
    random_cotree,
    random_p4_sparse,
    single_vertex,
    threshold_cograph,
    union_of_cliques,
)
from .graph import CSRGraph, Graph
from .lca import CographAdjacencyOracle
from .md import graph_from_md_tree, md_tree
from .operations import (
    complement_cotree,
    join_cotrees,
    relabel_disjoint,
    union_cotrees,
)
from .path_cover import PathCover, PathCoverError
from .recognition import (
    NotACographError,
    cotree_from_graph,
    decompose,
    find_induced_p4,
    is_cograph,
)
from .validation import (
    make_leftist,
    minimum_path_cover_size,
    path_cover_sizes_per_node,
    validate_binary_cotree,
    validate_cotree,
)

__all__ = [
    "LEAF", "UNION", "JOIN", "PRIME", "kind_name",
    "Cotree", "CotreeError", "BinaryCotree", "binarize_cotree",
    "FlatCotree", "as_flat_cotree", "canonical_key",
    "FlatForest", "pack", "unpack",
    "Graph", "CSRGraph", "CographAdjacencyOracle",
    "md_tree", "graph_from_md_tree",
    "PathCover", "PathCoverError",
    "single_vertex", "independent_set", "clique", "complete_bipartite",
    "union_of_cliques", "join_of_independent_sets", "balanced_cotree",
    "caterpillar_cotree", "threshold_cograph", "random_cotree",
    "random_cograph_edges", "random_p4_sparse",
    "union_cotrees", "join_cotrees", "complement_cotree", "relabel_disjoint",
    "cotree_from_graph", "decompose", "is_cograph", "find_induced_p4",
    "NotACographError",
    "validate_cotree", "validate_binary_cotree", "make_leftist",
    "minimum_path_cover_size", "path_cover_sizes_per_node",
]
