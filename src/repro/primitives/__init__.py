"""Parallel primitives (the paper's Lemma 5.1 / 5.2).

Every primitive takes an execution context as its first argument — anything
:func:`repro.backends.resolve_context` accepts: a
:class:`~repro.backends.PRAMBackend` (or a raw :class:`~repro.pram.PRAM`
machine) for simulated, accounted, conflict-checked execution; a
:class:`~repro.backends.FastBackend`, backend name, or ``None`` for raw
vectorized NumPy execution with identical outputs and no accounting.
"""

from .ancestors import topmost_marked_ancestor, topmost_marked_ancestor_jumping
from .bracket_matching import match_brackets
from .euler_tour import EulerTour, build_euler_tour
from .list_ranking import (
    list_ranks,
    work_efficient_list_ranking,
    wyllie_list_ranking,
)
from .scan import (
    NEG_INF,
    prefix_max,
    prefix_sum,
    prefix_sum_hillis_steele,
    total_sum,
)
from .tree_contraction import (
    evaluate_max_plus_tree,
    mp_apply,
    mp_compose,
    mp_constant,
    mp_identity,
)
from .tree_numbering import (
    TreeNumbers,
    compute_tree_numbers,
    inorder_numbers,
    renumber_swapped,
)

__all__ = [
    "prefix_sum", "prefix_sum_hillis_steele", "prefix_max", "total_sum",
    "NEG_INF",
    "wyllie_list_ranking", "work_efficient_list_ranking", "list_ranks",
    "EulerTour", "build_euler_tour",
    "TreeNumbers", "compute_tree_numbers", "inorder_numbers",
    "renumber_swapped",
    "match_brackets",
    "topmost_marked_ancestor", "topmost_marked_ancestor_jumping",
    "evaluate_max_plus_tree", "mp_identity", "mp_constant", "mp_compose",
    "mp_apply",
]
