"""Step 8 — read the minimum path cover off the path trees.

After dummy removal every tree of the forest is a *path tree*: its inorder
traversal is one path of the minimum path cover (Fig. 6).  Off the simulator
Step 6 hands its inorder sequence on (:attr:`PathForest.chain`) and Step 7
only splices dummies out of it, so the cover is that sequence with the
dummies dropped, cut at the tree boundaries.  Otherwise (the simulator, or
a forest that skipped Step 6) the inorder numbers come from the same
Euler-tour machinery as everywhere else, after which each vertex knows its
path (the tree it belongs to) and its position on that path, and the cover
is assembled with one permutation scatter.
"""

from __future__ import annotations

import numpy as np

from ..backends import resolve_context
from ..cograph import PathCover
from ..primitives import inorder_numbers, prefix_sum
from .path_trees import PathForest

__all__ = ["extract_paths"]


def extract_paths(ctx, forest: PathForest, *,
                  work_efficient: bool = True,
                  label: str = "extract") -> PathCover:
    """Convert a dummy-free path forest into a :class:`PathCover`."""
    machine = resolve_context(ctx)
    num_real = forest.num_real
    parent = forest.parent[:num_real]
    left = forest.left[:num_real]
    right = forest.right[:num_real]
    if np.any(left >= num_real) or np.any(right >= num_real) \
            or np.any(parent >= num_real):  # pragma: no cover
        raise AssertionError("extract_paths called before dummy removal")

    roots = np.flatnonzero(parent == -1)
    if num_real == 0:
        return PathCover([])

    if forest.chain is not None and not machine.simulates:
        # Step 6's sequence: the real vertices before a tree's start in it
        # are the vertices of the paths before that tree
        sequence, tree_start = forest.chain
        real = np.flatnonzero(sequence < num_real)
        order = sequence[real]
        starts = np.searchsorted(real, tree_start)
    else:
        inorder, size = inorder_numbers(machine, left, right, parent, roots,
                                        work_efficient=work_efficient,
                                        label=f"{label}.numbers")

        # path id of every vertex = index of its tree in the chained tour;
        # the chained inorder is contiguous per tree, so the boundaries are
        # the prefix sums of the root subtree sizes.
        sizes = size[roots]
        starts = prefix_sum(machine, sizes, inclusive=False,
                            label=f"{label}.starts")

        with machine.step(active=num_real, label=f"{label}:permute"):
            order = np.empty(num_real, dtype=np.int64)
            order[inorder] = np.arange(num_real)

    # materialise the cover: one tolist for the whole permutation, then
    # one pass cutting it into paths; a cover of one-vertex paths (an
    # edgeless graph) wraps each vertex instead of slicing
    flat = order.tolist()
    if len(roots) == num_real:
        return PathCover([[v] for v in flat])
    cut = starts.tolist()
    return PathCover([flat[a:b] for a, b in zip(cut, cut[1:] + [num_real])])
