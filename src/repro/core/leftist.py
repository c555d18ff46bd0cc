"""Step 2 — leaf counts ``L(u)`` and the leftist reordering (``Tb`` → ``Tbl``).

The paper requires that at every internal node the left subtree contains at
least as many leaves as the right subtree (``L(v) >= L(w)``); this is what
makes the 1-node recurrence ``p(u) = max(p(v) - L(w), 1)`` produce the
*minimum* number of paths (see the A1 ablation benchmark for what goes wrong
without it).

``L(u)`` is computed with the Euler-tour technique (Lemma 5.2) and the swap
itself is a single parallel step.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..backends import resolve_context
from ..cograph import BinaryCotree
from ..primitives import TreeNumbers, compute_tree_numbers

__all__ = ["LeftistCotree", "leftist_reorder"]


@dataclass
class LeftistCotree:
    """The leftist binarized cotree together with its tree numbering.

    Attributes
    ----------
    tree:
        the reordered :class:`~repro.cograph.BinaryCotree` (``Tbl(G)``).
    numbers:
        :class:`~repro.primitives.TreeNumbers` of ``tree`` (recomputed after
        the swap, so inorder/preorder reflect the leftist child order).
    leaf_count:
        alias for ``numbers.subtree_leaves`` — the paper's ``L(u)``.
    """

    tree: BinaryCotree
    numbers: TreeNumbers

    @property
    def leaf_count(self) -> np.ndarray:
        return self.numbers.subtree_leaves


def leftist_reorder(ctx, tree: BinaryCotree, *,
                    work_efficient: bool = True,
                    label: str = "leftist") -> LeftistCotree:
    """Compute ``L(u)`` and swap children so every node is leftist.

    Returns a :class:`LeftistCotree`; the input tree is not modified.
    """
    machine = resolve_context(ctx)

    # a BinaryForest carries all its roots; their tours are chained so the
    # numbering stays global but per-tree consistent
    forest_roots = getattr(tree, "roots", None)
    roots = [int(r) for r in forest_roots] if forest_roots is not None \
        else [tree.root]

    numbers = compute_tree_numbers(machine, tree.left, tree.right, tree.parent,
                                   roots, work_efficient=work_efficient,
                                   label=f"{label}.numbers")
    L = numbers.subtree_leaves
    internal = tree.internal_nodes
    out = tree.copy()
    # nodes violating the leftist condition
    viol = internal[L[tree.left[internal]] < L[tree.right[internal]]]
    if len(viol):
        left_arr = machine.array(out.left, name=f"{label}.left")
        right_arr = machine.array(out.right, name=f"{label}.right")
        with machine.step(active=len(viol), label=f"{label}:swap"):
            l = left_arr.gather(viol)
            r = right_arr.gather(viol)
            left_arr.scatter(viol, r)
            right_arr.scatter(viol, l)
        out.left = left_arr.data
        out.right = right_arr.data

    # renumber after the swap (inorder changes; L(u) and depth do not, so
    # the depths are handed back in)
    numbers2 = compute_tree_numbers(machine, out.left, out.right, out.parent,
                                    roots, work_efficient=work_efficient,
                                    known_depth=numbers.depth,
                                    label=f"{label}.renumber")
    return LeftistCotree(tree=out, numbers=numbers2)
