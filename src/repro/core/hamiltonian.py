"""Hamiltonian path and Hamiltonian cycle queries on cographs.

The paper's introduction notes that the path-cover machinery answers both
questions with the same optimal bounds.  Both decisions read one run of
:data:`~repro.core.dp.PATH_COVER_SIZE_DP` (``p`` and the leaf count ``L``
of every node):

* a **Hamiltonian path** exists iff ``p(root) = 1``;
* a **Hamiltonian cycle** exists iff ``n >= 3``, the root is a join and
  every root child ``X`` has ``p(X) + L(X) <= L(root)`` (the join's own
  ``best`` term).  The rule holds for any child order and for
  non-canonical trees; DESIGN.md §7 has the proof.

Witnesses come from a cover engine (any ``FlatCotree -> PathCover``
callable) on flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..cograph import FlatCotree, PathCover
from ..cograph.cotree import JOIN, LEAF, CotreeError
from ..pram import PRAM
from .dp import (
    PATH_COVER_SIZE_DP,
    CotreeDPRun,
    _gather_level_children,
    run_cotree_dp,
)
from .solver import minimum_path_cover_parallel

__all__ = ["has_hamiltonian_path", "has_hamiltonian_cycle",
           "hamiltonian_path", "hamiltonian_cycle", "HamiltonicityReport",
           "hamiltonicity_report", "cycle_bridge", "path_witness",
           "cycle_witness"]

CoverSolver = Callable[[FlatCotree], PathCover]


@dataclass
class HamiltonicityReport:
    """Summary of the Hamiltonicity structure of a cograph."""

    num_vertices: int
    min_path_cover: int
    has_path: bool
    has_cycle: bool


# --------------------------------------------------------------------------- #
# decisions and witnesses on one PATH_COVER_SIZE_DP run
# --------------------------------------------------------------------------- #

def cycle_bridge(run: CotreeDPRun) -> Optional[int]:
    """The root child with the fewest leaves, through which a Hamiltonian
    cycle is closed; ``None`` when there is no Hamiltonian cycle."""
    flat = run.tree
    root = flat.root
    kids = flat.children_of(root)
    if flat.kind[root] != LEAF and len(kids) < 2:
        raise CotreeError(f"internal node {root} has 1 child(ren); "
                          f"canonicalize the cotree first")
    if flat.num_vertices < 3 or flat.kind[root] != JOIN:
        return None
    p, L = run.values["p"], run.values["L"]
    if int((p[kids] + L[kids]).max()) > int(L[root]):
        return None
    return int(kids[np.argmin(L[kids])])


def path_witness(run: CotreeDPRun,
                 cover_solver: CoverSolver) -> Optional[List[int]]:
    """The single path of the tree's minimum cover, or ``None``."""
    if run.root("p") != 1:
        return None
    return list(cover_solver(run.tree).paths[0])


def cycle_witness(run: CotreeDPRun,
                  cover_solver: CoverSolver) -> Optional[List[int]]:
    """A Hamiltonian cycle listed from its smallest vertex, or ``None``.

    With ``B`` the :func:`cycle_bridge` child and ``A = G - B``, a minimum
    cover ``P_1 .. P_k`` of ``A`` has ``k <= |B|`` paths, so ``k`` vertices
    of ``B`` close it into the ring ``P_1 b_1 ... P_k b_k``.  Each spare
    ``B`` vertex goes between two consecutive vertices of a path: there
    are ``|A| - k >= |B| - k`` such slots.
    """
    bridge = cycle_bridge(run)
    if bridge is None:
        return None
    sub, back, b_vertices = _split_root_child(run.tree, bridge)
    paths = cover_solver(sub).paths
    k = len(paths)
    if k > len(b_vertices):  # pragma: no cover - excluded by cycle_bridge
        raise AssertionError(f"cover of G - B has {k} paths, B only "
                             f"{len(b_vertices)} vertices")
    a = back[np.fromiter(chain.from_iterable(paths), dtype=np.int64,
                         count=len(back))]
    is_end = np.zeros(len(a), dtype=bool)
    is_end[np.cumsum([len(path) for path in paths]) - 1] = True
    spare_after = np.zeros(len(a), dtype=bool)
    spare_after[np.flatnonzero(~is_end)[:len(b_vertices) - k]] = True
    # each A vertex, then its spare B vertex, then the ring B vertex that
    # closes its path
    width = 1 + spare_after + is_end
    start = np.cumsum(width) - width
    cycle = np.empty(len(a) + len(b_vertices), dtype=np.int64)
    cycle[start] = a
    cycle[start[spare_after] + 1] = b_vertices[k:]
    cycle[start[is_end] + 1] = b_vertices[:k]
    return np.roll(cycle, -int(np.argmin(cycle))).tolist()


def _split_root_child(flat: FlatCotree,
                      child: int) -> Tuple[FlatCotree, np.ndarray,
                                           np.ndarray]:
    """``(sub, back, dropped)``: the cotree of ``G - G(child)`` with its
    vertices renumbered ``0..k-1`` in node order (``back[new] = old``),
    and the vertex ids of ``G(child)``.  A root left with one child is
    spliced out.  One CSR gather per level of ``G(child)``, then ``O(n)``
    array work."""
    n = flat.num_nodes
    root = flat.root
    kids = flat.children_of(root)
    drop = np.zeros(n, dtype=bool)
    level = np.array([child], dtype=np.int64)
    while len(level):
        drop[level] = True
        level = _gather_level_children(flat, level)[0]
    is_leaf = flat.kind == LEAF
    dropped = flat.leaf_vertex[drop & is_leaf]
    new_root = root
    if len(kids) == 2:
        drop[root] = True
        new_root = int(kids[kids != child][0])
    keep = np.flatnonzero(~drop)
    remap = np.full(n, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep), dtype=np.int64)

    kept_child = ~(drop[flat.child_index]
                   | drop[flat.parent[flat.child_index]])
    prefix = np.concatenate(([0], np.cumsum(kept_child)))
    offset = np.append(prefix[flat.child_offset[keep]], prefix[-1])
    parent = flat.parent[keep]
    parent = np.where(parent >= 0, remap[np.maximum(parent, 0)], -1)
    leaf_vertex = flat.leaf_vertex[keep]
    kept_leaf = is_leaf[keep]
    back = leaf_vertex[kept_leaf]
    leaf_vertex[kept_leaf] = np.arange(len(back), dtype=np.int64)
    sub = FlatCotree(flat.kind[keep], offset,
                     remap[flat.child_index[kept_child]], parent,
                     leaf_vertex, int(remap[new_root]))
    return sub, back, dropped


# --------------------------------------------------------------------------- #
# the tree-level API: thin wrappers over the above
# --------------------------------------------------------------------------- #

def _size_run(tree) -> CotreeDPRun:
    return run_cotree_dp(PATH_COVER_SIZE_DP, tree)


def _solver(machine: Optional[PRAM], backend,
            cover_solver: Optional[CoverSolver]) -> CoverSolver:
    if cover_solver is not None:
        return cover_solver
    return lambda tree: minimum_path_cover_parallel(
        tree, machine=machine, backend=backend).cover


def has_hamiltonian_path(tree) -> bool:
    """True iff the cograph admits a Hamiltonian path (``p(root) = 1``)."""
    return _size_run(tree).root("p") == 1


def has_hamiltonian_cycle(tree) -> bool:
    """True iff the cograph admits a Hamiltonian cycle."""
    return cycle_bridge(_size_run(tree)) is not None


def hamiltonian_path(tree, *, machine: Optional[PRAM] = None, backend=None,
                     cover_solver: Optional[CoverSolver] = None
                     ) -> Optional[List[int]]:
    """Return a Hamiltonian path (as a vertex list) or ``None``.

    The witness comes from the parallel solver on the given machine or
    backend (so it inherits the bounds of Theorem 5.3), or from
    ``cover_solver`` (any ``FlatCotree -> PathCover`` callable).
    """
    return path_witness(_size_run(tree),
                        _solver(machine, backend, cover_solver))


def hamiltonian_cycle(tree, *, machine: Optional[PRAM] = None, backend=None,
                      cover_solver: Optional[CoverSolver] = None
                      ) -> Optional[List[int]]:
    """Return a Hamiltonian cycle (its last vertex is adjacent to its
    first) or ``None``; engine arguments as for :func:`hamiltonian_path`."""
    return cycle_witness(_size_run(tree),
                         _solver(machine, backend, cover_solver))


def hamiltonicity_report(tree) -> HamiltonicityReport:
    """Convenience bundle of the Hamiltonicity facts of a cograph."""
    run = _size_run(tree)
    p = run.root("p")
    return HamiltonicityReport(num_vertices=run.tree.num_vertices,
                               min_path_cover=p, has_path=(p == 1),
                               has_cycle=cycle_bridge(run) is not None)
