"""Cograph recognition and modular decomposition: one decomposer.

The paper takes the cotree as its input and cites He [12] for a parallel
recogniser.  :func:`decompose` is the sequential one and the only route
from a graph to a tree (:func:`cotree_from_graph`,
:func:`~repro.cograph.md_tree` and the API's graph doors).  Twin peeling
by neighbourhood hashes builds the tree bottom-up, a top-down split
handles whatever has no twins (a non-cograph), and a certificate checks
the result against the graph; :mod:`repro.cograph._decompose` holds the
algorithm and is imported on first use.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .cotree import Cotree
from .flat import FlatCotree
from .graph import CSRGraph

__all__ = ["NotACographError", "decompose", "cotree_from_graph",
           "is_cograph", "find_induced_p4"]


class NotACographError(ValueError):
    """Raised when the input graph is not a cograph (contains an induced P4)."""

    def __init__(self, message: str, certificate: Optional[Tuple[int, ...]] = None):
        super().__init__(message)
        #: an induced path on four vertices witnessing non-cograph-ness, when
        #: one was computed.
        self.certificate = certificate


def decompose(graph, *, modular: bool = False) -> FlatCotree:
    """The canonical cotree of ``graph`` (a :class:`~repro.cograph.Graph`
    or :class:`~repro.cograph.graph.CSRGraph`) as a :class:`FlatCotree`,
    or with ``modular=True`` its modular decomposition tree (prime nodes
    carry their quotient; a cograph still gets its cotree).

    Raises
    ------
    NotACographError
        when ``modular`` is false and the graph is not a cograph.
    """
    from ._decompose import run
    g = graph if isinstance(graph, CSRGraph) else graph.to_csr()
    if g.n == 0:
        raise ValueError("the empty graph has no cotree")
    return run(g, modular)


def cotree_from_graph(graph) -> Cotree:
    """Build the canonical cotree of ``graph``.

    Raises
    ------
    NotACographError
        if the graph is not a cograph.
    """
    return decompose(graph).to_cotree()


def is_cograph(graph) -> bool:
    """True when ``graph`` is a cograph (P4-free)."""
    try:
        decompose(graph)
        return True
    except NotACographError:
        return False


def find_induced_p4(graph) -> Optional[Tuple[int, int, int, int]]:
    """An induced path ``a - b - c - d`` on four vertices, or ``None`` for a
    cograph (cographs are exactly the P4-free graphs)."""
    try:
        decompose(graph)
        return None
    except NotACographError as exc:
        return exc.certificate
