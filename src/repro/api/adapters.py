"""Input adapters: accept every reasonable instance description.

:func:`as_problem` is the funnel in front of :func:`repro.api.solve`.  It
turns any of

* a :class:`~repro.cograph.Cotree` / :class:`~repro.cograph.BinaryCotree`,
* a :class:`~repro.cograph.Graph`,
* an edge list (``[(0, 1), (1, 2)]`` or an ``(m, 2)`` array),
* an adjacency dict (``{0: [1], 1: [0, 2], 2: [1]}``),
* the compact cotree text form (``"(0 + (1 * 2))"``),
* binary wire bytes produced by :func:`repro.io.wire.to_bytes`
  (``bytes`` / ``bytearray`` / ``memoryview`` — decoded zero-copy),
* a path to a JSON file produced by :func:`repro.io.save_json`,
* a 0/1 bit vector (``[1, 0, 1]`` — the Fig. 2 lower-bound reduction;
  accepted only for ``task="lower_bound"``, so a flat integer list can
  never be silently mistaken for a graph), or
* an existing :class:`Problem`

into one :class:`Problem` value.  Cotree text and JSON parse straight to a
:class:`~repro.cograph.FlatCotree`, and :meth:`Problem.pipeline_tree`
validates every cotree once.  Edge lists, adjacency dicts and serialised
graphs become a :class:`~repro.cograph.CSRGraph` (one ``np.asarray`` and
one sort; no per-vertex object) that :func:`~repro.cograph.decompose`
turns into a tree *lazily*, so a non-cograph raises
:class:`~repro.cograph.NotACographError` only when a task actually needs the
cotree — which is what lets the ``recognition`` task answer ``False``
instead of blowing up.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, Iterable, Optional, Union

import numpy as np

from ..cograph import (
    BinaryCotree,
    Cotree,
    CSRGraph,
    FlatCotree,
    FlatForest,
    Graph,
    as_flat_cotree,
    decompose,
)
from ..core import LowerBoundInstance, or_instance_cotree
from ..io.serialization import _csr_from_json, _flat_from_json, \
    _flat_from_text

__all__ = ["Problem", "as_problem", "SOURCE_FORMATS"]

#: every ``Problem.source_format`` value an adapter can produce.
SOURCE_FORMATS = ("problem", "cotree", "flat_cotree", "binary_cotree",
                  "graph", "edge_list", "adjacency", "text", "json", "bits",
                  "wire")

TreeLike = Union[Cotree, BinaryCotree, FlatCotree]


@dataclass
class Problem:
    """One adapted instance, ready for any registered task.

    Exactly one of ``tree`` / ``graph`` is set at construction; a bit
    vector sets ``instance`` too, and its Fig. 2 cotree is the ``tree``.

    Attributes
    ----------
    source_format:
        which adapter produced this problem (see :data:`SOURCE_FORMATS`).
    tree:
        the cotree, when the input already was one or a bit vector;
        parsed text and JSON give a :class:`~repro.cograph.FlatCotree`,
        not yet validated.
    graph:
        the explicit graph as a :class:`~repro.cograph.CSRGraph`, when the
        input was graph-like.  Kept so the ``recognition`` task can answer
        without assuming cograph-ness.
    instance:
        the Fig. 2 :class:`~repro.core.LowerBoundInstance`, when the input
        was a bit vector.
    source:
        free-form origin note (e.g. the JSON file path).
    digest:
        a digest of the exact spelling the instance arrived in, set by the
        server's request parsers; :meth:`SolutionCache.key_for
        <repro.api.SolutionCache.key_for>` keys on it instead of the
        canonical cotree form when present.
    """

    source_format: str
    tree: Optional[TreeLike] = None
    graph: Optional[CSRGraph] = None
    instance: Optional[LowerBoundInstance] = None
    source: Optional[str] = None
    digest: Optional[bytes] = None
    _checked_tree: Optional[TreeLike] = field(default=None, repr=False)
    _cached_md: Optional[FlatCotree] = field(default=None, repr=False)

    def pipeline_tree(self) -> TreeLike:
        """The tree every tree task consumes: the instance's cotree as a
        :class:`FlatCotree`, flattened and checked by
        :meth:`FlatCotree.validate` once (cached); a graph's comes from
        :func:`~repro.cograph.decompose`, certified there.  A
        :class:`BinaryCotree` stays binary, checked by its own
        ``validate()``, so the pipeline still skips Step 1 on it."""
        if self._checked_tree is None and self.graph is not None:
            md = self._cached_md
            self._checked_tree = md if md is not None and not md.has_primes \
                else decompose(self.graph)
        if self._checked_tree is None:
            tree = self.tree
            self._checked_tree = (tree if isinstance(tree, BinaryCotree)
                                  else as_flat_cotree(tree)).validate()
        return self._checked_tree

    def decomposition_tree(self) -> TreeLike:
        """The tree an MD-capable task should consume.

        A graph gets the one decomposition
        (:func:`~repro.cograph.decompose` with ``modular=True``, certified
        and cached): a cograph's is the bit-identical tree
        :meth:`pipeline_tree` gives, and shares its cache; a *non-cograph*
        gets its modular decomposition tree, whose prime nodes the DP
        engine handles.  Non-graph inputs take :meth:`pipeline_tree`.
        """
        if self.graph is None or self._checked_tree is not None:
            return self.pipeline_tree()
        if self._cached_md is None:
            self._cached_md = decompose(self.graph, modular=True)
        return self._cached_md

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the instance."""
        if self.tree is not None:
            return self.tree.num_vertices
        return self.graph.n

    def provenance(self) -> Dict[str, Any]:
        """The provenance fields every Solution records about its input."""
        out = {"source_format": self.source_format,
               "num_vertices": self.num_vertices}
        if self.source is not None:
            out["source"] = self.source
        return out


# --------------------------------------------------------------------------- #
# the funnel
# --------------------------------------------------------------------------- #

def as_problem(obj: Any, *, task: Optional[str] = None,
               max_vertices: Optional[int] = None) -> Problem:
    """Adapt any supported instance description into a :class:`Problem`.

    See the module docstring for the accepted forms.  ``task`` (forwarded
    by :func:`~repro.api.solve`) only matters for flat integer sequences:
    they are read as lower-bound bit vectors for ``task="lower_bound"``
    and rejected otherwise, so a graph task can never silently solve the
    reduction gadget instead.  ``max_vertices`` refuses an edge list,
    adjacency dict or serialised graph that names more vertices, before
    anything of that size is allocated (the server passes its body's
    byte count).  Raises :class:`ValueError` (or :class:`TypeError` for
    hopeless inputs) with a message that names every accepted form.
    """
    if isinstance(obj, Problem):
        return obj
    if isinstance(obj, BinaryCotree):
        return Problem(source_format="binary_cotree", tree=obj)
    if isinstance(obj, FlatCotree):
        return Problem(source_format="flat_cotree", tree=obj)
    if isinstance(obj, Cotree):
        return Problem(source_format="cotree", tree=obj)
    if isinstance(obj, (Graph, CSRGraph)):
        return Problem(source_format="graph", graph=obj if isinstance(
            obj, CSRGraph) else obj.to_csr())
    if isinstance(obj, LowerBoundInstance):   # its Fig. 2 cotree is the tree
        return Problem(source_format="bits", tree=obj.cotree, instance=obj)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return _from_wire(obj)
    if isinstance(obj, os.PathLike):
        return _from_json_path(os.fspath(obj))
    if isinstance(obj, str):
        return _from_string(obj)
    if isinstance(obj, dict):
        return _from_dict(obj, max_vertices)
    if isinstance(obj, np.ndarray):
        return _from_array(obj, task, max_vertices)
    if isinstance(obj, (list, tuple)):
        return _from_sequence(obj, task, max_vertices)
    raise TypeError(
        f"cannot interpret {type(obj).__name__!r} as a problem; accepted: "
        f"Cotree, BinaryCotree, Graph, edge list, adjacency dict, cotree "
        f"text like '(0 + (1 * 2))', binary wire bytes "
        f"(repro.io.wire.to_bytes), a JSON file path, a 0/1 bit vector, "
        f"LowerBoundInstance, or Problem")


# --------------------------------------------------------------------------- #
# per-form adapters
# --------------------------------------------------------------------------- #

def _from_wire(buf) -> Problem:
    """Binary wire bytes: decoded zero-copy and validated once by
    :func:`~repro.io.wire.from_bytes` (a bad buffer raises ValueError,
    never crashes); a forest container is a batch, not one problem."""
    from ..io.wire import from_bytes
    tree = from_bytes(buf)
    if isinstance(tree, FlatForest):
        raise ValueError("a forest wire container holds many instances: "
                         "solve_forest(unpack(...)) them, or send them to "
                         "/v1/solve_batch as framed trees")
    return Problem(source_format="wire", tree=tree, _checked_tree=tree)


def _from_string(text: str) -> Problem:
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty string is not a problem; pass cotree text "
                         "like '(0 + (1 * 2))' or a JSON file path")
    # the filesystem wins over the single-vertex reading: a JSON file named
    # "123" must stay loadable, and a digit string that names no file still
    # parses as a single-vertex cotree
    if not stripped.startswith("(") and os.path.exists(stripped):
        return _from_json_path(stripped)
    if stripped.startswith("(") or stripped.isdigit():
        return Problem(source_format="text", tree=_flat_from_text(stripped))
    raise ValueError(
        f"string {text!r} is neither cotree text (must start with '(' or "
        f"be a single vertex id) nor an existing JSON file path")


def _from_json_path(path: str) -> Problem:
    """A JSON file takes the route of the dict it holds."""
    with open(path, "r", encoding="utf8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(
            f"JSON file {path!r} holds a {type(data).__name__}; expected a "
            f"serialised cotree or graph")
    problem = _from_dict(data)
    problem.source_format, problem.source = "json", path
    return problem


def _from_dict(data: dict, limit: Optional[int] = None) -> Problem:
    if "type" in data:
        # a serialised object from repro.io
        kind = data["type"]
        if kind == "cotree":
            return Problem(source_format="json", tree=_flat_from_json(data))
        if kind == "graph":
            return Problem(source_format="json",
                           graph=_csr_from_json(data, limit))
        raise ValueError(f"serialised {kind!r} is not a problem; expected "
                         f"'cotree' or 'graph'")
    # an adjacency mapping {vertex: neighbours}; JSON string keys and
    # one-sided listings accepted
    try:
        adj = {int(k): [int(v) for v in _iter(vs)] for k, vs in data.items()}
    except (TypeError, ValueError):
        raise ValueError(
            "dict input must be a serialised cotree/graph (with a 'type' "
            "key) or an adjacency mapping {vertex: [neighbours]}") from None
    listed = [max(vs) for vs in adj.values() if vs] + list(adj)
    _check_size(max(listed, default=-1) + 1, limit, "adjacency")
    try:
        graph = CSRGraph.from_adjacency(adj)
    except OverflowError:
        raise ValueError(_OVERSIZED_ID_MESSAGE.format("adjacency")) from None
    return Problem(source_format="adjacency", graph=graph)


def _from_array(arr: np.ndarray, task: Optional[str],
                limit: Optional[int] = None) -> Problem:
    if arr.size == 0:
        # same friendly message as an empty list/tuple, instead of a raw
        # ``max() arg is an empty sequence`` out of _edge_list
        raise ValueError(_EMPTY_INPUT_MESSAGE)
    if arr.ndim == 2 and arr.shape[1] == 2:
        return _edge_array(arr, limit)
    if arr.ndim == 1:
        return _bits(arr.tolist(), task)
    raise ValueError(f"array of shape {arr.shape} is not a problem; "
                     f"expected an (m, 2) edge list or a 1-d bit vector")


#: the one empty-input message, shared by the list, tuple and array paths.
_EMPTY_INPUT_MESSAGE = (
    "an empty sequence is ambiguous (empty edge list has no vertex "
    "count, empty bit vector has no bits); pass a Graph, an "
    "adjacency dict, or a cotree instead")


#: the one refusal of a vertex id that does not fit in 64 bits.
_OVERSIZED_ID_MESSAGE = ("{} contains a vertex id that does not fit in 64 "
                         "bits; vertices must be numbered 0, 1, 2, ...")


def _from_sequence(seq, task: Optional[str],
                   limit: Optional[int] = None) -> Problem:
    """A flat integer sequence (bits) or a list of integer pairs (edges):
    the shape from one ``np.asarray``, the entries' types from one pass
    over ``map(type, ...)``, so a bool or float is refused, never cast."""
    items = list(seq)
    if not items:
        raise ValueError(_EMPTY_INPUT_MESSAGE)
    try:
        arr = np.asarray(items)
    except (ValueError, TypeError):        # ragged rows
        arr = np.empty((0, 0))
    if arr.ndim == 1 or arr.ndim == 2 and arr.shape[1] == 2:
        entries = items if arr.ndim == 1 else chain.from_iterable(items)
        if all(issubclass(t, (int, np.integer)) and t is not bool
               for t in set(map(type, entries))):
            if arr.ndim == 1:
                return _bits(items, task)
            # past int64 the array is float or object: convert the ints
            return _edge_array(arr if arr.dtype.kind == "i" else items,
                               limit)
    raise ValueError(
        "sequence input must be either an edge list (pairs, e.g. "
        "[(0, 1), (1, 2)]) or, for task='lower_bound', a flat 0/1 bit "
        "vector (e.g. [1, 0, 1])")


def _check_size(n: int, limit: Optional[int], what: str) -> None:
    """Refuse a graph naming more vertices than ``limit`` allows."""
    if limit is not None and n > limit:
        raise ValueError(
            f"{what} names {n} vertices, more than a body of {limit} bytes "
            f"can describe; vertices must be numbered 0, 1, 2, ...")


def _edge_array(edges, limit: Optional[int] = None) -> Problem:
    """Vectorized edge-list adapter: validation, vertex count and the CSR
    graph are NumPy operations — no per-edge Python loop."""
    try:
        edges = np.asarray(edges, dtype=np.int64)
    except OverflowError:
        raise ValueError(_OVERSIZED_ID_MESSAGE.format("edge list")) from None
    if np.any(edges < 0):
        bad = edges[np.any(edges < 0, axis=1)][0]
        raise ValueError(
            f"edge list contains negative vertex id(s) (e.g. "
            f"({int(bad[0])}, {int(bad[1])})); vertices must be numbered "
            f"0, 1, 2, ...")
    n = int(edges.max()) + 1
    _check_size(n, limit, "edge list")
    return Problem(source_format="edge_list",
                   graph=CSRGraph.from_edges(n, edges))


def _bits(values, task: Optional[str]) -> Problem:
    # consult the registry's input_kind instead of hard-coding task names,
    # so out-of-tree bit-vector tasks inherit this adapter ("lower_bound"
    # stays accepted literally: adapters must work standalone, before any
    # task registration has happened)
    from .registry import TASKS
    spec = TASKS.get(task) if task is not None else None
    takes_bits = (spec.input_kind == "bits" if spec is not None
                  else task == "lower_bound")
    if not takes_bits:
        raise ValueError(
            "a flat integer sequence is only accepted as a 0/1 bit vector "
            "for bit-vector tasks such as task='lower_bound' (the Fig. 2 "
            "reduction); for a graph pass an edge list of pairs like "
            "[(0, 1), (1, 2)], an adjacency dict, or a Graph")
    if not all(int(v) in (0, 1) for v in values):
        raise ValueError(
            "lower-bound bit vectors must contain only 0/1 values")
    return as_problem(or_instance_cotree([int(v) for v in values]))


# --------------------------------------------------------------------------- #
# small predicates
# --------------------------------------------------------------------------- #

def _iter(x: Any) -> Iterable:
    if isinstance(x, (list, tuple, set, frozenset, np.ndarray)):
        return x
    raise TypeError(f"adjacency values must be sequences, got {type(x)}")
