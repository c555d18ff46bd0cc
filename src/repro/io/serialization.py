"""Serialisation of cotrees, graphs and path covers.

Two formats are supported:

* a JSON document (``to_json`` / ``from_json``) that round-trips every field,
  suitable for experiment artefacts;
* a compact one-line text form for cotrees (``to_text`` / ``from_text``)
  using ``*`` for join and ``+`` for union, e.g. ``(0 + (1 * 2))`` — handy in
  examples, error messages and doctests.

Each cotree format has one parser, which builds a
:class:`~repro.cograph.FlatCotree` straight from the input; the public
``cotree_from_*`` functions return its ``.to_cotree()``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union

import numpy as np

from ..cograph import Cotree, CSRGraph, FlatCotree, Graph, PathCover
from ..cograph.cotree import JOIN, LEAF, UNION
from ..cograph.flat import _from_lists, _parent_csr
from ..cograph.operations import _as_cotree

__all__ = [
    "cotree_to_json", "cotree_from_json",
    "cotree_to_text", "cotree_from_text",
    "cover_to_json", "cover_from_json",
    "graph_to_json", "graph_from_json",
    "save_json", "load_json",
]


# --------------------------------------------------------------------------- #
# cotrees
# --------------------------------------------------------------------------- #

def cotree_to_json(tree: Union[Cotree, FlatCotree]) -> Dict:
    """JSON-serialisable dict representation of a cotree."""
    tree = _as_cotree(tree)
    return {
        "type": "cotree",
        "kind": [int(k) for k in tree.kind],
        "children": [list(map(int, c)) for c in tree.children],
        "leaf_vertex": [int(v) for v in tree.leaf_vertex],
        "root": int(tree.root),
    }


def _require(data: Dict, what: str, keys) -> None:
    """A ``ValueError`` naming the missing keys, never a raw ``KeyError``."""
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"serialised {what} is missing key(s) "
                         f"{', '.join(repr(k) for k in missing)}")


def _flat_from_json(data: Dict) -> FlatCotree:
    """A serialised cotree dict as CSR arrays in one pass, shape kept (not
    validated: :meth:`FlatCotree.validate` decides, downstream)."""
    if data.get("type") != "cotree":
        raise ValueError("not a serialised cotree")
    _require(data, "cotree", ("kind", "children", "leaf_vertex", "root"))
    return _from_lists(data["kind"], data["children"], data["leaf_vertex"],
                       data["root"])


def cotree_from_json(data: Dict) -> Cotree:
    """Inverse of :func:`cotree_to_json`."""
    return _flat_from_json(data).to_cotree()


def cotree_to_text(tree: Union[Cotree, FlatCotree]) -> str:
    """Compact text form: ``*`` = join, ``+`` = union, leaves by vertex id.

    Iterative (an explicit stack of nodes and literal pieces), so any tree
    height is fine.
    """
    tree = _as_cotree(tree)
    out: List[str] = []
    stack: List[Union[int, str]] = [tree.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif tree.kind[item] == LEAF:
            out.append(str(int(tree.leaf_vertex[item])))
        else:
            sep = " * " if tree.kind[item] == JOIN else " + "
            stack.append(")")
            for i, c in enumerate(reversed(tree.children[item])):
                if i:
                    stack.append(sep)
                stack.append(c)
            stack.append("(")
    return "".join(out)


def _flat_from_text(text: str) -> FlatCotree:
    """Parse the compact text form into a canonical :class:`FlatCotree`.

    One pass over the tokens with an explicit stack of open groups, so any
    nesting depth is fine.  Every ``(`` and every leaf is a node, numbered
    in token order (preorder) with its parent, and the flat pointer jump
    (:meth:`FlatCotree.canonicalize`) splices unary groups and
    same-operator members.  Two or more leaves must be numbered ``0..n-1``
    (vertex ids index per-vertex arrays), else the first missing id is
    named; a lone leaf keeps its id.
    Not validated: :meth:`FlatCotree.validate` decides, downstream.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ") \
                 .replace("*", " * ").replace("+", " + ").split()
    kind: List[int] = []
    parent: List[int] = []
    ids: List[int] = []          # leaf vertex ids, in token order
    groups: List[list] = []      # open groups: [node, op kind, members]
    num_tokens = len(tokens)
    truncated = "truncated cotree text (unbalanced parentheses?): {!r}"
    pos = 0
    while True:
        # one expression: open groups until a leaf completes a node
        if pos >= num_tokens:
            raise ValueError(truncated.format(text))
        token = tokens[pos]
        pos += 1
        parent.append(groups[-1][0] if groups else -1)
        if token == "(":
            # UNION until an operator names it; a one-member group without
            # one is unary and canonicalize splices it out
            groups.append([len(kind), None, 0])
            kind.append(UNION)
            continue
        kind.append(LEAF)
        ids.append(int(token))
        # count the node in its group; close every group that ends here
        while groups:
            group = groups[-1]
            group[2] += 1
            if pos >= num_tokens:
                raise ValueError(truncated.format(text))
            token = tokens[pos]
            if token != ")":
                if token in ("*", "+"):
                    op = JOIN if token == "*" else UNION
                    if group[1] is not None and group[1] != op:
                        raise ValueError("mixed operators inside one group")
                    group[1] = op
                    kind[group[0]] = op
                    pos += 1
                break
            pos += 1
            groups.pop()
            if group[1] is None and group[2] != 1:
                raise ValueError("group without operator")
        else:
            break
    if pos != num_tokens:
        raise ValueError("trailing input after cotree expression")
    n = len(ids)
    if n > 1 and max(ids) >= n:
        missing = min(set(range(n)).difference(ids))
        raise ValueError(
            f"cotree text must number its {n} leaves 0..{n - 1} (vertex "
            f"ids index per-vertex arrays); vertex id {missing} is missing")
    kinds = np.asarray(kind, dtype=np.int8)
    parents = np.asarray(parent, dtype=np.int64)
    leaf_vertex = np.full(len(kinds), -1, dtype=np.int64)
    try:
        leaf_vertex[kinds == LEAF] = ids
    except OverflowError:   # past the check above: a negative or lone id
        raise ValueError(f"vertex id {min(ids)} does not fit in 64 bits"
                         ) from None
    flat = FlatCotree(kinds, *_parent_csr(parents), parents, leaf_vertex, 0)
    return flat if flat.is_canonical() else flat.canonicalize()


def cotree_from_text(text: str) -> Cotree:
    """The canonical :class:`Cotree` of :func:`cotree_to_text`'s form."""
    return _flat_from_text(text).to_cotree()


# --------------------------------------------------------------------------- #
# covers and graphs
# --------------------------------------------------------------------------- #

def cover_to_json(cover: PathCover) -> Dict:
    """JSON-serialisable dict of a path cover."""
    return {"type": "path_cover", "paths": [list(map(int, p)) for p in cover.paths]}


def cover_from_json(data: Dict) -> PathCover:
    """Inverse of :func:`cover_to_json`."""
    if data.get("type") != "path_cover":
        raise ValueError("not a serialised path cover")
    _require(data, "path cover", ("paths",))
    return PathCover([list(p) for p in data["paths"]])


def graph_to_json(graph: Graph) -> Dict:
    """JSON-serialisable dict of a graph (edge list)."""
    return {"type": "graph", "n": graph.n,
            "edges": [[int(u), int(v)] for u, v in graph.edges()]}


def _csr_from_json(data: Dict, max_vertices: Optional[int] = None
                   ) -> CSRGraph:
    """A serialised graph dict as a :class:`CSRGraph`: ``n`` checked
    (against ``max_vertices`` too) before anything of that size exists,
    the edges read by one ``np.asarray``."""
    if data.get("type") != "graph":
        raise ValueError("not a serialised graph")
    _require(data, "graph", ("n", "edges"))
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"serialised graph 'n' must be an integer vertex "
                         f"count, got {n!r}")
    if max_vertices is not None and n > max_vertices:
        raise ValueError(f"serialised graph 'n' = {n} is more vertices than "
                         f"a body of {max_vertices} bytes can describe")
    try:
        edges = np.asarray(data["edges"])
        pairs = edges.size == 0 or (edges.ndim == 2 and edges.shape[1] == 2
                                    and edges.dtype.kind in "iu")
    except (ValueError, TypeError):        # ragged rows
        pairs = False
    if not pairs:
        raise ValueError("serialised graph 'edges' must be a list of "
                         "[u, v] integer pairs")
    return CSRGraph.from_edges(n, edges.reshape(-1, 2))


def graph_from_json(data: Dict) -> Graph:
    """Inverse of :func:`graph_to_json`."""
    return _csr_from_json(data).to_graph()


# --------------------------------------------------------------------------- #
# files
# --------------------------------------------------------------------------- #

def save_json(obj, path: str) -> None:
    """Serialise a cotree / cover / graph / :class:`~repro.api.Solution`
    (or a prepared dict) to a file."""
    if isinstance(obj, Cotree):
        data = cotree_to_json(obj)
    elif isinstance(obj, PathCover):
        data = cover_to_json(obj)
    elif isinstance(obj, Graph):
        data = graph_to_json(obj)
    elif hasattr(obj, "to_json_dict"):  # Solution (duck-typed: no api import)
        data = obj.to_json_dict()
        if not isinstance(data, dict) or "type" not in data:
            # e.g. a bare CostReport: its payload has no tag for load_json
            raise TypeError(
                f"cannot serialise {type(obj).__name__}: its "
                f"to_json_dict() payload carries no 'type' tag for "
                f"load_json dispatch")
    else:
        data = obj
    with open(path, "w", encoding="utf8") as fh:
        json.dump(data, fh, indent=2)


def load_json(path: str) -> Union[Cotree, PathCover, Graph, Dict]:
    """Load a file produced by :func:`save_json`, dispatching on its type."""
    with open(path, "r", encoding="utf8") as fh:
        data = json.load(fh)
    kind = data.get("type") if isinstance(data, dict) else None
    if kind == "cotree":
        return cotree_from_json(data)
    if kind == "path_cover":
        return cover_from_json(data)
    if kind == "graph":
        return graph_from_json(data)
    if kind == "solution":
        # imported lazily: repro.api sits above repro.io in the layering
        from ..api.solution import Solution
        return Solution.from_json_dict(data)
    return data
