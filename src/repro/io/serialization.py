"""Serialisation of cotrees, graphs and path covers.

Two formats are supported:

* a JSON document (``to_json`` / ``from_json``) that round-trips every field,
  suitable for experiment artefacts;
* a compact one-line text form for cotrees (``to_text`` / ``from_text``)
  using ``*`` for join and ``+`` for union, e.g. ``(0 + (1 * 2))`` — handy in
  examples, error messages and doctests.
"""

from __future__ import annotations

import json
from typing import Dict, List, Union

from ..cograph import Cotree, Graph, PathCover
from ..cograph.cotree import JOIN, LEAF, UNION, _compact

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

def cotree_to_json(tree: Cotree) -> Dict:
    """JSON-serialisable dict representation of a cotree."""
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


def cotree_from_json(data: Dict) -> Cotree:
    """Inverse of :func:`cotree_to_json`."""
    if data.get("type") != "cotree":
        raise ValueError("not a serialised cotree")
    _require(data, "cotree", ("kind", "children", "leaf_vertex", "root"))
    return Cotree(data["kind"], data["children"], data["leaf_vertex"],
                  data["root"])


def cotree_to_text(tree: Cotree) -> str:
    """Compact text form: ``*`` = join, ``+`` = union, leaves by vertex id.

    Iterative (an explicit stack of nodes and literal pieces), so any tree
    height is fine.
    """
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


def cotree_from_text(text: str) -> Cotree:
    """Parse the compact text form produced by :func:`cotree_to_text`.

    Iterative (one pass over the tokens with an explicit stack of open
    groups), so any nesting depth is fine.  Groups are canonicalized as
    they close, so the one tree built is already canonical.  A tree with
    two or more leaves must number them ``0..n-1`` — vertex ids index every
    per-vertex array downstream — and any other numbering is refused with a
    :class:`ValueError` naming the first missing id.  A lone leaf keeps its
    id (``"5"`` is the one-vertex cograph on vertex 5).
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ") \
                 .replace("*", " * ").replace("+", " + ").split()
    kind: List[int] = []
    children: List[List[int]] = []
    leaf_vertex: List[int] = []
    groups: List[list] = []      # open groups: [child node ids, op kind]
    num_tokens = len(tokens)
    pos = 0
    while True:
        # one expression: open groups until a leaf completes a node
        if pos >= num_tokens:
            raise ValueError(
                f"truncated cotree text (unbalanced parentheses?): {text!r}")
        token = tokens[pos]
        pos += 1
        if token == "(":
            groups.append([[], None])
            continue
        node = len(kind)
        kind.append(LEAF)
        children.append([])
        leaf_vertex.append(int(token))
        # hand the node to its group; close every group that ends here
        while groups:
            group = groups[-1]
            group[0].append(node)
            if pos >= num_tokens:
                raise ValueError(
                    f"truncated cotree text (unbalanced parentheses?): "
                    f"{text!r}")
            token = tokens[pos]
            if token != ")":
                if token in ("*", "+"):
                    op = JOIN if token == "*" else UNION
                    if group[1] is not None and group[1] != op:
                        raise ValueError("mixed operators inside one group")
                    group[1] = op
                    pos += 1
                break
            pos += 1
            groups.pop()
            members, op = group
            if op is None:
                if len(members) != 1:
                    raise ValueError("group without operator")
                node = members[0]
            else:
                # canonical on the fly: a same-operator member (already
                # canonical itself) hands its children up to this group
                flat: List[int] = []
                for member in members:
                    if kind[member] == op:
                        flat.extend(children[member])
                    else:
                        flat.append(member)
                node = len(kind)
                kind.append(op)
                children.append(flat)
                leaf_vertex.append(-1)
        else:
            break
    if pos != num_tokens:
        raise ValueError("trailing input after cotree expression")
    if len(kind) == 1:
        return Cotree.single_vertex(leaf_vertex[0])
    # renumber the reachable nodes in preorder (spliced members drop out)
    tree = _compact(kind, children, leaf_vertex, node)
    ids = [v for k, v in zip(kind, leaf_vertex) if k == LEAF]
    if max(ids) >= len(ids):
        missing = min(set(range(len(ids))).difference(ids))
        raise ValueError(
            f"cotree text must number its {len(ids)} leaves 0..{len(ids) - 1}"
            f" (vertex ids index per-vertex arrays); vertex id {missing} is "
            f"missing")
    return tree


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


def graph_from_json(data: Dict) -> Graph:
    """Inverse of :func:`graph_to_json`."""
    if data.get("type") != "graph":
        raise ValueError("not a serialised graph")
    _require(data, "graph", ("n", "edges"))
    return Graph(data["n"], [tuple(e) for e in data["edges"]])


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
