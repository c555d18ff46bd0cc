"""The declarative bottom-up cotree-DP engine.

Nearly every classic cograph problem — minimum path cover size, maximum
clique, maximum independent set, chromatic number, clique cover, counting
independent sets — is the *same computation shape*: give every leaf a value,
then combine child values at 0-nodes (union) and 1-nodes (join), bottom-up.
This module captures that shape once:

* :class:`CotreeDP` is a declarative spec — a leaf initialiser plus one
  :class:`Combine` rule per internal-node kind (an optional elementwise
  ``prepare`` over child values, a set of named segmented reductions drawn
  from ``sum`` / ``max`` / ``min`` / ``prod``, and an optional elementwise
  ``finish``), with an optional witness reconstruction;
* :func:`run_cotree_dp` executes a spec level-wise over
  :class:`~repro.cograph.FlatCotree` CSR arrays on any execution backend.
  On the :class:`~repro.backends.FastBackend` each level is **loop-free**:
  the children of all the level's nodes are gathered with one fancy-index
  expression and reduced with one ``np.ufunc.reduceat`` call per named
  reduction.  On the :class:`~repro.backends.PRAMBackend` the same
  reductions run as ``ceil(log2 max_arity)`` accounted halving rounds per
  level, so every DP inherits the EREW cost model for free — the engine's
  time is ``O(height + sum_level log arity)``, the cost profile of the
  "naive level-by-level parallelisation" the paper discusses after
  Lemma 2.3 (the bracket pipeline exists precisely to beat this on deep
  trees; the engine is the general workhorse, not the headline algorithm);
* :func:`run_cotree_dp_sequential` is the one generic postorder reference
  evaluator (the ``method="sequential"`` path of the DP tasks) — no task
  carries a bespoke traversal of its own.

Outputs are bit-identical across all three execution paths (the reduction
operators are associative over exact integers), which
``tests/test_dp_engine.py`` pins for every built-in spec.

The built-in specs live at the bottom of the module; the engine is public,
so out-of-tree DPs get the backends, the witness helpers and the
``solve()`` front door (via :func:`repro.api.register_task`) for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from .._dfs import depth_by_doubling as _depth_by_doubling
from ..backends import ExecutionContext, resolve_context
from ..cograph import FlatCotree, as_flat_cotree
from ..cograph.cotree import JOIN, LEAF, PRIME, UNION
from ..cograph.md import SPIDER_THIN

__all__ = [
    "Combine",
    "PrimeCombine",
    "CotreeDP",
    "CotreeDPRun",
    "run_cotree_dp",
    "run_cotree_dp_sequential",
    "selected_subtree_vertices",
    "class_assignment",
    "MAX_GENERIC_PRIME",
    "PATH_COVER_SIZE_DP",
    "MAX_CLIQUE_DP",
    "MAX_INDEPENDENT_SET_DP",
    "CHROMATIC_NUMBER_DP",
    "CLIQUE_COVER_DP",
    "COUNT_INDEPENDENT_SETS_DP",
    "max_weight_independent_set_dp",
    "max_weight_clique_dp",
    "BUILTIN_DPS",
]

#: arity cap of the generic (non-spider) prime combine: the brute force
#: enumerates ``2**arity`` child subsets, so it is exact and fast up to
#: here and refused beyond (P4-sparse inputs never hit it — their primes
#: are all spider-flagged and run closed-form).
MAX_GENERIC_PRIME: int = 16

#: the associative reduction operators a :class:`Combine` may name.
_REDUCE_UFUNCS: Dict[str, np.ufunc] = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
    "prod": np.multiply,
}


@dataclass(frozen=True)
class Combine:
    """How one internal-node kind combines its children's DP values.

    Attributes
    ----------
    reduce:
        tuple of ``(output_name, op, source)`` triples: for every internal
        node of this kind, ``output_name`` becomes the segmented ``op``
        (``"sum"`` / ``"max"`` / ``"min"`` / ``"prod"``) of ``source`` over
        the node's children.  ``source`` is a DP field name or a derived
        array produced by ``prepare``.
    prepare:
        optional elementwise map over child values,
        ``prepare(child_values) -> dict of derived arrays`` (each aligned
        with the child arrays).  Runs as one parallel step.
    finish:
        optional elementwise map from the reduced outputs to the node's DP
        fields, ``finish(reduced) -> dict of field arrays``.  When omitted
        the reduction outputs must already carry the DP field names.
    """

    reduce: Tuple[Tuple[str, str, str], ...]
    prepare: Optional[Callable[[Dict[str, np.ndarray]],
                               Dict[str, np.ndarray]]] = None
    finish: Optional[Callable[[Dict[str, np.ndarray]],
                              Dict[str, np.ndarray]]] = None

    def __post_init__(self) -> None:
        for out, op, _src in self.reduce:
            if op not in _REDUCE_UFUNCS:
                raise ValueError(
                    f"unknown reduction {op!r} for output {out!r}; use one "
                    f"of {sorted(_REDUCE_UFUNCS)}")


@dataclass(frozen=True)
class PrimeCombine:
    """How :data:`~repro.cograph.cotree.PRIME` nodes combine their children.

    A prime node's children are the maximal strong modules of a modular
    decomposition tree; its packed quotient edges say which child pairs are
    fully joined.  For the extremal single-field DPs this module ships, the
    node value is::

        max over subsets X of children, X independent (select =
        "independent") or a clique (select = "clique") in the quotient,
        of  sum(value[c] for c in X)

    which is exact for max-(weight-)independent-set (an IS picks an
    independent set of modules and an IS inside each) and dually for
    max-(weight-)clique.  Child values must be **non-negative** (true for
    the built-in specs: weights are validated ``>= 0``), so supersets never
    hurt and the closed forms below are tight.

    Execution: spider-flagged primes (the P4-sparse case) evaluate a
    closed form over the ``[s_1..s_k, k_1..k_k, (r)]`` child layout —
    ``O(k)`` work, vectorized across all spiders of a level; generic primes
    run a vectorized bitmask brute force over all ``2**arity`` subsets,
    batched per arity across the level, refused above
    :data:`MAX_GENERIC_PRIME` children.  The winning subset (smallest
    encoding on ties, identically on every backend) is recorded in
    ``CotreeDPRun.prime_choice`` for the witness pass.
    """

    select: str

    def __post_init__(self) -> None:
        if self.select not in ("independent", "clique"):
            raise ValueError(f"PrimeCombine select must be 'independent' or "
                             f"'clique', got {self.select!r}")


@dataclass(frozen=True)
class CotreeDP:
    """A declarative bottom-up DP over cotrees.

    Attributes
    ----------
    name:
        spec name (used in step labels and error messages).
    fields:
        the per-node DP state — one array per field.
    leaf:
        ``leaf(vertex_ids) -> {field: array}`` — values of the leaf nodes,
        vectorized over all leaves at once.
    union / join:
        the :class:`Combine` rule of 0-nodes / 1-nodes.
    prime:
        optional :class:`PrimeCombine` rule for prime nodes of modular
        decomposition trees.  Specs without one are cograph-only: the
        engine raises when such a spec meets a prime node.  Requires a
        single-field spec.
    dtype:
        NumPy dtype of every field array (``object`` for unbounded
        integers, e.g. counting DPs).
    witness:
        optional ``witness(run) -> Any`` reconstruction executed by
        :meth:`CotreeDPRun.witness` (see :func:`selected_subtree_vertices`
        and :func:`class_assignment` for the two reusable shapes).
    """

    name: str
    fields: Tuple[str, ...]
    leaf: Callable[[np.ndarray], Dict[str, np.ndarray]]
    union: Combine
    join: Combine
    dtype: Any = np.int64
    witness: Optional[Callable[["CotreeDPRun"], Any]] = None
    prime: Optional[PrimeCombine] = None

    def __post_init__(self) -> None:
        if self.prime is not None and len(self.fields) != 1:
            raise ValueError(f"cotree DP {self.name!r}: the prime combine "
                             f"supports single-field specs only")


@dataclass
class CotreeDPRun:
    """The outcome of one DP execution: per-node values plus the context."""

    dp: CotreeDP
    tree: FlatCotree
    values: Dict[str, np.ndarray]
    depth: np.ndarray
    ctx: Optional[ExecutionContext] = None
    backend: str = "fast"
    #: per-node winning selection of prime nodes (``None`` on prime-free
    #: trees): the best subset's bitmask for generic primes, ``-1`` (base
    #: option) or the winning pair index for spider primes.
    prime_choice: Optional[np.ndarray] = None

    def root(self, field_name: Optional[str] = None):
        """The DP value at the root (first declared field by default)."""
        name = field_name if field_name is not None else self.dp.fields[0]
        value = self.values[name][self.tree.root]
        return value if self.dp.dtype is object else int(value)

    def root_values(self, field_name: Optional[str] = None) -> np.ndarray:
        """Per-instance root values (length-1 unless the tree is a forest)."""
        name = field_name if field_name is not None else self.dp.fields[0]
        roots = getattr(self.tree, "roots", None)
        if roots is None:
            roots = np.asarray([self.tree.root], dtype=np.int64)
        return self.values[name][np.asarray(roots, dtype=np.int64)]

    def witness(self) -> Any:
        """Run the spec's witness reconstruction (``None`` when absent)."""
        if self.dp.witness is None:
            return None
        return self.dp.witness(self)


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #

def _gather_level_children(flat: FlatCotree, nodes: np.ndarray):
    """Contiguous per-node child segments for one level.

    Returns ``(child_nodes, seg_offsets)`` where ``child_nodes`` lists the
    children of every node in ``nodes`` back to back and ``seg_offsets``
    (length ``len(nodes) + 1``) delimits each node's block.  Pure index
    arithmetic — no Python loop over nodes.
    """
    starts = flat.child_offset[nodes]
    counts = flat.child_offset[nodes + 1] - starts
    seg_offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(counts, out=seg_offsets[1:])
    total = int(seg_offsets[-1])
    pos = (np.arange(total, dtype=np.int64)
           - np.repeat(seg_offsets[:-1], counts)
           + np.repeat(starts, counts))
    return flat.child_index[pos], seg_offsets


def _segmented_reduce(ctx: ExecutionContext, values: np.ndarray,
                      seg_offsets: np.ndarray, op: str,
                      label: str) -> np.ndarray:
    """Reduce each segment of ``values`` with ``op``.

    Fast path: one ``ufunc.reduceat`` call.  Simulated path: accounted
    pairwise halving rounds (``ceil(log2 max_segment)`` EREW steps, linear
    work).  Bit-identical outputs — the operators are associative over
    exact integers.
    """
    ufunc = _REDUCE_UFUNCS[op]
    if not ctx.simulates:
        return ufunc.reduceat(values, seg_offsets[:-1])
    counts = np.diff(seg_offsets)
    buf = values.copy()
    local = (np.arange(len(values), dtype=np.int64)
             - np.repeat(seg_offsets[:-1], counts))
    seg_len = np.repeat(counts, counts)
    h = 1
    max_len = int(counts.max()) if len(counts) else 0
    while h < max_len:
        idx = np.flatnonzero((local % (2 * h) == 0) & (local + h < seg_len))
        if len(idx):
            with ctx.step(active=len(idx), label=f"{label}:{op}-halve"):
                buf[idx] = ufunc(buf[idx], buf[idx + h])
        h *= 2
    return buf[seg_offsets[:-1]]


def _combine_level(ctx: ExecutionContext, dp: CotreeDP, flat: FlatCotree,
                   values: Dict[str, np.ndarray], nodes: np.ndarray,
                   combine: Combine, label: str) -> None:
    """Apply one :class:`Combine` to all same-kind nodes of one level."""
    child_nodes, seg_offsets = _gather_level_children(flat, nodes)
    child_values = {f: values[f][child_nodes] for f in dp.fields}
    if combine.prepare is not None:
        with ctx.step(active=len(child_nodes), label=f"{label}:prepare"):
            child_values.update(combine.prepare(child_values))
    reduced = {
        out: _segmented_reduce(ctx, child_values[src], seg_offsets, op, label)
        for out, op, src in combine.reduce
    }
    if combine.finish is not None:
        with ctx.step(active=len(nodes), label=f"{label}:finish"):
            reduced = combine.finish(reduced)
    with ctx.step(active=len(nodes), label=f"{label}:store"):
        for f in dp.fields:
            values[f][nodes] = reduced[f]


_NEG = np.int64(-(2 ** 62))     # "impossible" sentinel below any real score


def _check_prime_support(dp: CotreeDP, flat) -> Optional[np.ndarray]:
    """``None`` for prime-free trees, else the choice array to fill —
    raising when the spec cannot run on modular decomposition trees."""
    if not getattr(flat, "has_primes", False):
        return None
    if dp.prime is None:
        raise ValueError(
            f"cotree DP {dp.name!r} has no prime combine: it is exact on "
            f"cographs only, but the input is a modular decomposition tree "
            f"with prime nodes")
    return np.full(flat.num_nodes, -2, dtype=np.int64)


def _prime_values(flat: FlatCotree, value: np.ndarray, nodes: np.ndarray,
                  select: str, ctx: Optional[ExecutionContext],
                  label: str) -> Tuple[np.ndarray, np.ndarray]:
    """Values and winning choices of the prime nodes in ``nodes``.

    One shared implementation for the level-vectorized runner, the PRAM
    runner (``ctx`` accounts the steps) and the sequential reference
    (``ctx=None``), so all three are bit-identical by construction.
    """
    from contextlib import nullcontext

    def step(active: int, tag: str):
        return nullcontext() if ctx is None else \
            ctx.step(active=active, label=f"{label}:{tag}")

    out_val = np.empty(len(nodes), dtype=np.int64)
    out_choice = np.empty(len(nodes), dtype=np.int64)
    spider_flag = flat.spider[nodes]
    sp = np.flatnonzero(spider_flag > 0)
    ge = np.flatnonzero(spider_flag == 0)

    if len(sp):
        v, c = _spider_prime_values(flat, value, nodes[sp], select, ctx,
                                    step)
        out_val[sp] = v
        out_choice[sp] = c
    if len(ge):
        v, c = _generic_prime_values(flat, value, nodes[ge], select, step)
        out_val[ge] = v
        out_choice[ge] = c
    return out_val, out_choice


def _spider_prime_values(flat: FlatCotree, value: np.ndarray,
                         nodes: np.ndarray, select: str,
                         ctx: Optional[ExecutionContext],
                         step) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form spider combine, vectorized across all spiders of a level.

    Children are laid out ``[s_1..s_k, k_1..k_k, (r)]``.  With non-negative
    child values the optimum is either the *base* option (choice ``-1``:
    all feet plus the head for ``independent``, the whole body plus the
    head for ``clique``) or one *pair* option ``i`` (swap foot/body ``i``
    in or out).  Ties prefer the base option, then the smallest pair.
    """
    rctx = ctx if ctx is not None else resolve_context(None)
    child_nodes, seg = _gather_level_children(flat, nodes)
    counts = np.diff(seg)
    k = counts // 2
    has_head = (counts % 2) == 1
    cv = value[child_nodes].astype(np.int64, copy=False)
    with step(len(child_nodes), "spider-classify"):
        local = (np.arange(len(child_nodes), dtype=np.int64)
                 - np.repeat(seg[:-1], counts))
        kk = np.repeat(k, counts)
        is_foot = local < kk
        is_body = ~is_foot & (local < 2 * kk)
        thin = flat.spider[nodes] == SPIDER_THIN
        thin_c = np.repeat(thin, counts)
    rv = np.zeros(len(nodes), dtype=np.int64)
    rv[has_head] = cv[seg[1:][has_head] - 1]
    sum_s = _segmented_reduce(rctx, np.where(is_foot, cv, 0), seg, "sum",
                              "spider-sumS")
    sum_k = _segmented_reduce(rctx, np.where(is_body, cv, 0), seg, "sum",
                              "spider-sumK")
    with step(len(child_nodes), "spider-pair-terms"):
        # per body slot: the pair option's variable term (foot at pos - k)
        foot_v = np.zeros_like(cv)
        bpos = np.flatnonzero(is_body)
        foot_v[bpos] = cv[bpos - kk[bpos]]
        if select == "independent":
            term = np.where(thin_c, cv - foot_v, cv + foot_v)
        else:
            term = np.where(thin_c, cv + foot_v, foot_v - cv)
        # packed segmented argmax over body slots only (smallest pair wins
        # ties; M > every local slot keeps the packing monotone in term)
        m_pack = np.int64(int(counts.max()) + 1) if len(counts) else \
            np.int64(1)
        packed = np.where(is_body, term * m_pack + (m_pack - 1 - local),
                          _NEG)
    best_packed = _segmented_reduce(rctx, packed, seg, "max", "spider-pair")
    with step(len(nodes), "spider-finish"):
        slot = m_pack - 1 - best_packed % m_pack
        pair_term = (best_packed - (m_pack - 1 - slot)) // m_pack
        pair_i = slot - k                     # body slot -> pair index
        if select == "independent":
            base = sum_s + rv
            pair_total = np.where(thin, sum_s + pair_term, pair_term)
        else:
            base = sum_k + rv
            pair_total = np.where(thin, pair_term, sum_k + pair_term)
        have_pair = best_packed > _NEG
        pair_total = np.where(have_pair, pair_total, _NEG)
        out_val = np.maximum(base, pair_total)
        out_choice = np.where(base >= pair_total, np.int64(-1), pair_i)
    return out_val, out_choice


def _generic_prime_values(flat: FlatCotree, value: np.ndarray,
                          nodes: np.ndarray, select: str,
                          step) -> Tuple[np.ndarray, np.ndarray]:
    """Exact bitmask brute force over each prime's quotient, batched by
    arity: one ``(primes, 2**m)`` score table per arity group, one
    ``argmax`` (first maximum = smallest subset mask on ties)."""
    counts = (flat.child_offset[nodes + 1] - flat.child_offset[nodes])
    out_val = np.empty(len(nodes), dtype=np.int64)
    out_choice = np.empty(len(nodes), dtype=np.int64)
    too_big = counts > MAX_GENERIC_PRIME
    if too_big.any():
        u = int(nodes[too_big][0])
        raise ValueError(
            f"prime node {u} has {int(counts[too_big][0])} children; the "
            f"generic prime combine enumerates child subsets and is capped "
            f"at {MAX_GENERIC_PRIME} (spider primes have no cap)")
    for m in np.unique(counts).tolist():
        grp = np.flatnonzero(counts == m)
        gn = nodes[grp]
        p = len(gn)
        # per-slot neighbour bitmasks of every quotient in the group
        adj = np.zeros((p, m), dtype=np.int64)
        starts = flat.q_offset[gn]
        widths = flat.q_offset[gn + 1] - starts
        rows = np.repeat(np.arange(p, dtype=np.int64), widths)
        pos = (np.arange(int(widths.sum()), dtype=np.int64)
               - np.repeat(np.cumsum(widths) - widths, widths)
               + np.repeat(starts, widths))
        eu = flat.q_edge_u[pos]
        ev = flat.q_edge_v[pos]
        np.bitwise_or.at(adj, (rows, eu), np.int64(1) << ev)
        np.bitwise_or.at(adj, (rows, ev), np.int64(1) << eu)
        if select == "clique":
            full = np.int64((1 << m) - 1)
            adj = ~adj & (full ^ (np.int64(1) << np.arange(m)))
        masks = np.arange(1 << m, dtype=np.int64)
        child = flat.child_index[
            (flat.child_offset[gn][:, None]
             + np.arange(m, dtype=np.int64)[None, :])]
        vals = value[child].astype(np.int64, copy=False)
        with step(p * (1 << m) * m, "prime-bruteforce"):
            bits = ((masks[None, :] >> np.arange(m)[:, None]) & 1) \
                .astype(np.int64)                       # (m, 2**m)
            sums = vals @ bits                          # (p, 2**m)
            bad = np.zeros((p, 1 << m), dtype=bool)
            for i in range(m):
                has_i = (masks >> i) & 1
                bad |= (has_i[None, :] != 0) & \
                    ((adj[:, i:i + 1] & masks[None, :]) != 0)
            score = np.where(bad, np.int64(-1), sums)
            best = np.argmax(score, axis=1)
            out_val[grp] = score[np.arange(p), best]
            out_choice[grp] = masks[best]
    return out_val, out_choice


def run_cotree_dp(dp: CotreeDP, tree, ctx=None, *,
                  label: Optional[str] = None) -> CotreeDPRun:
    """Execute a :class:`CotreeDP` bottom-up, level by level.

    Parameters
    ----------
    dp:
        the declarative spec.
    tree:
        a :class:`~repro.cograph.Cotree` / ``BinaryCotree`` /
        :class:`~repro.cograph.FlatCotree` (any shape — canonical form is
        not required, since union and join are associative).
    ctx:
        execution context — anything
        :func:`~repro.backends.resolve_context` accepts.  ``None`` runs on
        the shared fast backend.

    Returns
    -------
    CotreeDPRun
        per-node value arrays (indexed by the flat tree's node ids), the
        flat tree and the context the run accounted on.
    """
    context = resolve_context(ctx)
    flat = as_flat_cotree(tree)
    n = flat.num_nodes
    if n == 0:
        raise ValueError(f"cotree DP {dp.name!r} needs a non-empty cotree")
    tag = label if label is not None else f"dp.{dp.name}"

    values = {f: np.empty(n, dtype=dp.dtype) for f in dp.fields}
    leaves = flat.leaves
    # a packed forest shifts leaf_vertex globally; feed the initialiser the
    # instances' original ids so every instance sees what a solo run would
    leaf_ids = getattr(flat, "leaf_vertex_local", flat.leaf_vertex)
    with context.step(active=len(leaves), label=f"{tag}:leaves"):
        leaf_values = dp.leaf(leaf_ids[leaves])
        for f in dp.fields:
            values[f][leaves] = leaf_values[f]

    prime_choice = _check_prime_support(dp, flat)
    depth = _depth_by_doubling(flat.parent)
    internal = flat.internal_nodes
    if len(internal):
        order = internal[np.argsort(-depth[internal], kind="stable")]
        level_starts = np.flatnonzero(
            np.diff(depth[order], prepend=depth[order[0]] + 1))
        bounds = np.append(level_starts, len(order))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            level_nodes = order[lo:hi]
            d = int(depth[level_nodes[0]])
            for kind, combine in ((UNION, dp.union), (JOIN, dp.join)):
                sel = level_nodes[flat.kind[level_nodes] == kind]
                if len(sel):
                    _combine_level(context, dp, flat, values, sel, combine,
                                   f"{tag}:L{d}")
            if prime_choice is not None:
                sel = level_nodes[flat.kind[level_nodes] == PRIME]
                if len(sel):
                    vals, choices = _prime_values(
                        flat, values[dp.fields[0]], sel,
                        dp.prime.select, context, f"{tag}:L{d}")
                    with context.step(active=len(sel),
                                      label=f"{tag}:L{d}:store"):
                        values[dp.fields[0]][sel] = vals
                        prime_choice[sel] = choices
    return CotreeDPRun(dp=dp, tree=flat, values=values, depth=depth,
                       ctx=context, backend=context.name,
                       prime_choice=prime_choice)


def run_cotree_dp_sequential(dp: CotreeDP, tree) -> CotreeDPRun:
    """The generic sequential reference evaluator (plain postorder).

    One Python loop over the nodes serves every spec — the DP tasks'
    ``method="sequential"`` path and the parity oracle of the engine
    tests.  Values are bit-identical to :func:`run_cotree_dp`.
    """
    flat = as_flat_cotree(tree)
    n = flat.num_nodes
    if n == 0:
        raise ValueError(f"cotree DP {dp.name!r} needs a non-empty cotree")
    values = {f: np.empty(n, dtype=dp.dtype) for f in dp.fields}
    leaves = flat.leaves
    leaf_ids = getattr(flat, "leaf_vertex_local", flat.leaf_vertex)
    leaf_values = dp.leaf(leaf_ids[leaves])
    for f in dp.fields:
        values[f][leaves] = leaf_values[f]

    prime_choice = _check_prime_support(dp, flat)
    depth = _depth_by_doubling(flat.parent)
    internal = flat.internal_nodes
    order = internal[np.argsort(-depth[internal], kind="stable")]
    for u in order.tolist():
        if flat.kind[u] == PRIME:
            sel = np.asarray([u], dtype=np.int64)
            vals, choices = _prime_values(flat, values[dp.fields[0]], sel,
                                          dp.prime.select, None,
                                          f"dp.{dp.name}")
            values[dp.fields[0]][u] = vals[0]
            prime_choice[u] = choices[0]
            continue
        combine = dp.union if flat.kind[u] == UNION else dp.join
        kids = flat.children_of(u)
        child_values = {f: values[f][kids] for f in dp.fields}
        if combine.prepare is not None:
            child_values.update(combine.prepare(child_values))
        reduced = {out: _REDUCE_UFUNCS[op].reduce(child_values[src])
                   for out, op, src in combine.reduce}
        if combine.finish is not None:
            # finish is written vectorized; feed it length-1 arrays
            reduced = {k: np.asarray([v], dtype=dp.dtype)
                       for k, v in reduced.items()}
            reduced = {k: v[0] for k, v in combine.finish(reduced).items()}
        for f in dp.fields:
            values[f][u] = reduced[f]
    return CotreeDPRun(dp=dp, tree=flat, values=values, depth=depth,
                       ctx=None, backend="sequential",
                       prime_choice=prime_choice)


# --------------------------------------------------------------------------- #
# witness reconstruction helpers
# --------------------------------------------------------------------------- #

def _levels_top_down(run: CotreeDPRun):
    """Internal nodes grouped by depth, shallowest first."""
    flat, depth = run.tree, run.depth
    internal = flat.internal_nodes
    if not len(internal):
        return []
    order = internal[np.argsort(depth[internal], kind="stable")]
    level_starts = np.flatnonzero(
        np.diff(depth[order], prepend=depth[order[0]] - 1))
    bounds = np.append(level_starts, len(order))
    return [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _step(run: CotreeDPRun, active: int, label: str):
    """An accounted step scope when the run has a context (no-op otherwise)."""
    from contextlib import nullcontext
    if run.ctx is None:
        return nullcontext()
    return run.ctx.step(active=active, label=label)


def selected_subtree_vertices(run: CotreeDPRun, pick_at: int,
                              field_name: str) -> np.ndarray:
    """Witness for extremal-set DPs: the vertex set realising the root value.

    Top-down selection: the root is selected; a selected node of kind
    ``pick_at`` keeps exactly one child maximising ``field_name`` (its
    value equals the node's own, so the witness realises the optimum);
    every other selected internal node keeps all children.  With
    ``pick_at=UNION`` this reconstructs a maximum clique (a clique lives
    inside one union part but spans all join parts); ``pick_at=JOIN``
    dually reconstructs a maximum independent set.

    Ties break towards the smallest child node id on every backend
    (the argmax is a max over ``value * num_nodes - child_id`` packed
    keys), so witnesses are backend-independent.
    """
    flat = run.tree
    n = flat.num_nodes
    value = run.values[field_name]

    # chosen child per pick_at node, via one packed segmented argmax
    chosen = np.full(n, -1, dtype=np.int64)
    pick_nodes = np.flatnonzero((flat.kind != LEAF) & (flat.kind == pick_at))
    if len(pick_nodes):
        child_nodes, seg_offsets = _gather_level_children(flat, pick_nodes)
        with _step(run, len(child_nodes), f"dp.{run.dp.name}:witness-pack"):
            packed = value[child_nodes] * np.int64(n) + (
                np.int64(n - 1) - child_nodes)
        best = _segmented_reduce(
            run.ctx if run.ctx is not None else resolve_context(None),
            packed, seg_offsets, "max", f"dp.{run.dp.name}:witness-argmax")
        chosen[pick_nodes] = np.int64(n - 1) - best % np.int64(n)

    has_primes = getattr(flat, "has_primes", False)
    slot_of = None
    if has_primes:
        slot_of = np.full(n, -1, dtype=np.int64)
        slot_of[flat.child_index] = (
            np.arange(len(flat.child_index), dtype=np.int64)
            - np.repeat(flat.child_offset[:-1], np.diff(flat.child_offset)))

    selected = np.zeros(n, dtype=bool)
    roots = getattr(flat, "roots", None)
    if roots is None:
        selected[flat.root] = True
    else:
        roots = np.asarray(roots, dtype=np.int64)
        selected[roots[roots >= 0]] = True
    for level_nodes in _levels_top_down(run):
        sel = level_nodes[selected[level_nodes]]
        if not len(sel):
            continue
        child_nodes, _ = _gather_level_children(flat, sel)
        with _step(run, len(child_nodes), f"dp.{run.dp.name}:witness-select"):
            parents = flat.parent[child_nodes]
            keep = (flat.kind[parents] != pick_at) | \
                (chosen[parents] == child_nodes)
            if has_primes:
                pk = flat.kind[parents] == PRIME
                if pk.any():
                    keep[pk] = _prime_keep(run, child_nodes[pk],
                                           parents[pk], slot_of)
            selected[child_nodes[keep]] = True

    picked_leaves = flat.leaves[selected[flat.leaves]]
    return np.sort(flat.leaf_vertex[picked_leaves])


def _prime_keep(run: CotreeDPRun, children: np.ndarray, parents: np.ndarray,
                slot_of: np.ndarray) -> np.ndarray:
    """Which children of selected prime nodes join the witness set.

    Decodes ``run.prime_choice``: a subset bitmask for generic primes; for
    spider primes choice ``-1`` is the base option (all feet + head for
    ``independent``, body + head for ``clique``) and choice ``i`` the pair
    option (see :func:`_spider_prime_values`).
    """
    flat = run.tree
    if run.prime_choice is None:  # pragma: no cover - engine always records
        raise ValueError("witness on a primed tree needs a DP run with "
                         "recorded prime choices")
    choice = run.prime_choice[parents]
    slot = slot_of[children]
    spider = flat.spider[parents]
    k = (flat.child_offset[parents + 1] - flat.child_offset[parents]) // 2
    keep = np.zeros(len(children), dtype=bool)

    generic = spider == 0
    keep[generic] = ((choice[generic] >> slot[generic]) & 1).astype(bool)

    sp = ~generic
    if sp.any():
        thin = spider == SPIDER_THIN
        base = choice == -1
        is_foot = slot < k
        is_body = ~is_foot & (slot < 2 * k)
        is_head = slot == 2 * k
        if run.dp.prime.select == "independent":
            base_keep = is_foot | is_head
            pair_keep = np.where(
                thin,
                (is_foot & (slot != choice)) | (slot == k + choice),
                (slot == choice) | (slot == k + choice))
        else:
            base_keep = is_body | is_head
            pair_keep = np.where(
                thin,
                (slot == choice) | (slot == k + choice),
                (is_body & (slot != k + choice)) | (slot == choice))
        keep[sp] = np.where(base, base_keep, pair_keep)[sp]
    return keep


def class_assignment(run: CotreeDPRun, accumulate_at: int,
                     field_name: str) -> np.ndarray:
    """Witness for partition DPs: a class index per vertex.

    Top-down offset pass: every node receives a class-id offset (root 0);
    at nodes of kind ``accumulate_at`` the children get *disjoint* id
    ranges (each shifted by the exclusive prefix sum of its earlier
    siblings' ``field_name`` values), at the other kind all children share
    the parent's offset.  A leaf's class is its offset.

    With ``accumulate_at=JOIN`` and the chromatic-number field this is a
    proper colouring with exactly ``chi(G)`` colours (adjacent vertices
    have a join LCA, whose children occupy disjoint colour ranges); with
    ``accumulate_at=UNION`` and the clique-cover field it is a partition
    into ``theta(G)`` cliques (same-class vertices always meet at a join).
    """
    flat = run.tree
    n = flat.num_nodes
    value = run.values[field_name]
    if getattr(flat, "has_primes", False):
        raise ValueError(f"dp.{run.dp.name}: class-assignment witnesses "
                         f"have no prime-node rule; cograph inputs only")

    # exclusive prefix of sibling values, per child slot of the CSR array
    sib_prefix = np.zeros(len(flat.child_index), dtype=np.int64)
    if len(flat.child_index):
        with _step(run, len(flat.child_index),
                   f"dp.{run.dp.name}:witness-sibling-prefix"):
            vals = value[flat.child_index].astype(np.int64, copy=False)
            glob = np.cumsum(vals)
            excl = glob - vals
            starts = flat.child_offset[:-1]
            counts = np.diff(flat.child_offset)
            base = np.repeat(excl[starts[counts > 0]], counts[counts > 0])
            sib_prefix = excl - base

    # slot index of every node under its parent (CSR position)
    slot_of = np.full(n, -1, dtype=np.int64)
    slot_of[flat.child_index] = np.arange(len(flat.child_index),
                                          dtype=np.int64)

    offset = np.zeros(n, dtype=np.int64)
    for level_nodes in _levels_top_down(run):
        child_nodes, _ = _gather_level_children(flat, level_nodes)
        with _step(run, len(child_nodes), f"dp.{run.dp.name}:witness-offset"):
            parents = flat.parent[child_nodes]
            shift = np.where(flat.kind[parents] == accumulate_at,
                             sib_prefix[slot_of[child_nodes]], 0)
            offset[child_nodes] = offset[parents] + shift

    leaves = flat.leaves
    classes = np.empty(flat.num_vertices, dtype=np.int64)
    classes[flat.leaf_vertex[leaves]] = offset[leaves]
    return classes


# --------------------------------------------------------------------------- #
# the built-in specs
# --------------------------------------------------------------------------- #

def _ones_leaf(fields: Tuple[str, ...]):
    def leaf(vertex_ids: np.ndarray) -> Dict[str, np.ndarray]:
        one = np.ones(len(vertex_ids), dtype=np.int64)
        return {f: one for f in fields}
    return leaf


#: Lemma 2.4 generalised to arbitrary-arity cotrees: ``p`` at a 0-node is
#: the sum over children; at a 1-node it is ``max(1, max_j (p_j + L_j) - L)``
#: — the multiway closed form of the leftist fold ``max(p(v) - L(w), 1)``
#: (fold the children in non-increasing leaf-count order and the clamps
#: telescope; every other child's term is a valid lower bound by the
#: connector-counting argument, so the max over children is exact).
PATH_COVER_SIZE_DP = CotreeDP(
    name="path_cover_size",
    fields=("p", "L"),
    leaf=_ones_leaf(("p", "L")),
    union=Combine(reduce=(("p", "sum", "p"), ("L", "sum", "L"))),
    join=Combine(
        prepare=lambda cv: {"p_plus_L": cv["p"] + cv["L"]},
        reduce=(("best", "max", "p_plus_L"), ("L", "sum", "L")),
        finish=lambda red: {"p": np.maximum(red["best"] - red["L"], 1),
                            "L": red["L"]},
    ),
)

#: omega: a clique lives inside one part of a union (max), spans every
#: part of a join (sum), and picks a quotient clique at a prime node.
MAX_CLIQUE_DP = CotreeDP(
    name="max_clique",
    fields=("omega",),
    leaf=_ones_leaf(("omega",)),
    union=Combine(reduce=(("omega", "max", "omega"),)),
    join=Combine(reduce=(("omega", "sum", "omega"),)),
    prime=PrimeCombine(select="clique"),
    witness=lambda run: selected_subtree_vertices(run, UNION, "omega"),
)

#: alpha: dual of omega — sum across union parts, max across join parts,
#: a quotient independent set at a prime node.
MAX_INDEPENDENT_SET_DP = CotreeDP(
    name="max_independent_set",
    fields=("alpha",),
    leaf=_ones_leaf(("alpha",)),
    union=Combine(reduce=(("alpha", "sum", "alpha"),)),
    join=Combine(reduce=(("alpha", "max", "alpha"),)),
    prime=PrimeCombine(select="independent"),
    witness=lambda run: selected_subtree_vertices(run, JOIN, "alpha"),
)


def _weight_leaf(weights: np.ndarray, field: str):
    w = np.ascontiguousarray(np.asarray(weights, dtype=np.int64))

    def leaf(vertex_ids: np.ndarray) -> Dict[str, np.ndarray]:
        return {field: w[vertex_ids]}
    return leaf


def max_weight_independent_set_dp(weights) -> CotreeDP:
    """Spec factory: maximum-weight independent set with per-vertex integer
    weights (``weights[v]`` for leaf vertex ``v``, validated non-negative
    by the task layer).  Same combine shape as the unit-weight spec — only
    the leaf initialiser changes — so it runs on modular decomposition
    trees too."""
    return CotreeDP(
        name="max_weight_independent_set",
        fields=("alpha",),
        leaf=_weight_leaf(weights, "alpha"),
        union=Combine(reduce=(("alpha", "sum", "alpha"),)),
        join=Combine(reduce=(("alpha", "max", "alpha"),)),
        prime=PrimeCombine(select="independent"),
        witness=lambda run: selected_subtree_vertices(run, JOIN, "alpha"),
    )


def max_weight_clique_dp(weights) -> CotreeDP:
    """Spec factory: maximum-weight clique (dual of
    :func:`max_weight_independent_set_dp`)."""
    return CotreeDP(
        name="max_weight_clique",
        fields=("omega",),
        leaf=_weight_leaf(weights, "omega"),
        union=Combine(reduce=(("omega", "max", "omega"),)),
        join=Combine(reduce=(("omega", "sum", "omega"),)),
        prime=PrimeCombine(select="clique"),
        witness=lambda run: selected_subtree_vertices(run, UNION, "omega"),
    )

#: chi: cographs are perfect, and the cotree shows it constructively —
#: union parts can reuse colours (max), join parts need disjoint palettes
#: (sum); the witness assigns the disjoint colour ranges top-down.
CHROMATIC_NUMBER_DP = CotreeDP(
    name="chromatic_number",
    fields=("chi",),
    leaf=_ones_leaf(("chi",)),
    union=Combine(reduce=(("chi", "max", "chi"),)),
    join=Combine(reduce=(("chi", "sum", "chi"),)),
    witness=lambda run: class_assignment(run, JOIN, "chi"),
)

#: theta: clique-cover number = chi of the complement, and complementing a
#: cograph just swaps the node labels — so the rules swap too.
CLIQUE_COVER_DP = CotreeDP(
    name="clique_cover",
    fields=("theta",),
    leaf=_ones_leaf(("theta",)),
    union=Combine(reduce=(("theta", "sum", "theta"),)),
    join=Combine(reduce=(("theta", "max", "theta"),)),
    witness=lambda run: class_assignment(run, UNION, "theta"),
)


def _count_leaf(vertex_ids: np.ndarray) -> Dict[str, np.ndarray]:
    # Python ints (dtype=object): independent-set counts grow past 2**63
    # around n = 63, so the field must never silently wrap.
    return {"count": np.array([2] * len(vertex_ids), dtype=object)}


#: counts include the empty set: a union multiplies the per-part counts,
#: a join allows at most one part to contribute (sum the non-empty counts,
#: re-add the shared empty set).
COUNT_INDEPENDENT_SETS_DP = CotreeDP(
    name="count_independent_sets",
    fields=("count",),
    leaf=_count_leaf,
    union=Combine(reduce=(("count", "prod", "count"),)),
    join=Combine(
        prepare=lambda cv: {"nonempty": cv["count"] - 1},
        reduce=(("total", "sum", "nonempty"),),
        finish=lambda red: {"count": red["total"] + 1},
    ),
    dtype=object,
)

#: every built-in spec, for the parity tests and the docs.
BUILTIN_DPS: Tuple[CotreeDP, ...] = (
    PATH_COVER_SIZE_DP,
    MAX_CLIQUE_DP,
    MAX_INDEPENDENT_SET_DP,
    CHROMATIC_NUMBER_DP,
    CLIQUE_COVER_DP,
    COUNT_INDEPENDENT_SETS_DP,
)
