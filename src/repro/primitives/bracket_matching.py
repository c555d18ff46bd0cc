"""All-matching-pairs of a bracket sequence — Lemma 5.1(3).

Given a sequence of opening and closing brackets (not necessarily balanced),
compute for every bracket the position of its match, where a closing bracket
matches the nearest preceding opening bracket that is still unmatched.
Unmatched brackets are reported as ``-1``.

Algorithm (the classic depth-grouping reduction):

1. prefix sums of ``+1`` / ``-1`` give the nesting depth at every position;
   an opening bracket's *level* is its depth after reading it, a closing
   bracket's level is the depth it closes (its depth before reading, i.e.
   depth after + 1);
2. within one level, brackets strictly alternate between closes and opens
   (a structural fact proved in the module tests), so after grouping the
   positions by level each close matches the immediately preceding element
   of its group iff that element is an open.

Grouping is performed by a stable sort on the level.  The sort is
executed with ``ceil(log2 n)`` accounted rounds of ``n`` active processors —
the depth of Cole's EREW merge sort — so the *time* accounting matches the
paper's Lemma 5.1(3) while the *work* of this step is ``O(n log n)``; on the
simulator a block pre-pass first resolves all matches that fall inside
blocks of ``log2 n`` consecutive positions using ``O(n)`` work, which
empirically removes the bulk of the sequence.  The remaining gap to the
cited ``O(n)``-work bound of [9] is discussed in EXPERIMENTS.md (E8).

Trees and packed forests take the same matcher.  In the stack matching of
a concatenation ``A·B``, a close in ``B`` reaches into ``A`` only when
``B`` alone leaves it unmatched; every close bracket of ``B(R)`` is matched
inside its own tree (Step 4's sequence has that property), so a forest's
sequence ``B(R_1)···B(R_k)`` matches exactly as its blocks do, and no pair
crosses two instances.
"""

from __future__ import annotations

import numpy as np

from ..backends import resolve_context
from .scan import prefix_sum

__all__ = ["match_brackets"]


def match_brackets(ctx, is_open, *, label: str = "match") -> np.ndarray:
    """Match every bracket of the sequence.

    Parameters
    ----------
    ctx:
        execution context (or a raw PRAM machine / backend name / ``None``).
    is_open:
        boolean array; ``True`` for ``(`` / ``[``, ``False`` for ``)`` / ``]``.

    Returns
    -------
    numpy.ndarray
        ``match[i]`` is the position of the bracket matching position ``i``,
        or ``-1`` when ``i`` is unmatched.  The relation is symmetric.
    """
    machine = resolve_context(ctx)
    is_open = np.asarray(is_open, dtype=bool)
    n = len(is_open)
    match = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return match

    if not machine.simulates:
        # the match relation is unique, so the block pre-pass (a per-block
        # Python loop that only exists to make the simulated *work* linear)
        # is pure overhead here: one global level-grouping pass suffices.
        return _match_by_levels(machine, is_open, label=label)

    unresolved = np.ones(n, dtype=bool)

    if n >= 8:
        _intra_block_matching(machine, is_open, match, unresolved, label=label)

    residual = np.flatnonzero(unresolved)
    if len(residual) == 0:
        return match

    sub_open = is_open[residual]
    sub_match = _match_by_levels(machine, sub_open, label=label)
    matched = sub_match >= 0
    match[residual[matched]] = residual[sub_match[matched]]
    return match


# --------------------------------------------------------------------------- #
# work-efficient intra-block pre-pass
# --------------------------------------------------------------------------- #

def _intra_block_matching(machine, is_open: np.ndarray,
                          match: np.ndarray, unresolved: np.ndarray, *,
                          label: str) -> None:
    """Match brackets whose partner lies in the same block of ``ceil(log2 n)``
    consecutive positions.

    Each block is processed sequentially by one virtual processor with a
    local stack; the pass is executed as ``block_size`` synchronous rounds of
    ``num_blocks`` active processors, i.e. ``O(log n)`` time and ``O(n)``
    work.  (The per-element Python work is vectorised across blocks.)
    """
    n = len(is_open)
    block = max(2, int(np.ceil(np.log2(n))))
    num_blocks = (n + block - 1) // block

    # pad to a rectangular (num_blocks, block) layout
    padded_open = np.zeros(num_blocks * block, dtype=bool)
    padded_open[:n] = is_open
    valid = np.zeros(num_blocks * block, dtype=bool)
    valid[:n] = True
    open_grid = padded_open.reshape(num_blocks, block)
    valid_grid = valid.reshape(num_blocks, block)

    # per-block stack of open positions (offsets within the block)
    stack = np.full((num_blocks, block), -1, dtype=np.int64)
    depth = np.zeros(num_blocks, dtype=np.int64)

    for offset in range(block):
        with machine.step(active=num_blocks, label=f"{label}:block-prepass"):
            col_valid = valid_grid[:, offset]
            col_open = open_grid[:, offset] & col_valid
            col_close = (~open_grid[:, offset]) & col_valid
            # push opens
            push_rows = np.flatnonzero(col_open)
            stack[push_rows, depth[push_rows]] = offset
            depth[push_rows] += 1
            # pop closes that have a partner inside the block
            pop_rows = np.flatnonzero(col_close & (depth > 0))
            if len(pop_rows):
                tops = stack[pop_rows, depth[pop_rows] - 1]
                close_pos = pop_rows * block + offset
                open_pos = pop_rows * block + tops
                match[close_pos] = open_pos
                match[open_pos] = close_pos
                unresolved[close_pos] = False
                unresolved[open_pos] = False
                depth[pop_rows] -= 1
            # closes with an empty stack stay unresolved for the global pass


# --------------------------------------------------------------------------- #
# level-grouping matcher
# --------------------------------------------------------------------------- #

def _match_by_levels(machine, is_open: np.ndarray, *,
                     label: str) -> np.ndarray:
    """Match a bracket sequence by grouping positions by nesting level."""
    n = len(is_open)
    delta = np.where(is_open, 1, -1).astype(np.int64)
    depth_after = prefix_sum(machine, delta, inclusive=True,
                             label=f"{label}.depth")
    # level of an open = depth after it; level of a close = depth before it
    level = np.where(is_open, depth_after, depth_after + 1)

    # Stable sort by (level, position).  Accounted as ceil(log2 n) rounds of
    # n processors (Cole's EREW merge sort depth); see the module docstring
    # for the work discussion.
    order = np.argsort(level, kind="stable")
    if machine.simulates:
        sort_rounds = max(1, int(np.ceil(np.log2(max(n, 2)))))
        for _ in range(sort_rounds):
            with machine.step(active=n, label=f"{label}:sort"):
                pass

    sorted_level = level[order]
    sorted_open = is_open[order]
    match = np.full(n, -1, dtype=np.int64)

    with machine.step(active=n, label=f"{label}:pair"):
        same_group_as_prev = np.zeros(n, dtype=bool)
        same_group_as_prev[1:] = sorted_level[1:] == sorted_level[:-1]
        prev_is_open = np.zeros(n, dtype=bool)
        prev_is_open[1:] = sorted_open[:-1]
        # a close matches the immediately preceding element of its group iff
        # that element is an open (strict alternation within a group)
        closes = (~sorted_open) & same_group_as_prev & prev_is_open
        close_idx = np.flatnonzero(closes)
        open_idx = close_idx - 1
        match[order[close_idx]] = order[open_idx]
        match[order[open_idx]] = order[close_idx]
    return match
