"""The three workloads: seeded request mixes, their closed loops, checks.

Every workload is one process and one closed-loop client with a single
request outstanding: the next request goes out when the previous answer
is back.  Requests are timed from bytes in to bytes out; the reference
loop (:mod:`reference`) runs between requests, never inside one.

* ``serve-small`` drives ``ServerApp.dispatch`` in-process (no socket):
  small random cotrees as cotree-text JSON, wire bytes and edge-list JSON,
  nine tasks, a fifth of the requests repeating a recent one (cache hits),
  and one ``/v1/solve_batch`` of 32 tiny instances per 40 requests.
* ``bulk-bushy`` calls ``repro.api.solve(wire_bytes, task)`` and encodes
  the solution as JSON, on random and balanced cotrees of 10^4 to 10^5
  vertices.
* ``bulk-deep`` is the same front door on caterpillar cotrees (height =
  n) of 10^3 to 10^4 vertices.

Every mix parameter is a module constant below.  Inputs are generated
from the seed alone; responses are spooled to disk during the timed phase
and checked against the oracle after it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlencode

import numpy as np

from gen import (
    Tree,
    balanced_tree,
    caterpillar_tree,
    log_uniform_sizes,
    random_tree,
    to_text,
)
from repro.cograph.cotree import JOIN

# --------------------------------------------------------------------------- #
# mix parameters
# --------------------------------------------------------------------------- #

#: serve-small: one block is 39 single solves plus one batch.
SERVE_BLOCK_FRESH = {"text": 18, "wire": 8, "edge": 5}   # ~60/25/15 %
SERVE_BLOCK_REPEATS = 8           # ~20 % re-send a recent (instance, task)
SERVE_REPEAT_WINDOW = 16          # "recent" = among the last 16 fresh ones
SERVE_N = (16, 512)               # log-uniform vertex count, text + wire
SERVE_EDGE_N = (16, 128)          # log-uniform vertex count, edge lists
SERVE_BATCH = 32                  # instances per /v1/solve_batch
SERVE_BATCH_N = (8, 48)           # log-uniform vertex count, batch members
SERVE_TASKS = ("path_cover", "path_cover_size", "max_clique",
               "max_independent_set", "chromatic_number", "clique_cover",
               "count_independent_sets", "hamiltonian_path",
               "max_weight_clique")
SERVE_P4_TASKS = ("max_clique", "max_independent_set", "recognition")
SERVE_BATCH_TASKS = ("path_cover", "path_cover_size", "max_clique",
                     "max_independent_set", "chromatic_number",
                     "clique_cover", "count_independent_sets")
SERVE_WEIGHTS = (1, 100)          # max_weight_clique vertex weights
SERVE_JOBS = 2                    # Settings(jobs=2): the pinned default

#: bulk: every instance is asked every task, instance by instance.
BULK_TASKS = ("path_cover", "path_cover_size", "max_clique",
              "max_independent_set", "chromatic_number",
              "count_independent_sets")
BULK_BUSHY_N = (10_000, 100_000)  # log-uniform, 8 strata x 2 shapes
BULK_BUSHY_STRATA = 8
BULK_DEEP_N = (1_000, 10_000)     # log-uniform, 8 strata of caterpillars
BULK_DEEP_STRATA = 8

#: tasks that keep default options (the analytic path_cover_size route,
#: and recognition, which runs no engine); every other task asks for
#: backend="fast".
_DEFAULT_OPTION_TASKS = ("path_cover_size", "recognition")


def options_for(task: str, weights: Optional[List[int]] = None) -> Dict:
    if task in _DEFAULT_OPTION_TASKS:
        return {}
    options: Dict[str, Any] = {"backend": "fast"}
    if weights is not None:
        options["weights"] = weights
    return options


# --------------------------------------------------------------------------- #
# requests
# --------------------------------------------------------------------------- #

@dataclass
class Instance:
    """One generated graph: a cotree, or an explicit (P4-sparse) graph."""

    tree: Optional[Tree] = None
    edges: Optional[np.ndarray] = None
    weights: Optional[List[int]] = None

    @property
    def n(self) -> int:
        if self.tree is not None:
            return self.tree.num_vertices
        return int(self.edges.max()) + 1


@dataclass
class Item:
    """One request: what is sent, and what its answers are checked by."""

    task: str
    vertices: int
    checks: List[Tuple[str, str]]            # (instance key, task)
    body: bytes = b""
    target: str = "/v1/solve"
    headers: Dict[str, str] = field(default_factory=dict)
    options: Dict[str, Any] = field(default_factory=dict)   # bulk only


@dataclass
class Plan:
    """A workload's generated inputs: requests in blocks, and instances."""

    blocks: List[List[Item]]
    instances: Dict[str, Instance]
    expected: Dict[Tuple[str, str], Any] = field(default_factory=dict)


def _json_item(key: str, inst: Instance, task: str, problem) -> Item:
    record = {"problem": problem, "task": task,
              "options": options_for(task, inst.weights)}
    return Item(task=task, vertices=inst.n, checks=[(key, task)],
                body=json.dumps(record).encode())


def wire_bytes(tree: Tree) -> bytes:
    from oracle import flat_of
    from repro.io.wire import to_bytes
    return to_bytes(flat_of(tree))


def _wire_item(key: str, inst: Instance, task: str) -> Item:
    query = urlencode({"task": task,
                       "options": json.dumps(options_for(task,
                                                         inst.weights))})
    return Item(task=task, vertices=inst.n, checks=[(key, task)],
                body=wire_bytes(inst.tree), target="/v1/solve?" + query,
                headers={"content-type": "application/octet-stream"})


def _cograph_edges(tree: Tree) -> np.ndarray:
    from oracle import CotreeChecker
    u, v = np.triu_indices(tree.num_vertices, 1)
    adjacent = CotreeChecker(tree).adjacent(u, v)
    return np.stack([u[adjacent], v[adjacent]], axis=1)


def _p4_sparse_edges(n: int, rng: np.random.Generator) -> np.ndarray:
    """A P4-sparse graph that is not a cograph (redrawn until it is not)."""
    from oracle import is_cograph
    from repro.cograph.generators import random_p4_sparse
    while True:
        graph = random_p4_sparse(n, seed=int(rng.integers(2 ** 31)))
        edges = np.array([(u, v) for u in range(graph.n)
                          for v in sorted(graph.adj[u]) if u < v],
                         dtype=np.int64).reshape(-1, 2)
        if len(edges) and not is_cograph(int(edges.max()) + 1, edges):
            return edges


def serve_block(seed: int, index: int, plan: Plan) -> List[Item]:
    """Block ``index`` of serve-small: 39 solves and one batch, shuffled."""
    rng = np.random.default_rng([seed, index])
    fresh_formats = [fmt for fmt, count in SERVE_BLOCK_FRESH.items()
                     for _ in range(count)]
    rng.shuffle(fresh_formats)
    tree_sizes = iter(log_uniform_sizes(
        SERVE_BLOCK_FRESH["text"] + SERVE_BLOCK_FRESH["wire"],
        *SERVE_N, rng))
    edge_sizes = iter(log_uniform_sizes(SERVE_BLOCK_FRESH["edge"],
                                        *SERVE_EDGE_N, rng))
    tasks = iter(np.resize(rng.permutation(SERVE_TASKS),
                           len(fresh_formats)).tolist())
    fresh: List[Item] = []
    edge_lists = 0
    for i, fmt in enumerate(fresh_formats):
        key = f"{index}:{i}"
        task = next(tasks)
        edge_lists += fmt == "edge"
        if fmt == "edge" and (index + edge_lists) % 2:
            # every other edge list is a P4-sparse non-cograph
            inst = Instance(edges=_p4_sparse_edges(next(edge_sizes), rng))
            task = SERVE_P4_TASKS[int(rng.integers(len(SERVE_P4_TASKS)))]
            plan.instances[key] = inst
            fresh.append(_json_item(key, inst, task, inst.edges.tolist()))
            continue
        if fmt == "edge":
            # a JOIN root keeps the graph connected: no isolated vertex
            # can fall off the end of the edge list
            inst = Instance(tree=random_tree(next(edge_sizes), rng,
                                             root_kind=JOIN))
        else:
            inst = Instance(tree=random_tree(next(tree_sizes), rng))
        if task == "max_weight_clique":
            inst.weights = rng.integers(*SERVE_WEIGHTS, inst.n).tolist()
        plan.instances[key] = inst
        if fmt == "text":
            fresh.append(_json_item(key, inst, task, to_text(inst.tree)))
        elif fmt == "wire":
            fresh.append(_wire_item(key, inst, task))
        else:
            fresh.append(_json_item(key, inst, task,
                                    _cograph_edges(inst.tree).tolist()))

    # repeats re-send an earlier fresh request of this block verbatim
    singles = len(fresh) + SERVE_BLOCK_REPEATS
    repeat_at = set(rng.choice(np.arange(4, singles), SERVE_BLOCK_REPEATS,
                               replace=False).tolist())
    items: List[Item] = []
    sent: List[Item] = []
    fresh_iter = iter(fresh)
    for pos in range(singles):
        if pos in repeat_at:
            recent = sent[-SERVE_REPEAT_WINDOW:]
            items.append(recent[int(rng.integers(len(recent)))])
        else:
            item = next(fresh_iter)
            sent.append(item)
            items.append(item)

    task = SERVE_BATCH_TASKS[index % len(SERVE_BATCH_TASKS)]
    problems, checks, vertices = [], [], 0
    for j, n in enumerate(log_uniform_sizes(SERVE_BATCH, *SERVE_BATCH_N,
                                            rng)):
        key = f"{index}:b{j}"
        inst = Instance(tree=random_tree(n, rng))
        plan.instances[key] = inst
        problems.append(to_text(inst.tree))
        checks.append((key, task))
        vertices += n
    body = json.dumps({"problems": problems, "task": task,
                       "options": options_for(task)}).encode()
    items.insert(int(rng.integers(len(items) + 1)),
                 Item(task=task, vertices=vertices, checks=checks, body=body,
                      target="/v1/solve_batch"))
    return items


def bulk_plan(workload: str, seed: int) -> Plan:
    """The bulk instances (fixed log-uniform strata, seeded shapes), each
    asked every task; one block is one pass over all of them."""
    rng = np.random.default_rng([seed, 0])
    if workload == "bulk-bushy":
        low, high = BULK_BUSHY_N
        strata = BULK_BUSHY_STRATA
        shapes = (random_tree, balanced_tree)
    else:
        low, high = BULK_DEEP_N
        strata = BULK_DEEP_STRATA
        shapes = (caterpillar_tree,)
    # stratum midpoints: every seed gets the same size mix, so seeds
    # change the instances, not the load
    mids = np.exp(np.log(low) + (np.arange(strata) + 0.5) / strata
                  * (np.log(high) - np.log(low)))
    plan = Plan(blocks=[], instances={})
    specs = [(int(round(n)), shape) for n in mids for shape in shapes]
    items: List[Item] = []
    for i in rng.permutation(len(specs)).tolist():
        n, shape = specs[i]
        key = str(len(plan.instances))
        inst = Instance(tree=shape(n, rng))
        plan.instances[key] = inst
        wire = wire_bytes(inst.tree)
        for task in BULK_TASKS:
            items.append(Item(task=task, vertices=n, checks=[(key, task)],
                              body=wire, options=options_for(task)))
    plan.blocks.append(items)
    return plan


# --------------------------------------------------------------------------- #
# plans and the per-seed answer cache
# --------------------------------------------------------------------------- #

def make_plan(workload: str, seed: int, blocks: int) -> Plan:
    """The inputs of ``seed``: ``blocks`` serve-small blocks, or the one
    bulk pass.  Generation takes milliseconds per instance, so inputs are
    rebuilt from the seed on every run rather than stored."""
    if workload != "serve-small":
        return bulk_plan(workload, seed)
    plan = Plan(blocks=[], instances={})
    while len(plan.blocks) < blocks:
        plan.blocks.append(serve_block(seed, len(plan.blocks), plan))
    return plan


class AnswerCache:
    """The oracle's expected answers, pickled per (workload, seed) under
    the benchmark's own directory and read back only by this program.
    The sequential evaluator needs seconds on the bulk instances, so a
    rerun of a seed skips it."""

    def __init__(self, directory: str, workload: str, seed: int) -> None:
        # the generator sources are part of the key: editing a mix or a
        # generator never reads answers to other inputs
        digest = hashlib.sha256()
        for name in ("gen.py", "workloads.py", "oracle.py"):
            with open(os.path.join(os.path.dirname(__file__), name),
                      "rb") as fh:
                digest.update(fh.read())
        self.path = os.path.join(
            directory, f"{workload}-{seed}-{digest.hexdigest()[:12]}.pkl")

    def load(self) -> Dict[Tuple[str, str], Any]:
        try:
            with open(self.path, "rb") as fh:
                return pickle.load(fh)
        except (OSError, EOFError, pickle.UnpicklingError):
            return {}

    def save(self, expected: Dict[Tuple[str, str], Any]) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(expected, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, self.path)


# --------------------------------------------------------------------------- #
# response spool
# --------------------------------------------------------------------------- #

_FRAME = struct.Struct("<IIHI")   # block, position, status, length


class Spool:
    """Responses written to disk during the timed phase (so holding them
    never grows the measured process), read back for the checks."""

    def __init__(self, path: str) -> None:
        self.path = path
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._fh = open(path, "wb")

    def write(self, block: int, pos: int, status: int, body: bytes) -> None:
        self._fh.write(_FRAME.pack(block, pos, status, len(body)))
        self._fh.write(body)

    def close(self) -> None:
        self._fh.close()

    def read(self):
        with open(self.path, "rb") as fh:
            while True:
                head = fh.read(_FRAME.size)
                if not head:
                    return
                block, pos, status, length = _FRAME.unpack(head)
                yield block, pos, status, fh.read(length)

    def remove(self) -> None:
        try:
            os.remove(self.path)
        except OSError:
            pass
