#!/usr/bin/env python
"""Quickstart: one front door — solve() — for every task and input form.

Run with:  python examples/quickstart.py
"""

from repro import Graph, SolveOptions, random_cotree, solve, solve_many
from repro.io import render_cotree, render_cover


def main() -> None:
    # -- 1. a cograph can come from a generator ... ----------------------- #
    tree = random_cotree(24, seed=7, join_prob=0.55)
    print("The cotree of a random 24-vertex cograph:")
    print(render_cotree(tree))
    print()

    # -- ... or from any other form solve() understands ------------------- #
    graph = Graph.from_cotree(tree)          # any P4-free edge list works
    assert solve(graph, task="recognition").answer is True
    assert solve("(0 + (1 * 2))").num_paths == 2          # cotree text
    assert solve({0: [1], 1: [0]}).num_paths == 1         # adjacency dict

    # -- 2. the paper's parallel algorithm -------------------------------- #
    result = solve(tree, validate=True)      # backend="pram" is the default
    print(f"minimum path cover size: {result.num_paths} "
          f"(Lemma 2.4 DP p(root) = "
          f"{solve(tree, task='path_cover_size').answer})")
    print(render_cover(result.cover))
    print()

    # -- 3. the PRAM cost report ------------------------------------------ #
    print("Simulated PRAM cost (EREW, p = ceil(n / log2 n)):")
    print(result.report)
    print()

    # -- 4. the sequential reference agrees ------------------------------- #
    sequential = solve(tree, options=SolveOptions(method="sequential"))
    assert sequential.num_paths == result.num_paths
    print(f"sequential Lin-Olariu-Pruesse algorithm: "
          f"{sequential.num_paths} paths (agrees)")
    print()

    # -- 5. the fast backend: same cover, no simulation ------------------- #
    fast = solve(tree, backend="fast")
    assert fast.cover.paths == result.cover.paths
    slowest = max(fast.stage_seconds, key=fast.stage_seconds.get)
    print(f"fast backend agrees; slowest pipeline stage was {slowest!r}")

    # -- 6. Hamiltonicity is just another task ---------------------------- #
    ring = solve("((0 + 1) * (2 + 3))", task="hamiltonian_cycle")  # C4
    assert ring.ok
    print(f"hamiltonian_cycle witness on the 4-cycle: {ring.answer}")

    # -- 7. batches of instances ------------------------------------------ #
    batch = solve_many([random_cotree(40, seed=s) for s in range(6)],
                       backend="fast")
    print(f"solve_many: covers of sizes "
          f"{[r.num_paths for r in batch]} for 6 random instances")

    # -- 8. every solution serialises ------------------------------------- #
    payload = result.to_json_dict()
    assert payload["task"] == "path_cover"
    print(f"solution JSON keys: {sorted(payload)}")


if __name__ == "__main__":
    main()
