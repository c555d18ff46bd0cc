"""The experiment registry: every claim/figure of the paper mapped to the
harness that regenerates it.

This is the machine-readable version of the experiment index in DESIGN.md;
``tests/test_experiment_registry.py`` keeps the two and the benchmark files on
disk consistent, so a claim cannot silently lose its harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["ExperimentSpec", "EXPERIMENTS", "experiment_by_id"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One row of the reproduction's experiment index."""

    experiment_id: str
    paper_item: str
    claim: str
    workload: str
    modules: Tuple[str, ...]
    harness: str


EXPERIMENTS: List[ExperimentSpec] = [
    ExperimentSpec(
        "E1", "Theorem 2.2 / Fig. 2",
        "Counting or reporting a minimum path cover needs Omega(log n) CREW "
        "time (reduction from OR); the balanced fan-in upper bound matches.",
        "OR bit-vectors reduced to cotrees, n = 2^4 .. 2^18",
        ("repro.core.lower_bound", "repro.pram"),
        "benchmarks/bench_lower_bound.py"),
    ExperimentSpec(
        "E2", "Lemma 2.3",
        "The sequential algorithm runs in O(n) time.",
        "random cotrees, n = 2^8 .. 2^17",
        ("repro.baselines.sequential",),
        "benchmarks/bench_sequential.py"),
    ExperimentSpec(
        "E3", "Lemma 2.4",
        "p(u) for every node is computable in O(log n) time and O(n) work "
        "on the EREW PRAM.",
        "random and caterpillar cotrees",
        ("repro.core.reduce", "repro.primitives.tree_contraction"),
        "benchmarks/bench_counting.py"),
    ExperimentSpec(
        "E4", "Theorem 5.3",
        "A minimum path cover is reported in O(log n) time using n/log n "
        "EREW processors (O(n) work).",
        "random cotrees across densities, n = 2^6 .. 2^15",
        ("repro.core.solver",),
        "benchmarks/bench_optimal_parallel.py"),
    ExperimentSpec(
        "E5", "Section 1 comparison",
        "The new algorithm dominates the sequential baseline, the naive "
        "parallelisation (O(height log n)), Lin et al. 1994 (O(log^2 n)) and "
        "Adhar-Peng (O(log^2 n), O(n^2) CRCW processors).",
        "same cotree families for all competitors, incl. caterpillars",
        ("repro.baselines", "repro.core.solver"),
        "benchmarks/bench_baseline_comparison.py"),
    ExperimentSpec(
        "E6", "Section 1 corollary",
        "Hamiltonian path / cycle queries are answered within the same "
        "bounds.",
        "joins of independent sets sweeping across the p(v) = L(w) crossover",
        ("repro.core.hamiltonian",),
        "benchmarks/bench_hamiltonian.py"),
    ExperimentSpec(
        "E7", "work-optimality claim",
        "Total work stays O(n): work/n is bounded and parallel efficiency "
        "with p = n/log n processors does not vanish.",
        "random cotrees, n = 2^6 .. 2^15",
        ("repro.analysis.metrics",),
        "benchmarks/bench_work_optimality.py"),
    ExperimentSpec(
        "E8", "Lemma 5.1 / 5.2",
        "The primitive toolbox (prefix sums, list ranking, Euler tour, "
        "bracket matching, tree contraction) runs in O(log n) rounds.",
        "arrays, linked lists and trees, n = 2^8 .. 2^17",
        ("repro.primitives",),
        "benchmarks/bench_primitives.py"),
    ExperimentSpec(
        "E9", "backend separation (engineering)",
        "The pipeline's outputs are backend-independent: the fast vectorized "
        "backend produces the same covers as the PRAM simulator while being "
        ">= 5x faster wall-clock at n = 10^4; solve_many adds "
        "multi-instance throughput on top.",
        "all generator families, n = 10^3 .. 10^4, plus instance batches",
        ("repro.backends", "repro.core.pipeline", "repro.core.batch"),
        "benchmarks/bench_backends.py"),
    ExperimentSpec(
        "E10", "streaming scale-out (engineering)",
        "solve_stream consumes instance streams lazily with a bounded "
        "in-flight window (no full materialisation even at 100k "
        "instances); a persistent WorkerPool beats per-call solve_many "
        "on repeated small batches; the canonical-form solution cache "
        "absorbs repeat traffic.",
        "lazily generated cotree streams, many small batches, skewed "
        "repeat-request mixes",
        ("repro.core.batch", "repro.api.solve", "repro.api.cache"),
        "benchmarks/bench_stream.py"),
    ExperimentSpec(
        "E11", "flat-array hot path (engineering)",
        "Per-stage wall-clock trajectory of the pipeline: the FlatCotree "
        "CSR form plus the C-level DFS numbering kernel keep every stage "
        "free of per-node Python loops; the end-to-end FastBackend solve "
        "at n = 10^5 is >= 3x faster than the pre-flat hot path, and the "
        "checked-in BENCH_PR10.json gives every future PR a per-stage "
        "regression baseline.",
        "random cotrees, n = 10^3 / 10^4 / 10^5, both backends",
        ("repro.cograph.flat", "repro._dfs", "repro.core.pipeline"),
        "benchmarks/bench_profile.py"),
    ExperimentSpec(
        "E12", "cotree-DP engine (engineering)",
        "The declarative bottom-up DP engine answers the classic cograph "
        "problems (max clique, max independent set, chromatic number, "
        "clique cover, independent-set counting) level-wise over FlatCotree "
        "CSR arrays; on the fast backend max_clique at n = 10^5 costs well "
        "under 2x the full-pipeline total the lower_bound task used to pay, "
        "and every task is backend-bit-identical.",
        "random cotrees, n = 10^3 / 10^4 / 10^5, both backends",
        ("repro.core.dp", "repro.api.tasks", "repro.cograph.flat"),
        "benchmarks/bench_profile.py"),
    ExperimentSpec(
        "E13", "forest batching (engineering)",
        "Thousands of small instances packed into one FlatForest and "
        "swept by a single vectorized engine run (solve_forest, or the "
        "batch_small routing of solve_many / solve_stream) beat the "
        "pooled batch front door by >= 10x at 10^4 instances with "
        "n <= 100, bit-identical to per-instance solve().",
        "10^4 random cotrees, n uniform in [1, 100], fast backend",
        ("repro.cograph.forest", "repro.api.forest", "repro.core.dp"),
        "benchmarks/bench_profile.py"),
    ExperimentSpec(
        "E14", "the service layer (engineering)",
        "The async HTTP/JSON service (repro.server) sustains concurrent "
        "mixed-task traffic on one warm pool with a non-zero shared-cache "
        "hit rate, sheds overload past queue_limit with 429s (never a "
        "5xx), and drains cleanly on shutdown.",
        "concurrent HTTP clients over a skewed mixed-task request stream, "
        "plus a saturation burst at queue_limit=2",
        ("repro.server.app", "repro.server.runner", "repro.api.cache"),
        "benchmarks/bench_server.py"),
    ExperimentSpec(
        "E15", "modular decomposition (engineering)",
        "The cotree-DP engine generalised to modular decomposition trees: "
        "md_tree() extends FlatCotree with prime nodes (closed-form "
        "spiders, bitmask quotients up to 16 children), the MD-capable "
        "tasks (max clique / independent set, weighted variants) answer "
        "P4-sparse and bounded-prime graphs exactly, and cograph inputs "
        "stay within 1.1x the pre-MD E12 budgets (bit-identical trees, "
        "same hot path).",
        "pinned random cotrees (n = 10^4 / 10^5) and random P4-sparse "
        "graphs (n = 500 / 2000), fast backend",
        ("repro.cograph.md", "repro.core.dp", "repro.api.tasks"),
        "benchmarks/bench_profile.py"),
    ExperimentSpec(
        "E16", "self-healing execution (engineering)",
        "The self-healing stream engine: a SIGKILLed worker never loses a "
        "result (the executor is rebuilt, lost in-flight chunks are "
        "resubmitted under a capped-backoff RetryPolicy, repeat killers "
        "are quarantined as structured ErrorOutcomes in their ordered "
        "slot).  Its healthy-path timing against the legacy fail-fast loop "
        "(0.949x) retired with that loop in 2.0; the chaos suite keeps the "
        "healing guarantees.",
        "SIGKILLed workers, poison items, in-worker MemoryError and "
        "deadline overruns injected through REPRO_FAULTS",
        ("repro.core.batch", "repro.core.retry", "repro.core.faults",
         "repro.server.app"),
        "tests/test_resilience.py"),
    ExperimentSpec(
        "E17", "wire format (engineering)",
        "Zero-copy binary wire ingestion (repro.io.wire.from_bytes) is "
        ">= 10x faster than JSON parsing of the same instance.  (The "
        "compiled kernel half of E17 retired with the kernel tier in 2.0: "
        "only NumPy-fallback runs were ever measured, at 0.94x / 0.99x of "
        "the fast backend.)",
        "pinned random cotrees, n = 10k / 100k, ingestion-to-FlatCotree "
        "microbench",
        ("repro.io.wire", "repro.cograph.flat"),
        "benchmarks/bench_profile.py"),
    ExperimentSpec(
        "A1", "leftist condition (ablation)",
        "Without the leftist reordering the 1-node recurrence stops being "
        "minimum: the produced covers are strictly larger on adversarial "
        "joins.",
        "joins of skewed independent sets",
        ("repro.core.leftist", "repro.cograph.validation"),
        "benchmarks/bench_ablation_leftist.py"),
    ExperimentSpec(
        "A2", "dummy vertices (ablation)",
        "Without dummy vertices / legalisation the pseudo path trees contain "
        "adjacencies that are not edges; the count of such violations is "
        "measured.",
        "random cographs with Case-2 joins",
        ("repro.core.path_trees",),
        "benchmarks/bench_ablation_dummies.py"),
    ExperimentSpec(
        "A3", "work-efficient primitives (ablation)",
        "Wyllie pointer jumping costs Theta(n log n) work vs Theta(n) for the "
        "contraction-based list ranking; the work ratio grows like log n.",
        "linked lists, n = 2^8 .. 2^17",
        ("repro.primitives.list_ranking",),
        "benchmarks/bench_ablation_list_ranking.py"),
    ExperimentSpec(
        "F1-F12", "Figures 1-12",
        "Every worked figure of the paper is rebuilt programmatically and "
        "its stated properties are checked.",
        "the exact examples of the paper",
        ("repro.io.drawing", "repro.core"),
        "examples/figure_gallery.py"),
]


def experiment_by_id(experiment_id: str) -> ExperimentSpec:
    """Look up one experiment (raises ``KeyError`` for unknown ids)."""
    for spec in EXPERIMENTS:
        if spec.experiment_id == experiment_id:
            return spec
    raise KeyError(experiment_id)
