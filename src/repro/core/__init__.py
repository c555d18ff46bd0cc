"""The paper's contribution: the time- and work-optimal parallel minimum
path cover algorithm for cographs (Sections 2–5), plus the lower-bound
construction and the Hamiltonicity corollaries.
"""

from .binarize import binarize_parallel
from .brackets import (
    ROLE_L,
    ROLE_P,
    ROLE_R,
    BracketSequence,
    generate_brackets,
    render_brackets,
)
from .dp import (
    BUILTIN_DPS,
    CHROMATIC_NUMBER_DP,
    CLIQUE_COVER_DP,
    COUNT_INDEPENDENT_SETS_DP,
    MAX_CLIQUE_DP,
    MAX_INDEPENDENT_SET_DP,
    PATH_COVER_SIZE_DP,
    Combine,
    CotreeDP,
    CotreeDPRun,
    class_assignment,
    run_cotree_dp,
    run_cotree_dp_sequential,
    selected_subtree_vertices,
)
from .extract import extract_paths
from .hamiltonian import (
    HamiltonicityReport,
    hamiltonian_cycle,
    hamiltonian_path,
    hamiltonicity_report,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
)
from .leftist import LeftistCotree, leftist_reorder
from .lower_bound import (
    LowerBoundInstance,
    expected_path_count,
    or_from_cover,
    or_from_path_count,
    or_instance_cotree,
    parallel_or_rounds,
)
from .batch import Resolved, WorkerPool, resolve_jobs, stream_out
from .faults import CORRUPT_SENTINEL, FaultPlan
from .retry import CircuitBreaker, ErrorOutcome, RetryPolicy, WorkerCrashError
from .path_trees import PathForest, build_pseudo_forest, legalize_forest, remove_dummies
from .pipeline import (
    STAGE_ORDER,
    Pipeline,
    PipelineError,
    PipelineRun,
    PipelineState,
    StageTiming,
)
from .reduce import ReducedCotree, VertexClass, reduce_cotree
from .solver import ParallelPathCoverResult, minimum_path_cover_parallel

__all__ = [
    "binarize_parallel",
    "leftist_reorder", "LeftistCotree",
    "reduce_cotree", "ReducedCotree", "VertexClass",
    "generate_brackets", "render_brackets", "BracketSequence",
    "ROLE_P", "ROLE_L", "ROLE_R",
    "build_pseudo_forest", "legalize_forest", "remove_dummies", "PathForest",
    "extract_paths",
    "minimum_path_cover_parallel", "ParallelPathCoverResult",
    "Pipeline", "PipelineRun", "PipelineState", "PipelineError",
    "StageTiming", "STAGE_ORDER",
    "WorkerPool", "Resolved", "stream_out", "resolve_jobs",
    "RetryPolicy", "ErrorOutcome", "WorkerCrashError", "CircuitBreaker",
    "FaultPlan", "CORRUPT_SENTINEL",
    "or_instance_cotree", "or_from_path_count", "or_from_cover",
    "expected_path_count", "parallel_or_rounds", "LowerBoundInstance",
    "has_hamiltonian_path", "has_hamiltonian_cycle", "hamiltonian_path",
    "hamiltonian_cycle", "HamiltonicityReport", "hamiltonicity_report",
    "CotreeDP", "Combine", "CotreeDPRun",
    "run_cotree_dp", "run_cotree_dp_sequential",
    "selected_subtree_vertices", "class_assignment",
    "PATH_COVER_SIZE_DP", "MAX_CLIQUE_DP", "MAX_INDEPENDENT_SET_DP",
    "CHROMATIC_NUMBER_DP", "CLIQUE_COVER_DP", "COUNT_INDEPENDENT_SETS_DP",
    "BUILTIN_DPS",
]
