"""The eight-stage solver pipeline as a declarative, named-stage object.

The paper's Section 5 algorithm is a fixed chain

    binarize → leftist → reduce → brackets → pseudo → legalize
             → compress → extract

Historically every benchmark and ablation copy-pasted that chain and
commented out the stage under study.  :class:`Pipeline` replaces the
copy-paste: a pipeline is a *subsequence* of the canonical stage list, each
stage is a named function over a shared :class:`PipelineState`, and
:meth:`Pipeline.run` executes the selected stages on any execution backend
while collecting per-stage wall-clock timings.

Typical uses::

    Pipeline.default().run(tree)                    # the full solver
    Pipeline.until("reduce").run(tree, "pram")      # p(u) only, simulated
    Pipeline.default().without("legalize").run(t)   # the A2 ablation

The stage functions write their artefacts into the state (``state.reduced``,
``state.cover``, ...), so a partial run exposes exactly the intermediates the
caller asked for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backends import ExecutionContext, resolve_context
from ..cograph import BinaryCotree, Cotree, FlatCotree, PathCover
from ..cograph.cotree import PRIME, prime_refusal
from .binarize import binarize_parallel
from .brackets import BracketSequence, generate_brackets
from .extract import extract_paths
from .leftist import LeftistCotree, leftist_reorder
from .path_trees import PathForest, build_pseudo_forest, legalize_forest, \
    remove_dummies
from .reduce import ReducedCotree, reduce_cotree

__all__ = ["STAGE_ORDER", "PipelineState", "StageTiming", "Pipeline",
           "PipelineRun", "PipelineError"]

#: the canonical stage names, in the paper's Step 1..8 order
STAGE_ORDER: Tuple[str, ...] = (
    "binarize", "leftist", "reduce", "brackets",
    "pseudo", "legalize", "compress", "extract",
)


class PipelineError(ValueError):
    """Raised for invalid stage selections or missing prerequisites."""


@dataclass
class PipelineState:
    """Everything a pipeline run produces, stage by stage."""

    ctx: ExecutionContext
    work_efficient: bool = True
    general: Optional[Union[Cotree, FlatCotree]] = None
    binary: Optional[BinaryCotree] = None
    leftist: Optional[LeftistCotree] = None
    reduced: Optional[ReducedCotree] = None
    brackets: Optional[BracketSequence] = None
    forest: Optional[PathForest] = None
    exchanges: int = 0
    cover: Optional[PathCover] = None

    def require(self, attr: str, needed_by: str):
        value = getattr(self, attr)
        if value is None:
            raise PipelineError(
                f"stage {needed_by!r} needs {attr!r}, which no earlier stage "
                f"produced; include the producing stage in the pipeline")
        return value


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock of one executed stage."""

    name: str
    seconds: float


# --------------------------------------------------------------------------- #
# stage bodies (Step 1 .. Step 8)
# --------------------------------------------------------------------------- #

def _stage_binarize(state: PipelineState) -> None:
    if state.binary is None:   # a BinaryCotree input skips Step 1
        state.binary = binarize_parallel(state.ctx,
                                         state.require("general", "binarize"),
                                         label="step1.binarize")


def _stage_leftist(state: PipelineState) -> None:
    state.leftist = leftist_reorder(state.ctx,
                                    state.require("binary", "leftist"),
                                    work_efficient=state.work_efficient,
                                    label="step2.leftist")


def _stage_reduce(state: PipelineState) -> None:
    state.reduced = reduce_cotree(state.ctx,
                                  state.require("leftist", "reduce"),
                                  work_efficient=state.work_efficient,
                                  label="step3.reduce")


def _stage_brackets(state: PipelineState) -> None:
    state.brackets = generate_brackets(state.ctx,
                                       state.require("reduced", "brackets"),
                                       label="step4.brackets")


def _stage_pseudo(state: PipelineState) -> None:
    state.forest = build_pseudo_forest(state.ctx,
                                       state.require("brackets", "pseudo"),
                                       label="step5.pseudo")


def _stage_legalize(state: PipelineState) -> None:
    state.forest, state.exchanges = legalize_forest(
        state.ctx, state.require("forest", "legalize"),
        state.require("reduced", "legalize"),
        work_efficient=state.work_efficient, label="step6.legalize")


def _stage_compress(state: PipelineState) -> None:
    state.forest = remove_dummies(state.ctx,
                                  state.require("forest", "compress"),
                                  label="step7.compress")


def _stage_extract(state: PipelineState) -> None:
    state.cover = extract_paths(state.ctx,
                                state.require("forest", "extract"),
                                work_efficient=state.work_efficient,
                                label="step8.extract")


_STAGE_FUNCS: Dict[str, Callable[[PipelineState], None]] = {
    "binarize": _stage_binarize,
    "leftist": _stage_leftist,
    "reduce": _stage_reduce,
    "brackets": _stage_brackets,
    "pseudo": _stage_pseudo,
    "legalize": _stage_legalize,
    "compress": _stage_compress,
    "extract": _stage_extract,
}


# --------------------------------------------------------------------------- #
# the pipeline object
# --------------------------------------------------------------------------- #

@dataclass
class PipelineRun:
    """The outcome of one :meth:`Pipeline.run`."""

    state: PipelineState
    timings: List[StageTiming] = field(default_factory=list)

    @property
    def cover(self) -> Optional[PathCover]:
        return self.state.cover

    @property
    def stage_seconds(self) -> Dict[str, float]:
        """Per-stage wall-clock, in execution order."""
        return {t.name: t.seconds for t in self.timings}

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.timings)


class Pipeline:
    """An ordered selection of solver stages.

    ``stages`` must be a subsequence of :data:`STAGE_ORDER` (stages can be
    dropped, not reordered).  Missing prerequisites are reported by the stage
    that needs them, at run time.
    """

    def __init__(self, stages: Sequence[str] = STAGE_ORDER) -> None:
        stages = tuple(stages)
        unknown = [s for s in stages if s not in _STAGE_FUNCS]
        if unknown:
            raise PipelineError(f"unknown stage(s) {unknown}; valid stages "
                                f"are {list(STAGE_ORDER)}")
        positions = [STAGE_ORDER.index(s) for s in stages]
        if sorted(positions) != positions or len(set(positions)) != len(positions):
            raise PipelineError(
                f"stages must be a subsequence of {list(STAGE_ORDER)}, "
                f"got {list(stages)}")
        self.stages = stages

    # -- declarative constructors ---------------------------------------- #

    @classmethod
    def default(cls) -> "Pipeline":
        """All eight stages — the full Theorem 5.3 solver."""
        return cls(STAGE_ORDER)

    @classmethod
    def until(cls, last_stage: str) -> "Pipeline":
        """The prefix of the pipeline up to and including ``last_stage``."""
        if last_stage not in STAGE_ORDER:
            raise PipelineError(f"unknown stage {last_stage!r}")
        idx = STAGE_ORDER.index(last_stage)
        return cls(STAGE_ORDER[:idx + 1])

    def without(self, *names: str) -> "Pipeline":
        """A copy with the named stages removed (for ablations)."""
        for name in names:
            if name not in STAGE_ORDER:
                raise PipelineError(f"unknown stage {name!r}")
        return Pipeline(tuple(s for s in self.stages if s not in names))

    # -- execution -------------------------------------------------------- #

    def run(self, tree: Union[Cotree, FlatCotree, BinaryCotree],
            ctx=None, *,
            work_efficient: bool = True) -> PipelineRun:
        """Execute the selected stages on ``tree``.

        Parameters
        ----------
        tree:
            a general (canonical) cotree — as a :class:`Cotree` or, on the
            hot path, a :class:`FlatCotree` — or an already-binarized
            cotree (which makes the ``binarize`` stage a no-op).
        ctx:
            execution context — anything
            :func:`~repro.backends.resolve_context` accepts.

        Raises
        ------
        CotreeError
            if ``tree`` is a modular decomposition tree with prime nodes:
            the Lemma 2.4 recurrence is exact on cographs only.
        """
        if np.any(tree.kind == PRIME):
            raise prime_refusal("the path-cover pipeline")
        context = resolve_context(ctx)
        state = PipelineState(ctx=context, work_efficient=work_efficient)
        if isinstance(tree, BinaryCotree):
            state.binary = tree
        else:
            state.general = tree

        run = PipelineRun(state=state)
        for name in self.stages:
            t0 = time.perf_counter()
            _STAGE_FUNCS[name](state)
            run.timings.append(StageTiming(name, time.perf_counter() - t0))
        return run

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Pipeline({list(self.stages)})"
