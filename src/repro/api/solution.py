"""The unified result type of :func:`repro.api.solve`.

One :class:`Solution` replaces the result shapes the pre-1.1 entry points
returned (a bare :class:`~repro.cograph.PathCover`, the parallel engine's
``ParallelPathCoverResult``, a per-instance batch record): whatever the
task, a solve hands back the same record —
the task-specific ``answer``, the cover when one was built, the PRAM cost
report when the run accounted, per-stage wall-clock timings, the backend
name, and a ``provenance`` dict tying the result to its input.

``to_json_dict`` / ``from_json_dict`` round-trip everything except the live
PRAM machine, and :func:`repro.io.save_json` / :func:`repro.io.load_json`
understand the format.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from .._version import __version__ as _version
from ..cograph import PathCover
from ..io import cover_from_json, cover_to_json
from ..pram import CostReport, PRAM
from .options import SolveOptions

__all__ = ["Solution"]


@dataclass
class Solution:
    """Everything one solve produced.

    Attributes
    ----------
    task:
        the task name (``"path_cover"``, ``"hamiltonian_cycle"``, ...).
    answer:
        the task's primary result: a :class:`~repro.cograph.PathCover` for
        ``path_cover``; an ``int`` for ``path_cover_size``; a vertex list or
        ``None`` for the Hamiltonian witnesses; a ``bool`` for
        ``recognition``; a dict for ``lower_bound``.
    backend:
        name of the execution path that ran (``"pram"``, ``"fast"``,
        ``"sequential"``).
    options:
        the validated :class:`~repro.api.SolveOptions` of the run.
    cover:
        the minimum path cover, whenever the task built one.
    num_paths:
        size of the minimum path cover, whenever it is known.
    report:
        the PRAM cost report (``None`` unless the run accounted).
    stage_seconds:
        per-stage wall-clock of the pipeline (empty when no pipeline ran).
    provenance:
        where the instance came from and per-task extras (source format,
        vertex count, ``p_root``, exchange count, library version, batch
        index, and — when a :class:`~repro.api.SolutionCache` was
        consulted — ``"cache": "hit"``/``"miss"``).
    machine:
        the live simulated machine for re-scaling experiments; in-process
        PRAM runs only — never serialised, dropped by the batch fan-out.
    """

    task: str
    answer: Any
    backend: str
    options: SolveOptions
    cover: Optional[PathCover] = None
    num_paths: Optional[int] = None
    report: Optional[CostReport] = None
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)
    machine: Optional[PRAM] = None

    def __post_init__(self) -> None:
        self.provenance.setdefault("repro_version", _version)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serialisable dict (drops the live ``machine``)."""
        return {
            "type": "solution",
            "task": self.task,
            "answer": _encode_answer(self.answer),
            "backend": self.backend,
            "options": self.options.to_dict(),
            "cover": cover_to_json(self.cover) if self.cover is not None
                     else None,
            "num_paths": self.num_paths,
            "report": self.report.to_json_dict() if self.report is not None
                      else None,
            "stage_seconds": dict(self.stage_seconds),
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "Solution":
        """Inverse of :meth:`to_json_dict`."""
        if data.get("type") != "solution":
            raise ValueError("not a serialised solution")
        report = data.get("report")
        return cls(
            task=data["task"],
            answer=_decode_answer(data["answer"]),
            backend=data["backend"],
            options=SolveOptions.from_dict(data["options"]),
            cover=(cover_from_json(data["cover"])
                   if data.get("cover") is not None else None),
            num_paths=data.get("num_paths"),
            report=(CostReport.from_json_dict(report)
                    if report is not None else None),
            stage_seconds=dict(data.get("stage_seconds", {})),
            provenance=dict(data.get("provenance", {})),
        )

    def without_machine(self) -> "Solution":
        """A copy safe to pickle across process boundaries."""
        if self.machine is None:
            return self
        return replace(self, machine=None)

    # ------------------------------------------------------------------ #
    # conveniences
    # ------------------------------------------------------------------ #

    @property
    def ok(self) -> bool:
        """True unless the task answered in the negative (``None`` witness
        or ``False`` decision)."""
        return self.answer is not None and self.answer is not False

    @property
    def cache_status(self) -> Optional[str]:
        """``"hit"`` / ``"miss"`` when a solution cache was consulted,
        ``None`` when no cache was configured."""
        return self.provenance.get("cache")

    def summary(self) -> str:
        """One human-readable line about this solution."""
        bits = [f"task={self.task}", f"backend={self.backend}"]
        n = self.provenance.get("num_vertices")
        if n is not None:
            bits.append(f"n={n}")
        if self.num_paths is not None:
            bits.append(f"num_paths={self.num_paths}")
        if isinstance(self.answer, bool) or self.answer is None:
            bits.append(f"answer={self.answer!r}")
        if self.report is not None:
            bits.append(f"rounds={self.report.rounds}")
        if self.cache_status is not None:
            bits.append(f"cache={self.cache_status}")
        return "Solution(" + ", ".join(bits) + ")"


def _encode_answer(answer: Any) -> Any:
    if isinstance(answer, PathCover):
        return cover_to_json(answer)
    return answer


def _decode_answer(answer: Any) -> Any:
    if isinstance(answer, dict) and answer.get("type") == "path_cover":
        return cover_from_json(answer)
    return answer
