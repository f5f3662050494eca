"""The :class:`Task` record: one moldable task of a task graph."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.speedup.base import SpeedupModel
from repro.types import TaskId

__all__ = ["Task"]


@dataclass(frozen=True, slots=True)
class Task:
    """One moldable task.

    Attributes
    ----------
    id:
        Unique (hashable) identifier within its graph.
    model:
        The task's speedup model — its execution-time function
        :math:`t_j(p)`.  In the online setting this becomes known to the
        scheduler only when the task is revealed.
    tag:
        Optional free-form label (e.g. the kernel name in a workflow:
        ``"POTRF"``, ``"GEMM"``).  Ignored by schedulers; used by reports.
    """

    id: TaskId
    model: SpeedupModel
    tag: str = field(default="", compare=False)

    def time(self, p: int) -> float:
        """Execution time on ``p`` processors (delegates to the model)."""
        return self.model.time(p)

    def area(self, p: int) -> float:
        """Area :math:`p \\cdot t(p)` (delegates to the model)."""
        return self.model.area(p)
