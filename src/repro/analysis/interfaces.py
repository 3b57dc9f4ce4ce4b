"""Common result types and the schedulability-test interface.

Every locking protocol / analysis in this library implements
:class:`SchedulabilityTest`: given a task set and a platform it decides
schedulability, reporting per-task worst-case response-time bounds and the
processor/resource partition it used.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..model.platform import PartitionedSystem, Platform
from ..model.task import TaskSet

#: Sentinel used when an analysis diverges (no finite WCRT bound exists).
UNBOUNDED = math.inf


@dataclass
class TaskAnalysis:
    """Per-task outcome of a schedulability analysis.

    Attributes
    ----------
    task_id:
        The analysed task.
    wcrt:
        Derived worst-case response-time bound (``math.inf`` if unbounded).
    deadline:
        The task's relative deadline, for convenience.
    processors:
        Number of processors assigned to the task by the partitioning stage.
    """

    task_id: int
    wcrt: float
    deadline: float
    processors: int = 0

    @property
    def schedulable(self) -> bool:
        """Whether the WCRT bound meets the deadline."""
        return self.wcrt <= self.deadline + 1e-9


@dataclass
class SchedulabilityResult:
    """Outcome of a schedulability test on a whole task set.

    ``task_analyses`` bounds every task of an accepted task set.  A test may
    stop at the first deadline miss, so an unschedulable result can carry
    only some tasks' bounds (DPCP-p's Algorithm 1 keeps the priority-ordered
    prefix that ends at the failing task); :meth:`wcrt` reports the others
    as unbounded.
    """

    schedulable: bool
    protocol: str
    task_analyses: Dict[int, TaskAnalysis] = field(default_factory=dict)
    partition: Optional[PartitionedSystem] = None
    reason: str = ""

    def wcrt(self, task_id: int) -> float:
        """WCRT bound of ``task_id`` (``math.inf`` when not analysed)."""
        analysis = self.task_analyses.get(task_id)
        return analysis.wcrt if analysis else UNBOUNDED

    def __bool__(self) -> bool:
        return self.schedulable


class SchedulabilityTest(abc.ABC):
    """Abstract base class for protocol-specific schedulability tests."""

    #: Short identifier used in experiment reports (e.g. ``"DPCP-p-EP"``).
    name: str = "abstract"

    @abc.abstractmethod
    def test(self, taskset: TaskSet, platform: Platform) -> SchedulabilityResult:
        """Decide whether ``taskset`` is schedulable on ``platform``."""

    def __call__(self, taskset: TaskSet, platform: Platform) -> SchedulabilityResult:
        return self.test(taskset, platform)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
