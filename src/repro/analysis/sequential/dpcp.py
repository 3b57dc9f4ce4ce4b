"""Classic DPCP analysis for *sequential* tasks (Rajkumar et al. [16]).

The paper's Sec. VI sketches how DPCP-p coexists with light tasks: light
tasks are treated as sequential tasks under partitioned fixed-priority
scheduling and synchronise through the original Distributed Priority Ceiling
Protocol.  This module provides that substrate:

* a lightweight sequential-task model,
* worst-fit partitioning of tasks and global resources onto processors, and
* a response-time analysis with the DPCP's agent-based remote execution and
  priority-ceiling blocking (at most one lower-priority request per request).

It mirrors the structure of the DPCP-p analysis specialised to tasks whose
"DAG" is a single vertex executing on a single processor.

The straight-line analysis below is the only engine; DESIGN.md ("No
sequential kernel") records why no compiled kernel backs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..rta import ceil_div_jobs, least_fixed_point


class SequentialModelError(ValueError):
    """Raised for invalid sequential task system descriptions."""


@dataclass
class SequentialTask:
    """A sporadic sequential task using shared resources via the DPCP.

    Attributes
    ----------
    task_id:
        Unique identifier.
    wcet:
        Total WCET including critical sections (µs).
    period:
        Minimum inter-arrival time (µs).
    deadline:
        Relative deadline; defaults to the period.
    priority:
        Base priority (larger = higher).
    requests:
        ``resource id -> (count, cs_length)``.
    """

    task_id: int
    wcet: float
    period: float
    deadline: Optional[float] = None
    priority: int = 0
    requests: Dict[int, Tuple[int, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.wcet <= 0 or self.period <= 0:
            raise SequentialModelError("WCET and period must be positive")
        if self.deadline is None:
            self.deadline = self.period
        if not 0 < self.deadline <= self.period:
            raise SequentialModelError("deadline must satisfy 0 < D <= T")
        cs_total = sum(count * length for count, length in self.requests.values())
        if cs_total > self.wcet + 1e-9:
            raise SequentialModelError("critical sections exceed the WCET")

    @property
    def utilization(self) -> float:
        """Task utilization C/T."""
        return self.wcet / self.period

    @property
    def non_critical_wcet(self) -> float:
        """WCET excluding all critical sections."""
        return self.wcet - sum(c * l for c, l in self.requests.values())

    def request_count(self, resource_id: int) -> int:
        """Number of requests issued to ``resource_id`` per job."""
        return self.requests.get(resource_id, (0, 0.0))[0]

    def cs_length(self, resource_id: int) -> float:
        """Maximum critical-section length on ``resource_id``."""
        return self.requests.get(resource_id, (0, 0.0))[1]


@dataclass
class SequentialSystem:
    """A partitioned sequential task system under the DPCP.

    Attributes
    ----------
    tasks:
        The sequential tasks.
    task_assignment:
        ``task id -> processor``.
    resource_assignment:
        ``global resource id -> processor`` (hosting the resource's agent).
    """

    tasks: List[SequentialTask]
    task_assignment: Dict[int, int]
    resource_assignment: Dict[int, int]

    def task(self, task_id: int) -> SequentialTask:
        """Look up a task by id."""
        for task in self.tasks:
            if task.task_id == task_id:
                return task
        raise SequentialModelError(f"unknown task {task_id}")

    def tasks_on(self, processor: int) -> List[SequentialTask]:
        """Tasks assigned to ``processor``."""
        return [t for t in self.tasks if self.task_assignment[t.task_id] == processor]

    def resources_on(self, processor: int) -> List[int]:
        """Global resources hosted on ``processor``."""
        return sorted(
            rid for rid, proc in self.resource_assignment.items() if proc == processor
        )

    def co_located_resources(self, resource_id: int) -> List[int]:
        """Resources on the same processor as ``resource_id``."""
        return self.resources_on(self.resource_assignment[resource_id])

    def resource_ceiling(self, resource_id: int) -> int:
        """Highest base priority among the users of ``resource_id``."""
        users = [t for t in self.tasks if t.request_count(resource_id) > 0]
        if not users:
            raise SequentialModelError(f"resource {resource_id} has no users")
        return max(t.priority for t in users)


def partition_sequential_system(
    tasks: List[SequentialTask],
    num_processors: int,
    reserved_processors: int = 0,
) -> Optional[SequentialSystem]:
    """Worst-fit partition tasks and resources onto the available processors.

    ``reserved_processors`` marks processors unavailable to sequential tasks
    (e.g. processors already dedicated to heavy DAG tasks); resources may
    still be hosted on the remaining processors.  Returns ``None`` when a
    task does not fit anywhere.
    """
    available = list(range(reserved_processors, num_processors))
    if not available:
        return None
    load: Dict[int, float] = {p: 0.0 for p in available}
    task_assignment: Dict[int, int] = {}
    for task in sorted(tasks, key=lambda t: t.utilization, reverse=True):
        target = min(load, key=lambda p: (load[p], p))
        if load[target] + task.utilization > 1.0 + 1e-9:
            return None
        task_assignment[task.task_id] = target
        load[target] += task.utilization

    resource_users: Dict[int, List[SequentialTask]] = {}
    for task in tasks:
        for rid, (count, _) in task.requests.items():
            if count > 0:
                resource_users.setdefault(rid, []).append(task)
    global_resources = [rid for rid, users in resource_users.items() if len(users) > 1]

    resource_assignment: Dict[int, int] = {}
    resource_load: Dict[int, float] = {p: 0.0 for p in available}
    for rid in sorted(
        global_resources,
        key=lambda r: sum(
            t.request_count(r) * t.cs_length(r) / t.period for t in tasks
        ),
        reverse=True,
    ):
        utilization = sum(
            t.request_count(rid) * t.cs_length(rid) / t.period for t in tasks
        )
        target = min(available, key=lambda p: (load[p] + resource_load[p], p))
        resource_assignment[rid] = target
        resource_load[target] += utilization
    return SequentialSystem(list(tasks), task_assignment, resource_assignment)


# --------------------------------------------------------------------------- #
# Response-time analysis
# --------------------------------------------------------------------------- #
def _request_response_time(
    system: SequentialSystem,
    task: SequentialTask,
    resource_id: int,
    response_times: Mapping[int, float],
) -> float:
    """Response time of one global-resource request under the classic DPCP."""
    co_located = system.co_located_resources(resource_id)
    beta = 0.0
    for other in system.tasks:
        if other.priority >= task.priority:
            continue
        for rid in co_located:
            if other.request_count(rid) == 0:
                continue
            if system.resource_ceiling(rid) >= task.priority:
                beta = max(beta, other.cs_length(rid))

    def gamma(interval: float) -> float:
        total = 0.0
        for other in system.tasks:
            if other.priority <= task.priority or other.task_id == task.task_id:
                continue
            carried = response_times.get(other.task_id, other.deadline)
            released = ceil_div_jobs(interval, other.period, carried)
            for rid in co_located:
                total += released * other.request_count(rid) * other.cs_length(rid)
        return total

    constant = task.cs_length(resource_id) + beta

    def recurrence(window: float) -> float:
        return constant + gamma(window)

    solution = least_fixed_point(recurrence, constant, task.deadline)
    return solution if solution is not None else math.inf


def sequential_dpcp_wcrt(
    system: SequentialSystem,
    task: SequentialTask,
    response_times: Optional[Mapping[int, float]] = None,
) -> float:
    """Response-time bound of a sequential task under the classic DPCP.

    ``response_times`` holds the bounds already known for other tasks;
    tasks without one contribute with their deadline.
    """
    response_times = dict(response_times or {})
    processor = system.task_assignment[task.task_id]

    request_blocking = 0.0
    for rid, (count, _) in task.requests.items():
        if count == 0 or rid not in system.resource_assignment:
            continue
        window = _request_response_time(system, task, rid, response_times)
        if math.isinf(window):
            return math.inf
        request_blocking += count * window

    def recurrence(response: float) -> float:
        # Higher-priority tasks on the same processor preempt the task's
        # non-critical execution.
        local_interference = 0.0
        for other in system.tasks_on(processor):
            if other.task_id == task.task_id or other.priority <= task.priority:
                continue
            carried = response_times.get(other.task_id, other.deadline)
            released = ceil_div_jobs(response, other.period, carried)
            local_interference += released * other.non_critical_wcet
        # Agents hosted on the task's processor execute other tasks' requests
        # with boosted priority and therefore also interfere.
        agent_interference = 0.0
        for rid in system.resources_on(processor):
            for other in system.tasks:
                if other.task_id == task.task_id:
                    continue
                carried = response_times.get(other.task_id, other.deadline)
                released = ceil_div_jobs(response, other.period, carried)
                agent_interference += (
                    released * other.request_count(rid) * other.cs_length(rid)
                )
        return (
            task.non_critical_wcet
            + request_blocking
            + local_interference
            + agent_interference
        )

    start = task.non_critical_wcet + request_blocking
    solution = least_fixed_point(recurrence, start, task.deadline)
    return solution if solution is not None else math.inf


def analyze_sequential_system(system: SequentialSystem) -> Dict[int, float]:
    """Bound the WCRT of every task of a partitioned sequential system.

    Tasks are analysed in decreasing priority order; the returned mapping
    contains ``math.inf`` for tasks without a converging bound.
    """
    response_times: Dict[int, float] = {}
    results: Dict[int, float] = {}
    for task in sorted(system.tasks, key=lambda t: t.priority, reverse=True):
        wcrt = sequential_dpcp_wcrt(system, task, response_times)
        results[task.task_id] = wcrt
        response_times[task.task_id] = min(wcrt, task.deadline)
    return results
