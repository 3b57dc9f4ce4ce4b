"""LPP baseline: local suspension-based semaphores under federated scheduling
(after Jiang et al. [11]).

Requests execute locally on the requesting task's cluster and blocked
vertices *suspend* (the processor is handed to other ready vertices of the
same task).  Requests are served in priority order with the usual
one-lower-priority-holder property.  The analysis follows the key-path
structure used by the prior local-execution work:

* every request of the key path can be blocked by at most one lower-priority
  critical section on the same resource;
* while a request is pending, higher-priority requests to the same resource
  may be served first; the per-request waiting window is bounded by a
  DPCP-style fixed point over the resource's higher-priority demand —
  crucially *without* DPCP-p's per-processor supply cap (the min(ε, ζ) of
  Lemma 3), which is precisely the analytical advantage the paper attributes
  to the distributed framework;
* requests of the task's own off-path vertices may be served before the path
  request, at most once each;
* blocking is suspension-based, so it adds to the path delay but does not
  occupy the cluster; the off-path workload is divided by the cluster size
  as usual.

As with the SPIN baseline this is a re-implementation at the level of detail
the paper evaluates; see DESIGN.md for the fidelity notes.

The bound is the straight-line :func:`lpp_wcrt` below, run through the
shared federated top-up loop
(:func:`~repro.analysis.federated.federated_topup_analysis`).
"""

from __future__ import annotations

import math
from typing import Dict

from ..model.platform import Platform
from ..model.task import DAGTask, TaskSet
# Unused here; perfbench/tracer.py requires this binding to exist.
from .engine.solver import solve_scalar  # noqa: F401
from .federated import federated_topup_analysis
from .interfaces import SchedulabilityResult, SchedulabilityTest
from .rta import ceil_div_jobs, least_fixed_point


def lowest_priority_blocking(taskset: TaskSet, task: DAGTask, resource_id: int) -> float:
    """Longest critical section of a lower-priority task on ``resource_id``."""
    longest = 0.0
    for other in taskset:
        if other.priority >= task.priority or other.task_id == task.task_id:
            continue
        if other.request_count(resource_id) == 0:
            continue
        longest = max(longest, other.cs_length(resource_id))
    return longest


def higher_priority_request_workload(
    taskset: TaskSet,
    task: DAGTask,
    resource_id: int,
    interval: float,
    response_times: Dict[int, float],
) -> float:
    """Request workload of higher-priority tasks on ``resource_id`` within ``interval``."""
    total = 0.0
    for other in taskset:
        if other.task_id == task.task_id or other.priority <= task.priority:
            continue
        count = other.request_count(resource_id)
        if count == 0:
            continue
        carried = response_times.get(other.task_id, other.deadline)
        released = ceil_div_jobs(interval, other.period, carried)
        total += released * count * other.cs_length(resource_id)
    return total


def request_waiting_time(
    taskset: TaskSet,
    task: DAGTask,
    resource_id: int,
    response_times: Dict[int, float],
    divergence_bound: float,
) -> float:
    """Per-request waiting window under a priority-ordered local semaphore.

    The window covers the lower-priority holder, the task's own concurrent
    requests that may be served first, the higher-priority requests arriving
    within the window, and the request's own critical section.
    """
    own_cs = task.cs_length(resource_id)
    lower = lowest_priority_blocking(taskset, task, resource_id)
    own_concurrent = max(0, task.request_count(resource_id) - 1) * own_cs
    constant = own_cs + lower + own_concurrent

    def recurrence(window: float) -> float:
        return constant + higher_priority_request_workload(
            taskset, task, resource_id, window, response_times
        )

    solution = least_fixed_point(recurrence, constant, divergence_bound)
    return solution if solution is not None else math.inf


def lpp_wcrt(
    taskset: TaskSet,
    task: DAGTask,
    cluster_size: int,
    response_times: Dict[int, float],
) -> float:
    """WCRT bound of a task under local suspension-based semaphores."""
    if cluster_size < 1:
        return math.inf
    lstar = task.critical_path_length
    base = lstar + (task.wcet - lstar) / cluster_size

    # Per-request waiting windows do not depend on the task's response time,
    # so they are computed once.
    blocking = 0.0
    for rid in task.used_resources():
        count = task.request_count(rid)
        if count == 0:
            continue
        window = request_waiting_time(
            taskset, task, rid, response_times, task.deadline
        )
        if math.isinf(window):
            return math.inf
        # The window already includes the request's own critical section,
        # which is part of the path length; count only the waiting part.
        blocking += count * max(0.0, window - task.cs_length(rid))

    # The schedulability comparison against the deadline is the top-up
    # loop's job (federated_topup_analysis); the bound is returned as-is.
    return base + blocking


class LppTest(SchedulabilityTest):
    """Schedulability test for local suspension-based semaphores (LPP)."""

    name = "LPP"

    def test(self, taskset: TaskSet, platform: Platform) -> SchedulabilityResult:
        """Iteratively size clusters and bound every task's WCRT under LPP."""
        return federated_topup_analysis(taskset, platform, lpp_wcrt, self.name)
