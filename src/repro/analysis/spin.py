"""SPIN baseline: FIFO spin locks under federated scheduling (after Dinh et al. [6]).

Requests execute locally on the task's own cluster; a vertex that finds a
resource locked *busy-waits* (spins) on its processor.  The analysis follows
the structure of the spin-lock blocking analyses for parallel tasks:

* **per-request spin delay** — with FIFO ordering, a request to
  :math:`\\ell_q` waits for at most one in-flight critical section per other
  task that uses :math:`\\ell_q`, plus the task's own concurrently spinning
  vertices (at most :math:`\\min(m_i - 1, N_{i,q} - 1)` of them);
* **supply cap** — across the whole response window, other tasks cannot delay
  the task by more than the total request workload they can release, which
  yields a :math:`\\zeta`-style cap on the inter-task part;
* spinning occupies processors: every request is charged as if it lay on the
  key path, extending it directly.  (Evaluating the "no request on the path"
  placement as well, as earlier revisions did, is redundant: dividing the
  same spin workload by the cluster size is dominated term-for-term by the
  on-path charge — see DESIGN.md, "fidelity notes".)

This is a re-implementation of the cited approach at the level of detail the
paper evaluates (see DESIGN.md, "fidelity notes"): absolute acceptance ratios
may differ from [6], but the qualitative behaviour — competitive under light
contention, degrading as the number, length, and breadth of critical sections
grows — is preserved.

The bound is the straight-line :func:`spin_wcrt` below, run through the
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


def inter_task_spin_delay(taskset: TaskSet, task: DAGTask, resource_id: int) -> float:
    """Inter-task part of the per-request spin delay (one CS per other task)."""
    delay = 0.0
    for other in taskset:
        if other.task_id == task.task_id:
            continue
        if other.request_count(resource_id) == 0:
            continue
        delay += other.cs_length(resource_id)
    return delay


def _other_request_workload(
    taskset: TaskSet,
    task: DAGTask,
    resource_id: int,
    interval: float,
    response_times: Dict[int, float],
) -> float:
    """Total request workload other tasks can place on ``resource_id`` in ``interval``."""
    total = 0.0
    for other in taskset:
        if other.task_id == task.task_id:
            continue
        count = other.request_count(resource_id)
        if count == 0:
            continue
        carried = response_times.get(other.task_id, other.deadline)
        released = ceil_div_jobs(interval, other.period, carried)
        total += released * count * other.cs_length(resource_id)
    return total


def spin_wcrt(
    taskset: TaskSet,
    task: DAGTask,
    cluster_size: int,
    response_times: Dict[int, float],
) -> float:
    """WCRT bound of a task under FIFO spin locks on ``cluster_size`` processors."""
    if cluster_size < 1:
        return math.inf
    lstar = task.critical_path_length
    base = lstar + (task.wcet - lstar) / cluster_size

    inter_per_request: Dict[int, float] = {}
    intra_per_request: Dict[int, float] = {}
    for rid in task.used_resources():
        inter_per_request[rid] = inter_task_spin_delay(taskset, task, rid)
        count = task.request_count(rid)
        intra_per_request[rid] = (
            min(cluster_size - 1, count - 1) * task.cs_length(rid) if count > 1 else 0.0
        )

    def capped_inter_spin(resource_id: int, requests: int, response: float) -> float:
        demand_view = requests * inter_per_request[resource_id]
        supply_view = _other_request_workload(
            taskset, task, resource_id, response, response_times
        )
        return min(demand_view, supply_view)

    # Worst placement: every request lies on the key path — its spin time
    # extends the path directly.  (The opposite placement, spin workload
    # divided by the cluster size, is dominated term-for-term and therefore
    # not evaluated; see the module docstring.)
    def recurrence(response: float) -> float:
        spin = 0.0
        for rid in task.used_resources():
            count = task.request_count(rid)
            spin += capped_inter_spin(rid, count, response)
            spin += count * intra_per_request[rid]
        return base + spin

    solution = least_fixed_point(recurrence, base, task.deadline)
    return solution if solution is not None else math.inf


class SpinTest(SchedulabilityTest):
    """Schedulability test for FIFO spin locks under federated scheduling."""

    name = "SPIN"

    def test(self, taskset: TaskSet, platform: Platform) -> SchedulabilityResult:
        """Iteratively size clusters and bound every task's WCRT under spinning."""
        return federated_topup_analysis(taskset, platform, spin_wcrt, self.name)
