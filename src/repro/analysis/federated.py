"""Shared federated-scheduling machinery for the baseline protocols.

The baselines (SPIN, LPP) execute resource requests locally, so their
partitioning stage only decides how many processors each heavy task receives.
To keep the comparison with DPCP-p fair, they use the same iterative policy
as Algorithm 1: start from the minimal federated assignment and grant one
additional processor to the first task whose WCRT bound exceeds its deadline,
as long as spare processors remain.

The top-up loop restarts *warm*: granting a processor changes only the
failing task's cluster, and a task's WCRT bound depends only on its own
cluster size and the response times of the previously analysed
(higher-priority) tasks — so the already-computed prefix is carried over and
the re-analysis resumes at the failing task instead of re-walking the whole
task set on every grant.  ``wcrt_function`` implementations must respect
this contract (:func:`~repro.analysis.spin.spin_wcrt` and
:func:`~repro.analysis.lpp.lpp_wcrt` do: neither reads another task's
cluster size).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from ..model.platform import Cluster, PartitionedSystem, Platform, minimal_federated_clusters
from ..model.task import DAGTask, TaskSet
from .interfaces import SchedulabilityResult, TaskAnalysis

#: Signature of a per-task WCRT bound used by the federated top-up loop:
#: ``(taskset, task, cluster_size, known_response_times) -> wcrt``.
WcrtFunction = Callable[[TaskSet, DAGTask, int, Dict[int, float]], float]


def federated_topup_analysis(
    taskset: TaskSet,
    platform: Platform,
    wcrt_function: WcrtFunction,
    protocol_name: str,
) -> SchedulabilityResult:
    """Iteratively size clusters and analyse tasks with ``wcrt_function``.

    Tasks are analysed in decreasing priority order; response times of
    not-yet-analysed tasks are taken as their deadlines (consistent whenever
    the final verdict is "schedulable").  Across top-up retries only the
    grown cluster's task (and the tasks after it in priority order) are
    re-analysed — see the module docstring for why that is sound.
    """
    clusters = minimal_federated_clusters(taskset, platform)
    if clusters is None:
        return SchedulabilityResult(
            schedulable=False,
            protocol=protocol_name,
            reason="not enough processors for the minimal federated assignment",
        )

    order = taskset.by_priority(descending=True)
    # Spare processors, ascending (the order PartitionedSystem's
    # unassigned_processors() reports); maintained incrementally so the
    # partition object is only materialized for the final verdict.
    assigned = {p for cluster in clusters.values() for p in cluster.processors}
    spares = [p for p in platform.processors if p not in assigned]
    analyses: Dict[int, TaskAnalysis] = {}
    response_times: Dict[int, float] = {}
    resume = 0
    while True:
        failing: Optional[int] = None
        failing_index = resume
        for index in range(resume, len(order)):
            task = order[index]
            cluster_size = clusters[task.task_id].size
            wcrt = wcrt_function(taskset, task, cluster_size, response_times)
            analyses[task.task_id] = TaskAnalysis(
                task_id=task.task_id,
                wcrt=wcrt,
                deadline=task.deadline,
                processors=cluster_size,
            )
            response_times[task.task_id] = min(wcrt, task.deadline)
            if math.isinf(wcrt) or wcrt > task.deadline + 1e-9:
                failing = task.task_id
                failing_index = index
                break

        if failing is None:
            return SchedulabilityResult(
                schedulable=True,
                protocol=protocol_name,
                task_analyses=analyses,
                partition=PartitionedSystem(taskset, platform, clusters, {}),
            )

        if not spares:
            return SchedulabilityResult(
                schedulable=False,
                protocol=protocol_name,
                task_analyses=analyses,
                partition=PartitionedSystem(taskset, platform, clusters, {}),
                reason=(
                    f"task {failing} misses its deadline and no spare processor "
                    "is available"
                ),
            )
        clusters[failing].processors.append(spares.pop(0))
        # Warm restart: the higher-priority prefix is untouched by the grant,
        # so resume at the failing task.  Its own (stale) response-time entry
        # is dropped so wcrt_function sees exactly the prefix a cold rerun
        # would present.
        resume = failing_index
        del response_times[failing]
