"""Task and resource partitioning for DPCP-p (Sec. V, Algorithms 1 and 2).

The partitioning stage decides (i) how many processors each heavy task
receives (its *cluster*) and (ii) which processor hosts each global resource.
Resources are assigned with a Worst-Fit-Decreasing heuristic: the resource
with the highest utilization goes to the least-loaded processor of the
cluster with the largest utilization slack.  If some task's WCRT bound
exceeds its deadline, it receives one additional processor (when available),
the resource assignment is rolled back, and the procedure repeats.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...model.platform import (
    Cluster,
    PartitionedSystem,
    Platform,
    minimal_federated_clusters,
)
from ...model.task import TaskSet
from ...obs.telemetry import active as _active_telemetry
from ..interfaces import SchedulabilityResult, TaskAnalysis
from ..paths import PathEnumerator
from .wcrt import DEFAULT_ENGINE, MODE_EN, MODE_EP, _iter_task_analyses


@dataclass
class WfdOutcome:
    """Result of the WFD resource-assignment pass (Algorithm 2)."""

    feasible: bool
    assignment: Dict[int, int]
    reason: str = ""


def wfd_order(taskset: TaskSet) -> List[Tuple[int, float]]:
    """Algorithm 2's placement order: ``(resource, u^Φ_q)`` of every global
    resource by non-increasing utilization (ties keep resource-id order)."""
    utilizations = {
        rid: taskset.resource_utilization(rid) for rid in taskset.global_resources()
    }
    resources = sorted(utilizations, key=lambda rid: utilizations[rid], reverse=True)
    return [(rid, utilizations[rid]) for rid in resources]


def wfd_assign_resources(
    taskset: TaskSet,
    clusters: Dict[int, Cluster],
    order: Optional[List[Tuple[int, float]]] = None,
) -> WfdOutcome:
    """Algorithm 2: Worst-Fit-Decreasing assignment of global resources.

    Global resources are sorted by non-increasing utilization
    :math:`u^\\Phi_q`; each is placed on the least-loaded processor of the
    cluster with the maximum utilization slack.  The assignment is infeasible
    when the chosen cluster would exceed its capacity.  ``order`` is
    :func:`wfd_order` of ``taskset``, computed here when not given;
    Algorithm 1 computes it once for all its passes.
    """
    if order is None:
        order = wfd_order(taskset)
    capacity: Dict[int, float] = {tid: float(c.size) for tid, c in clusters.items()}
    usage: Dict[int, float] = {
        tid: taskset.task(tid).utilization for tid in clusters
    }
    processor_load: Dict[int, float] = {
        proc: 0.0 for cluster in clusters.values() for proc in cluster.processors
    }
    assignment: Dict[int, int] = {}

    for rid, utilization in order:
        best_cluster = max(
            clusters, key=lambda tid: (capacity[tid] - usage[tid], -tid)
        )
        if usage[best_cluster] + utilization > capacity[best_cluster] + 1e-9:
            return WfdOutcome(
                feasible=False,
                assignment={},
                reason=(
                    f"resource {rid} (u={utilization:.3f}) does not fit in any "
                    "cluster's utilization slack"
                ),
            )
        target = min(
            clusters[best_cluster].processors, key=lambda p: (processor_load[p], p)
        )
        assignment[rid] = target
        usage[best_cluster] += utilization
        processor_load[target] += utilization
    return WfdOutcome(feasible=True, assignment=assignment)


def partition_and_analyze(
    taskset: TaskSet,
    platform: Platform,
    mode: str = MODE_EP,
    enumerator: Optional[PathEnumerator] = None,
    engine: str = DEFAULT_ENGINE,
) -> SchedulabilityResult:
    """Algorithm 1: iterative task/resource partitioning plus analysis.

    Returns the schedulability verdict with the final partition and the
    per-task WCRT bounds of the last pass.  Each pass stops at the first
    task, in decreasing priority order, that misses its deadline, so an
    accepted result bounds every task while an unschedulable one carries
    the priority-ordered prefix of bounds ending at the failing task.
    """
    name = f"DPCP-p-{mode}"
    clusters = minimal_federated_clusters(taskset, platform)
    if clusters is None:
        return SchedulabilityResult(
            schedulable=False,
            protocol=name,
            reason="not enough processors for the minimal federated assignment",
        )
    enumerator = enumerator or PathEnumerator()
    # Resource utilizations do not depend on the clusters: one order serves
    # every pass.
    order = wfd_order(taskset)

    while True:
        tel = _active_telemetry()
        if tel is not None:
            # Inline span + counter bump: a Telemetry.span contextmanager
            # costs ~1.7µs per pass and the method-call API ~1µs, visible
            # slices of the ≤2% kernel overhead budget.
            counters = tel.counters
            counters["partition.wfd_passes"] = (
                counters.get("partition.wfd_passes", 0) + 1
            )
            perf_counter = time.perf_counter
            started = perf_counter()
            wfd = wfd_assign_resources(taskset, clusters, order)
            tel.observe("phase.partition", perf_counter() - started)
        else:
            wfd = wfd_assign_resources(taskset, clusters, order)
        if not wfd.feasible:
            return SchedulabilityResult(
                schedulable=False,
                protocol=name,
                reason=f"WFD resource assignment infeasible: {wfd.reason}",
            )
        partition = PartitionedSystem(taskset, platform, clusters, wfd.assignment)
        # A failed pass decides only which task gets the next processor: the
        # highest-priority miss.  Lower-priority bounds cannot change that
        # (each bound reads only higher-priority ones), so stop there.
        analyses: Dict[int, TaskAnalysis] = {}
        failing: Optional[int] = None
        for analysis in _iter_task_analyses(
            taskset, partition, mode=mode, enumerator=enumerator, engine=engine
        ):
            analyses[analysis.task_id] = analysis
            if not analysis.schedulable:
                failing = analysis.task_id
                break
        if failing is None:
            return SchedulabilityResult(
                schedulable=True,
                protocol=name,
                task_analyses=analyses,
                partition=partition,
            )

        unassigned = partition.unassigned_processors()
        if not unassigned:
            return SchedulabilityResult(
                schedulable=False,
                protocol=name,
                task_analyses=analyses,
                partition=partition,
                reason=(
                    f"task {failing} misses its deadline and no spare processor "
                    "is available"
                ),
            )
        # Give one more processor to the failing task, roll back the resource
        # assignment (a fresh WFD pass runs at the top of the loop), and retry.
        clusters[failing].processors.append(unassigned[0])
