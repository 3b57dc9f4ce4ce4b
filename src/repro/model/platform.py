"""Multiprocessor platform, federated clusters, and resource placement.

Under federated scheduling every heavy task owns a *cluster* of processors.
Under DPCP-p every global resource is additionally *assigned to a processor*,
and all requests to that resource execute there.  :class:`PartitionedSystem`
captures a concrete outcome of the partitioning stage (Sec. V): which
processors belong to which task and which processor hosts which global
resource.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from .task import TaskSet, TaskError


class PlatformError(ValueError):
    """Raised for invalid platform or partition descriptions."""


@dataclass(frozen=True)
class Platform:
    """An identical multiprocessor platform with ``num_processors`` cores."""

    num_processors: int

    def __post_init__(self) -> None:
        if self.num_processors < 2:
            raise PlatformError("the paper assumes m >= 2 processors")

    @property
    def processors(self) -> Tuple[int, ...]:
        """Processor ids ``0 .. m - 1``."""
        return tuple(range(self.num_processors))


@dataclass
class Cluster:
    """The set of processors dedicated to one (heavy) task.

    Attributes
    ----------
    task_id:
        Owner task.
    processors:
        Processor ids exclusively assigned to the task.
    """

    task_id: int
    processors: List[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of processors in the cluster (:math:`m_i`)."""
        return len(self.processors)

    def __contains__(self, processor: int) -> bool:
        return processor in self.processors


class PartitionedSystem:
    """A concrete task/resource partition over a platform.

    Parameters
    ----------
    taskset:
        The task set being scheduled.
    platform:
        The multiprocessor platform.
    clusters:
        ``task id -> Cluster``; clusters must be disjoint.
    resource_assignment:
        ``global resource id -> processor id``; the processor hosting the
        resource's agent.  Local resources are never assigned.
    """

    def __init__(
        self,
        taskset: TaskSet,
        platform: Platform,
        clusters: Mapping[int, Cluster],
        resource_assignment: Optional[Mapping[int, int]] = None,
    ) -> None:
        self.taskset = taskset
        self.platform = platform
        self.clusters: Dict[int, Cluster] = {tid: c for tid, c in clusters.items()}
        self.resource_assignment: Dict[int, int] = dict(resource_assignment or {})
        self._validate()

    def _validate(self) -> None:
        seen: Dict[int, int] = {}
        for tid, cluster in self.clusters.items():
            if cluster.task_id != tid:
                raise PlatformError(
                    f"cluster keyed by task {tid} claims owner {cluster.task_id}"
                )
            self.taskset.task(tid)
            for proc in cluster.processors:
                if not (0 <= proc < self.platform.num_processors):
                    raise PlatformError(f"unknown processor {proc} in cluster of {tid}")
                if proc in seen:
                    raise PlatformError(
                        f"processor {proc} assigned to both task {seen[proc]} and {tid}"
                    )
                seen[proc] = tid
        for rid, proc in self.resource_assignment.items():
            if not self.taskset.is_global(rid):
                raise PlatformError(
                    f"resource {rid} is local and must not be assigned to a processor"
                )
            if not (0 <= proc < self.platform.num_processors):
                raise PlatformError(f"resource {rid} assigned to unknown processor {proc}")

    # ------------------------------------------------------------------ #
    # Cluster queries
    # ------------------------------------------------------------------ #
    def cluster_of(self, task_id: int) -> Cluster:
        """Cluster (processor set) owned by ``task_id``."""
        try:
            return self.clusters[task_id]
        except KeyError:
            raise PlatformError(f"task {task_id} has no cluster") from None

    def processors_of(self, task_id: int) -> List[int]:
        """:math:`\\wp(\\tau_i)` — processors assigned to ``task_id``."""
        return list(self.cluster_of(task_id).processors)

    def num_processors_of(self, task_id: int) -> int:
        """:math:`m_i` — size of the task's cluster."""
        return self.cluster_of(task_id).size

    def owner_of_processor(self, processor: int) -> Optional[int]:
        """Task owning ``processor`` (None if the processor is unassigned)."""
        for tid, cluster in self.clusters.items():
            if processor in cluster:
                return tid
        return None

    def assigned_processors(self) -> List[int]:
        """All processors currently owned by some cluster."""
        return sorted(p for c in self.clusters.values() for p in c.processors)

    def unassigned_processors(self) -> List[int]:
        """Processors not owned by any cluster."""
        used = set(self.assigned_processors())
        return [p for p in self.platform.processors if p not in used]

    # ------------------------------------------------------------------ #
    # Resource placement queries
    # ------------------------------------------------------------------ #
    def processor_of_resource(self, resource_id: int) -> int:
        """Home processor of a global resource."""
        try:
            return self.resource_assignment[resource_id]
        except KeyError:
            raise PlatformError(
                f"global resource {resource_id} has not been assigned to a processor"
            ) from None

    def resources_on_processor(self, processor: int) -> List[int]:
        """:math:`\\Phi(\\wp_k)` — global resources hosted on ``processor``."""
        return sorted(
            rid for rid, proc in self.resource_assignment.items() if proc == processor
        )

    def co_located_resources(self, resource_id: int) -> List[int]:
        """:math:`\\Phi^\\wp(\\ell_q)` — global resources sharing ℓq's processor."""
        return self.resources_on_processor(self.processor_of_resource(resource_id))

    def resources_on_cluster(self, task_id: int) -> List[int]:
        """:math:`\\Phi^\\wp(\\tau_i)` — global resources hosted on the task's cluster."""
        procs = set(self.processors_of(task_id))
        return sorted(
            rid for rid, proc in self.resource_assignment.items() if proc in procs
        )

    def copy(self) -> "PartitionedSystem":
        """Deep-ish copy (clusters and the resource assignment are copied)."""
        clusters = {
            tid: Cluster(task_id=tid, processors=list(c.processors))
            for tid, c in self.clusters.items()
        }
        return PartitionedSystem(
            self.taskset, self.platform, clusters, dict(self.resource_assignment)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionedSystem(m={self.platform.num_processors}, "
            f"clusters={{{', '.join(f'{t}:{c.size}' for t, c in self.clusters.items())}}}, "
            f"resources={self.resource_assignment})"
        )


def minimal_federated_clusters(
    taskset: TaskSet, platform: Platform
) -> Optional[Dict[int, Cluster]]:
    """Assign each heavy task its minimal federated cluster (Alg. 1, lines 1-5).

    Processors are handed out in priority order (highest-priority task first).
    Returns ``None`` when the platform does not have enough processors, which
    the partitioning algorithm reports as "unschedulable".
    """
    next_proc = 0
    clusters: Dict[int, Cluster] = {}
    for task in taskset.by_priority(descending=True):
        try:
            need = task.minimum_processors()
        except TaskError:
            return None
        if next_proc + need > platform.num_processors:
            return None
        clusters[task.task_id] = Cluster(
            task_id=task.task_id,
            processors=list(range(next_proc, next_proc + need)),
        )
        next_proc += need
    return clusters
