"""Shared context for the DPCP-p worst-case response-time analysis.

The context bundles the task set, the concrete task/resource partition, and
the response-time bounds known so far (tasks are analysed in decreasing
priority order; for tasks whose bound is not yet known the deadline is used,
which is consistent whenever the final verdict is "schedulable").  It exposes
the quantities that recur throughout Sec. IV:

* :math:`\\eta_j(L)` — released-job bound of a task over an interval,
* :math:`\\gamma_{i,q}(L)` — higher-priority request workload co-located with
  a resource (Eq. (2)),
* :math:`\\beta_{i,q}` — the single longest lower-priority critical section
  that can block a request under the priority-ceiling rule (Lemma 2).

Only the straight-line reference analysis (:mod:`.wcrt`, :mod:`.blocking`,
:mod:`.interference`) reads a context; the vectorized
:class:`~repro.analysis.dpcp_p.kernel.DpcpPKernel` compiles its own
coefficient tables and takes the carried-in bounds directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from ...model.platform import PartitionedSystem
from ...model.task import DAGTask, TaskSet
from ..rta import ceil_div_jobs


class DpcpPContext:
    """Analysis context tying together task set, partition, and known WCRTs."""

    def __init__(
        self,
        taskset: TaskSet,
        partition: PartitionedSystem,
        response_times: Optional[Mapping[int, float]] = None,
    ) -> None:
        self.taskset = taskset
        self.partition = partition
        self.response_times: Dict[int, float] = dict(response_times or {})

    # ------------------------------------------------------------------ #
    # Generic task quantities
    # ------------------------------------------------------------------ #
    def carried_response_time(self, task: DAGTask) -> float:
        """R_j used inside η_j: the known bound, or the deadline as a fallback."""
        return self.response_times.get(task.task_id, task.deadline)

    def eta(self, task: DAGTask, interval: float) -> int:
        """:math:`\\eta_j(L) \\le \\lceil (L + R_j)/T_j \\rceil` — job-release bound."""
        return ceil_div_jobs(interval, task.period, self.carried_response_time(task))

    def other_tasks(self, task: DAGTask) -> List[DAGTask]:
        """All tasks except ``task``."""
        return [t for t in self.taskset if t.task_id != task.task_id]

    # ------------------------------------------------------------------ #
    # Resource placement shortcuts
    # ------------------------------------------------------------------ #
    def global_resources(self) -> List[int]:
        """Ids of global resources, :math:`\\Phi^G`."""
        return self.taskset.global_resources()

    def resources_on_processor(self, processor: int) -> List[int]:
        """Global resources hosted on ``processor`` (:math:`\\Phi(\\wp_k)`)."""
        return self.partition.resources_on_processor(processor)

    def co_located_resources(self, resource_id: int) -> List[int]:
        """Global resources on the same processor as ``resource_id``."""
        return self.partition.co_located_resources(resource_id)

    def resources_on_cluster(self, task: DAGTask) -> List[int]:
        """Global resources hosted on the task's own cluster, :math:`\\Phi^\\wp(\\tau_i)`."""
        return self.partition.resources_on_cluster(task.task_id)

    def cluster_size(self, task: DAGTask) -> int:
        """:math:`m_i` — processors assigned to the task."""
        return self.partition.num_processors_of(task.task_id)

    # ------------------------------------------------------------------ #
    # Priority-ceiling quantities (Sec. III-C / Sec. IV-B)
    # ------------------------------------------------------------------ #
    def resource_ceiling(self, resource_id: int) -> int:
        """Priority ceiling of a global resource (max base priority of its users)."""
        return self.taskset.resource_ceiling(resource_id)

    def gamma(self, task: DAGTask, resource_id: int, interval: float) -> float:
        """Eq. (2): higher-priority request workload co-located with ``resource_id``.

        Sums, over every higher-priority task :math:`\\tau_h` and every global
        resource :math:`\\ell_u` on the same processor as :math:`\\ell_q`, the
        workload :math:`\\eta_h(L) N_{h,u} L_{h,u}`.
        """
        co_located = self.co_located_resources(resource_id)
        total = 0.0
        for other in self.taskset.higher_priority_tasks(task):
            released = self.eta(other, interval)
            if released == 0:
                continue
            for rid in co_located:
                total += released * other.request_count(rid) * other.cs_length(rid)
        return total

    def beta(self, task: DAGTask, resource_id: int) -> float:
        """Lemma 2's :math:`\\beta_{i,q}`: longest blocking lower-priority CS.

        The priority-ceiling rule admits at most one lower-priority request,
        and only if it holds a co-located resource whose ceiling is at least
        the requesting task's priority.
        """
        co_located = self.co_located_resources(resource_id)
        longest = 0.0
        for other in self.taskset.lower_priority_tasks(task):
            for rid in co_located:
                if other.request_count(rid) == 0:
                    continue
                if self.resource_ceiling(rid) >= task.priority:
                    longest = max(longest, other.cs_length(rid))
        return longest

    # ------------------------------------------------------------------ #
    # Request workload helpers
    # ------------------------------------------------------------------ #
    def other_task_request_workload(
        self, task: DAGTask, resource_ids: Iterable[int], interval: float
    ) -> float:
        """Workload of *all other* tasks' requests to ``resource_ids`` within ``interval``.

        This is the :math:`\\zeta` / :math:`I^A` style bound
        :math:`\\sum_{j \\ne i} \\eta_j(L) N_{j,q} L_{j,q}` summed over the
        given resources.
        """
        resource_ids = list(resource_ids)
        total = 0.0
        for other in self.other_tasks(task):
            released = self.eta(other, interval)
            if released == 0:
                continue
            for rid in resource_ids:
                total += released * other.request_count(rid) * other.cs_length(rid)
        return total

    def own_offpath_cs_workload(
        self, task: DAGTask, resource_ids: Iterable[int], n_lambda: Mapping[int, int]
    ) -> float:
        """Intra-task request workload not on the analysed path.

        :math:`\\sum_{\\ell_u} (N_{i,u} - N^\\lambda_{i,u}) L_{i,u}` over the
        given resources.
        """
        total = 0.0
        for rid in resource_ids:
            count = task.request_count(rid)
            if count == 0:
                continue
            off_path = count - n_lambda.get(rid, 0)
            total += max(0, off_path) * task.cs_length(rid)
        return total
