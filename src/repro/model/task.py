"""Sporadic parallel (DAG) task model.

A task :math:`\\tau_i` is characterised by a DAG of vertices with WCETs, a
minimum inter-arrival time :math:`T_i`, a constrained relative deadline
:math:`D_i \\le T_i`, a base priority :math:`\\pi_i`, and a description of how
its vertices use shared resources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .dag import DAG, PathProfile
from .resources import Resource, ResourceError, ResourceUsage, classify_resources


class TaskError(ValueError):
    """Raised for structurally invalid tasks or task sets."""


@dataclass
class Vertex:
    """A vertex (sub-job) :math:`v_{i,x}` of a parallel task.

    Attributes
    ----------
    index:
        Position of the vertex within its task (``0 .. |V_i| - 1``).
    wcet:
        :math:`C_{i,x}` — worst-case execution time, *including* the critical
        sections executed by this vertex.
    requests:
        ``resource id -> N_{i,x,q}`` — number of requests this vertex issues.
    """

    index: int
    wcet: float
    requests: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.wcet < 0:
            raise TaskError(f"vertex {self.index}: WCET must be non-negative")
        for rid, count in self.requests.items():
            if count < 0:
                raise TaskError(
                    f"vertex {self.index}: negative request count for resource {rid}"
                )

    def total_requests(self) -> int:
        """Total number of resource requests issued by this vertex."""
        return sum(self.requests.values())


class DAGTask:
    """A sporadic parallel task with shared-resource usage.

    Parameters
    ----------
    task_id:
        Unique non-negative identifier.
    vertices:
        The vertices of the task, indexed ``0 .. len(vertices) - 1``.
    dag:
        Precedence structure over the vertices.
    period:
        Minimum inter-arrival time :math:`T_i` (µs).
    deadline:
        Relative deadline :math:`D_i` (µs); defaults to the period
        (implicit deadline).  Must satisfy :math:`D_i \\le T_i`.
    resource_usages:
        Per-resource usage descriptions (:math:`N_{i,q}` and :math:`L_{i,q}`).
        Per-vertex counts, if omitted, are reconstructed from the vertices.
    priority:
        Base priority :math:`\\pi_i`.  Larger numbers mean *higher* priority.
    name:
        Optional human-readable name.
    """

    def __init__(
        self,
        task_id: int,
        vertices: Sequence[Vertex],
        dag: DAG,
        period: float,
        deadline: Optional[float] = None,
        resource_usages: Iterable[ResourceUsage] = (),
        priority: int = 0,
        name: str = "",
    ) -> None:
        if task_id < 0:
            raise TaskError("task_id must be non-negative")
        if not vertices:
            raise TaskError("a task needs at least one vertex")
        if dag.num_vertices != len(vertices):
            raise TaskError(
                f"DAG has {dag.num_vertices} vertices, task has {len(vertices)}"
            )
        for pos, vertex in enumerate(vertices):
            if vertex.index != pos:
                raise TaskError(
                    f"vertex at position {pos} has index {vertex.index}; "
                    "vertices must be listed in index order"
                )
        if period <= 0:
            raise TaskError("period must be positive")
        deadline = period if deadline is None else deadline
        if deadline <= 0 or deadline > period:
            raise TaskError("deadline must satisfy 0 < D_i <= T_i")

        self.task_id = int(task_id)
        self.name = name or f"tau{task_id}"
        self.vertices: Tuple[Vertex, ...] = tuple(vertices)
        self.dag = dag
        self.period = float(period)
        self.deadline = float(deadline)
        self.priority = int(priority)
        self._usages: Dict[int, ResourceUsage] = {}
        for usage in resource_usages:
            if usage.resource_id in self._usages:
                raise TaskError(
                    f"duplicate resource usage for resource {usage.resource_id}"
                )
            self._usages[usage.resource_id] = usage
        self._check_vertex_requests()
        self._critical_path_cache: Optional[Tuple[int, float]] = None
        self._wcet_cache: Optional[float] = None
        self._non_critical_cache: Optional[List[float]] = None
        self._min_processors_cache: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _check_vertex_requests(self) -> None:
        """Reconcile vertex request counts with the usages, then check the WCETs.

        One walk over the vertices gathers each resource's per-vertex counts
        and each vertex's critical-section time.  The usage checks come
        first: every requested resource needs a :class:`ResourceUsage` whose
        ``max_requests`` equals the vertices' total.  Then every vertex's
        critical sections must fit in its WCET (within 1e-9).
        """
        usages = self._usages
        # A resource without a usage counts 0 here and raises below.
        cs_lengths = {rid: usage.cs_length for rid, usage in usages.items()}
        per_resource: Dict[int, Dict[int, int]] = {}
        cs_times: List[float] = []
        for vertex in self.vertices:
            index = vertex.index
            cs_time = 0
            for rid, count in vertex.requests.items():
                if count > 0:
                    per_resource.setdefault(rid, {})[index] = count
                    cs_time += count * cs_lengths.get(rid, 0.0)
            cs_times.append(cs_time)
        for rid, per_vertex in per_resource.items():
            total = sum(per_vertex.values())
            usage = usages.get(rid)
            if usage is None:
                raise TaskError(
                    f"vertices of task {self.task_id} request resource {rid} "
                    "but no ResourceUsage (critical-section length) was given"
                )
            if usage.max_requests != total:
                raise TaskError(
                    f"task {self.task_id}, resource {rid}: usage declares "
                    f"{usage.max_requests} requests but vertices issue {total}"
                )
            if not usage.per_vertex_requests:
                usage.per_vertex_requests = dict(per_vertex)
        first = self.vertices[0]
        for rid, usage in usages.items():
            if usage.max_requests > 0 and rid not in per_resource:
                # Usage declared at task level only; spread over vertex 0 so
                # that per-vertex accounting is always available.
                usage.per_vertex_requests = {0: usage.max_requests}
                first.requests[rid] = usage.max_requests
                cs_times[0] = sum(
                    count * usages[r].cs_length
                    for r, count in first.requests.items()
                    if count > 0
                )
        for vertex, cs_time in zip(self.vertices, cs_times):
            if cs_time > vertex.wcet + 1e-9:
                raise TaskError(
                    f"task {self.task_id}, vertex {vertex.index}: critical "
                    f"sections ({cs_time}) exceed the vertex WCET ({vertex.wcet})"
                )

    # ------------------------------------------------------------------ #
    # Aggregate parameters
    # ------------------------------------------------------------------ #
    @property
    def wcet(self) -> float:
        """:math:`C_i` — total WCET over all vertices.

        Cached: the vertex tuple is fixed at construction and the analyses
        read this in every federated sizing pass (same policy as
        :attr:`critical_path_length`).
        """
        if self._wcet_cache is None:
            self._wcet_cache = sum(v.wcet for v in self.vertices)
        return self._wcet_cache

    @property
    def utilization(self) -> float:
        """:math:`U_i = C_i / T_i`."""
        return self.wcet / self.period

    @property
    def critical_path_length(self) -> float:
        """:math:`L^*_i` — length of the longest path of the DAG.

        Cached per edge count: the analyses query this repeatedly, and the
        supported DAG mutations (``add_edge``, ``add_forward_edges``) only
        add edges, so they change the edge count.
        """
        cached = self._critical_path_cache
        if cached is not None and cached[0] == self.dag.num_edges:
            return cached[1]
        value = self.dag.longest_path_length([v.wcet for v in self.vertices])
        self._critical_path_cache = (self.dag.num_edges, value)
        return value

    def vertex_non_critical_wcets(self) -> List[float]:
        """Per-vertex :math:`C'_{i,x}`: WCET minus the vertex's critical sections.

        Clamped at zero.  The path enumerator sums these along every path
        and the compiled analysis tables read them, so both use this one
        expression and agree bit for bit.  Cached like :attr:`wcet` (the
        vertices are fixed at construction); treat the list as read-only.
        """
        if self._non_critical_cache is None:
            usages = self._usages
            self._non_critical_cache = [
                max(
                    0.0,
                    v.wcet
                    - sum(c * usages[r].cs_length for r, c in v.requests.items() if c > 0),
                )
                for v in self.vertices
            ]
        return self._non_critical_cache

    def minimum_processors(self) -> int:
        """Initial federated assignment :math:`\\lceil (C_i-L^*_i)/(D_i-L^*_i) \\rceil`.

        Cached per edge count (every schedulability test starts its sizing
        pass here; the supported DAG mutations, ``add_edge`` and
        ``add_forward_edges``, change the edge count and thereby
        :math:`L^*_i`).
        """
        cached = self._min_processors_cache
        if cached is not None and cached[0] == self.dag.num_edges:
            return cached[1]
        lstar = self.critical_path_length
        if lstar >= self.deadline:
            raise TaskError(
                f"task {self.task_id} is infeasible: L*={lstar} >= D={self.deadline}"
            )
        import math

        value = max(1, math.ceil((self.wcet - lstar) / (self.deadline - lstar)))
        self._min_processors_cache = (self.dag.num_edges, value)
        return value

    # ------------------------------------------------------------------ #
    # Resource queries
    # ------------------------------------------------------------------ #
    @property
    def resource_usages(self) -> Dict[int, ResourceUsage]:
        """Mapping ``resource id -> ResourceUsage`` for resources this task uses."""
        return dict(self._usages)

    def uses_resource(self, resource_id: int) -> bool:
        """Whether the task issues at least one request to ``resource_id``."""
        usage = self._usages.get(resource_id)
        return usage is not None and usage.max_requests > 0

    def used_resources(self) -> List[int]:
        """Ids of resources used (with at least one request) by this task."""
        return sorted(
            rid for rid, usage in self._usages.items() if usage.max_requests > 0
        )

    def request_count(self, resource_id: int) -> int:
        """:math:`N_{i,q}` — per-job request bound for ``resource_id``."""
        usage = self._usages.get(resource_id)
        return usage.max_requests if usage else 0

    def cs_length(self, resource_id: int) -> float:
        """:math:`L_{i,q}` — maximum critical-section length for ``resource_id``."""
        usage = self._usages.get(resource_id)
        return usage.cs_length if usage else 0.0

    def vertex_requests(self, vertex: int, resource_id: int) -> int:
        """:math:`N_{i,x,q}` — requests issued by one vertex to one resource."""
        return self.vertices[vertex].requests.get(resource_id, 0)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def path_profile(self, vertices: Sequence[int]) -> PathProfile:
        """Build the :class:`PathProfile` of a path given as vertex indices."""
        length = sum(self.vertices[v].wcet for v in vertices)
        requests: Dict[int, int] = {}
        for v in vertices:
            for rid, count in self.vertices[v].requests.items():
                if count > 0:
                    requests[rid] = requests.get(rid, 0) + count
        return PathProfile(vertices=tuple(vertices), length=length, requests=requests)

    def critical_path_profile(self) -> PathProfile:
        """Profile of one longest path of the task."""
        path = self.dag.longest_path([v.wcet for v in self.vertices])
        return self.path_profile(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DAGTask(id={self.task_id}, |V|={len(self.vertices)}, "
            f"C={self.wcet:.1f}, T={self.period:.1f}, D={self.deadline:.1f}, "
            f"U={self.utilization:.3f})"
        )


class TaskSet:
    """A set of parallel tasks sharing a set of resources.

    The task set owns the *global vs. local* classification of resources: a
    resource is global when used by two or more tasks (Sec. III-A).
    """

    def __init__(self, tasks: Sequence[DAGTask], resources: Iterable[Resource] = ()) -> None:
        if not tasks:
            raise TaskError("a task set needs at least one task")
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise TaskError("task ids must be unique")
        self.tasks: Tuple[DAGTask, ...] = tuple(tasks)
        self._by_id: Dict[int, DAGTask] = {t.task_id: t for t in tasks}

        declared = {r.resource_id: r for r in resources}
        used_ids = sorted({rid for t in tasks for rid in t.used_resources()})
        for rid in used_ids:
            declared.setdefault(rid, Resource(rid))
        self.resources: Dict[int, Resource] = declared

        usage_map = {t.task_id: t.resource_usages.values() for t in tasks}
        self._is_global = classify_resources(usage_map)

    # ------------------------------------------------------------------ #
    # Task queries
    # ------------------------------------------------------------------ #
    def __iter__(self):
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def task(self, task_id: int) -> DAGTask:
        """Return the task with the given id."""
        try:
            return self._by_id[task_id]
        except KeyError:
            raise TaskError(f"unknown task id {task_id}") from None

    @property
    def total_utilization(self) -> float:
        """Sum of task utilizations."""
        return sum(t.utilization for t in self.tasks)

    def higher_priority_tasks(self, task: DAGTask) -> List[DAGTask]:
        """Tasks with strictly higher base priority than ``task``."""
        return [t for t in self.tasks if t.priority > task.priority]

    def lower_priority_tasks(self, task: DAGTask) -> List[DAGTask]:
        """Tasks with strictly lower base priority than ``task``."""
        return [t for t in self.tasks if t.priority < task.priority]

    def by_priority(self, descending: bool = True) -> List[DAGTask]:
        """Tasks sorted by base priority (highest first by default)."""
        return sorted(self.tasks, key=lambda t: t.priority, reverse=descending)

    # ------------------------------------------------------------------ #
    # Resource queries
    # ------------------------------------------------------------------ #
    def resource_ids(self) -> List[int]:
        """All resource ids used by at least one task."""
        return sorted(self._is_global)

    def is_global(self, resource_id: int) -> bool:
        """Whether ``resource_id`` is a global resource (used by >= 2 tasks)."""
        return self._is_global.get(resource_id, False)

    def global_resources(self) -> List[int]:
        """Ids of global resources (:math:`\\Phi^G`)."""
        return sorted(rid for rid, g in self._is_global.items() if g)

    def local_resources(self) -> List[int]:
        """Ids of local resources (:math:`\\Phi^L`)."""
        return sorted(rid for rid, g in self._is_global.items() if not g)

    def tasks_using(self, resource_id: int) -> List[DAGTask]:
        """:math:`\\tau(\\ell_q)` — tasks issuing requests to ``resource_id``."""
        return [t for t in self.tasks if t.uses_resource(resource_id)]

    def resource_utilization(self, resource_id: int) -> float:
        """:math:`u^\\Phi_q = \\sum_j N_{j,q} L_{j,q} / T_j`."""
        return sum(
            t.request_count(resource_id) * t.cs_length(resource_id) / t.period
            for t in self.tasks
        )

    def resource_ceiling(self, resource_id: int) -> int:
        """Priority ceiling of a resource: the highest base priority among users.

        The paper defines :math:`\\Pi_q = \\pi^H + \\max_{\\tau_j \\in \\tau(\\ell_q)} \\pi_j`;
        since :math:`\\pi^H` is a constant offset we return the max base
        priority and let callers add the boost where needed.
        """
        users = self.tasks_using(resource_id)
        if not users:
            raise ResourceError(f"resource {resource_id} is not used by any task")
        return max(t.priority for t in users)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskSet(n={len(self.tasks)}, U={self.total_utilization:.2f}, "
            f"resources={len(self._is_global)})"
        )


def validate_taskset(taskset: TaskSet) -> List[str]:
    """Return a list of human-readable warnings about a task set.

    This performs the plausibility checks used by the generator
    (Sec. VII-A): constrained deadlines, :math:`L^*_i < D_i`, vertex WCETs
    covering their critical sections, and per-vertex request counts summing
    to the task-level bounds.  An empty list means the task set is clean.
    """
    warnings: List[str] = []
    for task in taskset:
        if task.deadline > task.period:
            warnings.append(f"{task.name}: deadline exceeds period")
        if task.critical_path_length >= task.deadline:
            warnings.append(f"{task.name}: critical path >= deadline (infeasible)")
        for rid, usage in task.resource_usages.items():
            per_vertex_total = sum(usage.per_vertex_requests.values())
            if usage.max_requests and per_vertex_total != usage.max_requests:
                warnings.append(
                    f"{task.name}: per-vertex requests for resource {rid} do not "
                    "sum to the task-level bound"
                )
    return warnings
