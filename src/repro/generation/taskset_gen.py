"""Synthetic task-set generation following the paper's experimental setup.

For a target total utilization, the generator draws task utilizations with
RandFixedSum, a log-uniform period per task, an Erdős–Rényi DAG structure,
and per-resource demands, then distributes WCET and requests over the
vertices while enforcing the paper's plausibility constraints:

* ``C_{i,x} >= sum_q N_{i,x,q} * L_{i,q}`` (critical sections fit in the
  vertex WCET), and
* ``L*_i < D_i / 2`` (the critical path leaves slack for parallel execution).

Base priorities are assigned Rate-Monotonically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..model.dag import DAG
from ..model.priorities import assign_rate_monotonic
from ..model.resources import Resource, ResourceUsage
from ..model.task import DAGTask, TaskSet, Vertex
from ..utils.rng import RngLike, ensure_rng
from .dag_gen import DagGenerationConfig, random_dag
from .periods import DEFAULT_PERIOD_RANGE_US, log_uniform_period
from .randfixedsum import GenerationError, utilizations_for_total
from .resources_gen import (
    ResourceGenerationConfig,
    distribute_requests_over_vertices,
    draw_num_resources,
    draw_task_demands,
    scale_demands_to_budget,
)


@dataclass(frozen=True)
class TaskSetGenerationConfig:
    """All knobs of the synthetic task-set generator.

    Attributes mirror Sec. VII-A of the paper; times are in microseconds.
    """

    average_utilization: float = 1.5
    utilization_factor: float = 2.0
    dag: DagGenerationConfig = field(default_factory=DagGenerationConfig)
    resources: ResourceGenerationConfig = field(default_factory=ResourceGenerationConfig)
    period_range: Tuple[float, float] = DEFAULT_PERIOD_RANGE_US
    critical_path_fraction: float = 0.5
    cs_budget_fraction: float = 0.4
    max_attempts_per_task: int = 8

    def __post_init__(self) -> None:
        if self.average_utilization <= 0:
            raise GenerationError("average utilization must be positive")
        if not 0.0 < self.critical_path_fraction <= 1.0:
            raise GenerationError("critical_path_fraction must be in (0, 1]")
        if not 0.0 < self.cs_budget_fraction < 1.0:
            raise GenerationError("cs_budget_fraction must be in (0, 1)")


# --------------------------------------------------------------------------- #
# WCET distribution and critical-path shaping
# --------------------------------------------------------------------------- #
def _initial_weights(
    floors: np.ndarray, total_wcet: float, rng: np.random.Generator
) -> np.ndarray:
    """Assign vertex WCETs: critical-section floors plus a random split of the rest."""
    slack = total_wcet - float(floors.sum())
    if slack < -1e-9:
        raise GenerationError("critical sections exceed the task WCET budget")
    shares = rng.uniform(0.5, 1.5, size=len(floors))
    shares = shares / shares.sum()
    return floors + max(slack, 0.0) * shares


def _rebalance_critical_path(
    dag: DAG,
    weights: np.ndarray,
    floors: np.ndarray,
    limit: float,
    max_iterations: int = 200,
) -> Tuple[np.ndarray, DAG, bool]:
    """Shape vertex weights (and, as a last resort, edges) so that ``L* < limit``.

    The total weight is preserved exactly.  The procedure repeatedly takes
    non-critical weight off the current longest path and spreads it over the
    off-path vertices; when no weight can be moved it removes one edge of the
    longest path (mirroring the paper's "regenerate until plausible" policy
    while keeping the draw close to the original).

    Returns ``(weights, dag, success)``.
    """
    weights = weights.astype(float).copy()
    for _ in range(max_iterations):
        lstar, path = dag.critical_path(weights)
        if lstar < limit:
            return weights, dag, True
        on_path = np.zeros(len(weights), dtype=bool)
        on_path[path] = True
        movable = (weights - floors) * on_path
        movable_total = float(movable.sum())
        num_receivers = len(weights) - len(path)  # a path repeats no vertex
        excess = lstar - limit
        if movable_total > 1e-12 and num_receivers:
            # Move just enough (plus a small margin) off the path.
            take = min(movable_total, excess * 1.05 + 1e-9)
            scale = take / movable_total
            taken = movable * scale
            weights = weights - taken
            weights[~on_path] += taken.sum() / num_receivers
            continue
        # Cannot shift weight: break the longest path structurally.
        if len(path) < 2:  # one vertex alone reaches the limit
            return weights, dag, False
        remaining = [e for e in dag.edges if e != (path[0], path[1])]
        dag = DAG(dag.num_vertices, remaining)
    return weights, dag, bool(dag.longest_path_length(weights) < limit)


# --------------------------------------------------------------------------- #
# Single-task synthesis
# --------------------------------------------------------------------------- #
def generate_task(
    task_id: int,
    utilization: float,
    num_resources: int,
    config: TaskSetGenerationConfig,
    rng: RngLike = None,
) -> DAGTask:
    """Generate one DAG task with the given utilization and resource pool size."""
    generator = ensure_rng(rng)
    last_error: Optional[Exception] = None
    for attempt in range(config.max_attempts_per_task):
        try:
            return _generate_task_once(
                task_id, utilization, num_resources, config, generator, attempt
            )
        except GenerationError as exc:  # retry with a fresh draw
            last_error = exc
    raise GenerationError(
        f"failed to generate task {task_id} after "
        f"{config.max_attempts_per_task} attempts: {last_error}"
    )


def _generate_task_once(
    task_id: int,
    utilization: float,
    num_resources: int,
    config: TaskSetGenerationConfig,
    rng: np.random.Generator,
    attempt: int,
) -> DAGTask:
    dag = random_dag(config.dag, rng)
    num_vertices = dag.num_vertices
    period = log_uniform_period(config.period_range[0], config.period_range[1], rng)
    deadline = period
    wcet = utilization * period

    # Resource demands, shrunk so the critical sections fit the WCET budget.
    # Retries use a progressively smaller budget to guarantee convergence.
    budget_fraction = config.cs_budget_fraction / (1 + attempt)
    demands = draw_task_demands(num_resources, config.resources, rng)
    demands = scale_demands_to_budget(demands, budget_fraction * wcet)

    per_vertex_requests: Dict[int, Dict[int, int]] = {}
    floor_sums = [0.0] * num_vertices
    for demand in demands:
        split = distribute_requests_over_vertices(demand.max_requests, num_vertices, rng)
        for vertex, count in split.items():
            per_vertex_requests.setdefault(vertex, {})[demand.resource_id] = count
            floor_sums[vertex] += count * demand.cs_length
    floors = np.array(floor_sums)

    weights = _initial_weights(floors, wcet, rng)
    limit = config.critical_path_fraction * deadline
    weights, dag, ok = _rebalance_critical_path(dag, weights, floors, limit)
    if not ok:
        raise GenerationError(
            f"could not shape task {task_id} to satisfy L* < {limit:.1f}"
        )

    vertices = [
        Vertex(index=v, wcet=float(weights[v]), requests=dict(per_vertex_requests.get(v, {})))
        for v in range(num_vertices)
    ]
    usages = [
        ResourceUsage(
            resource_id=demand.resource_id,
            max_requests=demand.max_requests,
            cs_length=demand.cs_length,
        )
        for demand in demands
    ]
    return DAGTask(
        task_id=task_id,
        vertices=vertices,
        dag=dag,
        period=period,
        deadline=deadline,
        resource_usages=usages,
        name=f"tau{task_id}",
    )


# --------------------------------------------------------------------------- #
# Task-set synthesis
# --------------------------------------------------------------------------- #
def generate_taskset(
    total_utilization: float,
    config: Optional[TaskSetGenerationConfig] = None,
    rng: RngLike = None,
) -> TaskSet:
    """Generate a complete task set for a target total utilization.

    The number of tasks, their utilizations, periods, DAG structures, and
    resource demands follow Sec. VII-A; Rate-Monotonic base priorities are
    applied before the task set is returned.
    """
    config = config or TaskSetGenerationConfig()
    generator = ensure_rng(rng)
    utilizations = utilizations_for_total(
        total_utilization,
        config.average_utilization,
        max_factor=config.utilization_factor,
        rng=generator,
    )
    num_resources = draw_num_resources(config.resources, generator)
    tasks: List[DAGTask] = []
    for task_id, utilization in enumerate(utilizations):
        tasks.append(generate_task(task_id, utilization, num_resources, config, generator))
    assign_rate_monotonic(tasks)
    resources = [Resource(rid) for rid in range(num_resources)]
    return TaskSet(tasks, resources)
