"""Synthetic workload generation (Sec. VII-A of the paper)."""

from .dag_gen import DagGenerationConfig, erdos_renyi_dag, random_dag
from .periods import DEFAULT_PERIOD_RANGE_US, log_uniform_period
from .randfixedsum import GenerationError, rand_fixed_sum, utilizations_for_total
from .resources_gen import (
    ResourceDemandDraw,
    ResourceGenerationConfig,
    distribute_requests_over_vertices,
    draw_num_resources,
    draw_task_demands,
    scale_demands_to_budget,
)
from .taskset_gen import TaskSetGenerationConfig, generate_task, generate_taskset

__all__ = [
    "DagGenerationConfig",
    "erdos_renyi_dag",
    "random_dag",
    "DEFAULT_PERIOD_RANGE_US",
    "log_uniform_period",
    "GenerationError",
    "rand_fixed_sum",
    "utilizations_for_total",
    "ResourceDemandDraw",
    "ResourceGenerationConfig",
    "distribute_requests_over_vertices",
    "draw_num_resources",
    "draw_task_demands",
    "scale_demands_to_budget",
    "TaskSetGenerationConfig",
    "generate_task",
    "generate_taskset",
]
