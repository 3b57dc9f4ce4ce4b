"""Experimental scenario grid (Sec. VII-A).

A *scenario* is one combination of the evaluation parameters:

* platform size ``m ∈ {8, 16, 32}``,
* number of shared resources ``nr`` drawn from ``[2,4]``, ``[4,8]`` or ``[8,16]``,
* average task utilization ``U_avg ∈ {1.5, 2}``,
* resource-access probability ``pr ∈ {0.5, 0.75, 1.0}``,
* per-job request bound ``N_{i,q}`` drawn from ``[1,25]`` or ``[1,50]``,
* critical-section length ``L_{i,q}`` drawn from ``[15,50]`` or ``[50,100]`` µs.

The cross product yields the paper's 216 experimental scenarios.  For every
scenario the harness sweeps the normalized utilization from (almost) 0 to 1
in steps of 0.05 and measures the acceptance ratio of every protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..generation.dag_gen import DagGenerationConfig
from ..generation.resources_gen import ResourceGenerationConfig
from ..generation.taskset_gen import TaskSetGenerationConfig

#: Parameter domains of the paper's evaluation.
PLATFORM_SIZES: Tuple[int, ...] = (8, 16, 32)
RESOURCE_COUNT_RANGES: Tuple[Tuple[int, int], ...] = ((2, 4), (4, 8), (8, 16))
AVERAGE_UTILIZATIONS: Tuple[float, ...] = (1.5, 2.0)
ACCESS_PROBABILITIES: Tuple[float, ...] = (0.5, 0.75, 1.0)
REQUEST_COUNT_RANGES: Tuple[Tuple[int, int], ...] = ((1, 25), (1, 50))
CS_LENGTH_RANGES: Tuple[Tuple[float, float], ...] = ((15.0, 50.0), (50.0, 100.0))

#: Utilization sweep resolution (the paper uses steps of 0.05 * m).
UTILIZATION_STEP_FRACTION = 0.05


@dataclass(frozen=True)
class Scenario:
    """One point of the experimental parameter grid."""

    platform_size: int
    resource_count_range: Tuple[int, int]
    average_utilization: float
    access_probability: float
    request_count_range: Tuple[int, int]
    cs_length_range: Tuple[float, float]
    #: Vertex-count range of the DAG generator.  The paper uses [10, 100];
    #: the default here is the full range, benchmarks may scale it down for
    #: run-time reasons (documented in EXPERIMENTS.md).
    num_vertices_range: Tuple[int, int] = (10, 100)
    edge_probability: float = 0.1

    @property
    def scenario_id(self) -> str:
        """Compact, human-readable identifier of the scenario.

        Covers every field that affects results — including the DAG-shape
        knobs ``num_vertices_range`` and ``edge_probability`` — so distinct
        scenarios never share an id (campaign stores key work units by it).
        """
        return (
            f"m{self.platform_size}"
            f"-nr{self.resource_count_range[0]}_{self.resource_count_range[1]}"
            f"-U{self.average_utilization:g}"
            f"-pr{self.access_probability:g}"
            f"-N{self.request_count_range[0]}_{self.request_count_range[1]}"
            f"-L{self.cs_length_range[0]:g}_{self.cs_length_range[1]:g}"
            f"-v{self.num_vertices_range[0]}_{self.num_vertices_range[1]}"
            f"-e{self.edge_probability:g}"
        )

    def generation_config(self) -> TaskSetGenerationConfig:
        """Build the task-set generation configuration for this scenario."""
        return TaskSetGenerationConfig(
            average_utilization=self.average_utilization,
            dag=DagGenerationConfig(
                num_vertices_range=self.num_vertices_range,
                edge_probability=self.edge_probability,
            ),
            resources=ResourceGenerationConfig(
                num_resources_range=self.resource_count_range,
                access_probability=self.access_probability,
                request_count_range=self.request_count_range,
                cs_length_range=self.cs_length_range,
            ),
        )

    def utilization_points(
        self, step_fraction: float = UTILIZATION_STEP_FRACTION
    ) -> List[float]:
        """Total-utilization sweep points ``step, 2*step, ..., m``."""
        if step_fraction <= 0:
            raise ValueError(
                f"step fraction must be positive, got {step_fraction}"
            )
        m = self.platform_size
        points: List[float] = []
        step = step_fraction * m
        value = step
        while value <= m + 1e-9:
            points.append(min(value, float(m)))
            value += step
        return points


def full_grid(
    num_vertices_range: Tuple[int, int] = (10, 100),
) -> List[Scenario]:
    """The paper's full 216-scenario grid."""
    scenarios: List[Scenario] = []
    for m in PLATFORM_SIZES:
        for nr in RESOURCE_COUNT_RANGES:
            for uavg in AVERAGE_UTILIZATIONS:
                for pr in ACCESS_PROBABILITIES:
                    for nrange in REQUEST_COUNT_RANGES:
                        for lrange in CS_LENGTH_RANGES:
                            scenarios.append(
                                Scenario(
                                    platform_size=m,
                                    resource_count_range=nr,
                                    average_utilization=uavg,
                                    access_probability=pr,
                                    request_count_range=nrange,
                                    cs_length_range=lrange,
                                    num_vertices_range=num_vertices_range,
                                )
                            )
    return scenarios


def figure2_scenarios(
    num_vertices_range: Tuple[int, int] = (10, 100),
) -> dict:
    """The four scenarios plotted in Fig. 2 of the paper.

    Fig. 2 uses ``N ∈ [1, 50]`` and ``L ∈ [50, 100]`` µs with

    * (a) ``U_avg = 1.5``, ``m = 16``, ``nr ∈ [4, 8]``, ``pr = 0.5``;
    * (b) ``U_avg = 1.5``, ``m = 32``, ``nr ∈ [8, 16]``, ``pr = 1.0``;
    * (c) ``U_avg = 2``,   ``m = 16``, ``nr ∈ [4, 8]``, ``pr = 0.5``;
    * (d) ``U_avg = 2``,   ``m = 32``, ``nr ∈ [8, 16]``, ``pr = 1.0``.
    """
    common = dict(
        request_count_range=(1, 50),
        cs_length_range=(50.0, 100.0),
        num_vertices_range=num_vertices_range,
    )
    return {
        "a": Scenario(
            platform_size=16,
            resource_count_range=(4, 8),
            average_utilization=1.5,
            access_probability=0.5,
            **common,
        ),
        "b": Scenario(
            platform_size=32,
            resource_count_range=(8, 16),
            average_utilization=1.5,
            access_probability=1.0,
            **common,
        ),
        "c": Scenario(
            platform_size=16,
            resource_count_range=(4, 8),
            average_utilization=2.0,
            access_probability=0.5,
            **common,
        ),
        "d": Scenario(
            platform_size=32,
            resource_count_range=(8, 16),
            average_utilization=2.0,
            access_probability=1.0,
            **common,
        ),
    }
