"""Resource-usage generation (Sec. VII-A).

The experimental setup draws, for each experiment scenario, a number of
shared resources ``nr`` from a range (``[2,4]``, ``[4,8]`` or ``[8,16]``).
Each task uses each resource with probability ``pr``; if it does, the number
of requests per job ``N_{i,q}`` is drawn uniformly from ``[1, 25]`` or
``[1, 50]`` and the maximum critical-section length ``L_{i,q}`` uniformly
from ``[15, 50]`` µs or ``[50, 100]`` µs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..utils.rng import RngLike, ensure_rng
from .randfixedsum import GenerationError


@dataclass(frozen=True)
class ResourceGenerationConfig:
    """Parameters controlling shared-resource usage synthesis.

    Attributes
    ----------
    num_resources_range:
        Inclusive range for the number of shared resources ``nr``.
    access_probability:
        ``pr`` — probability that a task uses a given resource.
    request_count_range:
        Inclusive range for ``N_{i,q}`` when a task uses a resource.
    cs_length_range:
        Range for ``L_{i,q}`` in microseconds.
    """

    num_resources_range: Tuple[int, int] = (4, 8)
    access_probability: float = 0.5
    request_count_range: Tuple[int, int] = (1, 50)
    cs_length_range: Tuple[float, float] = (50.0, 100.0)

    def __post_init__(self) -> None:
        lo, hi = self.num_resources_range
        if lo < 0 or hi < lo:
            raise GenerationError("invalid resource-count range")
        if not 0.0 <= self.access_probability <= 1.0:
            raise GenerationError("access probability must be in [0, 1]")
        nlo, nhi = self.request_count_range
        if nlo < 1 or nhi < nlo:
            raise GenerationError("invalid request-count range")
        llo, lhi = self.cs_length_range
        if llo < 0 or lhi < llo:
            raise GenerationError("invalid critical-section length range")


@dataclass
class ResourceDemandDraw:
    """One task's drawn demand on one resource (before vertex placement)."""

    resource_id: int
    max_requests: int
    cs_length: float


def draw_num_resources(config: ResourceGenerationConfig, rng: RngLike = None) -> int:
    """Draw the number of shared resources ``nr`` for one task set."""
    generator = ensure_rng(rng)
    lo, hi = config.num_resources_range
    return int(generator.integers(lo, hi + 1))


def draw_task_demands(
    num_resources: int,
    config: ResourceGenerationConfig,
    rng: RngLike = None,
) -> List[ResourceDemandDraw]:
    """Draw the resource demands of one task.

    Each of the ``num_resources`` resources is used with probability
    ``config.access_probability``; used resources receive a request count and
    a critical-section length drawn uniformly from the configured ranges.
    """
    generator = ensure_rng(rng)
    demands: List[ResourceDemandDraw] = []
    nlo, nhi = config.request_count_range
    llo, lhi = config.cs_length_range
    for rid in range(num_resources):
        if generator.uniform() >= config.access_probability:
            continue
        count = int(generator.integers(nlo, nhi + 1))
        cs_length = float(generator.uniform(llo, lhi))
        demands.append(ResourceDemandDraw(rid, count, cs_length))
    return demands


def scale_demands_to_budget(
    demands: List[ResourceDemandDraw], budget: float
) -> List[ResourceDemandDraw]:
    """Shrink request counts so the total critical-section time fits ``budget``.

    The paper enforces ``C_{i,x} >= sum_q N_{i,x,q} L_{i,q}`` (critical
    sections are part of the WCET), which requires the *total* critical
    section time of a task to be at most its WCET.  When the raw draw exceeds
    the budget we scale all request counts down proportionally (dropping
    resources whose count reaches zero), which preserves the relative
    contention profile of the draw.
    """
    if budget < 0:
        raise GenerationError("budget must be non-negative")
    total = sum(d.max_requests * d.cs_length for d in demands)
    if total <= budget or total == 0:
        return list(demands)
    factor = budget / total
    scaled: List[ResourceDemandDraw] = []
    for demand in demands:
        new_count = int(np.floor(demand.max_requests * factor))
        if new_count >= 1:
            scaled.append(
                ResourceDemandDraw(demand.resource_id, new_count, demand.cs_length)
            )
    return scaled


def distribute_requests_over_vertices(
    total_requests: int,
    num_vertices: int,
    rng: RngLike = None,
) -> Dict[int, int]:
    """Split ``N_{i,q}`` requests over vertices uniformly at random.

    Returns a mapping ``vertex index -> N_{i,x,q}`` whose values sum to
    ``total_requests`` (vertices with zero requests are omitted), in
    ascending vertex order.
    """
    if total_requests < 0:
        raise GenerationError("total_requests must be non-negative")
    if num_vertices < 1:
        raise GenerationError("num_vertices must be >= 1")
    if total_requests == 0:
        return {}
    generator = ensure_rng(rng)
    choices = generator.integers(0, num_vertices, size=total_requests)
    tally = np.bincount(choices).tolist()
    return {vertex: count for vertex, count in enumerate(tally) if count}
