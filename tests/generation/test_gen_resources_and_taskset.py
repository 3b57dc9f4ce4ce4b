"""Tests for resource-demand generation and the full task-set generator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generation.dag_gen import DagGenerationConfig
from repro.generation.randfixedsum import GenerationError
from repro.generation.resources_gen import (
    ResourceDemandDraw,
    ResourceGenerationConfig,
    distribute_requests_over_vertices,
    draw_num_resources,
    draw_task_demands,
    scale_demands_to_budget,
)
from repro.generation.taskset_gen import (
    TaskSetGenerationConfig,
    generate_task,
    generate_taskset,
)
from repro.model.task import validate_taskset


# --------------------------------------------------------------------------- #
# Resource demand generation
# --------------------------------------------------------------------------- #
def test_resource_config_validation():
    with pytest.raises(GenerationError):
        ResourceGenerationConfig(num_resources_range=(4, 2))
    with pytest.raises(GenerationError):
        ResourceGenerationConfig(access_probability=1.5)
    with pytest.raises(GenerationError):
        ResourceGenerationConfig(request_count_range=(0, 5))
    with pytest.raises(GenerationError):
        ResourceGenerationConfig(cs_length_range=(50.0, 15.0))


def test_draw_num_resources_range():
    config = ResourceGenerationConfig(num_resources_range=(4, 8))
    for seed in range(20):
        assert 4 <= draw_num_resources(config, rng=seed) <= 8


def test_draw_task_demands_respects_probability_extremes():
    always = ResourceGenerationConfig(access_probability=1.0)
    never = ResourceGenerationConfig(access_probability=0.0)
    assert len(draw_task_demands(6, always, rng=0)) == 6
    assert draw_task_demands(6, never, rng=0) == []


def test_draw_task_demands_parameter_ranges():
    config = ResourceGenerationConfig(
        access_probability=1.0,
        request_count_range=(3, 7),
        cs_length_range=(10.0, 20.0),
    )
    for demand in draw_task_demands(5, config, rng=1):
        assert 3 <= demand.max_requests <= 7
        assert 10.0 <= demand.cs_length <= 20.0


def test_scale_demands_to_budget_noop_when_fits():
    demands = [ResourceDemandDraw(0, 4, 10.0)]
    assert scale_demands_to_budget(demands, 100.0) == demands


def test_scale_demands_to_budget_shrinks_counts():
    demands = [ResourceDemandDraw(0, 10, 10.0), ResourceDemandDraw(1, 10, 10.0)]
    scaled = scale_demands_to_budget(demands, 100.0)
    total = sum(d.max_requests * d.cs_length for d in scaled)
    assert total <= 100.0 + 1e-9
    assert all(d.max_requests >= 1 for d in scaled)


def test_scale_demands_to_budget_can_drop_resources():
    demands = [ResourceDemandDraw(0, 1, 10.0), ResourceDemandDraw(1, 1, 10.0)]
    scaled = scale_demands_to_budget(demands, 5.0)
    assert scaled == []  # neither single request fits half of one CS


def test_scale_demands_rejects_negative_budget():
    with pytest.raises(GenerationError):
        scale_demands_to_budget([], -1.0)


def test_distribute_requests_over_vertices_sums():
    split = distribute_requests_over_vertices(20, 5, rng=0)
    assert sum(split.values()) == 20
    assert all(0 <= v < 5 for v in split)
    assert distribute_requests_over_vertices(0, 5, rng=0) == {}


@given(
    total=st.integers(min_value=0, max_value=100),
    vertices=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_property_request_distribution(total, vertices, seed):
    split = distribute_requests_over_vertices(total, vertices, rng=seed)
    assert sum(split.values()) == total
    assert all(0 <= vertex < vertices for vertex in split)
    assert all(count > 0 for count in split.values())


# --------------------------------------------------------------------------- #
# Task and task-set generation
# --------------------------------------------------------------------------- #
def small_config(**overrides):
    defaults = dict(
        average_utilization=1.5,
        dag=DagGenerationConfig(num_vertices_range=(8, 15), edge_probability=0.15),
        resources=ResourceGenerationConfig(
            num_resources_range=(2, 4),
            access_probability=0.8,
            request_count_range=(1, 6),
            cs_length_range=(15.0, 50.0),
        ),
    )
    defaults.update(overrides)
    return TaskSetGenerationConfig(**defaults)


def test_generate_task_matches_requested_utilization():
    config = small_config()
    task = generate_task(0, 1.7, 3, config, rng=7)
    assert task.utilization == pytest.approx(1.7, rel=1e-6)
    assert task.critical_path_length < config.critical_path_fraction * task.deadline
    assert task.deadline == task.period


def test_generate_task_respects_cs_budget():
    config = small_config()
    task = generate_task(0, 1.2, 4, config, rng=3)
    cs_total = sum(u.max_requests * u.cs_length for u in task.resource_usages.values())
    assert cs_total <= config.cs_budget_fraction * task.wcet + 1e-6
    for vertex in task.vertices:
        floor = sum(c * task.cs_length(r) for r, c in vertex.requests.items())
        assert vertex.wcet >= floor - 1e-6


def test_generate_taskset_total_utilization_and_priorities():
    config = small_config()
    taskset = generate_taskset(6.0, config, rng=11)
    assert taskset.total_utilization == pytest.approx(6.0, rel=1e-6)
    priorities = [t.priority for t in taskset]
    assert len(set(priorities)) == len(priorities)
    # Rate monotonic: shorter period -> higher priority.
    ordered = sorted(taskset, key=lambda t: t.period)
    for earlier, later in zip(ordered, ordered[1:]):
        assert earlier.priority > later.priority
    assert validate_taskset(taskset) == []


def test_generate_taskset_is_deterministic_per_seed():
    config = small_config()
    a = generate_taskset(4.0, config, rng=5)
    b = generate_taskset(4.0, config, rng=5)
    assert len(a) == len(b)
    for task_a, task_b in zip(a, b):
        assert task_a.period == pytest.approx(task_b.period)
        assert task_a.wcet == pytest.approx(task_b.wcet)
        assert task_a.dag.edges == task_b.dag.edges


def test_generate_taskset_different_seeds_differ():
    config = small_config()
    a = generate_taskset(4.0, config, rng=5)
    b = generate_taskset(4.0, config, rng=6)
    assert any(
        abs(ta.period - tb.period) > 1e-6 for ta, tb in zip(a, b)
    ) or len(a) != len(b)


def test_taskset_generation_config_validation():
    with pytest.raises(GenerationError):
        TaskSetGenerationConfig(average_utilization=0.0)
    with pytest.raises(GenerationError):
        TaskSetGenerationConfig(critical_path_fraction=0.0)
    with pytest.raises(GenerationError):
        TaskSetGenerationConfig(cs_budget_fraction=1.5)


@given(
    total=st.floats(min_value=1.5, max_value=8.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_property_generated_tasksets_are_plausible(total, seed):
    config = small_config()
    taskset = generate_taskset(total, config, rng=seed)
    assert taskset.total_utilization == pytest.approx(total, rel=1e-5)
    assert validate_taskset(taskset) == []
    for task in taskset:
        assert task.critical_path_length < task.deadline / 2 + 1e-6
        critical = sum(u.max_requests * u.cs_length for u in task.resource_usages.values())
        assert task.wcet - critical >= -1e-6
