"""Randomised simulator validation: Lemma 1 and analysis soundness.

These tests generate random workloads, simulate them under DPCP-p, and check

* the protocol invariants (Lemma 1, mutual exclusion, processor exclusivity),
* that observed response times never exceed the analytical WCRT bounds of the
  EP analysis (for task sets the analysis deems schedulable).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import DpcpPEpTest
from repro.generation import (
    DagGenerationConfig,
    GenerationError,
    ResourceGenerationConfig,
    TaskSetGenerationConfig,
    generate_taskset,
)
from repro.model import Platform
from repro.sim import RuntimeSimulator


def tiny_config(access_probability=0.8):
    return TaskSetGenerationConfig(
        average_utilization=1.5,
        dag=DagGenerationConfig(num_vertices_range=(5, 10), edge_probability=0.2),
        resources=ResourceGenerationConfig(
            num_resources_range=(2, 3),
            access_probability=access_probability,
            request_count_range=(1, 4),
            cs_length_range=(20.0, 60.0),
        ),
    )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_protocol_invariants_hold(seed):
    """Simulated schedules satisfy Lemma 1 and mutual exclusion."""
    config = tiny_config()
    try:
        taskset = generate_taskset(4.0, config, rng=seed)
    except GenerationError:
        return
    platform = Platform(16)
    result = DpcpPEpTest().test(taskset, platform)
    if not result.schedulable or result.partition is None:
        return
    simulator = RuntimeSimulator(result.partition)
    horizon = 2 * max(task.period for task in taskset)
    simulator.release_periodic_jobs(horizon)
    trace = simulator.run()
    assert trace.check_lemma1() == []
    assert trace.check_mutual_exclusion() == []
    assert trace.check_processor_exclusivity() == []


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_simulation_within_analysis_bound(seed):
    """Observed response times never exceed the analytical WCRT bounds."""
    config = tiny_config(access_probability=0.6)
    try:
        taskset = generate_taskset(4.0, config, rng=seed)
    except GenerationError:
        return
    platform = Platform(16)
    result = DpcpPEpTest().test(taskset, platform)
    if not result.schedulable or result.partition is None:
        return
    simulator = RuntimeSimulator(result.partition)
    horizon = 3 * max(task.period for task in taskset)
    simulator.release_periodic_jobs(horizon)
    trace = simulator.run()
    assert trace.deadline_misses() == []
    for task in taskset:
        observed = trace.worst_response_time(task.task_id)
        if observed is None:
            continue
        bound = result.task_analyses[task.task_id].wcrt
        assert observed <= bound + 1e-6


def test_fixed_seed_regression_invariants():
    """A deterministic end-to-end run of analysis + simulation."""
    config = tiny_config()
    taskset = generate_taskset(4.5, config, rng=2020)
    platform = Platform(16)
    result = DpcpPEpTest().test(taskset, platform)
    if not result.schedulable:
        pytest.skip("seed produced an unschedulable set; invariants not applicable")
    simulator = RuntimeSimulator(result.partition)
    simulator.release_periodic_jobs(2 * max(t.period for t in taskset))
    trace = simulator.run()
    assert trace.check_all() == []
    assert trace.deadline_misses() == []
