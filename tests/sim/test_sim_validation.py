"""Validation-layer tests: budgets, horizons, online invariant counters."""

from __future__ import annotations

import pickle

import pytest

from repro.model.dag import DAG
from repro.model.platform import Cluster, PartitionedSystem, Platform
from repro.model.resources import ResourceUsage
from repro.model.task import DAGTask, TaskSet, Vertex
from repro.sim import (
    InvariantMonitor,
    RuntimeSimulator,
    SimulationConfig,
    SimulationTruncated,
    capped_hyperperiod,
    validate_partition,
    validation_horizon,
)
from repro.sim.trace import ExecutionInterval


def two_task_global_system():
    """Two single-vertex-chain tasks sharing one global resource."""
    task0 = DAGTask(
        0,
        [Vertex(0, 3.0, requests={5: 1}), Vertex(1, 2.0)],
        DAG(2, [(0, 1)]),
        period=30.0,
        resource_usages=[ResourceUsage(5, 1, 2.0)],
        priority=2,
    )
    task1 = DAGTask(
        1,
        [Vertex(0, 3.0, requests={5: 1}), Vertex(1, 2.0)],
        DAG(2, [(0, 1)]),
        period=40.0,
        resource_usages=[ResourceUsage(5, 1, 2.0)],
        priority=1,
    )
    taskset = TaskSet([task0, task1])
    platform = Platform(4)
    clusters = {0: Cluster(0, [0]), 1: Cluster(1, [1])}
    return PartitionedSystem(taskset, platform, clusters, {5: 2})


# --------------------------------------------------------------------------- #
# SimulationConfig
# --------------------------------------------------------------------------- #
def test_simulation_config_round_trips_and_pickles():
    config = SimulationConfig(
        hyperperiods=3, hyperperiod_cap_factor=8.0, max_events=123,
        wall_clock_seconds=1.5, retain_trace=True,
    )
    assert SimulationConfig.from_dict(config.to_dict()) == config
    assert pickle.loads(pickle.dumps(config)) == config
    # None budgets survive the round trip too.
    unbounded = SimulationConfig(max_events=None, wall_clock_seconds=None)
    assert SimulationConfig.from_dict(unbounded.to_dict()) == unbounded


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(hyperperiods=0),
        dict(hyperperiod_cap_factor=0.5),
        dict(max_events=0),
        dict(wall_clock_seconds=0.0),
        dict(wall_clock_seconds=-1.0),
    ],
)
def test_simulation_config_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError):
        SimulationConfig(**kwargs)


# --------------------------------------------------------------------------- #
# Horizon / hyperperiod
# --------------------------------------------------------------------------- #
def test_capped_hyperperiod_is_the_lcm_when_small():
    partition = two_task_global_system()  # periods 30 and 40 -> lcm 120
    assert capped_hyperperiod(partition.taskset) == pytest.approx(120.0)
    config = SimulationConfig(hyperperiods=2)
    assert validation_horizon(partition.taskset, config) == pytest.approx(240.0)


def test_capped_hyperperiod_caps_pathological_lcms():
    # Coprime-ish periods whose true LCM dwarfs the cap.
    def task(tid, period):
        return DAGTask(tid, [Vertex(0, 1.0)], DAG(1, []), period=period)

    taskset = TaskSet([task(0, 997.0), task(1, 1009.0), task(2, 1013.0)])
    assert capped_hyperperiod(taskset, cap_factor=4.0) == pytest.approx(4 * 1013.0)


# --------------------------------------------------------------------------- #
# InvariantMonitor
# --------------------------------------------------------------------------- #
def _interval(processor, start, end, resource=None):
    return ExecutionInterval(
        processor=processor, start=start, end=end,
        task_id=0, job_id=0, vertex=0, resource=resource,
    )


def test_monitor_counts_processor_overlaps():
    monitor = InvariantMonitor()
    monitor(_interval(0, 0.0, 2.0))
    monitor(_interval(0, 1.0, 3.0))  # overlaps on processor 0
    monitor(_interval(1, 0.0, 3.0))  # different processor: fine
    monitor(_interval(0, 3.0, 4.0))  # back-to-back: fine
    assert monitor.processor_overlaps == 1
    assert monitor.mutual_exclusion_violations == 0
    assert monitor.violations == 1


def test_monitor_counts_mutual_exclusion_violations_across_processors():
    monitor = InvariantMonitor()
    monitor(_interval(0, 0.0, 2.0, resource=7))
    monitor(_interval(1, 1.0, 3.0, resource=7))  # same resource, overlapping
    monitor(_interval(2, 3.0, 4.0, resource=7))  # serialised: fine
    assert monitor.mutual_exclusion_violations == 1
    assert monitor.processor_overlaps == 0


def test_monitor_ignores_sub_eps_overlap():
    monitor = InvariantMonitor()
    monitor(_interval(0, 0.0, 1.0, resource=1))
    monitor(_interval(1, 1.0 - 1e-12, 2.0, resource=1))
    assert monitor.violations == 0


# --------------------------------------------------------------------------- #
# Budgets and truncation
# --------------------------------------------------------------------------- #
def test_event_budget_truncates_instead_of_running_on():
    partition = two_task_global_system()
    simulator = RuntimeSimulator(partition)
    simulator.release_periodic_jobs(12000.0)
    with pytest.raises(SimulationTruncated) as cut:
        simulator.run(max_events=25)
    assert cut.value.reason == "event_budget"
    assert cut.value.events_processed >= 25
    # The trace so far is intact: recorded jobs exist, none inconsistent.
    assert simulator.trace.check_all() == []


def test_wall_clock_budget_truncates_long_runs():
    partition = two_task_global_system()
    simulator = RuntimeSimulator(partition)
    # Enough releases that the run comfortably exceeds one check interval.
    simulator.release_periodic_jobs(60000.0)
    with pytest.raises(SimulationTruncated) as cut:
        simulator.run(wall_clock_seconds=1e-9)
    assert cut.value.reason == "wall_clock_budget"


def test_run_rejects_negative_budgets():
    simulator = RuntimeSimulator(two_task_global_system())
    with pytest.raises(ValueError):
        simulator.run(max_events=-1)
    with pytest.raises(ValueError):
        simulator.run(wall_clock_seconds=-0.5)


# --------------------------------------------------------------------------- #
# The fast no-trace path
# --------------------------------------------------------------------------- #
def test_record_trace_off_keeps_jobs_but_drops_intervals():
    partition = two_task_global_system()
    monitor = InvariantMonitor()
    fast = RuntimeSimulator(partition, record_trace=False, interval_observer=monitor)
    fast.release_periodic_jobs(120.0)
    fast.run()
    assert fast.trace.intervals == []
    assert fast.trace.requests == []
    assert monitor.intervals_observed > 0
    assert monitor.violations == 0

    # Response times match the trace-retaining run exactly.
    full = RuntimeSimulator(partition)
    full.release_periodic_jobs(120.0)
    full.run()
    assert fast.trace.response_times() == full.trace.response_times()


# --------------------------------------------------------------------------- #
# validate_partition
# --------------------------------------------------------------------------- #
def test_validate_partition_completed_outcome():
    partition = two_task_global_system()
    outcome = validate_partition(partition, SimulationConfig(hyperperiods=2))
    assert outcome.completed and outcome.status == "completed"
    assert outcome.horizon == pytest.approx(240.0)
    assert outcome.jobs_released == outcome.jobs_finished == 14
    assert outcome.deadline_misses == 0
    assert outcome.mutual_exclusion_violations == 0
    assert outcome.processor_overlaps == 0
    assert outcome.observed_response_times[0] == pytest.approx(5.0)
    assert outcome.observed_response_times[1] == pytest.approx(7.0)


def test_validate_partition_truncates_cleanly():
    partition = two_task_global_system()
    outcome = validate_partition(
        partition, SimulationConfig(hyperperiods=2, max_events=5)
    )
    assert outcome.status == "truncated"
    assert outcome.truncation_reason == "event_budget"
    assert outcome.jobs_finished <= outcome.jobs_released
    # Whatever finished is still reported (sound lower bounds).
    for observed in outcome.observed_response_times.values():
        assert observed > 0


def test_validate_partition_default_config_retains_no_trace():
    # The default config must stay cheap: no trace retention.
    assert SimulationConfig().retain_trace is False
    assert SimulationConfig().max_events is not None
