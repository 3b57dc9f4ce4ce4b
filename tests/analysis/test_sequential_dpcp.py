"""Tests for the classic (sequential-task) DPCP analysis used for light tasks."""

from __future__ import annotations

import math

import pytest

from repro.analysis.sequential import (
    SequentialModelError,
    SequentialSystem,
    SequentialTask,
    analyze_sequential_system,
    partition_sequential_system,
    sequential_dpcp_wcrt,
)


def make_tasks():
    """Three light tasks, two of them sharing resource 0."""
    high = SequentialTask(
        task_id=0, wcet=2.0, period=10.0, priority=3, requests={0: (1, 0.5)}
    )
    mid = SequentialTask(
        task_id=1, wcet=3.0, period=20.0, priority=2, requests={0: (2, 0.5)}
    )
    low = SequentialTask(task_id=2, wcet=4.0, period=40.0, priority=1)
    return [high, mid, low]


# --------------------------------------------------------------------------- #
# Model validation
# --------------------------------------------------------------------------- #
def test_sequential_task_validation():
    with pytest.raises(SequentialModelError):
        SequentialTask(0, wcet=0.0, period=10.0)
    with pytest.raises(SequentialModelError):
        SequentialTask(0, wcet=1.0, period=10.0, deadline=20.0)
    with pytest.raises(SequentialModelError):
        SequentialTask(0, wcet=1.0, period=10.0, requests={0: (5, 1.0)})


def test_sequential_task_derived_quantities():
    task = SequentialTask(0, wcet=4.0, period=10.0, requests={0: (2, 0.5)})
    assert task.utilization == pytest.approx(0.4)
    assert task.non_critical_wcet == pytest.approx(3.0)
    assert task.request_count(0) == 2
    assert task.cs_length(0) == pytest.approx(0.5)
    assert task.request_count(7) == 0


# --------------------------------------------------------------------------- #
# Partitioning
# --------------------------------------------------------------------------- #
def test_partition_sequential_system_assigns_everything():
    tasks = make_tasks()
    system = partition_sequential_system(tasks, num_processors=3)
    assert system is not None
    assert set(system.task_assignment) == {0, 1, 2}
    # Resource 0 is shared by tasks 0 and 1 -> global -> gets a home processor.
    assert 0 in system.resource_assignment
    assert system.resource_ceiling(0) == 3


def test_partition_respects_reserved_processors():
    tasks = make_tasks()
    system = partition_sequential_system(tasks, num_processors=4, reserved_processors=2)
    assert system is not None
    assert all(processor >= 2 for processor in system.task_assignment.values())
    assert partition_sequential_system(tasks, num_processors=2, reserved_processors=2) is None


def test_partition_fails_when_overloaded():
    tasks = [
        SequentialTask(i, wcet=9.0, period=10.0, priority=i + 1) for i in range(4)
    ]
    assert partition_sequential_system(tasks, num_processors=2) is None


# --------------------------------------------------------------------------- #
# Response-time analysis
# --------------------------------------------------------------------------- #
def test_isolated_highest_priority_task_response_time():
    tasks = make_tasks()
    # Put every task on its own processor so only agent effects remain.
    system = SequentialSystem(
        tasks,
        task_assignment={0: 0, 1: 1, 2: 2},
        resource_assignment={0: 2},
    )
    wcrt = sequential_dpcp_wcrt(system, tasks[0])
    # Non-critical 1.5 + one request whose window W covers its own critical
    # section (0.5) plus one lower-priority critical section (0.5) -> 2.5.
    assert wcrt == pytest.approx(2.5)


def test_lower_priority_task_suffers_agent_interference():
    tasks = make_tasks()
    system = SequentialSystem(
        tasks,
        task_assignment={0: 0, 1: 1, 2: 2},
        resource_assignment={0: 2},
    )
    results = analyze_sequential_system(system)
    # The low-priority task hosts the agent of resource 0 on its processor and
    # therefore has a response time above its own WCET.
    assert results[2] > tasks[2].wcet
    assert results[0] <= results[2]
    assert all(not math.isinf(value) for value in results.values())


def test_analysis_orders_by_priority_and_is_consistent():
    tasks = make_tasks()
    system = partition_sequential_system(tasks, num_processors=3)
    results = analyze_sequential_system(system)
    assert set(results) == {0, 1, 2}
    for task in tasks:
        assert results[task.task_id] >= task.non_critical_wcet - 1e-9


def test_unknown_task_lookup_raises():
    tasks = make_tasks()
    system = partition_sequential_system(tasks, num_processors=3)
    with pytest.raises(SequentialModelError):
        system.task(99)

