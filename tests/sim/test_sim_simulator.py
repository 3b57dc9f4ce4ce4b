"""General simulator tests: protocol rules, invariants, and periodic runs."""

from __future__ import annotations

import pytest

from repro.model.dag import DAG
from repro.model.platform import Cluster, PartitionedSystem, Platform
from repro.model.resources import ResourceUsage
from repro.model.task import DAGTask, TaskSet, Vertex
from repro.sim import RuntimeSimulator, SimulationError


def single_task_system(requests=0, cs=1.0, processors=2):
    """One task with two parallel vertices, optionally using a local resource."""
    vertex_requests = {0: {1: requests}} if requests else {}
    usages = [ResourceUsage(1, requests, cs)] if requests else []
    task = DAGTask(
        task_id=0,
        vertices=[
            Vertex(0, 4.0, requests=dict(vertex_requests.get(0, {}))),
            Vertex(1, 4.0),
            Vertex(2, 2.0),
        ],
        dag=DAG(3, [(0, 2), (1, 2)]),
        period=40.0,
        resource_usages=usages,
        priority=1,
    )
    taskset = TaskSet([task])
    platform = Platform(max(2, processors))
    clusters = {0: Cluster(0, list(range(processors)))}
    return PartitionedSystem(taskset, platform, clusters, {})


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


def test_parallel_execution_uses_both_processors():
    partition = single_task_system(processors=2)
    simulator = RuntimeSimulator(partition)
    simulator.release_job(0, 0.0)
    trace = simulator.run()
    # Two 4-unit vertices run in parallel, then the 2-unit join vertex: 6.
    assert trace.worst_response_time(0) == pytest.approx(6.0)
    assert trace.check_all() == []
    assert {i.processor for i in trace.intervals} == {0, 1}


def test_single_processor_serialises_execution():
    partition = single_task_system(processors=1)
    simulator = RuntimeSimulator(partition)
    simulator.release_job(0, 0.0)
    trace = simulator.run()
    assert trace.worst_response_time(0) == pytest.approx(10.0)
    assert trace.check_all() == []


def test_local_resource_mutual_exclusion():
    partition = single_task_system(requests=2, cs=1.0)
    simulator = RuntimeSimulator(partition)
    simulator.release_job(0, 0.0)
    trace = simulator.run()
    assert trace.check_mutual_exclusion() == []
    critical = [i for i in trace.intervals if i.resource == 1]
    assert len(critical) == 2
    assert all(not i.is_agent for i in critical)


def test_global_resource_priority_order_and_agent_placement():
    partition = two_task_global_system()
    simulator = RuntimeSimulator(partition)
    simulator.release_job(0, 0.0)
    simulator.release_job(1, 0.0)
    trace = simulator.run()
    assert trace.check_all() == []
    agents = [i for i in trace.intervals if i.is_agent]
    assert agents and all(i.processor == 2 for i in agents)
    # The higher-priority task's request is served first (both issued at the
    # same instant).
    ordered = sorted(trace.requests, key=lambda r: r.grant_time)
    assert ordered[0].task_id == 0
    assert ordered[1].grant_time >= ordered[0].finish_time - 1e-9


def test_release_job_rejects_negative_time():
    partition = single_task_system()
    simulator = RuntimeSimulator(partition)
    with pytest.raises(SimulationError):
        simulator.release_job(0, -1.0)


def test_periodic_release_and_run_until():
    partition = single_task_system(processors=2)
    simulator = RuntimeSimulator(partition)
    simulator.release_periodic_jobs(horizon=100.0)
    trace = simulator.run()
    finished = [r for r in trace.jobs.values() if r.finish_time is not None]
    assert len(finished) == 3  # releases at 0, 40, 80
    assert all(r.deadline_met for r in finished)
    assert trace.check_all() == []


def test_run_until_stops_early():
    partition = single_task_system(processors=2)
    simulator = RuntimeSimulator(partition)
    simulator.release_periodic_jobs(horizon=200.0)
    trace = simulator.run(until=50.0)
    assert all(record.release_time <= 50.0 + 1e-9
               for record in trace.jobs.values()
               if record.finish_time is not None)
