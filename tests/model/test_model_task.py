"""Tests for the task / task-set model (repro.model.task)."""

from __future__ import annotations

import pytest

from repro.model.dag import DAG
from repro.model.resources import ResourceUsage
from repro.model.task import DAGTask, TaskError, TaskSet, Vertex, validate_taskset


def make_task(
    task_id=0,
    wcets=(2.0, 3.0, 1.0),
    edges=((0, 1), (1, 2)),
    period=20.0,
    deadline=None,
    requests=None,
    usages=(),
    priority=1,
):
    """Helper building a small task; requests maps vertex -> {rid: count}."""
    requests = requests or {}
    vertices = [
        Vertex(i, wcets[i], requests=dict(requests.get(i, {})))
        for i in range(len(wcets))
    ]
    dag = DAG(len(wcets), edges)
    return DAGTask(
        task_id=task_id,
        vertices=vertices,
        dag=dag,
        period=period,
        deadline=deadline,
        resource_usages=usages,
        priority=priority,
    )


# --------------------------------------------------------------------------- #
# Vertex
# --------------------------------------------------------------------------- #
def test_vertex_rejects_negative_wcet():
    with pytest.raises(TaskError):
        Vertex(0, -1.0)


def test_vertex_rejects_negative_requests():
    with pytest.raises(TaskError):
        Vertex(0, 1.0, requests={0: -1})


def test_vertex_total_requests():
    assert Vertex(0, 1.0, requests={0: 2, 1: 3}).total_requests() == 5


# --------------------------------------------------------------------------- #
# DAGTask construction / validation
# --------------------------------------------------------------------------- #
def test_task_basic_parameters():
    task = make_task()
    assert task.wcet == pytest.approx(6.0)
    assert task.utilization == pytest.approx(0.3)
    assert task.critical_path_length == pytest.approx(6.0)
    assert task.deadline == pytest.approx(20.0)


def test_heavy_task_detection():
    task = make_task(wcets=(10.0, 10.0, 10.0), period=20.0)
    # Heavy: C_i / D_i = 30 / 20 > 1.
    assert task.wcet == pytest.approx(1.5 * task.deadline)


def test_task_rejects_vertex_count_mismatch():
    vertices = [Vertex(0, 1.0)]
    dag = DAG(2, [(0, 1)])
    with pytest.raises(TaskError):
        DAGTask(0, vertices, dag, period=10.0)


def test_task_rejects_unordered_vertices():
    vertices = [Vertex(1, 1.0), Vertex(0, 1.0)]
    dag = DAG(2, [(0, 1)])
    with pytest.raises(TaskError):
        DAGTask(0, vertices, dag, period=10.0)


def test_task_rejects_invalid_deadline():
    with pytest.raises(TaskError):
        make_task(deadline=25.0)  # deadline > period
    with pytest.raises(TaskError):
        make_task(deadline=0.0)


def test_task_requires_usage_for_requested_resource():
    with pytest.raises(TaskError):
        make_task(requests={0: {7: 1}})


def test_task_rejects_request_count_mismatch():
    usages = [ResourceUsage(7, max_requests=3, cs_length=0.5)]
    with pytest.raises(TaskError):
        make_task(requests={0: {7: 1}}, usages=usages)


def test_task_rejects_cs_exceeding_vertex_wcet():
    usages = [ResourceUsage(7, max_requests=1, cs_length=10.0)]
    with pytest.raises(TaskError):
        make_task(requests={0: {7: 1}}, usages=usages)


def test_task_level_usage_without_vertex_requests_is_spread():
    usages = [ResourceUsage(7, max_requests=1, cs_length=0.5)]
    task = make_task(usages=usages)
    assert task.vertex_requests(0, 7) == 1
    assert task.request_count(7) == 1


def test_usage_errors_are_raised_before_wcet_errors():
    # Vertex 0's critical section overflows its WCET, but vertex 2 requests
    # a resource without a usage: the usage check reports first.
    usages = [ResourceUsage(7, max_requests=1, cs_length=10.0)]
    with pytest.raises(TaskError, match="no ResourceUsage"):
        make_task(requests={0: {7: 1}, 2: {9: 1}}, usages=usages)


def test_task_level_usage_spread_onto_vertex_zero_is_wcet_checked():
    usages = [ResourceUsage(7, max_requests=3, cs_length=1.0)]
    with pytest.raises(TaskError, match="vertex 0"):
        make_task(usages=usages)  # 3 x 1.0 of critical sections > C_0 = 2.0


# --------------------------------------------------------------------------- #
# Resource bookkeeping
# --------------------------------------------------------------------------- #
def test_non_critical_wcet_and_resource_queries():
    usages = [ResourceUsage(3, max_requests=2, cs_length=0.5)]
    task = make_task(requests={0: {3: 1}, 1: {3: 1}}, usages=usages)
    assert task.request_count(3) == 2
    assert task.cs_length(3) == pytest.approx(0.5)
    # C' = 6 - 2 x 0.5, one critical section on each of vertices 0 and 1.
    assert task.vertex_non_critical_wcets() == pytest.approx([1.5, 2.5, 1.0])
    assert task.uses_resource(3)
    assert not task.uses_resource(4)
    assert task.used_resources() == [3]
    assert task.vertex_requests(0, 3) == 1
    assert task.vertex_requests(2, 3) == 0


def test_minimum_processors_formula():
    # C=30, L*=10, D=20 -> ceil(20/10) = 2
    task = make_task(wcets=(10.0, 10.0, 10.0), edges=((0, 1),), period=20.0)
    assert task.critical_path_length == pytest.approx(20.0)
    # L* = D makes the task infeasible.
    with pytest.raises(TaskError):
        task.minimum_processors()
    task2 = make_task(wcets=(5.0, 5.0, 20.0), edges=(), period=25.0)
    # L* = 20, C = 30, D = 25 -> ceil(10/5) = 2
    assert task2.minimum_processors() == 2


def test_path_profile_and_critical_path_profile():
    usages = [ResourceUsage(3, max_requests=2, cs_length=0.5)]
    task = make_task(requests={0: {3: 1}, 2: {3: 1}}, usages=usages)
    profile = task.path_profile([0, 1, 2])
    assert profile.length == pytest.approx(6.0)
    assert profile.requests == {3: 2}
    critical = task.critical_path_profile()
    assert critical.length == pytest.approx(task.critical_path_length)


# --------------------------------------------------------------------------- #
# TaskSet
# --------------------------------------------------------------------------- #
def build_taskset():
    usage_a = [ResourceUsage(0, 1, 0.5), ResourceUsage(1, 1, 0.25)]
    usage_b = [ResourceUsage(0, 2, 0.5)]
    task_a = make_task(task_id=0, requests={0: {0: 1}, 1: {1: 1}}, usages=usage_a, priority=2)
    task_b = make_task(task_id=1, requests={0: {0: 2}}, usages=usage_b, period=40.0, priority=1)
    return TaskSet([task_a, task_b])


def test_taskset_global_local_classification():
    taskset = build_taskset()
    # Resource 0 used by both tasks -> global; resource 1 only by task 0 -> local.
    assert taskset.global_resources() == [0]
    assert taskset.local_resources() == [1]
    assert taskset.is_global(0)
    assert not taskset.is_global(1)


def test_taskset_requires_unique_ids():
    task = make_task(task_id=0)
    with pytest.raises(TaskError):
        TaskSet([task, make_task(task_id=0)])


def test_taskset_priority_queries():
    taskset = build_taskset()
    high = taskset.task(0)
    low = taskset.task(1)
    assert taskset.higher_priority_tasks(low) == [high]
    assert taskset.lower_priority_tasks(high) == [low]
    assert [t.task_id for t in taskset.by_priority()] == [0, 1]


def test_taskset_resource_utilization_and_ceiling():
    taskset = build_taskset()
    expected = 1 * 0.5 / 20.0 + 2 * 0.5 / 40.0
    assert taskset.resource_utilization(0) == pytest.approx(expected)
    assert taskset.resource_ceiling(0) == 2
    assert [t.task_id for t in taskset.tasks_using(0)] == [0, 1]


def test_taskset_total_utilization_and_lookup():
    taskset = build_taskset()
    assert taskset.total_utilization == pytest.approx(6.0 / 20.0 + 6.0 / 40.0)
    assert taskset.task(1).task_id == 1
    with pytest.raises(TaskError):
        taskset.task(99)


def test_validate_taskset_reports_no_warnings_for_clean_set():
    assert validate_taskset(build_taskset()) == []


def test_generated_taskset_is_valid(small_taskset):
    assert validate_taskset(small_taskset) == []
    for task in small_taskset:
        # Plausibility constraints from Sec. VII-A.
        assert task.critical_path_length < task.deadline / 2 + 1e-6
        for vertex in task.vertices:
            cs_time = sum(
                count * task.cs_length(rid) for rid, count in vertex.requests.items()
            )
            assert vertex.wcet >= cs_time - 1e-6
