"""Tests for platforms, clusters, and partitioned systems (repro.model.platform)."""

from __future__ import annotations

import pytest

from repro.model.dag import DAG
from repro.model.platform import (
    Cluster,
    PartitionedSystem,
    Platform,
    PlatformError,
    minimal_federated_clusters,
)
from repro.model.resources import ResourceUsage
from repro.model.task import DAGTask, TaskSet, Vertex


def heavy_task(task_id, priority, period=20.0, resource=None, requests=2, cs=0.5):
    """A 4-vertex heavy task (C = 30, L* = 10) optionally using one resource."""
    vertex_requests = {}
    usages = []
    if resource is not None:
        vertex_requests = {0: {resource: requests}}
        usages = [ResourceUsage(resource, requests, cs)]
    vertices = [
        Vertex(0, 10.0, requests=dict(vertex_requests.get(0, {}))),
        Vertex(1, 10.0),
        Vertex(2, 5.0),
        Vertex(3, 5.0),
    ]
    dag = DAG(4, [(0, 3), (1, 3), (2, 3)])
    return DAGTask(
        task_id=task_id,
        vertices=vertices,
        dag=dag,
        period=period,
        resource_usages=usages,
        priority=priority,
    )


@pytest.fixture
def two_task_system():
    task0 = heavy_task(0, priority=2, resource=5)
    task1 = heavy_task(1, priority=1, resource=5)
    taskset = TaskSet([task0, task1])
    platform = Platform(8)
    clusters = {
        0: Cluster(0, [0, 1, 2]),
        1: Cluster(1, [3, 4]),
    }
    partition = PartitionedSystem(taskset, platform, clusters, {5: 3})
    return taskset, platform, partition


def test_platform_requires_two_processors():
    with pytest.raises(PlatformError):
        Platform(1)
    assert Platform(4).processors == (0, 1, 2, 3)


def test_cluster_membership():
    cluster = Cluster(0, [1, 2])
    assert cluster.size == 2
    assert 1 in cluster
    assert 5 not in cluster


def test_partition_rejects_overlapping_clusters(two_task_system):
    taskset, platform, _ = two_task_system
    clusters = {0: Cluster(0, [0, 1]), 1: Cluster(1, [1, 2])}
    with pytest.raises(PlatformError):
        PartitionedSystem(taskset, platform, clusters, {})


def test_partition_rejects_unknown_processor(two_task_system):
    taskset, platform, _ = two_task_system
    clusters = {0: Cluster(0, [0, 99]), 1: Cluster(1, [1])}
    with pytest.raises(PlatformError):
        PartitionedSystem(taskset, platform, clusters, {})


def test_partition_rejects_local_resource_assignment():
    task0 = heavy_task(0, priority=2, resource=5)
    task1 = heavy_task(1, priority=1)  # resource 5 used only by task 0 -> local
    taskset = TaskSet([task0, task1])
    platform = Platform(8)
    clusters = {0: Cluster(0, [0, 1]), 1: Cluster(1, [2, 3])}
    with pytest.raises(PlatformError):
        PartitionedSystem(taskset, platform, clusters, {5: 0})


def test_partition_cluster_queries(two_task_system):
    _, _, partition = two_task_system
    assert partition.processors_of(0) == [0, 1, 2]
    assert partition.num_processors_of(1) == 2
    assert partition.owner_of_processor(4) == 1
    assert partition.owner_of_processor(7) is None
    assert partition.unassigned_processors() == [5, 6, 7]
    assert partition.assigned_processors() == [0, 1, 2, 3, 4]


def test_partition_resource_queries(two_task_system):
    taskset, _, partition = two_task_system
    assert partition.processor_of_resource(5) == 3
    assert partition.resources_on_processor(3) == [5]
    assert partition.resources_on_processor(0) == []
    assert partition.co_located_resources(5) == [5]
    # Resource 5 lives on processor 3, which belongs to task 1's cluster.
    assert partition.resources_on_cluster(1) == [5]
    assert partition.resources_on_cluster(0) == []


def test_partition_copy_is_independent(two_task_system):
    _, _, partition = two_task_system
    clone = partition.copy()
    clone.clusters[0].processors.append(7)
    assert 7 not in partition.clusters[0].processors


def test_unassigned_resource_lookup_raises(two_task_system):
    taskset, platform, _ = two_task_system
    clusters = {0: Cluster(0, [0, 1]), 1: Cluster(1, [2, 3])}
    partition = PartitionedSystem(taskset, platform, clusters, {})
    with pytest.raises(PlatformError):
        partition.processor_of_resource(5)


def test_minimal_federated_clusters_sizes():
    task0 = heavy_task(0, priority=2)
    task1 = heavy_task(1, priority=1)
    taskset = TaskSet([task0, task1])
    clusters = minimal_federated_clusters(taskset, Platform(8))
    assert clusters is not None
    # C=30, L*=15, D=20 -> ceil((30-15)/(20-15)) = 3 processors each.
    assert clusters[0].size == 3
    assert clusters[1].size == 3
    # Higher-priority task gets the first processors.
    assert clusters[0].processors == [0, 1, 2]


def test_minimal_federated_clusters_insufficient_processors():
    tasks = [heavy_task(i, priority=10 - i) for i in range(4)]
    taskset = TaskSet(tasks)
    assert minimal_federated_clusters(taskset, Platform(4)) is None
