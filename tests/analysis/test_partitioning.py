"""Tests for the task/resource partitioning stage (Sec. V, Algorithms 1-2)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dpcp_p.partition import (
    partition_and_analyze,
    wfd_assign_resources,
)
from repro.analysis.dpcp_p.wcrt import analyze_taskset
from repro.analysis.interfaces import SchedulabilityResult
from repro.analysis.paths import PathEnumerator
from repro.generation import (
    DagGenerationConfig,
    GenerationError,
    ResourceGenerationConfig,
    TaskSetGenerationConfig,
    generate_taskset,
)
from repro.model.dag import DAG
from repro.obs import telemetry
from repro.model.platform import (
    Cluster,
    PartitionedSystem,
    Platform,
    minimal_federated_clusters,
)
from repro.model.resources import ResourceUsage
from repro.model.task import DAGTask, TaskSet, Vertex


def parallel_task(task_id, priority, wcet_per_vertex, vertices, period, requests=None):
    """A fork-join style task: `vertices` parallel vertices, no edges."""
    requests = requests or {}
    vertex_list = []
    for index in range(vertices):
        vertex_list.append(
            Vertex(index, wcet_per_vertex, requests=dict(requests.get(index, {})))
        )
    usages = {}
    for vertex_requests in requests.values():
        for rid, count in vertex_requests.items():
            usages[rid] = usages.get(rid, 0) + count
    usage_list = [ResourceUsage(rid, count, 1.0) for rid, count in usages.items()]
    return DAGTask(
        task_id=task_id,
        vertices=vertex_list,
        dag=DAG(vertices),
        period=period,
        resource_usages=usage_list,
        priority=priority,
        name=f"T{task_id}",
    )


def build_sharing_taskset():
    """Two heavy tasks sharing two global resources with different utilizations."""
    task0 = parallel_task(
        0, priority=2, wcet_per_vertex=10.0, vertices=4, period=20.0,
        requests={0: {0: 4}, 1: {1: 1}},
    )
    task1 = parallel_task(
        1, priority=1, wcet_per_vertex=10.0, vertices=4, period=40.0,
        requests={0: {0: 2}, 1: {1: 1}},
    )
    return TaskSet([task0, task1])


# --------------------------------------------------------------------------- #
# Algorithm 2: WFD resource assignment
# --------------------------------------------------------------------------- #
def test_wfd_assigns_every_global_resource():
    taskset = build_sharing_taskset()
    clusters = minimal_federated_clusters(taskset, Platform(10))
    assert clusters is not None
    outcome = wfd_assign_resources(taskset, clusters)
    assert outcome.feasible
    assert set(outcome.assignment) == set(taskset.global_resources())
    all_processors = {p for c in clusters.values() for p in c.processors}
    assert set(outcome.assignment.values()) <= all_processors


def test_wfd_prefers_cluster_with_largest_slack():
    taskset = build_sharing_taskset()
    # Task 0 (U = 2.0) and task 1 (U = 1.0): give task 0 a tight cluster and
    # task 1 a generous one; both resources should land on task 1's cluster.
    clusters = {0: Cluster(0, [0, 1]), 1: Cluster(1, [2, 3, 4])}
    outcome = wfd_assign_resources(taskset, clusters)
    assert outcome.feasible
    assert set(outcome.assignment.values()) <= {2, 3, 4}


def test_wfd_spreads_resources_across_processors():
    taskset = build_sharing_taskset()
    clusters = {0: Cluster(0, [0, 1]), 1: Cluster(1, [2, 3, 4])}
    outcome = wfd_assign_resources(taskset, clusters)
    # The two resources go to different processors of the chosen cluster
    # (worst-fit among processors).
    assert len(set(outcome.assignment.values())) == 2


def test_wfd_highest_utilization_resource_first():
    taskset = build_sharing_taskset()
    # Resource 0 has the higher utilization (more requests).
    assert taskset.resource_utilization(0) > taskset.resource_utilization(1)
    clusters = {0: Cluster(0, [0, 1]), 1: Cluster(1, [2, 3, 4])}
    outcome = wfd_assign_resources(taskset, clusters)
    # It is assigned first, to the least-loaded processor (the smallest id of
    # the emptiest processors in the slackest cluster).
    assert outcome.assignment[0] == 2


def test_wfd_reports_infeasible_when_slack_exhausted():
    # Single-vertex heavy-ish tasks with almost no slack and an expensive
    # global resource.
    task0 = DAGTask(
        0,
        [Vertex(0, 9.0, requests={0: 5})],
        DAG(1),
        period=10.0,
        resource_usages=[ResourceUsage(0, 5, 1.0)],
        priority=2,
    )
    task1 = DAGTask(
        1,
        [Vertex(0, 9.0, requests={0: 5})],
        DAG(1),
        period=10.0,
        resource_usages=[ResourceUsage(0, 5, 1.0)],
        priority=1,
    )
    taskset = TaskSet([task0, task1])
    clusters = {0: Cluster(0, [0]), 1: Cluster(1, [1])}
    # Each cluster has slack 1 - 0.9 = 0.1 < resource utilization 1.0.
    outcome = wfd_assign_resources(taskset, clusters)
    assert not outcome.feasible
    assert outcome.assignment == {}
    assert "does not fit" in outcome.reason


# --------------------------------------------------------------------------- #
# Algorithm 1: iterative partitioning and analysis
# --------------------------------------------------------------------------- #
def test_partition_and_analyze_schedulable_system():
    taskset = build_sharing_taskset()
    result = partition_and_analyze(taskset, Platform(12), mode="EP")
    assert result.schedulable
    assert result.partition is not None
    # Every task got at least its minimal federated cluster.
    for task in taskset:
        assert result.partition.num_processors_of(task.task_id) >= task.minimum_processors()
        assert result.task_analyses[task.task_id].schedulable
    # Every global resource is placed.
    assert set(result.partition.resource_assignment) == set(taskset.global_resources())


def test_partition_and_analyze_unschedulable_when_too_few_processors():
    taskset = build_sharing_taskset()
    result = partition_and_analyze(taskset, Platform(2), mode="EP")
    assert not result.schedulable
    assert "minimal federated assignment" in result.reason


def test_partition_and_analyze_en_mode(small_taskset, platform16):
    result = partition_and_analyze(small_taskset, platform16, mode="EN")
    assert result.protocol == "DPCP-p-EN"
    for analysis in result.task_analyses.values():
        assert analysis.processors >= 1


def test_partition_and_analyze_rejects_unknown_mode(small_taskset, platform16):
    with pytest.raises(ValueError):
        partition_and_analyze(small_taskset, platform16, mode="XX")


def test_partition_uses_spare_processors_when_needed():
    """A task set that fails with minimal clusters but passes with top-up."""
    # One heavy task with a lot of parallel work: minimal assignment gives
    # ceil((40-10)/(20-10)) = 3 processors and a federated bound of 20 = D;
    # contention from the second task pushes it over, so a 4th processor is
    # required — Algorithm 1 should find that allocation on a large platform.
    task0 = parallel_task(
        0, priority=2, wcet_per_vertex=10.0, vertices=4, period=20.0,
        requests={0: {0: 2}},
    )
    task1 = parallel_task(
        1, priority=1, wcet_per_vertex=10.0, vertices=2, period=50.0,
        requests={0: {0: 2}},
    )
    taskset = TaskSet([task0, task1])
    small = partition_and_analyze(taskset, Platform(4), mode="EP")
    large = partition_and_analyze(taskset, Platform(12), mode="EP")
    assert not small.schedulable
    assert large.schedulable
    assert large.partition.num_processors_of(0) > taskset.task(0).minimum_processors()


# --------------------------------------------------------------------------- #
# Algorithm 1 stops each pass at the first deadline miss
# --------------------------------------------------------------------------- #
#: Contended small systems, so passes fail, processors get granted, and some
#: task sets end unschedulable with lower-priority tasks never analysed.
CONTENDED_CONFIG = TaskSetGenerationConfig(
    average_utilization=1.5,
    dag=DagGenerationConfig(num_vertices_range=(6, 16), edge_probability=0.2),
    resources=ResourceGenerationConfig(
        num_resources_range=(2, 5),
        access_probability=0.7,
        request_count_range=(1, 12),
        cs_length_range=(15.0, 60.0),
    ),
)


def _full_pass_algorithm1(taskset, platform, mode, engine):
    """Algorithm 1 as it ran before the early stop: every task, every pass."""
    name = f"DPCP-p-{mode}"
    clusters = minimal_federated_clusters(taskset, platform)
    if clusters is None:
        return SchedulabilityResult(
            schedulable=False,
            protocol=name,
            reason="not enough processors for the minimal federated assignment",
        )
    enumerator = PathEnumerator()
    while True:
        wfd = wfd_assign_resources(taskset, clusters)
        if not wfd.feasible:
            return SchedulabilityResult(
                schedulable=False,
                protocol=name,
                reason=f"WFD resource assignment infeasible: {wfd.reason}",
            )
        partition = PartitionedSystem(taskset, platform, clusters, wfd.assignment)
        analyses = analyze_taskset(
            taskset, partition, mode=mode, enumerator=enumerator, engine=engine
        )
        assert analyses.keys() == {task.task_id for task in taskset}
        failing = next(
            (
                task.task_id
                for task in taskset.by_priority(descending=True)
                if not analyses[task.task_id].schedulable
            ),
            None,
        )
        if failing is None:
            return SchedulabilityResult(
                schedulable=True, protocol=name, task_analyses=analyses,
                partition=partition,
            )
        unassigned = partition.unassigned_processors()
        if not unassigned:
            return SchedulabilityResult(
                schedulable=False, protocol=name, task_analyses=analyses,
                partition=partition,
                reason=(
                    f"task {failing} misses its deadline and no spare processor "
                    "is available"
                ),
            )
        clusters[failing].processors.append(unassigned[0])


def _partition_shape(result):
    partition = result.partition
    if partition is None:
        return None
    sizes = {
        task.task_id: partition.num_processors_of(task.task_id)
        for task in partition.taskset
    }
    return sizes, dict(partition.resource_assignment)


def assert_early_stop_matches_full_pass(taskset, platform, mode, engine):
    early = partition_and_analyze(taskset, platform, mode=mode, engine=engine)
    full = _full_pass_algorithm1(taskset, platform, mode, engine)
    assert early.schedulable == full.schedulable
    assert early.reason == full.reason
    assert _partition_shape(early) == _partition_shape(full)
    if early.schedulable:
        assert early.task_analyses == full.task_analyses
        return early
    order = [task.task_id for task in taskset.by_priority(descending=True)]
    prefix = list(early.task_analyses)
    assert prefix == order[: len(prefix)]
    for tid in prefix:
        assert early.task_analyses[tid] == full.task_analyses[tid]
    if prefix:
        # The prefix ends at the failing task, the first miss.
        *met, failing = (early.task_analyses[tid] for tid in prefix)
        assert not failing.schedulable
        assert all(analysis.schedulable for analysis in met)
        assert f"task {failing.task_id} misses" in early.reason
    return early


def _try_generate(utilization, seed):
    try:
        return generate_taskset(utilization, CONTENDED_CONFIG, rng=seed)
    except GenerationError:
        return None


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    utilization=st.sampled_from([2.0, 3.5, 5.0]),
    processors=st.sampled_from([4, 8, 12]),
    mode=st.sampled_from(["EP", "EN"]),
    engine=st.sampled_from(["kernel", "reference"]),
)
@settings(max_examples=60, deadline=None)
def test_property_early_stop_matches_full_pass(
    seed, utilization, processors, mode, engine
):
    taskset = _try_generate(utilization, seed)
    if taskset is None:
        return
    assert_early_stop_matches_full_pass(taskset, Platform(processors), mode, engine)


@pytest.mark.parametrize("mode", ["EP", "EN"])
def test_early_stop_is_exercised(mode):
    """The property above is vacuous unless some pass actually stops early
    and some accepted task set needed granted processors."""
    stopped_early = granted = False
    for utilization, seed in itertools.product((2.0, 5.0), range(20)):
        taskset = _try_generate(utilization, seed)
        if taskset is None:
            continue
        result = assert_early_stop_matches_full_pass(
            taskset, Platform(8), mode, "kernel"
        )
        if result.partition is not None and not result.schedulable:
            stopped_early |= 0 < len(result.task_analyses) < len(taskset)
        if result.schedulable:
            granted |= any(
                result.partition.num_processors_of(task.task_id)
                > task.minimum_processors()
                for task in taskset
            )
        if stopped_early and granted:
            return
    pytest.fail(
        f"stopped_early={stopped_early} granted={granted}; tighten CONTENDED_CONFIG"
    )


def test_analysis_tasks_counter_counts_reached_tasks():
    taskset = build_sharing_taskset()
    platform = Platform(12)
    clusters = minimal_federated_clusters(taskset, platform)
    wfd = wfd_assign_resources(taskset, clusters)
    partition = PartitionedSystem(taskset, platform, clusters, wfd.assignment)
    with telemetry.session() as tel:
        analyze_taskset(taskset, partition, mode="EN")
    assert tel.counters["analysis.tasks"] == len(taskset)

    for seed in range(20):
        taskset = _try_generate(5.0, seed)
        if taskset is None:
            continue
        with telemetry.session() as tel:
            result = partition_and_analyze(taskset, Platform(8), mode="EP")
        if result.partition is None or result.schedulable:
            continue
        passes = tel.counters["partition.wfd_passes"]
        analysed = tel.counters["analysis.tasks"]
        assert len(result.task_analyses) <= analysed
        if len(result.task_analyses) < len(taskset):
            assert analysed < passes * len(taskset)
            return
    pytest.fail("no seed stopped a pass early")
