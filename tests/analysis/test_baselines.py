"""Tests for the baseline analyses (FED-FP, SPIN, LPP) and their federated top-up loop."""

from __future__ import annotations

import math

import pytest

from repro.analysis.federated import federated_topup_analysis
from repro.analysis.fedfp import FedFpTest, federated_wcrt
from repro.analysis.lpp import (
    LppTest,
    higher_priority_request_workload,
    lowest_priority_blocking,
    lpp_wcrt,
    request_waiting_time,
)
from repro.analysis.spin import (
    SpinTest,
    inter_task_spin_delay,
    per_request_spin_delay,
    spin_wcrt,
)
from repro.generation import (
    DagGenerationConfig,
    GenerationError,
    ResourceGenerationConfig,
    TaskSetGenerationConfig,
    generate_taskset,
)
from repro.model.dag import DAG
from repro.model.platform import PartitionedSystem, Platform, minimal_federated_clusters
from repro.model.resources import ResourceUsage
from repro.model.task import DAGTask, TaskSet, Vertex


def fork_join_task(task_id, priority, vertices, wcet, period, resource=None, count=0, cs=1.0):
    """Independent parallel vertices; optionally the first vertex uses a resource."""
    requests = {0: {resource: count}} if resource is not None and count else {}
    vertex_list = [
        Vertex(i, wcet, requests=dict(requests.get(i, {}))) for i in range(vertices)
    ]
    usages = [ResourceUsage(resource, count, cs)] if resource is not None and count else []
    return DAGTask(
        task_id=task_id,
        vertices=vertex_list,
        dag=DAG(vertices),
        period=period,
        resource_usages=usages,
        priority=priority,
    )


def sharing_taskset(cs=1.0, count=2):
    task0 = fork_join_task(0, 2, vertices=3, wcet=10.0, period=20.0,
                           resource=0, count=count, cs=cs)
    task1 = fork_join_task(1, 1, vertices=3, wcet=10.0, period=40.0,
                           resource=0, count=count, cs=cs)
    return TaskSet([task0, task1])


def independent_taskset():
    task0 = fork_join_task(0, 2, vertices=3, wcet=10.0, period=20.0)
    task1 = fork_join_task(1, 1, vertices=3, wcet=10.0, period=40.0)
    return TaskSet([task0, task1])


# --------------------------------------------------------------------------- #
# FED-FP
# --------------------------------------------------------------------------- #
def test_federated_wcrt_formula():
    task = fork_join_task(0, 1, vertices=3, wcet=10.0, period=20.0)
    # L* = 10, C = 30: with 2 processors -> 10 + 20/2 = 20.
    assert federated_wcrt(task, 2) == pytest.approx(20.0)
    assert federated_wcrt(task, 3) == pytest.approx(10.0 + 20.0 / 3)
    assert math.isinf(federated_wcrt(task, 0))


def test_fedfp_minimal_assignment_is_schedulable():
    taskset = independent_taskset()
    result = FedFpTest().test(taskset, Platform(8))
    assert result.schedulable
    for task in taskset:
        analysis = result.task_analyses[task.task_id]
        assert analysis.wcrt <= task.deadline + 1e-9
        assert analysis.processors == task.minimum_processors()


def test_fedfp_unschedulable_when_platform_too_small():
    taskset = independent_taskset()
    result = FedFpTest().test(taskset, Platform(2))
    assert not result.schedulable


def test_fedfp_ignores_resources():
    with_resources = sharing_taskset(cs=3.0, count=3)
    without = independent_taskset()
    platform = Platform(8)
    assert FedFpTest().test(with_resources, platform).schedulable == \
        FedFpTest().test(without, platform).schedulable


# --------------------------------------------------------------------------- #
# SPIN
# --------------------------------------------------------------------------- #
def test_spin_delay_components():
    taskset = sharing_taskset(cs=2.0, count=3)
    task0, task1 = taskset.task(0), taskset.task(1)
    # One critical section of the other task.
    assert inter_task_spin_delay(taskset, task0, 0) == pytest.approx(2.0)
    # Intra-task spinning: min(m-1, N-1) * L = min(1, 2) * 2 with 2 processors.
    assert per_request_spin_delay(taskset, task0, 0, cluster_size=2) == pytest.approx(4.0)
    assert per_request_spin_delay(taskset, task1, 0, cluster_size=3) == pytest.approx(6.0)


def test_spin_wcrt_reduces_to_federated_without_resources():
    taskset = independent_taskset()
    for task in taskset:
        wcrt = spin_wcrt(taskset, task, cluster_size=2, response_times={})
        assert wcrt == pytest.approx(federated_wcrt(task, 2))


def test_spin_wcrt_increases_with_contention():
    light = sharing_taskset(cs=0.5, count=1)
    heavy = sharing_taskset(cs=3.0, count=3)
    light_wcrt = spin_wcrt(light, light.task(0), 3, {})
    heavy_wcrt = spin_wcrt(heavy, heavy.task(0), 3, {})
    assert heavy_wcrt > light_wcrt
    assert light_wcrt >= federated_wcrt(light.task(0), 3)


def test_spin_schedulability_test_end_to_end():
    platform = Platform(8)
    assert SpinTest().test(sharing_taskset(cs=0.5, count=1), platform).schedulable
    # Long critical sections increase the bound but the test still reports.
    stressed = sharing_taskset(cs=3.0, count=3)
    result = SpinTest().test(stressed, platform)
    assert result.protocol == "SPIN"


# --------------------------------------------------------------------------- #
# LPP
# --------------------------------------------------------------------------- #
def test_lpp_blocking_components():
    taskset = sharing_taskset(cs=2.0, count=3)
    task0, task1 = taskset.task(0), taskset.task(1)
    # Task 0 (high priority) can be blocked by task 1's critical section.
    assert lowest_priority_blocking(taskset, task0, 0) == pytest.approx(2.0)
    assert lowest_priority_blocking(taskset, task1, 0) == pytest.approx(0.0)
    # Higher-priority demand on task 1 within 10 time units: eta_0 = 2 jobs,
    # each 3 requests of 2.
    assert higher_priority_request_workload(taskset, task1, 0, 10.0, {}) == pytest.approx(12.0)
    assert higher_priority_request_workload(taskset, task0, 0, 10.0, {}) == pytest.approx(0.0)


def test_lpp_request_waiting_time_high_priority_task():
    taskset = sharing_taskset(cs=2.0, count=3)
    task0 = taskset.task(0)
    # w = own CS (2) + lower (2) + own concurrent (2*2) + higher (0) = 8.
    assert request_waiting_time(taskset, task0, 0, {}, 100.0) == pytest.approx(8.0)


def test_lpp_wcrt_reduces_to_federated_without_resources():
    taskset = independent_taskset()
    for task in taskset:
        wcrt = lpp_wcrt(taskset, task, cluster_size=2, response_times={})
        assert wcrt == pytest.approx(federated_wcrt(task, 2))


def test_lpp_wcrt_increases_with_contention():
    light = sharing_taskset(cs=0.5, count=1)
    heavy = sharing_taskset(cs=3.0, count=3)
    assert lpp_wcrt(heavy, heavy.task(1), 2, {}) > lpp_wcrt(light, light.task(1), 2, {})


def test_lpp_schedulability_test_end_to_end():
    platform = Platform(8)
    result = LppTest().test(sharing_taskset(cs=0.5, count=1), platform)
    assert result.protocol == "LPP"
    assert result.schedulable


# --------------------------------------------------------------------------- #
# Cross-protocol sanity
# --------------------------------------------------------------------------- #
def test_resource_oblivious_bound_is_never_beaten(small_taskset, platform16):
    """FED-FP is an upper baseline: whenever any resource-aware protocol
    accepts a task set, FED-FP accepts it as well."""
    from repro.analysis import default_protocols

    fed = FedFpTest().test(small_taskset, platform16).schedulable
    for protocol in default_protocols():
        if protocol.name == "FED-FP":
            continue
        if protocol.test(small_taskset, platform16).schedulable:
            assert fed


# --------------------------------------------------------------------------- #
# Warm restart of the federated top-up loop vs a cold re-analysis oracle
# --------------------------------------------------------------------------- #
#: Heavy contention so the top-up loop actually grants processors (warm
#: restarts are exercised, not just the first pass).
CONTENDED_CONFIG = TaskSetGenerationConfig(
    average_utilization=1.5,
    dag=DagGenerationConfig(num_vertices_range=(6, 16), edge_probability=0.2),
    resources=ResourceGenerationConfig(
        num_resources_range=(2, 4),
        access_probability=0.8,
        request_count_range=(2, 12),
        cs_length_range=(25.0, 60.0),
    ),
)


def try_generate(utilization, config, seed):
    """A task set for ``seed``, or None when the draw is infeasible."""
    try:
        return generate_taskset(utilization, config, rng=seed)
    except GenerationError:
        return None


def _cold_topup_analysis(taskset, platform, wcrt_function, protocol_name):
    """The top-up loop without warm restarts: re-analyse every task per grant."""
    from repro.analysis.interfaces import SchedulabilityResult, TaskAnalysis

    clusters = minimal_federated_clusters(taskset, platform)
    if clusters is None:
        return SchedulabilityResult(
            schedulable=False, protocol=protocol_name, reason="no minimal assignment"
        )
    while True:
        partition = PartitionedSystem(taskset, platform, clusters, {})
        analyses, response_times, failing = {}, {}, None
        for task in taskset.by_priority(descending=True):
            cluster_size = clusters[task.task_id].size
            wcrt = wcrt_function(taskset, task, cluster_size, response_times)
            analyses[task.task_id] = TaskAnalysis(
                task_id=task.task_id,
                wcrt=wcrt,
                deadline=task.deadline,
                processors=cluster_size,
            )
            response_times[task.task_id] = min(wcrt, task.deadline)
            if math.isinf(wcrt) or wcrt > task.deadline + 1e-9:
                failing = task.task_id
                break
        if failing is None:
            return SchedulabilityResult(
                schedulable=True,
                protocol=protocol_name,
                task_analyses=analyses,
                partition=partition,
            )
        unassigned = partition.unassigned_processors()
        if not unassigned:
            return SchedulabilityResult(
                schedulable=False,
                protocol=protocol_name,
                task_analyses=analyses,
                partition=partition,
                reason="out of processors",
            )
        clusters[failing].processors.append(unassigned[0])


@pytest.mark.parametrize("seed", [0, 5, 11, 17, 23, 31])
@pytest.mark.parametrize(
    "wcrt_function", [spin_wcrt, lpp_wcrt], ids=["spin", "lpp"]
)
def test_warm_restart_matches_cold_reanalysis(seed, wcrt_function):
    taskset = try_generate(6.0, CONTENDED_CONFIG, seed)
    if taskset is None:
        pytest.skip("seed does not produce a feasible task set")
    platform = Platform(16)
    warm = federated_topup_analysis(taskset, platform, wcrt_function, "X")
    cold = _cold_topup_analysis(taskset, platform, wcrt_function, "X")
    assert warm.schedulable == cold.schedulable
    assert warm.task_analyses.keys() == cold.task_analyses.keys()
    for tid, a in warm.task_analyses.items():
        b = cold.task_analyses[tid]
        assert a.processors == b.processors
        assert (a.wcrt == b.wcrt) or (math.isinf(a.wcrt) and math.isinf(b.wcrt))


@pytest.mark.parametrize("factory", [SpinTest, LppTest], ids=["SPIN", "LPP"])
def test_topup_actually_grants_processors(factory):
    """The warm-restart tests above are vacuous unless some seed tops up."""
    platform = Platform(16)
    for seed in range(40):
        taskset = try_generate(6.0, CONTENDED_CONFIG, seed)
        if taskset is None:
            continue
        result = factory().test(taskset, platform)
        minimal = {
            t.task_id: t.minimum_processors() for t in taskset
        }
        if any(
            analysis.processors > minimal[tid]
            for tid, analysis in result.task_analyses.items()
        ):
            return
    pytest.fail("no seed exercised the top-up path; tighten CONTENDED_CONFIG")
