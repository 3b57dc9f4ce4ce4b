"""Hand-checked tests for the DPCP-p blocking and interference bounds (Sec. IV).

The fixture system is small enough that every lemma can be evaluated by hand:

* task A (id 0, priority 2): vertices v0 (WCET 4, two requests to the global
  resource 0, L=1), v1 (WCET 3, one request to the local resource 1, L=2),
  v2 (WCET 3); edges v0→v2, v1→v2; T = D = 100.
* task B (id 1, priority 1): vertices v0 (WCET 5, one request to resource 0,
  L=2), v1 (WCET 5); edge v0→v1; T = D = 200.
* clusters: A owns processors {0, 1}, B owns {2, 3}; the global resource 0 is
  hosted on processor 0 (inside A's cluster).
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.dpcp_p.blocking import (
    inter_task_blocking,
    intra_task_blocking,
    request_response_time,
)
from repro.analysis.dpcp_p.context import DpcpPContext
from repro.analysis.dpcp_p.interference import (
    agent_interference,
    intra_task_interference,
    intra_task_interference_en,
    vertex_non_critical_wcet,
)
from repro.analysis.dpcp_p.kernel import DpcpPKernel
from repro.analysis.dpcp_p.wcrt import path_wcrt, task_wcrt_en, task_wcrt_ep
from repro.analysis.paths import PathEnumerator
from repro.model.dag import DAG
from repro.model.platform import Cluster, PartitionedSystem, Platform
from repro.model.resources import ResourceUsage
from repro.model.task import DAGTask, TaskSet, Vertex

GLOBAL = 0
LOCAL = 1


def build_system():
    task_a = DAGTask(
        task_id=0,
        vertices=[
            Vertex(0, 4.0, requests={GLOBAL: 2}),
            Vertex(1, 3.0, requests={LOCAL: 1}),
            Vertex(2, 3.0),
        ],
        dag=DAG(3, [(0, 2), (1, 2)]),
        period=100.0,
        resource_usages=[
            ResourceUsage(GLOBAL, 2, 1.0),
            ResourceUsage(LOCAL, 1, 2.0),
        ],
        priority=2,
        name="A",
    )
    task_b = DAGTask(
        task_id=1,
        vertices=[
            Vertex(0, 5.0, requests={GLOBAL: 1}),
            Vertex(1, 5.0),
        ],
        dag=DAG(2, [(0, 1)]),
        period=200.0,
        resource_usages=[ResourceUsage(GLOBAL, 1, 2.0)],
        priority=1,
        name="B",
    )
    taskset = TaskSet([task_a, task_b])
    platform = Platform(6)
    clusters = {0: Cluster(0, [0, 1]), 1: Cluster(1, [2, 3])}
    partition = PartitionedSystem(taskset, platform, clusters, {GLOBAL: 0})
    return taskset, partition


@pytest.fixture
def system():
    return build_system()


@pytest.fixture
def ctx(system):
    taskset, partition = system
    return DpcpPContext(taskset, partition)


# --------------------------------------------------------------------------- #
# Context quantities
# --------------------------------------------------------------------------- #
def test_resource_classification(system):
    taskset, _ = system
    assert taskset.global_resources() == [GLOBAL]
    assert taskset.local_resources() == [LOCAL]
    assert taskset.resource_ceiling(GLOBAL) == 2


def test_eta_uses_deadline_when_response_unknown(ctx, system):
    taskset, _ = system
    task_b = taskset.task(1)
    # eta_B(L) = ceil((L + R_B) / T_B) with R_B = D_B = 200.
    assert ctx.eta(task_b, 0.0) == 1
    assert ctx.eta(task_b, 10.0) == 2
    ctx.response_times[1] = 20.0
    assert ctx.eta(task_b, 10.0) == 1


def test_beta_lower_priority_ceiling_blocking(ctx, system):
    taskset, _ = system
    task_a, task_b = taskset.task(0), taskset.task(1)
    # A can be blocked by B's critical section on the co-located resource 0.
    assert ctx.beta(task_a, GLOBAL) == pytest.approx(2.0)
    # B has no lower-priority task.
    assert ctx.beta(task_b, GLOBAL) == pytest.approx(0.0)


def test_gamma_counts_only_higher_priority_requests(ctx, system):
    taskset, _ = system
    task_a, task_b = taskset.task(0), taskset.task(1)
    assert ctx.gamma(task_a, GLOBAL, 50.0) == pytest.approx(0.0)
    # For B, A is higher priority: eta_A(10) = ceil((10+100)/100) = 2 jobs,
    # each with 2 requests of length 1.
    assert ctx.gamma(task_b, GLOBAL, 10.0) == pytest.approx(4.0)


def test_cluster_and_placement_queries(ctx):
    assert ctx.cluster_size(ctx.taskset.task(0)) == 2
    assert ctx.resources_on_processor(0) == [GLOBAL]
    assert ctx.resources_on_processor(2) == []
    assert ctx.resources_on_cluster(ctx.taskset.task(0)) == [GLOBAL]
    assert ctx.resources_on_cluster(ctx.taskset.task(1)) == []


# --------------------------------------------------------------------------- #
# Lemma 2: request response time
# --------------------------------------------------------------------------- #
def test_request_response_time_task_a(ctx, system):
    taskset, _ = system
    task_a = taskset.task(0)
    # Both requests on the path: W = L + 0 + beta + gamma = 1 + 2 = 3.
    assert request_response_time(ctx, task_a, GLOBAL, {GLOBAL: 2}) == pytest.approx(3.0)
    # One request off the path adds its critical section to the window.
    assert request_response_time(ctx, task_a, GLOBAL, {GLOBAL: 1}) == pytest.approx(4.0)


def test_request_response_time_task_b(ctx, system):
    taskset, _ = system
    task_b = taskset.task(1)
    # W = 2 + gamma(W); gamma counts two jobs of A -> 4; W = 6 is a fixed point.
    assert request_response_time(ctx, task_b, GLOBAL, {GLOBAL: 1}) == pytest.approx(6.0)


def test_request_response_time_divergence_gives_inf(ctx, system):
    taskset, _ = system
    task_b = taskset.task(1)
    # An artificially tiny divergence bound forces the "no bound" outcome.
    result = request_response_time(ctx, task_b, GLOBAL, {GLOBAL: 1}, divergence_bound=1.0)
    assert math.isinf(result)


# --------------------------------------------------------------------------- #
# Lemma 3: inter-task blocking
# --------------------------------------------------------------------------- #
def test_inter_task_blocking_min_of_demand_and_supply(ctx, system):
    taskset, _ = system
    task_a = taskset.task(0)
    # epsilon = 2 requests * (beta 2 + gamma 0) = 4;
    # zeta(50) = eta_B(50) * 1 * 2 = 2 * 2 = 4  -> min = 4.
    assert inter_task_blocking(ctx, task_a, {GLOBAL: 2}, 50.0) == pytest.approx(4.0)
    # With a small window, only one job of B fits: zeta = 2 < epsilon.
    ctx.response_times[1] = 0.0
    assert inter_task_blocking(ctx, task_a, {GLOBAL: 2}, 50.0) == pytest.approx(2.0)


def test_inter_task_blocking_zero_without_path_requests(ctx, system):
    taskset, _ = system
    task_a = taskset.task(0)
    assert inter_task_blocking(ctx, task_a, {}, 50.0) == pytest.approx(0.0)


# --------------------------------------------------------------------------- #
# Lemma 4: intra-task blocking
# --------------------------------------------------------------------------- #
def test_intra_task_blocking_full_path(ctx, system):
    taskset, _ = system
    task_a = taskset.task(0)
    # Path holds every request: nothing can block it from inside the task.
    assert intra_task_blocking(ctx, task_a, {GLOBAL: 2, LOCAL: 1}) == pytest.approx(0.0)


def test_intra_task_blocking_partial_path(ctx, system):
    taskset, _ = system
    task_a = taskset.task(0)
    # Path requests the global resource once; the other global request (off
    # path) can block it on processor 0.  The local resource is not requested
    # by the path, so it contributes nothing.
    assert intra_task_blocking(ctx, task_a, {GLOBAL: 1}) == pytest.approx(1.0)


def test_intra_task_blocking_local_resource(ctx, system):
    taskset, _ = system
    task_a = taskset.task(0)
    # A hypothetical path requesting the local resource but not the global one
    # incurs no local blocking (all local requests are on the path) and no
    # global blocking (sigma = 0).
    assert intra_task_blocking(ctx, task_a, {LOCAL: 1}) == pytest.approx(0.0)


# --------------------------------------------------------------------------- #
# Lemmas 5-6: interference
# --------------------------------------------------------------------------- #
def test_vertex_non_critical_wcet(system):
    taskset, _ = system
    task_a = taskset.task(0)
    assert vertex_non_critical_wcet(task_a, 0) == pytest.approx(2.0)
    assert vertex_non_critical_wcet(task_a, 1) == pytest.approx(1.0)
    assert vertex_non_critical_wcet(task_a, 2) == pytest.approx(3.0)


def test_intra_task_interference_concrete_path(ctx, system):
    taskset, _ = system
    task_a = taskset.task(0)
    profile = task_a.path_profile([0, 2])
    # Off-path vertex 1 contributes its non-critical WCET (1) plus its local
    # critical section (2).
    assert intra_task_interference(ctx, task_a, profile) == pytest.approx(3.0)


def test_intra_task_interference_en_bound_dominates(ctx, system):
    taskset, _ = system
    task_a = taskset.task(0)
    en_bound = intra_task_interference_en(task_a)
    assert en_bound == pytest.approx(task_a.wcet - task_a.critical_path_length)
    for vertices in task_a.dag.iter_complete_paths():
        profile = task_a.path_profile(vertices)
        ep_value = intra_task_interference(ctx, task_a, profile)
        # The EN bound plus the path-length gap dominates the EP value.
        assert ep_value <= en_bound + (task_a.critical_path_length - profile.length) + 1e-9


def test_agent_interference(ctx, system):
    taskset, _ = system
    task_a, task_b = taskset.task(0), taskset.task(1)
    # Resource 0 lives in A's cluster: two jobs of B can execute there.
    assert agent_interference(ctx, task_a, {GLOBAL: 2}, 50.0) == pytest.approx(4.0)
    # With an off-path request of A itself, its agent work is added too.
    assert agent_interference(ctx, task_a, {GLOBAL: 1}, 50.0) == pytest.approx(5.0)
    # B's cluster hosts no global resource.
    assert agent_interference(ctx, task_b, {GLOBAL: 1}, 50.0) == pytest.approx(0.0)


# --------------------------------------------------------------------------- #
# Theorem 1 / Eq. (1)
# --------------------------------------------------------------------------- #
def engine_arms(ctx, system):
    """``(path bound, EP bound)`` of the reference functions and of the kernel."""
    kernel = DpcpPKernel(*system)
    return {
        "reference": (
            lambda task, profile: path_wcrt(ctx, task, profile),
            lambda task, enumerator: task_wcrt_ep(ctx, task, enumerator),
        ),
        "kernel": (
            kernel.path_wcrt,
            lambda task, enumerator: kernel.task_wcrt_ep(
                task, enumerator.enumerate(task)
            ),
        ),
    }


def test_path_wcrt_hand_computed(ctx, system):
    taskset, _ = system
    task_a = taskset.task(0)
    profile = task_a.path_profile([0, 2])
    # r = 7 + B + 0 + (3 + I_A)/2 with B = 4 and I_A = 4 at the fixed point.
    for arm, (path_bound, _ep_bound) in engine_arms(ctx, system).items():
        assert path_bound(task_a, profile) == pytest.approx(14.5), arm


def test_task_wcrt_ep_takes_worst_path(ctx, system):
    taskset, _ = system
    task_a = taskset.task(0)
    for arm, (path_bound, ep_bound) in engine_arms(ctx, system).items():
        wcrt = ep_bound(task_a, PathEnumerator())
        per_path = [
            path_bound(task_a, task_a.path_profile(vertices))
            for vertices in task_a.dag.iter_complete_paths()
        ]
        assert wcrt == pytest.approx(max(per_path)), arm


def test_en_bound_not_tighter_than_ep(ctx, system):
    taskset, _ = system
    enumerator = PathEnumerator()
    for task in taskset:
        ep = task_wcrt_ep(ctx, task, enumerator)
        en = task_wcrt_en(ctx, task)
        assert en >= ep - 1e-9


def test_en_bound_not_tighter_than_ep_generated(small_taskset, platform16):
    """EN is never tighter than EP on randomly generated task sets."""
    from repro.analysis.dpcp_p.partition import wfd_assign_resources
    from repro.model.platform import minimal_federated_clusters

    clusters = minimal_federated_clusters(small_taskset, platform16)
    if clusters is None:
        pytest.skip("generated task set does not fit the platform")
    outcome = wfd_assign_resources(small_taskset, clusters)
    assert outcome.feasible
    partition = PartitionedSystem(
        small_taskset, platform16, clusters, outcome.assignment
    )
    ctx = DpcpPContext(small_taskset, partition)
    enumerator = PathEnumerator()
    for task in small_taskset:
        bound = task.deadline * 10
        ep = task_wcrt_ep(ctx, task, enumerator, divergence_bound=bound)
        en = task_wcrt_en(ctx, task, divergence_bound=bound)
        if math.isinf(en):
            continue
        assert en >= ep - 1e-6
