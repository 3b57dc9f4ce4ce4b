"""Array-native EP enumeration: integer-coded signature DP and its consumers.

The signature DP emits ``(lengths, counts, onpath_noncrit)`` arrays keyed by
integer request codes instead of representative vertex tuples.  These tests
pin that the arrays are exactly the walk's signature multiset, that the cap
semantics are those of the tuple-keyed DP it replaced (a golden recorded
with that DP), that wide request codes decode without int64 overflow, and
that the DPCP-p kernel assembles a task's partition-independent EP columns
once across Algorithm 1's retries.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import paths
from repro.analysis.dpcp_p import (
    DpcpPEpTest,
    path_wcrt,
    task_wcrt_en,
    task_wcrt_ep,
)
from repro.analysis.dpcp_p.context import DpcpPContext
from repro.analysis.dpcp_p import kernel as kernel_module
from repro.analysis.dpcp_p.partition import wfd_assign_resources
from repro.analysis.paths import PathEnumerator, SignatureProfiles
from repro.generation import (
    DagGenerationConfig,
    GenerationError,
    ResourceGenerationConfig,
    TaskSetGenerationConfig,
    generate_taskset,
)
from repro.model import Platform
from repro.model.dag import DAG
from repro.model.platform import PartitionedSystem, minimal_federated_clusters
from repro.model.resources import ResourceUsage
from repro.model.task import DAGTask, TaskSet, Vertex
from repro.obs import telemetry
from repro.obs.profile import ComputeProfile, render_profile

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "dp_cap_truncation.json")

BIG = 10**7


# --- golden tasks begin
def _task(wcets, edges, requests=None, cs=0.1):
    """A task over ``DAG(len(wcets), edges)`` with per-vertex request dicts."""
    requests = requests or [{} for _ in wcets]
    vertices = [
        Vertex(i, w, requests=dict(r)) for i, (w, r) in enumerate(zip(wcets, requests))
    ]
    totals = {}
    for r in requests:
        for rid, count in r.items():
            totals[rid] = totals.get(rid, 0) + count
    usages = [ResourceUsage(rid, n, cs) for rid, n in sorted(totals.items())]
    return DAGTask(0, vertices, DAG(len(wcets), edges), period=1e6, resource_usages=usages)


def _diamond_chain(
    branch_a, branch_b, diamonds=7, joint=1.0, sink=1.0, requests_a=None, requests_b=None
):
    """``diamonds`` diamonds in series (2**diamonds complete paths)."""
    n = 3 * diamonds + 1
    edges, wcets, requests = [], [], []
    for d in range(diamonds):
        base = 3 * d
        edges += [
            (base, base + 1), (base, base + 2), (base + 1, base + 3), (base + 2, base + 3)
        ]
    for i in range(n):
        d, role = divmod(i, 3)
        if i == n - 1:
            wcets.append(sink)
            requests.append({})
        elif role == 0:
            wcets.append(joint)
            requests.append({})
        elif role == 1:
            wcets.append(branch_a(d))
            requests.append(requests_a(d) if requests_a else {})
        else:
            wcets.append(branch_b(d))
            requests.append(requests_b(d) if requests_b else {})
    return _task(wcets, edges, requests)


def golden_tasks():
    """``(name, task)`` pairs whose DP truncation behaviour the golden pins."""
    tasks = []
    config = TaskSetGenerationConfig(
        average_utilization=1.5,
        dag=DagGenerationConfig(num_vertices_range=(20, 36), edge_probability=0.12),
        resources=ResourceGenerationConfig(
            num_resources_range=(3, 6),
            access_probability=0.6,
            request_count_range=(1, 6),
            cs_length_range=(5.0, 20.0),
        ),
    )
    for seed in range(6):
        try:
            taskset = generate_taskset(4.0, config, rng=seed)
        except GenerationError:
            continue
        for task in taskset:
            if task.dag.count_complete_paths(limit=10**6) > 64:
                tasks.append((f"generated-{seed}-{task.task_id}", task))
    # Branch lengths collide across diamonds: 128 paths, 64 signatures.
    tasks.append((
        "distinct-lengths",
        _diamond_chain(lambda d: 1.0 + 0.01 * d, lambda d: 1.0 + 0.001 * (d + 1)),
    ))
    # Equal lengths: only the request vectors tell paths apart (8 signatures).
    tasks.append((
        "requests-only",
        _diamond_chain(
            lambda d: 1.0, lambda d: 1.0,
            requests_a=lambda d: {0: 1}, requests_b=lambda d: {1: 1},
        ),
    ))
    # Rounding straddle: the first diamond's branches differ by 2e-10 on
    # either side of a 9th-decimal boundary, so the vertices after it hold
    # two rounded lengths per request vector; the sink's 3e-10 moves both
    # into one rounded bucket, so the complete signatures collapse to 7
    # while a cap of 12 is needed to get through the DP.
    tasks.append((
        "rounding-straddle",
        _diamond_chain(
            lambda d: 0.4000000004 if d == 0 else 1.0,
            lambda d: 0.4000000006 if d == 0 else 1.0,
            sink=1.0000000003,
            requests_a=lambda d: {0: 1} if d else {},
            requests_b=lambda d: {1: 1} if d else {},
        ),
    ))
    return tasks
# --- golden tasks end


def _signature_keys(result):
    """Sorted ``(rounded length, request tuple)`` keys of a result's rows."""
    rids = result.resource_ids
    return sorted(
        (round(float(length), 9), tuple((r, int(c)) for r, c in zip(rids, row) if c))
        for length, row in zip(result.lengths, result.counts)
    )


# --------------------------------------------------------------------------- #
# Random DAGs with requests
# --------------------------------------------------------------------------- #
@st.composite
def dag_tasks(draw):
    """Random DAG tasks with colliding WCETs and per-vertex requests."""
    n = draw(st.integers(min_value=2, max_value=12))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.integers(min_value=0, max_value=9)) < 4
    ]
    wcets = [draw(st.sampled_from([2.0, 2.5, 3.0, 3.25, 4.0])) for _ in range(n)]
    requests = [
        {
            rid: count
            for rid in range(4)
            for count in [draw(st.integers(min_value=0, max_value=2))]
            if count
        }
        for _ in range(n)
    ]
    return _task(wcets, edges, requests, cs=0.2)


@settings(max_examples=80, deadline=None)
@given(task=dag_tasks())
def test_property_dp_arrays_equal_walk_signature_multiset(task):
    enumerator = PathEnumerator()
    dp, walk = enumerator.enumerate(task), enumerator.walk(task)
    assert dp.exhaustive and walk.exhaustive
    assert dp.total_paths_seen == walk.total_paths_seen
    assert dp.resource_ids == walk.resource_ids
    assert dp.counts.dtype == np.int64
    assert dp.counts.shape == (len(dp.lengths), len(dp.resource_ids))
    assert len(dp.profiles) == len(dp.lengths) == len(walk.profiles)
    assert _signature_keys(dp) == _signature_keys(walk)
    assert _signature_keys(walk) == sorted(p.signature() for p in walk.profiles)
    # Longest signature first, in both.
    for result in (dp, walk):
        assert result.lengths[0] == result.lengths.max()
        assert result.lengths[0] == pytest.approx(task.critical_path_length)


@settings(max_examples=80, deadline=None)
@given(task=dag_tasks())
def test_property_onpath_noncrit_matches_walk_representatives(task):
    enumerator = PathEnumerator()
    dp, walk = enumerator.enumerate(task), enumerator.walk(task)
    noncrit = task.vertex_non_critical_wcets()
    by_signature = {p.signature(): p for p in walk.profiles}
    for row, profile in enumerate(dp.profiles):
        representative = by_signature[profile.signature()]
        expected = sum(noncrit[v] for v in representative.vertices)
        assert abs(dp.onpath_noncrit[row] - expected) <= 1e-9
    # The walk's own arrays sum its profiles' vertices.
    for row, profile in enumerate(walk.profiles):
        expected = sum(noncrit[v] for v in profile.vertices)
        assert abs(walk.onpath_noncrit[row] - expected) <= 1e-9
        assert walk.lengths[row] == profile.length


# --------------------------------------------------------------------------- #
# Cap semantics: golden recorded with the tuple-keyed DP
# --------------------------------------------------------------------------- #
def test_dp_truncates_exactly_where_the_tuple_keyed_dp_did():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    tasks = dict(golden_tasks())
    assert sorted(tasks) == sorted(golden)
    for name, record in golden.items():
        task = tasks[name]
        full = PathEnumerator(max_signatures=BIG, max_paths=BIG).enumerate(task)
        assert len(full.profiles) == record["signatures"], name
        for cap, (exhaustive, kept, seen) in record["caps"].items():
            result = PathEnumerator(max_signatures=int(cap), max_paths=BIG).enumerate(task)
            assert (result.exhaustive, len(result.profiles), result.total_paths_seen) == (
                exhaustive, kept, seen,
            ), (name, cap)


def test_golden_covers_caps_below_at_and_above_the_signature_count():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    straddle = golden["rounding-straddle"]
    # A per-vertex set larger than the complete signature set trips the cap
    # mid-DP even at caps the complete set would fit.
    assert straddle["min_exhaustive_cap"] > straddle["signatures"]
    for record in golden.values():
        caps = {int(cap) for cap in record["caps"]}
        P = record["signatures"]
        assert {P - 1, P, P + 1} - {0} <= caps


def test_reference_engine_takes_truncation_from_the_enumeration():
    """The oracle follows the DP's cap trip even where the walk would not trip."""
    task = dict(golden_tasks())["rounding-straddle"]
    enumerator = PathEnumerator(max_signatures=11, max_paths=BIG)
    assert not enumerator.enumerate(task).exhaustive
    assert enumerator.walk(task).exhaustive
    taskset = TaskSet([task])
    platform = Platform(4)
    clusters = minimal_federated_clusters(taskset, platform)
    partition = PartitionedSystem(
        taskset, platform, clusters, wfd_assign_resources(taskset, clusters).assignment
    )
    kernel = kernel_module.DpcpPKernel(taskset, partition).task_wcrt_ep(
        task, enumerator.enumerate(task)
    )
    ctx = DpcpPContext(taskset, partition)
    reference = task_wcrt_ep(ctx, task, enumerator)
    en = task_wcrt_en(ctx, task)
    assert kernel == pytest.approx(reference, rel=1e-9) == pytest.approx(en, rel=1e-9)
    # The walk's own EP bound is tighter, so following it would disagree.
    walk_ep = max(
        path_wcrt(ctx, task, profile) for profile in enumerator.walk(task).profiles
    )
    assert walk_ep < en
    assert enumerator.walk(task) is enumerator.walk(task)  # cached


# --------------------------------------------------------------------------- #
# Wide request codes
# --------------------------------------------------------------------------- #
def test_wide_request_codes_decode_without_int64_overflow():
    """10 resources x ~1000 requests: request codes need ~100 bits."""
    resources = 10

    def heavy(d):
        return {rid: 70 + 3 * d + rid for rid in range(resources) if (rid + d) % 2 == 0}

    def light(d):
        return {rid: 1 + d for rid in range(resources) if (rid + d) % 2 == 1}

    task = _diamond_chain(
        lambda d: 400.0 + d, lambda d: 390.0 + 2 * d,
        requests_a=heavy, requests_b=light, diamonds=7,
    )
    resource_ids, totals = paths._requested_resources(task)
    shifts, _masks, bits = paths._code_layout(totals)
    assert bits > 63
    enumerator = PathEnumerator()
    dp, walk = enumerator.enumerate(task), enumerator.walk(task)
    assert dp.exhaustive and isinstance(dp.profiles, SignatureProfiles)
    assert _signature_keys(dp) == _signature_keys(walk)
    codes = [
        sum(int(c) << shift for c, shift in zip(row, shifts)) for row in dp.counts
    ]
    assert max(codes) >= 2**63
    assert (dp.counts >= 0).all()


# --------------------------------------------------------------------------- #
# Lazy profiles
# --------------------------------------------------------------------------- #
def test_lazy_profiles_view_the_arrays():
    task = _diamond_chain(
        lambda d: 1.0 + 0.01 * d, lambda d: 1.0,
        requests_a=lambda d: {0: 1}, requests_b=lambda d: {},
    )
    result = PathEnumerator().enumerate(task)
    view = result.profiles
    assert isinstance(view, SignatureProfiles)
    P = len(result.lengths)
    assert len(view) == P
    first, last = view[0], view[-1]
    assert first.vertices == () and first.length == float(result.lengths[0])
    assert first.requests == {
        rid: int(c) for rid, c in zip(result.resource_ids, result.counts[0]) if c
    }
    assert last.length == float(result.lengths[P - 1])
    assert [p.length for p in view[1:4]] == [float(x) for x in result.lengths[1:4]]
    assert sum(1 for _ in view) == P
    with pytest.raises(IndexError):
        view[P]
    with pytest.raises(IndexError):
        view[-P - 1]


# --------------------------------------------------------------------------- #
# Kernel: partition-independent columns assembled once per task
# --------------------------------------------------------------------------- #
RETRY_CONFIG = TaskSetGenerationConfig(
    average_utilization=1.5,
    dag=DagGenerationConfig(num_vertices_range=(20, 40), edge_probability=0.1),
    resources=ResourceGenerationConfig(
        num_resources_range=(4, 8),
        access_probability=0.5,
        request_count_range=(1, 20),
        cs_length_range=(20.0, 60.0),
    ),
)


@pytest.fixture(scope="module")
def retrying():
    """A task set whose DPCP-p-EP test runs several Algorithm 1 passes."""
    platform = Platform(16)
    for seed in range(60):
        try:
            taskset = generate_taskset(6.0, RETRY_CONFIG, rng=seed)
        except GenerationError:
            continue
        with telemetry.session() as tel:
            DpcpPEpTest().test(taskset, platform)
        if tel.counters.get("partition.wfd_passes", 0) >= 3:
            return taskset, platform
    pytest.fail("no seed produced a task set with Algorithm 1 retries")


def test_ep_columns_are_assembled_once_across_algorithm1_retries(retrying, monkeypatch):
    taskset, platform = retrying
    builds = []
    ep_calls = []
    build = kernel_module._build_ep_columns
    task_wcrt_ep = kernel_module.DpcpPKernel.task_wcrt_ep

    def counting_build(static, enumeration):
        builds.append(enumeration)
        return build(static, enumeration)

    def counting_ep(self, task, enumeration, divergence_bound=None):
        ep_calls.append(task.task_id)
        return task_wcrt_ep(self, task, enumeration, divergence_bound)

    monkeypatch.setattr(kernel_module, "_build_ep_columns", counting_build)
    monkeypatch.setattr(kernel_module.DpcpPKernel, "task_wcrt_ep", counting_ep)
    with telemetry.session() as tel:
        DpcpPEpTest().test(taskset, platform)
    passes = tel.counters["partition.wfd_passes"]
    assert passes >= 3
    assert len(set(ep_calls)) == len(builds)
    assert len(ep_calls) > len(builds)
    # One build per distinct (task, enumeration).
    assert len({id(enumeration) for enumeration in builds}) == len(builds)


def test_ep_columns_follow_the_enumeration_object(retrying):
    taskset, platform = retrying
    clusters = minimal_federated_clusters(taskset, platform)
    wfd = wfd_assign_resources(taskset, clusters)
    assert wfd.feasible
    partition = PartitionedSystem(taskset, platform, clusters, wfd.assignment)
    kernel = kernel_module.DpcpPKernel(taskset, partition)
    task = max(taskset, key=lambda t: t.dag.count_complete_paths(limit=10**6))
    first = PathEnumerator().enumerate(task)
    columns = kernel.ep_columns(task, first)
    assert kernel.ep_columns(task, first) is columns
    # A new enumeration of the task (a new enumerator, or a DAG mutation
    # invalidating the old one) gets its own columns.
    again = PathEnumerator().enumerate(task)
    assert again is not first
    assert kernel.ep_columns(task, again) is not columns
    assert kernel.task_wcrt_ep(task, again) == kernel.task_wcrt_ep(task, first)


# --------------------------------------------------------------------------- #
# Fidelity telemetry
# --------------------------------------------------------------------------- #
def test_fidelity_counters_and_profile_line():
    task = _diamond_chain(lambda d: 1.0 + 0.01 * d, lambda d: 1.0)
    with telemetry.session() as tel:
        exhaustive = PathEnumerator().enumerate(task)
        truncated = PathEnumerator(max_signatures=4).enumerate(task)
        PathEnumerator().walk(task)  # the oracle's walk is not counted
    assert exhaustive.exhaustive and not truncated.exhaustive
    counters = tel.counters
    assert counters["enumeration.cache.misses"] == 2
    assert counters["enumeration.signatures"] == len(exhaustive.lengths) + 1
    assert counters["enumeration.truncated"] == 1

    profile = ComputeProfile(store_directory="store")
    profile.telemetry = tel
    fidelity = profile.ep_fidelity()
    assert fidelity["degraded_percent"] == pytest.approx(50.0)
    assert "EP degraded to EN for 50.0% of tasks" in render_profile(profile)


def test_en_fallback_counted_per_truncated_ep_bound(retrying):
    taskset, platform = retrying
    with telemetry.session() as tel:
        DpcpPEpTest(max_path_signatures=1).test(taskset, platform)
    counters = tel.counters
    assert counters.get("enumeration.truncated", 0) >= 1
    assert counters.get("ep.en_fallback", 0) >= 1
