"""Array-native EP enumeration: the code-keyed DP and its consumers.

The DP emits ``(lengths, counts, onpath_noncrit)`` arrays with one row per
distinct integer request code instead of representative vertex tuples.
These tests pin that each row carries the per-code maxima over the raw
paths, that the kernel's EP bound is the maximum of the per-path bounds over
every raw path, that the signature cap trips exactly above the number of
distinct complete codes (also pinned by a golden), that wide request codes
decode without int64 overflow, and that the DPCP-p kernel assembles a task's
partition-independent EP columns once across Algorithm 1's retries.
"""

from __future__ import annotations

import json
import math
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
from repro.model.platform import Cluster, PartitionedSystem, minimal_federated_clusters
from repro.model.resources import ResourceUsage
from repro.model.task import DAGTask, TaskSet, Vertex
from repro.obs import telemetry
from repro.obs.profile import ComputeProfile, render_profile

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "dp_cap_truncation.json")

BIG = 10**7

#: Bound agreement, as in ``test_kernel_equivalence.py``.
TOLERANCE = 1e-9


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
    # No requests: 128 paths of 64 lengths share one code.
    tasks.append((
        "distinct-lengths",
        _diamond_chain(lambda d: 1.0 + 0.01 * d, lambda d: 1.0 + 0.001 * (d + 1)),
    ))
    # Equal lengths: only the request vectors tell paths apart (8 codes).
    tasks.append((
        "requests-only",
        _diamond_chain(
            lambda d: 1.0, lambda d: 1.0,
            requests_a=lambda d: {0: 1}, requests_b=lambda d: {1: 1},
        ),
    ))
    return tasks
# --- golden tasks end


def _raw_codes(task):
    """``request tuple -> [longest length, largest critical-section time]``.

    Computed path by path from :meth:`DAG.iter_complete_paths`, independent
    of the DP.
    """
    noncrit = task.vertex_non_critical_wcets()
    codes = {}
    for vertices in task.dag.iter_complete_paths():
        profile = task.path_profile(vertices)
        cs = sum(task.vertices[v].wcet - noncrit[v] for v in vertices)
        key = tuple(sorted(profile.requests.items()))
        best = codes.setdefault(key, [profile.length, cs])
        best[0] = max(best[0], profile.length)
        best[1] = max(best[1], cs)
    return codes


def _row_codes(result):
    """Request tuple of every row of ``result``, in row order."""
    rids = result.resource_ids
    return [
        tuple((r, int(c)) for r, c in zip(rids, row) if c) for row in result.counts
    ]


# --------------------------------------------------------------------------- #
# Random DAGs with requests
# --------------------------------------------------------------------------- #
@st.composite
def dag_tasks(draw, clamps=False):
    """Random DAG tasks with colliding WCETs and per-vertex requests.

    With ``clamps``, some requesting vertices get critical sections that
    exceed their WCET by at most 5e-11, so their non-critical WCET is
    clamped at zero and paths of one request code differ in critical time.
    """
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
    if clamps:
        for v, r in enumerate(requests):
            if r and draw(st.booleans()):
                excess = draw(st.floats(min_value=1e-12, max_value=5e-11))
                wcets[v] = 0.2 * sum(r.values()) - excess
    return _task(wcets, edges, requests, cs=0.2)


@settings(max_examples=80, deadline=None)
@given(task=dag_tasks(clamps=True))
def test_property_dp_rows_are_per_code_maxima(task):
    dp = PathEnumerator().enumerate(task)
    assert dp.exhaustive
    assert dp.total_paths_seen == task.dag.count_complete_paths(limit=BIG)
    assert dp.resource_ids == tuple(task.used_resources())
    assert dp.counts.dtype == np.int64
    assert dp.counts.shape == (len(dp.lengths), len(dp.resource_ids))
    raw = _raw_codes(task)
    row_codes = _row_codes(dp)
    assert len(dp.profiles) == len(row_codes) == len(set(row_codes)) == len(raw)
    # Exact: the DP sums WCETs and critical times in path order, as here.
    for row, code in enumerate(row_codes):
        longest, cs = raw[code]
        assert dp.lengths[row] == longest
        assert dp.onpath_noncrit[row] == longest - cs
    # Longest row first.
    assert dp.lengths[0] == dp.lengths.max()
    assert dp.lengths[0] == pytest.approx(task.critical_path_length)


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
# Cap semantics: exact at the distinct complete code count
# --------------------------------------------------------------------------- #
def _golden_record(task):
    """One golden entry: path and code counts, the cap outcomes around them."""
    full = PathEnumerator(max_signatures=BIG, max_paths=BIG).enumerate(task)
    P = len(full.profiles)
    caps = {}
    for cap in sorted({P - 1, P, P + 1} - {0}):
        result = PathEnumerator(max_signatures=cap, max_paths=BIG).enumerate(task)
        caps[str(cap)] = [result.exhaustive, len(result.profiles), result.total_paths_seen]
    min_cap = next(
        cap for cap in range(1, P + 1)
        if PathEnumerator(max_signatures=cap, max_paths=BIG).enumerate(task).exhaustive
    )
    return {
        "paths": full.total_paths_seen,
        "signatures": P,
        "codes": len(_raw_codes(task)),
        "min_exhaustive_cap": min_cap,
        "caps": caps,
    }


def test_dp_truncates_exactly_at_the_golden_caps():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    tasks = dict(golden_tasks())
    assert sorted(tasks) == sorted(golden)
    for name, record in golden.items():
        task = tasks[name]
        full = PathEnumerator(max_signatures=BIG, max_paths=BIG).enumerate(task)
        assert len(full.profiles) == record["signatures"], name
        assert full.total_paths_seen == record["paths"], name
        assert len(_raw_codes(task)) == record["codes"], name
        for cap, (exhaustive, kept, seen) in record["caps"].items():
            result = PathEnumerator(max_signatures=int(cap), max_paths=BIG).enumerate(task)
            assert (result.exhaustive, len(result.profiles), result.total_paths_seen) == (
                exhaustive, kept, seen,
            ), (name, cap)


def test_golden_covers_caps_below_at_and_above_the_signature_count():
    """Each golden task's smallest passing cap is its complete code count."""
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    for name, record in golden.items():
        P = record["signatures"]
        assert record["codes"] == P == record["min_exhaustive_cap"], name
        caps = {int(cap) for cap in record["caps"]}
        assert {P - 1, P, P + 1} - {0} <= caps, name
        for cap, (exhaustive, _kept, _seen) in record["caps"].items():
            assert exhaustive == (int(cap) >= P), (name, cap)


@settings(max_examples=80, deadline=None)
@given(task=dag_tasks(), cap=st.integers(min_value=1, max_value=12))
def test_property_dp_is_exhaustive_iff_codes_fit_the_cap(task, cap):
    result = PathEnumerator(max_signatures=cap).enumerate(task)
    assert result.exhaustive == (len(_raw_codes(task)) <= cap)


def _single_task_partition(task, processors=4):
    """``(kernel, reference context)`` of ``task`` alone on its minimal cluster."""
    taskset = TaskSet([task])
    platform = Platform(processors)
    clusters = minimal_federated_clusters(taskset, platform)
    partition = PartitionedSystem(
        taskset, platform, clusters, wfd_assign_resources(taskset, clusters).assignment
    )
    return kernel_module.DpcpPKernel(taskset, partition), DpcpPContext(taskset, partition)


def test_reference_engine_takes_truncation_from_the_enumeration():
    """The oracle falls back to EN exactly where the DP trips its cap."""
    task = dict(golden_tasks())["requests-only"]  # 8 codes
    enumerator = PathEnumerator(max_signatures=7, max_paths=BIG)
    assert not enumerator.enumerate(task).exhaustive
    assert enumerator.walk(task).exhaustive
    kernel, ctx = _single_task_partition(task)
    ep = kernel.task_wcrt_ep(task, enumerator.enumerate(task))
    reference = task_wcrt_ep(ctx, task, enumerator)
    en = task_wcrt_en(ctx, task)
    assert ep == pytest.approx(reference, rel=1e-9) == pytest.approx(en, rel=1e-9)
    # The walk's own EP bound is tighter, so following it would disagree.
    walk_ep = max(
        path_wcrt(ctx, task, profile) for profile in enumerator.walk(task).profiles
    )
    assert walk_ep < en
    assert enumerator.walk(task) is enumerator.walk(task)  # cached


def test_walk_stays_exhaustive_where_the_dp_is():
    """Regression: the walk no longer applies the signature cap.

    2**7 request-free paths of distinct lengths are one code: at a cap of 4
    the DP is exhaustive, and so is the walk the reference engine evaluates
    (with the cap it kept 4 of 128 lengths and the reference under-bounded).
    """
    task = _diamond_chain(lambda d: 1.0 + 0.01 * 2**d, lambda d: 1.0)
    enumerator = PathEnumerator(max_signatures=4, max_paths=BIG)
    dp, walk = enumerator.enumerate(task), enumerator.walk(task)
    assert dp.exhaustive and len(dp.profiles) == 1
    assert walk.exhaustive and len(walk.profiles) == walk.total_paths_seen == 128
    kernel, ctx = _single_task_partition(task)
    bound = 2 * task.deadline
    assert kernel.task_wcrt_ep(task, dp, bound) == pytest.approx(
        task_wcrt_ep(ctx, task, enumerator, bound), rel=TOLERANCE, abs=TOLERANCE
    )


# --------------------------------------------------------------------------- #
# Bounds: one row per code dominates every raw path of it
# --------------------------------------------------------------------------- #
@st.composite
def analysed_tasksets(draw):
    """``(taskset, partition, clamped)``: task 0 under analysis, task 1 sharing.

    Task 0 is a random DAG whose vertices may request nothing; with
    ``clamped`` one requesting vertex's critical sections exceed its WCET by
    at most 1e-9, so its non-critical WCET is clamped at zero.  Its cluster
    has 1 to 3 processors; the resources are global (task 1 requests them)
    and hosted on drawn processors.
    """
    n = draw(st.integers(min_value=2, max_value=10))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.integers(min_value=0, max_value=9)) < 4
    ]
    cs = 3.0
    wcets = [draw(st.sampled_from([20.0, 25.0, 30.0, 32.5, 40.0])) for _ in range(n)]
    requests = [
        {
            rid: count
            for rid in range(3)
            for count in [draw(st.integers(min_value=0, max_value=2))]
            if count
        }
        for _ in range(n)
    ]
    clamped = draw(st.booleans()) and any(requests)
    if clamped:
        v = draw(st.sampled_from([i for i, r in enumerate(requests) if r]))
        excess = draw(st.floats(min_value=1e-12, max_value=1e-9))
        wcets[v] = cs * sum(requests[v].values()) - excess
    task = _task(wcets, edges, requests, cs=cs)
    task = DAGTask(
        0, task.vertices, task.dag, period=2000.0,
        resource_usages=task.resource_usages.values(), priority=1,
    )
    other = DAGTask(
        1, [Vertex(0, 30.0, requests={rid: 1 for rid in range(3)})], DAG(1, []),
        period=500.0, resource_usages=[ResourceUsage(rid, 1, cs) for rid in range(3)],
        priority=2,
    )
    taskset = TaskSet([task, other])
    m_i = draw(st.integers(min_value=1, max_value=3))
    processors = m_i + 2
    clusters = {
        0: Cluster(0, list(range(m_i))),
        1: Cluster(1, [m_i]),
    }
    assignment = {
        rid: draw(st.integers(min_value=0, max_value=processors - 1))
        for rid in taskset.global_resources()
    }
    partition = PartitionedSystem(taskset, Platform(processors), clusters, assignment)
    return taskset, partition, clamped


@settings(max_examples=80, deadline=None)
@given(case=analysed_tasksets())
def test_property_kernel_ep_bound_is_the_raw_path_maximum(case):
    taskset, partition, clamped = case
    task = taskset.task(0)
    kernel = kernel_module.DpcpPKernel(taskset, partition)
    ctx = DpcpPContext(taskset, partition)
    bound = 2 * task.deadline
    ep = kernel.task_wcrt_ep(task, PathEnumerator().enumerate(task), bound)
    raw = max(
        path_wcrt(ctx, task, task.path_profile(vertices), bound)
        for vertices in task.dag.iter_complete_paths()
    )
    if math.isinf(ep) or math.isinf(raw):
        # A dominating bound diverges whenever a raw path's does.
        assert math.isinf(ep) and (math.isinf(raw) or clamped)
        return
    close = math.isclose(ep, raw, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
    if clamped:
        assert ep >= raw or close
    else:
        assert close, (ep, raw)


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
    assert walk.exhaustive
    assert sorted(_row_codes(dp)) == sorted(_raw_codes(task))
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
    # 8 codes: more than the cap of 4 below.
    task = _diamond_chain(
        lambda d: 1.0 + 0.01 * d, lambda d: 1.0,
        requests_a=lambda d: {0: 1}, requests_b=lambda d: {1: 1},
    )
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


if __name__ == "__main__":
    # Re-record the cap golden: PYTHONPATH=src python tests/analysis/test_signature_arrays.py
    with open(GOLDEN, "w") as handle:
        json.dump(
            {name: _golden_record(task) for name, task in golden_tasks()},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
