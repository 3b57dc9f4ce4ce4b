"""Kernel-vs-reference equivalence for the DPCP-p analyses.

The vectorized kernel (:class:`DpcpPKernel`, `engine="kernel"`, the default)
must reproduce the straight-line reference oracle (the module-level
functions of `dpcp_p.wcrt`, `engine="reference"`) bound-for-bound: the
property tests below generate random task sets and partitions across seeds
and require agreement within 1e-9 (and identical schedulable verdicts).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dpcp_p import (
    DpcpPEnTest,
    DpcpPEpTest,
    DpcpPTest,
    ENGINE_KERNEL,
    ENGINE_REFERENCE,
    analyze_taskset,
    path_wcrt,
    task_wcrt_en,
    task_wcrt_ep,
)
from repro.analysis.dpcp_p.context import DpcpPContext
from repro.analysis.dpcp_p.kernel import BATCH_CUTOFF, DpcpPKernel
from repro.analysis.dpcp_p.partition import wfd_assign_resources
from repro.analysis.engine.tables import compile_taskset
from repro.analysis.paths import PathEnumerator
from repro.generation import (
    DagGenerationConfig,
    ResourceGenerationConfig,
    TaskSetGenerationConfig,
    generate_taskset,
)
from repro.model import Platform
from repro.model.platform import PartitionedSystem, minimal_federated_clusters

TOLERANCE = 1e-9

SMALL_CONFIG = TaskSetGenerationConfig(
    average_utilization=1.5,
    dag=DagGenerationConfig(num_vertices_range=(6, 18), edge_probability=0.15),
    resources=ResourceGenerationConfig(
        num_resources_range=(3, 6),
        access_probability=0.6,
        request_count_range=(1, 10),
        cs_length_range=(15.0, 50.0),
    ),
)

#: Wide, sparse DAGs whose signature counts exceed the kernel's batch cutoff,
#: so the batched NumPy fixed-point path is exercised (not just the scalar one).
WIDE_CONFIG = TaskSetGenerationConfig(
    average_utilization=1.5,
    dag=DagGenerationConfig(num_vertices_range=(35, 55), edge_probability=0.08),
    resources=ResourceGenerationConfig(
        num_resources_range=(4, 7),
        access_probability=0.5,
        request_count_range=(1, 12),
        cs_length_range=(15.0, 50.0),
    ),
)


def build_partition(config, seed, utilization=5.5, processors=16):
    """Generate a task set and a feasible partition, or None."""
    taskset = generate_taskset(utilization, config, rng=seed)
    platform = Platform(processors)
    clusters = minimal_federated_clusters(taskset, platform)
    if clusters is None:
        return None
    outcome = wfd_assign_resources(taskset, clusters)
    if not outcome.feasible:
        return None
    return taskset, PartitionedSystem(taskset, platform, clusters, outcome.assignment)


def assert_bounds_agree(taskset, partition, mode):
    kernel = analyze_taskset(
        taskset, partition, mode=mode, divergence_factor=2.0, engine=ENGINE_KERNEL
    )
    reference = analyze_taskset(
        taskset, partition, mode=mode, divergence_factor=2.0, engine=ENGINE_REFERENCE
    )
    assert kernel.keys() == reference.keys()
    for tid in kernel:
        a, b = kernel[tid].wcrt, reference[tid].wcrt
        assert kernel[tid].schedulable == reference[tid].schedulable
        if math.isinf(a) or math.isinf(b):
            assert math.isinf(a) == math.isinf(b), f"task {tid}: {a} vs {b}"
        else:
            assert math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE), (
                f"task {tid} ({mode}): kernel={a!r} reference={b!r}"
            )


# --------------------------------------------------------------------------- #
# Property tests: random task sets across seeds (satellite: hypothesis)
# --------------------------------------------------------------------------- #
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_property_kernel_matches_reference_ep(seed):
    built = build_partition(SMALL_CONFIG, seed)
    if built is None:
        return
    taskset, partition = built
    assert_bounds_agree(taskset, partition, "EP")


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_property_kernel_matches_reference_en(seed):
    built = build_partition(SMALL_CONFIG, seed)
    if built is None:
        return
    taskset, partition = built
    assert_bounds_agree(taskset, partition, "EN")


# --------------------------------------------------------------------------- #
# Fixed-seed grid (deterministic acceptance surface)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [1, 7, 42, 123, 2020, 31337])
@pytest.mark.parametrize("mode", ["EP", "EN"])
def test_fixed_seed_grid_agreement(seed, mode):
    built = build_partition(SMALL_CONFIG, seed)
    if built is None:
        pytest.skip("seed does not produce a feasible partition")
    taskset, partition = built
    assert_bounds_agree(taskset, partition, mode)


@pytest.mark.parametrize("seed", [3, 11])
def test_wide_dag_batched_path_agreement(seed):
    """Signature counts above BATCH_CUTOFF route through the NumPy solver."""
    built = build_partition(WIDE_CONFIG, seed, utilization=6.0)
    if built is None:
        pytest.skip("seed does not produce a feasible partition")
    taskset, partition = built
    enumerator = PathEnumerator()
    assert any(
        len(enumerator.enumerate(task).profiles) >= BATCH_CUTOFF for task in taskset
    ), "workload too narrow to exercise the batched path"
    assert_bounds_agree(taskset, partition, "EP")


# --------------------------------------------------------------------------- #
# Per-function and protocol-level equivalence
# --------------------------------------------------------------------------- #
def test_per_path_and_en_bounds_agree_per_function():
    built = build_partition(SMALL_CONFIG, 42)
    assert built is not None
    taskset, partition = built
    kernel = DpcpPKernel(taskset, partition)
    ctx = DpcpPContext(taskset, partition)
    enumerator = PathEnumerator()
    for task in taskset:
        bound = task.deadline * 2
        # Vertex-bearing profiles: Lemma 5's on-path term needs the vertices.
        for profile in enumerator.walk(task).profiles[:5]:
            a = kernel.path_wcrt(task, profile, bound)
            b = path_wcrt(ctx, task, profile, bound)
            assert math.isinf(a) == math.isinf(b)
            if not math.isinf(a):
                assert math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
        for a, b in (
            (
                kernel.task_wcrt_ep(task, enumerator.enumerate(task), bound),
                task_wcrt_ep(ctx, task, enumerator, bound),
            ),
            (kernel.task_wcrt_en(task, bound), task_wcrt_en(ctx, task, bound)),
        ):
            assert math.isinf(a) == math.isinf(b)
            if not math.isinf(a):
                assert math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def test_per_path_bounds_reject_signature_rows():
    """A DP signature row has no vertices, so Lemma 5 cannot be evaluated."""
    built = build_partition(SMALL_CONFIG, 42)
    assert built is not None
    taskset, partition = built
    task = max(taskset, key=lambda t: t.critical_path_length)
    row = PathEnumerator().enumerate(task).profiles[0]
    assert row.vertices == () and row.length > 0
    with pytest.raises(ValueError, match="no vertices"):
        DpcpPKernel(taskset, partition).path_wcrt(task, row, task.deadline * 2)
    with pytest.raises(ValueError, match="no vertices"):
        path_wcrt(DpcpPContext(taskset, partition), task, row, task.deadline * 2)


@pytest.mark.parametrize("factory", [DpcpPEpTest, DpcpPEnTest])
def test_protocol_verdicts_agree(factory):
    platform = Platform(16)
    for seed in (1, 5, 9):
        taskset = generate_taskset(5.0, SMALL_CONFIG, rng=seed)
        kernel_result = factory(engine=ENGINE_KERNEL).test(taskset, platform)
        reference_result = factory(engine=ENGINE_REFERENCE).test(taskset, platform)
        assert kernel_result.schedulable == reference_result.schedulable


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        DpcpPTest(engine="bogus")
    built = build_partition(SMALL_CONFIG, 1)
    assert built is not None
    taskset, partition = built
    with pytest.raises(ValueError):
        analyze_taskset(taskset, partition, engine="bogus")


# --------------------------------------------------------------------------- #
# Static tables shared across partition retries
# --------------------------------------------------------------------------- #
def test_static_cache_shared_across_kernels():
    """Kernels of one task set (Algorithm 1's retries) share its compiled
    tables, and sharing does not change a bound."""
    built = build_partition(SMALL_CONFIG, 42)
    assert built is not None
    taskset, partition = built
    enumerator = PathEnumerator()

    def bounds(kernel):
        return {
            task.task_id: (
                kernel.task_wcrt_ep(task, enumerator.enumerate(task)),
                kernel.task_wcrt_en(task),
            )
            for task in taskset
        }

    k1 = DpcpPKernel(taskset, partition)
    first = bounds(k1)
    task_tables = {task.task_id: k1.tables.table(task) for task in taskset}
    k2 = DpcpPKernel(taskset, partition)
    assert k1.tables is k2.tables is compile_taskset(taskset)
    for task in taskset:
        # The second kernel reused (not rebuilt) the per-task tables.
        assert k2.tables.table(task) is task_tables[task.task_id]

    # A fresh kernel over an identical, separately generated task set
    # compiles its own tables and gives the same bounds.
    fresh_taskset, fresh_partition = build_partition(SMALL_CONFIG, 42)
    fresh = DpcpPKernel(fresh_taskset, fresh_partition)
    assert fresh.tables is not k1.tables
    expected = {
        task.task_id: (
            fresh.task_wcrt_ep(task, PathEnumerator().enumerate(task)),
            fresh.task_wcrt_en(task),
        )
        for task in fresh_taskset
    }
    assert bounds(k2) == first == expected


def test_compiled_tables_die_with_the_taskset():
    """The weak-keyed memo must not keep task sets alive (campaign workers
    compile one per generated sample)."""
    import gc
    import weakref

    taskset = generate_taskset(5.0, SMALL_CONFIG, rng=7)
    compile_taskset(taskset)
    # Populates the tables' EP column cache as well.
    DpcpPEpTest().test(taskset, Platform(16))
    ref = weakref.ref(taskset)
    del taskset
    gc.collect()
    assert ref() is None


def test_kernel_respects_carried_response_times():
    """η_j must pick up response-time bounds set between per-task analyses."""
    built = build_partition(SMALL_CONFIG, 42)
    assert built is not None
    taskset, partition = built
    tasks = taskset.by_priority(descending=True)
    kernel = DpcpPKernel(taskset, partition)
    ctx = DpcpPContext(taskset, partition)
    # Pretend the highest-priority task has a tiny response time: the kernel
    # (after a sync) and the reference (through its context) must both see it.
    first = tasks[0]
    ctx.response_times[first.task_id] = 1.0
    kernel.sync_response_times(ctx.response_times)
    low = tasks[-1]
    bound = low.deadline * 2
    a = kernel.task_wcrt_en(low, bound)
    b = task_wcrt_en(ctx, low, bound)
    assert math.isinf(a) == math.isinf(b)
    if not math.isinf(a):
        assert math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
