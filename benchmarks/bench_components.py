"""Micro-benchmarks of the library's building blocks.

These are engineering benchmarks (not figures from the paper): they track the
cost of workload generation, path enumeration, the DPCP-p analyses, the
partitioning heuristic, and the runtime simulator on a fixed mid-size system,
so that performance regressions are visible.
"""

from __future__ import annotations

import pytest

from repro.analysis import DpcpPEnTest, DpcpPEpTest, LppTest, SpinTest
from repro.analysis.dpcp_p.partition import wfd_assign_resources
from repro.analysis.paths import PathEnumerator
from repro.generation import (
    DagGenerationConfig,
    ResourceGenerationConfig,
    TaskSetGenerationConfig,
    generate_taskset,
    rand_fixed_sum,
)
from repro.model import Platform
from repro.model.platform import minimal_federated_clusters
from repro.sim import RuntimeSimulator


def _config(vertex_max: int) -> TaskSetGenerationConfig:
    return TaskSetGenerationConfig(
        average_utilization=1.5,
        dag=DagGenerationConfig(num_vertices_range=(10, vertex_max), edge_probability=0.1),
        resources=ResourceGenerationConfig(
            num_resources_range=(4, 8),
            access_probability=0.5,
            request_count_range=(1, 25),
            cs_length_range=(15.0, 50.0),
        ),
    )


@pytest.fixture(scope="module")
def workload():
    config = _config(vertex_max=30)
    taskset = generate_taskset(6.0, config, rng=1)
    platform = Platform(16)
    return config, taskset, platform


def test_bench_randfixedsum(benchmark):
    """RandFixedSum: 1000 vectors of 8 utilizations."""
    benchmark(lambda: rand_fixed_sum(8, 12.0, 1.0, 3.0, nsets=1000, rng=0))


def test_bench_taskset_generation(benchmark, workload):
    """Full task-set synthesis for one utilization point."""
    config, _, _ = workload
    counter = iter(range(10_000))
    benchmark(lambda: generate_taskset(6.0, config, rng=next(counter)))


@pytest.mark.parametrize(
    "method", [PathEnumerator.enumerate, PathEnumerator.walk], ids=["dp", "walk"]
)
def test_bench_path_enumeration(benchmark, workload, method):
    """Complete-path enumeration (signature DP vs the reference walk)."""
    _, taskset, _ = workload

    def enumerate_all():
        enumerator = PathEnumerator()
        return [method(enumerator, task).profiles for task in taskset]

    benchmark(enumerate_all)


def test_bench_wfd_partitioning(benchmark, workload):
    """WFD resource assignment on minimal federated clusters."""
    _, taskset, platform = workload
    clusters = minimal_federated_clusters(taskset, platform)
    assert clusters is not None
    benchmark(lambda: wfd_assign_resources(taskset, clusters))


@pytest.mark.parametrize(
    "protocol_factory",
    [
        DpcpPEpTest,
        DpcpPEnTest,
        SpinTest,
        LppTest,
        lambda: DpcpPEpTest(engine="reference"),
        lambda: DpcpPEnTest(engine="reference"),
    ],
    ids=[
        "DPCP-p-EP",
        "DPCP-p-EN",
        "SPIN",
        "LPP",
        "DPCP-p-EP-reference",
        "DPCP-p-EN-reference",
    ],
)
def test_bench_schedulability_test(benchmark, workload, protocol_factory):
    """One full schedulability test (partitioning + analysis).

    DPCP-p defaults to its compiled kernel engine; the ``-reference`` ids
    run the retained straight-line oracles so the kernel's speedup stays
    visible in the benchmark history.  SPIN and LPP have one (straight-line)
    implementation each.

    The DPCP-p EP column cache (hung off the shared CompiledTaskset's
    ``protocol_cache``) is cleared on every iteration: a campaign analyses
    each generated task set once per protocol, so timing repeated runs of a
    warm kernel would overstate the speedup.  The task-static tables
    themselves stay warm — in a campaign they are compiled once per sample
    and shared by DPCP-p-EP and -EN.
    """
    from repro.analysis.engine import compile_taskset

    _, taskset, platform = workload
    protocol = protocol_factory()
    tables = compile_taskset(taskset)

    def run():
        tables.protocol_cache.clear()
        return protocol.test(taskset, platform)

    benchmark(run)


def test_bench_simulation(benchmark, workload):
    """Simulating one hyper-period slice of the partitioned system."""
    _, taskset, platform = workload
    result = DpcpPEpTest().test(taskset, platform)
    if not result.schedulable:
        pytest.skip("reference workload not schedulable; simulation bench skipped")
    horizon = 2 * max(task.period for task in taskset)

    def simulate():
        simulator = RuntimeSimulator(result.partition)
        simulator.release_periodic_jobs(horizon)
        return simulator.run()

    benchmark.pedantic(simulate, rounds=3, iterations=1)
