"""Differential conformance suite: DPCP-p traces are pinned bit-identically.

The golden file ``tests/sim/golden/dpcp_p_traces.json`` was generated by the
*pre-refactor* simulator (hard-coded DPCP-p rules, PR 5) immediately before
the locking rules moved behind the :class:`~repro.sim.protocols.ProtocolBehavior`
strategy.  Every workload here is deterministic — fixed behaviours or fixed
generator seeds — so the refactored simulator must reproduce every interval,
request and job record *exactly* (float-for-float, in emission order), or
the refactor changed observable scheduling behaviour.

Regenerate (only when intentionally changing simulator semantics) with::

    PYTHONPATH=src python tests/sim/test_sim_conformance.py --regen
"""

from __future__ import annotations

import json
import os

from repro.analysis import DpcpPEpTest
from repro.generation import (
    DagGenerationConfig,
    GenerationError,
    ResourceGenerationConfig,
    TaskSetGenerationConfig,
    generate_taskset,
)
from repro.model import Platform
from repro.model.dag import DAG
from repro.model.platform import Cluster, PartitionedSystem
from repro.model.resources import ResourceUsage
from repro.model.task import DAGTask, TaskSet, Vertex
from repro.sim import RuntimeSimulator, build_figure1_system

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "dpcp_p_traces.json")

#: Generator config of the randomised conformance workloads (mirrors the
#: property-test config so the traces exercise contended global resources).
GENERATED_CONFIG = TaskSetGenerationConfig(
    average_utilization=1.5,
    dag=DagGenerationConfig(num_vertices_range=(5, 10), edge_probability=0.2),
    resources=ResourceGenerationConfig(
        num_resources_range=(2, 3),
        access_probability=0.8,
        request_count_range=(1, 4),
        cs_length_range=(20.0, 60.0),
    ),
)

#: Seed scan range for the generated workloads; the first
#: :data:`GENERATED_COUNT` analysis-accepted seeds are pinned.
GENERATED_SEED_RANGE = range(0, 60)
GENERATED_COUNT = 2


def trace_payload(trace):
    """A JSON-stable, order-preserving description of one trace."""
    return {
        "intervals": [
            [i.processor, i.start, i.end, i.task_id, i.job_id, i.vertex,
             i.resource, i.is_agent]
            for i in trace.intervals
        ],
        "requests": [
            [r.task_id, r.job_id, r.vertex, r.resource, r.priority,
             r.issue_time, r.grant_time, r.finish_time]
            for r in trace.requests
        ],
        "jobs": [
            [task_id, job_id, record.release_time, record.absolute_deadline,
             record.finish_time]
            for (task_id, job_id), record in sorted(trace.jobs.items())
        ],
    }


def two_task_global_system():
    """Two single-chain tasks contending on one global resource."""
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


def local_contention_system():
    """One task whose parallel vertices contend on a local resource."""
    task = DAGTask(
        task_id=0,
        vertices=[
            Vertex(0, 4.0, requests={1: 2}),
            Vertex(1, 4.0, requests={1: 1}),
            Vertex(2, 2.0),
        ],
        dag=DAG(3, [(0, 2), (1, 2)]),
        period=40.0,
        resource_usages=[ResourceUsage(1, 3, 1.0)],
        priority=1,
    )
    taskset = TaskSet([task])
    platform = Platform(2)
    clusters = {0: Cluster(0, [0, 1])}
    return PartitionedSystem(taskset, platform, clusters, {})


def generated_workloads():
    """``(seed, partition)`` of the pinned analysis-accepted seeds."""
    workloads = []
    for seed in GENERATED_SEED_RANGE:
        try:
            taskset = generate_taskset(4.0, GENERATED_CONFIG, rng=seed)
        except GenerationError:
            continue
        result = DpcpPEpTest().test(taskset, Platform(16))
        if not result.schedulable or result.partition is None:
            continue
        workloads.append((seed, result.partition))
        if len(workloads) == GENERATED_COUNT:
            return workloads
    raise AssertionError("seed scan exhausted without enough accepted task sets")


def build_traces():
    """Every conformance workload, simulated: name -> trace payload."""
    traces = {}

    partition, behaviors = build_figure1_system()
    simulator = RuntimeSimulator(partition, behaviors)
    simulator.release_job(0, 0.0)
    simulator.release_job(1, 0.0)
    traces["figure1"] = trace_payload(simulator.run())

    simulator = RuntimeSimulator(two_task_global_system())
    simulator.release_periodic_jobs(horizon=70.0)
    traces["two_task_global"] = trace_payload(simulator.run())

    simulator = RuntimeSimulator(local_contention_system())
    simulator.release_periodic_jobs(horizon=80.0)
    traces["local_contention"] = trace_payload(simulator.run())

    for seed, partition in generated_workloads():
        simulator = RuntimeSimulator(partition)
        horizon = 1.5 * max(task.period for task in partition.taskset)
        simulator.release_periodic_jobs(horizon)
        traces[f"generated_seed_{seed}"] = trace_payload(simulator.run())
    return traces


def test_dpcp_p_traces_match_the_pre_refactor_golden():
    """The ProtocolBehavior-based DPCP-p path replays the pinned traces
    bit-identically (values parsed from JSON round-trip exactly: Python
    floats serialise via shortest-repr, so equality here is bit equality)."""
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    traces = build_traces()
    assert sorted(traces) == sorted(golden)
    for name in sorted(golden):
        assert traces[name] == golden[name], (
            f"workload {name!r} diverged from the pre-refactor simulator"
        )


def test_golden_covers_every_protocol_mechanism():
    """The pinned suite is only meaningful if it exercises agents (global
    requests), local locking, and preemption-prone contention."""
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    has_agent = any(
        interval[7]
        for payload in golden.values()
        for interval in payload["intervals"]
    )
    has_local_cs = any(
        interval[6] is not None and not interval[7]
        for payload in golden.values()
        for interval in payload["intervals"]
    )
    has_waiting_request = any(
        request[6] is not None and request[6] > request[5]
        for payload in golden.values()
        for request in payload["requests"]
    )
    assert has_agent and has_local_cs and has_waiting_request


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to touch the golden without --regen")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(build_traces(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {GOLDEN_PATH}")
