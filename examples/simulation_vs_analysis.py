#!/usr/bin/env python3
"""Validate the DPCP-p analysis against the runtime simulator.

Generates random task sets, analyses them with the DPCP-p-EP test, simulates
the resulting partition for a few hyperperiods, and reports the gap between
the observed response times and the analytical WCRT bounds.  The observed
values must never exceed the bounds; the gap illustrates the (expected)
pessimism of the analysis.

Run with:  python examples/simulation_vs_analysis.py
"""

from __future__ import annotations

from repro.analysis import DpcpPEpTest
from repro.generation import (
    DagGenerationConfig,
    ResourceGenerationConfig,
    TaskSetGenerationConfig,
    generate_taskset,
)
from repro.model import Platform
from repro.sim import RuntimeSimulator


def main() -> None:
    config = TaskSetGenerationConfig(
        average_utilization=1.5,
        dag=DagGenerationConfig(num_vertices_range=(6, 12), edge_probability=0.2),
        resources=ResourceGenerationConfig(
            num_resources_range=(2, 4),
            access_probability=0.7,
            request_count_range=(1, 5),
            cs_length_range=(20.0, 60.0),
        ),
    )
    platform = Platform(16)
    analysis = DpcpPEpTest()

    analysed = 0
    for seed in range(40):
        taskset = generate_taskset(4.5, config, rng=seed)
        result = analysis.test(taskset, platform)
        if not result.schedulable:
            continue
        analysed += 1
        simulator = RuntimeSimulator(result.partition)
        simulator.release_periodic_jobs(3 * max(t.period for t in taskset))
        trace = simulator.run()

        print(f"task set #{seed} ({len(taskset)} tasks)")
        for task in taskset:
            bound = result.task_analyses[task.task_id].wcrt
            observed = trace.worst_response_time(task.task_id)
            if observed is None:
                continue
            assert observed <= bound + 1e-6, "analysis bound violated!"
            print(
                f"  {task.name}: observed R = {observed/1e3:8.2f} ms, "
                f"analytical bound = {bound/1e3:8.2f} ms, "
                f"ratio = {observed / bound:5.2f}"
            )
        problems = trace.check_all()
        print(f"  invariants: {'all hold' if not problems else problems}")
        print()
        if analysed >= 5:
            break

    if analysed == 0:
        print("no schedulable task set found — try different seeds")


if __name__ == "__main__":
    main()
