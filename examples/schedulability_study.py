#!/usr/bin/env python3
"""A scaled-down version of the paper's Fig. 2(a) schedulability experiment.

Sweeps the normalized utilization for the Fig. 2(a) scenario (m = 16,
nr ∈ [4, 8], pr = 0.5, U_avg = 1.5, N ∈ [1, 50], L ∈ [50, 100] µs), prints
the acceptance-ratio series and an ASCII plot, and writes a CSV next to this
script.  The number of samples per point and the DAG size are reduced so the
example finishes in well under a minute; benchmarks/bench_fig2.py runs the
full-resolution version.

Run with:  python examples/schedulability_study.py
"""

from __future__ import annotations

import os

from repro.experiments import SweepConfig, figure2_scenarios, run_sweep
from repro.report import render_ascii_plot, render_series_table, series_csv


def main() -> None:
    scenario = figure2_scenarios(num_vertices_range=(10, 25))["a"]
    config = SweepConfig(
        samples_per_point=4,
        utilization_step_fraction=0.1,
        seed=2020,
    )
    print(f"Sweeping scenario {scenario.scenario_id} "
          f"({config.samples_per_point} task sets per point)...")
    result = run_sweep(scenario, config=config)

    print()
    print(render_series_table(result, title="Fig. 2(a) — acceptance ratios (scaled down)"))
    print()
    print(render_ascii_plot(result))

    target = os.path.join(os.path.dirname(__file__), "fig2a_example.csv")
    with open(target, "w", newline="") as handle:
        handle.write(series_csv(result))
    print(f"\nSeries written to {target}")


if __name__ == "__main__":
    main()
