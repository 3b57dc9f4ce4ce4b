"""Regenerate the paper's Tables 2 and 3 (dominance / outperformance statistics).

The paper evaluates 216 parameter scenarios; by default this benchmark keeps
every ``REPRO_BENCH_GRID_STRIDE``-th scenario (12 scenarios) and uses a small
number of task sets per utilization point so the run finishes in a few
minutes.  Set ``REPRO_BENCH_GRID_STRIDE=1`` for the full grid.

The rendered tables are written to ``benchmarks/results/table2.txt`` and
``table3.txt``; the benchmark asserts the headline findings of the paper:
DPCP-p-EP outperforms every other protocol in (almost) all scenarios and
dominates DPCP-p-EN, SPIN and LPP far more often than the converse.
"""

from __future__ import annotations

import os

from repro.experiments import (
    SweepConfig,
    full_grid,
    pairwise_statistics,
    run_campaign,
)
from repro.report import render_dominance_table, render_outperformance_table

from _bench_utils import emit


def _scenarios(bench_settings):
    stride = max(1, bench_settings["grid_stride"])
    grid = full_grid(num_vertices_range=(10, bench_settings["vertex_max"]))
    return grid[::stride]


def _run_campaign(bench_settings):
    config = SweepConfig(
        samples_per_point=max(2, bench_settings["samples_per_point"] - 1),
        utilization_step_fraction=bench_settings["step_fraction"],
        seed=bench_settings["seed"],
    )
    results = run_campaign(_scenarios(bench_settings), config=config)
    return pairwise_statistics(results)


def test_table2_table3(benchmark, bench_settings, results_dir):
    """Benchmark the scenario campaign and emit the dominance/outperformance tables."""
    stats = benchmark.pedantic(_run_campaign, args=(bench_settings,), rounds=1, iterations=1)

    table2 = render_dominance_table(stats)
    table3 = render_outperformance_table(stats)
    emit(os.path.join(results_dir, "table2.txt"), table2)
    emit(os.path.join(results_dir, "table3.txt"), table3)

    # Headline findings of Tables 2 and 3: DPCP-p-EP is never dominated or
    # outperformed by the other protocols, and it outperforms them in a clear
    # majority of the scenarios.
    for other in ("DPCP-p-EN", "SPIN", "LPP"):
        assert stats.dominance[other]["DPCP-p-EP"] == 0
        assert stats.outperformance[other]["DPCP-p-EP"] == 0
        assert (
            stats.outperformance["DPCP-p-EP"][other]
            >= 0.5 * stats.scenario_count
        )
        assert (
            stats.dominance["DPCP-p-EP"][other]
            >= stats.dominance[other]["DPCP-p-EP"]
        )
