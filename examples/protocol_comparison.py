#!/usr/bin/env python3
"""Mini dominance/outperformance study (scaled-down Tables 2 and 3).

Runs utilization sweeps for a handful of scenarios spanning light and heavy
resource contention, then prints the pairwise dominance and outperformance
statistics in the format of the paper's Tables 2 and 3.  The full 216-scenario
grid lives in benchmarks/bench_tables.py.

Run with:  python examples/protocol_comparison.py
"""

from __future__ import annotations

from repro.experiments import (
    Scenario,
    SweepConfig,
    pairwise_statistics,
    run_campaign,
    weighted_acceptance,
)
from repro.report import render_dominance_table, render_outperformance_table


def scenarios() -> list:
    """Four contrasting corners of the parameter grid (small DAGs for speed)."""
    common = dict(num_vertices_range=(8, 20))
    return [
        Scenario(16, (2, 4), 1.5, 0.5, (1, 25), (15.0, 50.0), **common),
        Scenario(16, (4, 8), 1.5, 0.75, (1, 25), (50.0, 100.0), **common),
        Scenario(32, (4, 8), 2.0, 0.5, (1, 25), (15.0, 50.0), **common),
        Scenario(32, (8, 16), 1.5, 1.0, (1, 50), (50.0, 100.0), **common),
    ]


def main() -> None:
    config = SweepConfig(samples_per_point=4, utilization_step_fraction=0.1, seed=7)
    print("Running 4 scenario sweeps (this takes a minute or two)...")
    results = run_campaign(scenarios(), config=config)

    overall = weighted_acceptance(
        [curve for result in results for curve in result.curves.values()]
    )
    print("\nOverall acceptance ratio per protocol")
    for protocol, ratio in sorted(overall.items(), key=lambda kv: -kv[1]):
        print(f"  {protocol:12s} {ratio:6.3f}")

    stats = pairwise_statistics(results)
    print()
    print(render_dominance_table(stats))
    print()
    print(render_outperformance_table(stats))


if __name__ == "__main__":
    main()
