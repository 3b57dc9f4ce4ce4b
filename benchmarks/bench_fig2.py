"""Regenerate the paper's Fig. 2 (acceptance-ratio curves), one benchmark per panel.

Each benchmark sweeps the normalized utilization for one of the four Fig. 2
scenarios, prints the acceptance-ratio series (the data behind the plotted
curves), writes it to ``benchmarks/results/fig2<panel>.csv`` / ``.txt``, and
checks the qualitative findings reported in the paper:

* FED-FP (no resources) is the upper baseline;
* DPCP-p-EP accepts at least as many task sets as DPCP-p-EN, SPIN, and LPP.

Absolute acceptance ratios differ from the paper (see EXPERIMENTS.md), but
the ordering — who wins, and that the advantage grows with contention — is
reproduced.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import SweepConfig, figure2_scenarios, run_sweep
from repro.report import render_series_table, series_csv

from _bench_utils import emit

PANELS = ("a", "b", "c", "d")


def _sweep_config(bench_settings) -> SweepConfig:
    return SweepConfig(
        samples_per_point=bench_settings["samples_per_point"],
        utilization_step_fraction=bench_settings["step_fraction"],
        seed=bench_settings["seed"],
    )


def _run_panel(panel: str, bench_settings):
    scenario = figure2_scenarios(
        num_vertices_range=(10, bench_settings["vertex_max"])
    )[panel]
    return run_sweep(scenario, config=_sweep_config(bench_settings))


def _check_and_emit(panel: str, result, results_dir):
    curves = result.curves
    ep = curves["DPCP-p-EP"].total_accepted
    en = curves["DPCP-p-EN"].total_accepted
    spin = curves["SPIN"].total_accepted
    lpp = curves["LPP"].total_accepted
    fed = curves["FED-FP"].total_accepted
    # Qualitative shape of Fig. 2: FED-FP on top, DPCP-p-EP at least as good
    # as the other resource-aware analyses.
    assert fed >= ep >= en
    assert ep >= spin
    assert ep >= lpp

    table = render_series_table(
        result, title=f"Fig. 2({panel}) — {result.scenario.scenario_id}"
    )
    emit(os.path.join(results_dir, f"fig2{panel}.txt"), table)
    with open(os.path.join(results_dir, f"fig2{panel}.csv"), "w") as handle:
        handle.write(series_csv(result))


@pytest.mark.parametrize("panel", PANELS)
def test_fig2_panel(benchmark, panel, bench_settings, results_dir):
    """Benchmark one utilization sweep of Fig. 2 and emit its series."""
    result = benchmark.pedantic(
        _run_panel, args=(panel, bench_settings), rounds=1, iterations=1
    )
    _check_and_emit(panel, result, results_dir)
