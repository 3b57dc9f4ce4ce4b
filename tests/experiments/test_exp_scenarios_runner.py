"""Tests for the scenario grid, the sweep runner, and the figure builders."""

from __future__ import annotations

import pytest

from repro.analysis import DpcpPEnTest, FedFpTest, SpinTest
from repro.campaign.executor import execute_units
from repro.experiments.runner import (
    SweepConfig,
    pairwise_statistics,
    run_campaign,
    run_sweep,
)
from repro.experiments.scenarios import (
    Scenario,
    figure2_scenarios,
    full_grid,
)
from repro.report.series import (
    render_ascii_plot,
    render_series_table,
    series_csv,
    series_rows,
)


# --------------------------------------------------------------------------- #
# Scenario grid
# --------------------------------------------------------------------------- #
def test_full_grid_has_216_scenarios():
    grid = full_grid()
    assert len(grid) == 216
    assert len({s.scenario_id for s in grid}) == 216


def test_figure2_scenarios_match_the_caption():
    figures = figure2_scenarios()
    assert set(figures) == {"a", "b", "c", "d"}
    assert figures["a"].platform_size == 16
    assert figures["a"].access_probability == 0.5
    assert figures["a"].average_utilization == 1.5
    assert figures["b"].platform_size == 32
    assert figures["b"].resource_count_range == (8, 16)
    assert figures["c"].average_utilization == 2.0
    assert figures["d"].access_probability == 1.0
    for scenario in figures.values():
        assert scenario.request_count_range == (1, 50)
        assert scenario.cs_length_range == (50.0, 100.0)


def test_utilization_points_cover_zero_to_m():
    scenario = full_grid()[0]
    points = scenario.utilization_points()
    assert points[0] == pytest.approx(0.05 * scenario.platform_size)
    assert points[-1] == pytest.approx(scenario.platform_size)
    assert len(points) == 20


def test_scenario_generation_config_roundtrip():
    scenario = Scenario(
        platform_size=8,
        resource_count_range=(2, 4),
        average_utilization=2.0,
        access_probability=0.75,
        request_count_range=(1, 25),
        cs_length_range=(15.0, 50.0),
        num_vertices_range=(10, 20),
    )
    config = scenario.generation_config()
    assert config.average_utilization == 2.0
    assert config.resources.access_probability == 0.75
    assert config.dag.num_vertices_range == (10, 20)


# --------------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tiny_sweep():
    scenario = Scenario(
        platform_size=8,
        resource_count_range=(2, 3),
        average_utilization=1.5,
        access_probability=0.5,
        request_count_range=(1, 5),
        cs_length_range=(15.0, 50.0),
        num_vertices_range=(6, 10),
    )
    config = SweepConfig(samples_per_point=3, utilization_step_fraction=0.25, seed=7)
    protocols = [DpcpPEnTest(), SpinTest(), FedFpTest()]
    return run_sweep(scenario, protocols=protocols, config=config)


def test_run_sweep_produces_complete_curves(tiny_sweep):
    assert set(tiny_sweep.curves) == {"DPCP-p-EN", "SPIN", "FED-FP"}
    for curve in tiny_sweep.curves.values():
        assert len(curve.utilizations) == 4  # steps of 0.25 * m
        assert all(0 <= ratio <= 1 for ratio in curve.acceptance_ratios)
        assert all(sampled <= 3 for sampled in curve.sampled)


def test_run_sweep_is_deterministic(tiny_sweep):
    scenario = tiny_sweep.scenario
    config = SweepConfig(samples_per_point=3, utilization_step_fraction=0.25, seed=7)
    repeat = run_sweep(
        scenario, protocols=[DpcpPEnTest(), SpinTest(), FedFpTest()], config=config
    )
    for name, curve in tiny_sweep.curves.items():
        assert repeat.curves[name].accepted == curve.accepted


def test_progress_callback_invoked(tiny_sweep):
    scenario = tiny_sweep.scenario
    calls = []
    config = SweepConfig(samples_per_point=1, utilization_step_fraction=0.5, seed=1)
    run_sweep(
        scenario,
        protocols=[FedFpTest()],
        config=config,
        progress=lambda sc, u, accepted: calls.append((sc.scenario_id, u, dict(accepted))),
    )
    assert len(calls) == 2


def test_campaign_and_pairwise_statistics(tiny_sweep):
    scenario = tiny_sweep.scenario
    config = SweepConfig(samples_per_point=2, utilization_step_fraction=0.5, seed=3)
    protocols = [DpcpPEnTest(), FedFpTest()]
    results = run_campaign([scenario, scenario], protocols=protocols, config=config)
    assert len(results) == 2
    stats = pairwise_statistics(results)
    assert stats.scenario_count == 2
    assert set(stats.protocols) == {"DPCP-p-EN", "FED-FP"}
    with pytest.raises(ValueError):
        pairwise_statistics([])


# --------------------------------------------------------------------------- #
# Figures
# --------------------------------------------------------------------------- #
def test_acceptance_series_and_table(tiny_sweep):
    series = series_rows(tiny_sweep)
    assert len(series) == 4
    assert set(series[0]) >= {"utilization", "normalized_utilization", "FED-FP"}
    text = render_series_table(tiny_sweep, title="Fig 2(x)")
    assert "Fig 2(x)" in text
    assert "FED-FP" in text


def test_ascii_plot_contains_legend(tiny_sweep):
    art = render_ascii_plot(tiny_sweep)
    assert "acceptance ratio" in art
    assert "FED-FP" in art


def test_failed_points_are_surfaced_not_fabricated():
    """A point where every task-set draw failed renders as n/a, not 0/1."""
    from repro.experiments.metrics import SweepCurve
    from repro.experiments.runner import SweepResult

    scenario = full_grid()[0]
    result = SweepResult(scenario=scenario)
    curve = SweepCurve(protocol="FED-FP")
    curve.add_point(2.0, accepted=1, sampled=2, generation_failures=0)
    curve.add_point(4.0, accepted=0, sampled=0, generation_failures=2)
    result.curves["FED-FP"] = curve

    series = series_rows(result)
    assert series[0]["generation_failures"] == 0
    assert series[1]["generation_failures"] == 2
    assert series[1]["FED-FP"] != series[1]["FED-FP"]  # NaN

    table = render_series_table(result)
    assert "n/a" in table
    assert "fails" in table

    csv_text = series_csv(result)
    lines = csv_text.splitlines()
    assert lines[0].endswith("generation_failures")
    assert lines[2].endswith(",,2")  # empty ratio cell, 2 failed draws

    art = render_ascii_plot(result)
    assert "FED-FP" in art  # NaN point renders as a gap, not a crash


def test_series_csv_roundtrip(tiny_sweep):
    csv_text = series_csv(tiny_sweep)
    assert csv_text.splitlines()[0].startswith("utilization,normalized_utilization")
    assert len(csv_text.splitlines()) == 5  # header + 4 points


def test_run_campaign_empty_selection_is_consistent_across_workers():
    assert run_campaign([]) == []
    assert execute_units([], [], workers=4) == []
