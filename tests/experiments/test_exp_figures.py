"""Series-renderer edge cases: NaN/gap handling and protocol validation.

The generation-failure conventions (NaN acceptance ratio -> ``n/a`` table
cell, ASCII-plot gap, empty CSV cell) were previously exercised only
implicitly through the sweep tests; these tests pin them directly, along
with the ``series_rows`` validation of empty and protocol-disjoint
sweeps.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.metrics import SweepCurve
from repro.experiments.runner import SweepResult
from repro.experiments.scenarios import figure2_scenarios
from repro.report.series import (
    render_ascii_plot,
    render_series_table,
    series_csv,
    series_rows,
)


def sweep_with(points, protocols=("SPIN", "LPP")) -> SweepResult:
    """Sweep over ``points`` = [(accepted..., sampled, failures), ...]."""
    scenario = figure2_scenarios(num_vertices_range=(5, 8))["a"]
    result = SweepResult(scenario=scenario)
    for protocol in protocols:
        result.curves[protocol] = SweepCurve(protocol=protocol)
    for index, (accepted, sampled, failures) in enumerate(points):
        for position, protocol in enumerate(protocols):
            result.curves[protocol].add_point(
                float(index + 1), accepted[position], sampled, failures
            )
    return result


@pytest.fixture
def gapped_sweep() -> SweepResult:
    """Three points; the middle one lost every task-set draw."""
    return sweep_with([((2, 1), 2, 0), ((0, 0), 0, 4), ((1, 0), 2, 1)])


# --------------------------------------------------------------------------- #
# NaN / gap conventions
# --------------------------------------------------------------------------- #
def test_acceptance_series_rows_are_nan_where_every_draw_failed(gapped_sweep):
    rows = series_rows(gapped_sweep)
    assert [row["generation_failures"] for row in rows] == [0, 4, 1]
    assert math.isnan(rows[1]["SPIN"]) and math.isnan(rows[1]["LPP"])
    assert rows[2]["SPIN"] == pytest.approx(0.5)


def test_series_table_renders_na_cells_and_failure_column(gapped_sweep):
    table = render_series_table(gapped_sweep)
    lines = table.splitlines()
    assert "fails" in lines[1]
    nan_row = lines[3]
    assert nan_row.count("n/a") == 2
    assert nan_row.rstrip().endswith("4")  # the failure count, not a ratio


def test_ascii_plot_leaves_gap_columns(gapped_sweep):
    art = render_ascii_plot(gapped_sweep)
    rows = [line[6:] for line in art.splitlines()[1:-2]]  # strip axis labels
    # Column 0 and 2 carry markers somewhere; the NaN column 1 is blank.
    assert any(row[0] != " " for row in rows)
    assert all(row[1] == " " for row in rows)
    assert any(row[2] != " " for row in rows)


def test_series_csv_leaves_empty_cells(gapped_sweep):
    lines = series_csv(gapped_sweep).splitlines()
    assert lines[0] == "utilization,normalized_utilization,SPIN,LPP,generation_failures"
    assert lines[2] == "2.0,0.125,,,4"


# --------------------------------------------------------------------------- #
# Validation (empty / protocol-disjoint sweeps)
# --------------------------------------------------------------------------- #
def test_acceptance_series_of_empty_sweep_is_empty():
    empty = SweepResult(scenario=figure2_scenarios()["a"])
    assert series_rows(empty) == []
    # Renderers degrade to headers instead of raising.
    assert render_series_table(empty).startswith("Scenario ")
    assert series_csv(empty) == "utilization,normalized_utilization,generation_failures\n"
    assert "acceptance ratio" in render_ascii_plot(empty)


def test_acceptance_series_names_missing_protocols(gapped_sweep):
    with pytest.raises(ValueError, match=r"no curve for protocol\(s\) DPCP-p-EP"):
        series_rows(gapped_sweep, ["DPCP-p-EP", "SPIN"])
    with pytest.raises(ValueError, match="FED-FP"):
        render_series_table(gapped_sweep, ["FED-FP"])
    with pytest.raises(ValueError, match="NOPE"):
        series_csv(gapped_sweep, ["SPIN", "NOPE"])


def test_acceptance_series_rejects_duplicate_protocols(gapped_sweep):
    with pytest.raises(ValueError, match="duplicate protocol"):
        series_rows(gapped_sweep, ["SPIN", "SPIN"])


def test_explicit_protocol_order_is_preserved(gapped_sweep):
    rows = series_rows(gapped_sweep, ["LPP", "SPIN"])
    assert list(rows[0])[-2:] == ["LPP", "SPIN"]
    lines = series_csv(gapped_sweep, ["LPP", "SPIN"]).splitlines()
    assert lines[0] == "utilization,normalized_utilization,LPP,SPIN,generation_failures"
