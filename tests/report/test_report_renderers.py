"""Renderer tests: SVG/HTML/Markdown output, golden files, CSV identity."""

from __future__ import annotations

import os

import pytest

from repro.experiments.metrics import SweepCurve
from repro.experiments.runner import SweepResult
from repro.experiments.scenarios import figure2_scenarios
from repro.report.aggregate import aggregate_store
from repro.report.bundle import write_report_bundle
from repro.report.html import render_html_report
from repro.report.markdown import render_markdown_report
from repro.report.series import series_csv, series_rows
from repro.report.svg import curve_segments, render_svg_chart

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def synthetic_sweep(points) -> SweepResult:
    """A hand-built two-protocol sweep; ``points`` is a list of
    ``(accepted_a, accepted_b, sampled, failures)`` tuples."""
    scenario = figure2_scenarios(num_vertices_range=(5, 8))["a"]
    result = SweepResult(scenario=scenario)
    result.curves["SPIN"] = SweepCurve(protocol="SPIN")
    result.curves["LPP"] = SweepCurve(protocol="LPP")
    for index, (a, b, sampled, failures) in enumerate(points):
        utilization = float(index + 1)
        result.curves["SPIN"].add_point(utilization, a, sampled, failures)
        result.curves["LPP"].add_point(utilization, b, sampled, failures)
    return result


# --------------------------------------------------------------------------- #
# SVG
# --------------------------------------------------------------------------- #
def test_curve_segments_split_on_nan():
    nan = float("nan")
    segments = curve_segments([0.1, 0.2, 0.3, 0.4], [1.0, nan, 0.5, 0.25])
    assert segments == [[(0.1, 1.0)], [(0.3, 0.5), (0.4, 0.25)]]
    assert curve_segments([0.1], [nan]) == []


def test_svg_chart_draws_one_polyline_per_protocol():
    sweep = synthetic_sweep([(2, 1, 2, 0), (1, 1, 2, 0), (0, 0, 2, 0)])
    svg = render_svg_chart(sweep)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "SPIN" in svg and "LPP" in svg
    assert "<title>" in svg


def test_svg_chart_leaves_gaps_for_unrealised_points():
    # Middle point lost every draw: each curve splits into two segments.
    sweep = synthetic_sweep([(2, 1, 2, 0), (0, 0, 0, 2), (1, 0, 2, 0)])
    svg = render_svg_chart(sweep)
    # Single-point segments degrade to dots; two protocols x 2 segments,
    # where every segment here is a single surviving point.
    assert svg.count("<polyline") == 0
    assert svg.count("<circle") == 4

    sweep = synthetic_sweep(
        [(2, 1, 2, 0), (1, 1, 2, 0), (0, 0, 0, 2), (1, 0, 2, 0), (0, 0, 2, 0)]
    )
    svg = render_svg_chart(sweep)
    assert svg.count("<polyline") == 4  # two segments per protocol


def test_svg_chart_escapes_title():
    sweep = synthetic_sweep([(1, 1, 2, 0)])
    svg = render_svg_chart(sweep, title="a<b&c")
    assert "a&lt;b&amp;c" in svg
    assert "a<b" not in svg


# --------------------------------------------------------------------------- #
# HTML / Markdown over a real store
# --------------------------------------------------------------------------- #
def test_html_report_contains_grid_and_tables(finished_store):
    aggregate = aggregate_store(finished_store)
    html = render_html_report(aggregate)
    assert html.startswith("<!DOCTYPE html>")
    assert html.count("<svg") == 2  # one chart per complete scenario
    for report in aggregate.scenarios:
        assert report.scenario.scenario_id in html
    assert "Dominance" in html and "Outperformance" in html
    assert "Weighted acceptance" in html
    assert "<script" not in html  # self-contained and static


def test_html_report_lists_incomplete_scenarios(tmp_path, run_campaign):
    store = str(tmp_path / "store")
    assert run_campaign(store, "--max-units", "3") == 3
    aggregate = aggregate_store(store)
    html = render_html_report(aggregate)
    assert "Campaign incomplete" in html
    assert "Incomplete scenarios (1)" in html
    assert html.count("<svg") == 1


def test_markdown_report_restricts_protocols(finished_store):
    aggregate = aggregate_store(finished_store)
    text = render_markdown_report(aggregate, protocols=["FED-FP"])
    assert "| FED-FP |" in text
    # The per-scenario series tables only carry the selected protocol.
    assert "SPIN" not in text.split("## Acceptance-ratio series")[1]


# --------------------------------------------------------------------------- #
# Golden files (fixed-seed campaign -> byte-stable deliverables)
# --------------------------------------------------------------------------- #
def test_markdown_report_matches_golden(finished_store):
    aggregate = aggregate_store(finished_store)
    with open(os.path.join(GOLDEN_DIR, "REPORT.md")) as handle:
        assert render_markdown_report(aggregate) == handle.read()


def test_series_csv_matches_golden(finished_store):
    aggregate = aggregate_store(finished_store)
    report = aggregate.complete_reports()[0]
    golden = os.path.join(GOLDEN_DIR, f"{report.scenario.scenario_id}.csv")
    with open(golden, newline="") as handle:
        assert series_csv(report.sweep) == handle.read()


# --------------------------------------------------------------------------- #
# One aggregation path: single-sweep CSV == grid-report CSV, byte for byte
# --------------------------------------------------------------------------- #
def test_bundle_csv_is_byte_identical_to_single_sweep_csv(finished_store, tmp_path):
    aggregate = aggregate_store(finished_store)
    bundle = write_report_bundle(aggregate, str(tmp_path / "out"))
    assert os.path.isfile(bundle.report_md)
    assert os.path.isfile(bundle.report_html)
    assert len(bundle.series_csvs) == 2

    sweeps = {
        sweep.scenario.scenario_id: sweep
        for sweep in aggregate_store(finished_store).complete_results()
    }
    for path in bundle.series_csvs:
        scenario_id = os.path.splitext(os.path.basename(path))[0]
        with open(path, newline="") as handle:
            from_bundle = handle.read()
        # The CSV of the bare sweep must be the same bytes.
        assert from_bundle == series_csv(sweeps[scenario_id])


def test_failed_render_never_clobbers_an_existing_bundle(finished_store, tmp_path):
    aggregate = aggregate_store(finished_store)
    out = str(tmp_path / "out")
    bundle = write_report_bundle(aggregate, out)
    before = {path: open(path).read() for path in bundle.paths}

    # LPP was never run in this campaign: the render fails up front ...
    with pytest.raises(ValueError, match="LPP"):
        write_report_bundle(aggregate, out, protocols=["LPP"])
    # ... and the previous bundle is untouched (no truncation, no tearing).
    for path, content in before.items():
        assert open(path).read() == content


# --------------------------------------------------------------------------- #
# Series rows (shared assembly) — NaN conventions
# --------------------------------------------------------------------------- #
def test_series_rows_carry_nan_and_failures():
    import math

    sweep = synthetic_sweep([(2, 1, 2, 0), (0, 0, 0, 3)])
    rows = series_rows(sweep)
    assert [row["generation_failures"] for row in rows] == [0, 3]
    assert math.isnan(rows[1]["SPIN"]) and math.isnan(rows[1]["LPP"])
    assert rows[0]["SPIN"] == pytest.approx(1.0)
    csv_text = series_csv(sweep)
    assert csv_text.splitlines()[2].endswith(",,,3")  # NaN -> empty cells
