"""Simulate-mode reporting: tightness rollups, renderers, golden file.

The ``simulate_store`` fixture runs the fixed-seed four-scenario validation
campaign from ``conftest.SIM_CAMPAIGN_FLAGS`` through the real CLI; these
tests pin the acceptance criteria of the validation subsystem — zero
soundness violations and a byte-deterministic bound-tightness report that
re-renders identically from the same store.
"""

from __future__ import annotations

import os
from html import escape

from repro.campaign import cli
from repro.obs.profile import ep_fidelity_line
from repro.report.aggregate import aggregate_store
from repro.report.html import render_html_report
from repro.report.markdown import render_markdown_report
from repro.report.svg import render_tightness_panel

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: Unit count of the ``simulate_store`` fixture (see conftest
#: ``SIM_CAMPAIGN_FLAGS``: 4 scenarios x 4 utilization points).  Kept as a
#: literal to avoid the ambiguous cross-conftest import.
SIM_CAMPAIGN_UNITS = 16


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
def test_simulate_store_aggregates_validation_evidence(simulate_store):
    aggregate = aggregate_store(simulate_store)
    assert aggregate.mode == "simulate"
    assert aggregate.complete
    assert aggregate.completed_units == SIM_CAMPAIGN_UNITS
    totals = aggregate.validation_totals()
    assert set(totals) == {"DPCP-p-EP", "DPCP-p-EN", "SPIN", "LPP"}
    simulated = sum(rollup.simulated for rollup in totals.values())
    assert simulated > 0, "the fixture must actually simulate accepted task sets"
    # Per-scenario rollups merge exactly into the campaign totals.
    per_scenario = sum(
        rollup.simulated
        for report in aggregate.scenarios
        for rollup in (report.validation or {}).values()
    )
    assert per_scenario == simulated


def test_simulate_campaign_is_sound_zero_violations(simulate_store):
    """Acceptance criterion: no ME violations, no deadline misses, no
    observed-over-bound overflows among analysis-accepted task sets."""
    aggregate = aggregate_store(simulate_store)
    totals = aggregate.validation_totals()
    assert set(totals) == {"DPCP-p-EP", "DPCP-p-EN", "SPIN", "LPP"}
    for protocol, rollup in totals.items():
        assert rollup.simulated > 0, protocol
        assert rollup.mutual_exclusion_violations == 0, protocol
        assert rollup.processor_overlaps == 0, protocol
        assert rollup.spin_exclusivity_violations == 0, protocol
        assert rollup.deadline_misses == 0, protocol
        assert rollup.rule_failures == 0, protocol
        assert rollup.ratio.overflows == 0, protocol
        if rollup.ratio.maximum is not None:
            assert rollup.ratio.maximum <= 1.0


def test_event_budget_truncation_is_recorded_not_fatal(simulate_store):
    # The fixture's event budget deliberately truncates at least one run;
    # the campaign still completes and the truncation is accounted for.
    aggregate = aggregate_store(simulate_store)
    truncated = sum(
        rollup.truncated for rollup in aggregate.validation_totals().values()
    )
    assert truncated >= 1


def test_analyze_store_has_no_validation_evidence(finished_store):
    aggregate = aggregate_store(finished_store)
    assert aggregate.mode == "analyze"
    assert aggregate.validation_totals() == {}
    assert all(report.validation is None for report in aggregate.scenarios)


# --------------------------------------------------------------------------- #
# Renderers
# --------------------------------------------------------------------------- #
def test_simulate_markdown_report_matches_golden(simulate_store):
    aggregate = aggregate_store(simulate_store)
    with open(os.path.join(GOLDEN_DIR, "REPORT_simulate.md")) as handle:
        assert render_markdown_report(aggregate) == handle.read()


def test_simulate_markdown_report_carries_the_tightness_table(simulate_store):
    aggregate = aggregate_store(simulate_store)
    text = render_markdown_report(aggregate)
    assert "## Bound tightness (observed / analytical WCRT)" in text
    assert "| **all** | DPCP-p-EP |" in text
    assert "| **all** | SPIN |" in text
    assert "| **all** | LPP |" in text
    assert "Soundness: **no violations**" in text


def test_analyze_markdown_report_has_no_tightness_table(finished_store):
    aggregate = aggregate_store(finished_store)
    assert "Bound tightness" not in render_markdown_report(aggregate)


def test_simulate_html_report_embeds_the_tightness_panel(simulate_store):
    aggregate = aggregate_store(simulate_store)
    html = render_html_report(aggregate)
    assert "Bound tightness (observed / analytical WCRT)" in html
    assert 'class="tightness-panel"' in html
    assert "<td>Mode</td>" not in html  # mode is a <th> label row
    assert "simulate" in html


def test_reports_show_ep_fidelity_from_the_profile(simulate_store, finished_store):
    aggregate = aggregate_store(simulate_store)
    fidelity = aggregate.ep_fidelity()
    line = ep_fidelity_line(fidelity)
    assert line.startswith("EP degraded to EN for ")
    assert f"({fidelity['truncated']} of {fidelity['enumerated']} enumerations" in line
    assert f"**EP fidelity.** {line}." in render_markdown_report(aggregate)
    assert f"<b>EP fidelity.</b> {escape(line)}." in render_html_report(aggregate)
    # No EP analysis ran in the SPIN/FED-FP fixture: no profile section.
    analyze = aggregate_store(finished_store)
    assert "Compute profile" not in render_markdown_report(analyze)
    assert "Compute profile" not in render_html_report(analyze)


def test_tightness_panel_handles_empty_distributions():
    from repro.experiments.metrics import TightnessStats

    empty = render_tightness_panel({"DPCP-p-EP": TightnessStats()})
    assert "no simulated task sets yet" in empty
    stats = TightnessStats()
    for ratio in (0.05, 0.5, 0.55, 0.999):
        stats.add(ratio)
    panel = render_tightness_panel({"DPCP-p-EP": stats})
    assert panel.count("<rect") >= 4  # frame + background + bars
    assert "max 0.999" in panel


# --------------------------------------------------------------------------- #
# Re-reporting and the CLI summary line
# --------------------------------------------------------------------------- #
def test_second_report_renders_identical_markdown_equal_to_golden(
    simulate_store, tmp_path, capsys
):
    renders = []
    for run in ("first", "second"):
        out = str(tmp_path / run)
        assert cli.main(["report", "--store", simulate_store, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "validation:" in stdout and "0 soundness violation(s)" in stdout
        with open(os.path.join(out, "REPORT.md")) as handle:
            renders.append(handle.read())
    assert renders[1] == renders[0]
    with open(os.path.join(GOLDEN_DIR, "REPORT_simulate.md")) as handle:
        assert renders[0] == handle.read()
