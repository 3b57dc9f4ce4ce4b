"""Self-contained HTML report: the Fig.-2 curve grid plus summary tables.

The page embeds its stylesheet and every chart (inline SVG from
:mod:`repro.report.svg`) directly, so ``report.html`` is a single file with
no scripts and no external assets — it renders offline, attaches to CI runs
as one artifact, and never pulls a plotting dependency into the repo.
"""

from __future__ import annotations

import math
from html import escape
from typing import List, Optional, Sequence

from ..campaign.planner import MODE_SIMULATE
from ..experiments.metrics import PairwiseStatistics, ValidationRollup
from ..obs.profile import ep_fidelity_line
from .aggregate import StoreAggregate
from .series import resolve_protocols
from .svg import render_svg_chart, render_tightness_panel

_STYLE = """\
body { font-family: sans-serif; margin: 1.5em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.15em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.6em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em; font-size: 0.9em; }
th { background: #f0f0f0; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.grid { display: flex; flex-wrap: wrap; gap: 12px; }
.grid figure { margin: 0; border: 1px solid #ddd; padding: 4px; }
.grid figcaption { font-size: 0.75em; text-align: center; color: #555; }
.note { color: #777; font-size: 0.85em; }
"""


def _ratio_cell(value: float) -> str:
    """One ``<td>`` for an acceptance ratio (``n/a`` for NaN)."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return '<td class="num">n/a</td>'
    return f'<td class="num">{value:.3f}</td>'


def _pairwise_table(stats: PairwiseStatistics, matrix: str, title: str) -> str:
    """Render one dominance/outperformance matrix as an HTML table."""
    data = getattr(stats, matrix)
    protocols = stats.protocols
    total = stats.scenario_count
    rows = [f"<h2>{escape(title)} ({total} scenarios)</h2>", "<table>"]
    rows.append(
        "<tr><th></th>"
        + "".join(f"<th>{escape(p)}</th>" for p in protocols)
        + "</tr>"
    )
    for a in protocols:
        cells = [f"<th>{escape(a)}</th>"]
        for b in protocols:
            if a == b:
                cells.append("<td>N/A</td>")
            else:
                count = data[a][b]
                percent = 100.0 * count / total if total else 0.0
                cells.append(f'<td class="num">{count} ({percent:.1f}%)</td>')
        rows.append("<tr>" + "".join(cells) + "</tr>")
    rows.append("</table>")
    return "\n".join(rows)


def _tightness_section(aggregate: StoreAggregate) -> List[str]:
    """The simulate-mode bound-tightness section (table + SVG panel)."""
    totals = aggregate.validation_totals()
    parts = ["<h2>Bound tightness (observed / analytical WCRT)</h2>"]
    if not totals:
        parts.append(
            '<p class="note">No scenario has completed yet — no validation '
            "evidence.</p>"
        )
        return parts

    def cells(rollup: ValidationRollup) -> str:
        ratio = rollup.ratio
        maximum = "n/a" if ratio.maximum is None else f"{ratio.maximum:.3f}"
        return (
            f'<td class="num">{rollup.simulated}</td>'
            f'<td class="num">{ratio.count}</td>'
            + _ratio_cell(ratio.mean)
            + f'<td class="num">{maximum}</td>'
            f'<td class="num">{rollup.deadline_misses}</td>'
            f'<td class="num">'
            f"{rollup.mutual_exclusion_violations + rollup.processor_overlaps + rollup.spin_exclusivity_violations}</td>"
            f'<td class="num">{ratio.overflows}</td>'
            f'<td class="num">{rollup.truncated}</td>'
        )

    parts.append("<table>")
    parts.append(
        "<tr><th>Scenario</th><th>Protocol</th><th>Simulated</th>"
        "<th>Task ratios</th><th>Mean</th><th>Max</th><th>Misses</th>"
        "<th>Invariant viol.</th><th>Bound viol.</th><th>Truncated</th></tr>"
    )
    for report in aggregate.complete_reports():
        if not report.validation:
            continue
        for protocol in aggregate.protocols:
            rollup = report.validation.get(protocol)
            if rollup is None:
                continue
            parts.append(
                f"<tr><td>{escape(report.scenario.scenario_id)}</td>"
                f"<td>{escape(protocol)}</td>{cells(rollup)}</tr>"
            )
    for protocol in aggregate.protocols:
        if protocol in totals:
            parts.append(
                f"<tr><th>all</th><th>{escape(protocol)}</th>"
                f"{cells(totals[protocol])}</tr>"
            )
    parts.append("</table>")
    panel_stats = {
        protocol: totals[protocol].ratio
        for protocol in aggregate.protocols
        if protocol in totals
    }
    parts.append(f"<figure>{render_tightness_panel(panel_stats)}</figure>")
    return parts


def render_html_report(
    aggregate: StoreAggregate,
    protocols: Optional[Sequence[str]] = None,
    *,
    chart_width: int = 360,
    chart_height: int = 240,
) -> str:
    """Render a full store aggregate as one self-contained HTML page.

    Covers the campaign summary, per-protocol weighted acceptance, the
    Sec.-VII dominance/outperformance tables, and an acceptance-ratio chart
    for every complete scenario (the Fig.-2 grid, at whatever grid size the
    store holds).  ``protocols`` restricts and orders the reported curves.
    """
    selected = list(protocols) if protocols is not None else aggregate.protocols
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>Campaign report</title>",
        f"<style>{_STYLE}</style>",
        "</head><body>",
        "<h1>Campaign report</h1>",
    ]

    # Summary.
    manifest = aggregate.manifest
    complete = aggregate.complete_reports()
    parts.append("<table>")
    summary_rows = [
        ("Config hash", manifest.get("config_hash", "")[:16] + "…"),
        ("Mode", aggregate.mode),
        ("Protocols", ", ".join(aggregate.protocols)),
        (
            "Scenarios",
            f"{len(complete)}/{len(aggregate.scenarios)} complete",
        ),
        (
            "Work units",
            f"{aggregate.completed_units}/{aggregate.total_units} stored",
        ),
        ("Evaluated task sets", f"{aggregate.evaluated_samples}"),
        ("Failed task-set draws", f"{aggregate.generation_failures}"),
        ("Analysis compute", f"{aggregate.elapsed_seconds:.1f}s"),
    ]
    for label, value in summary_rows:
        parts.append(
            f"<tr><th>{escape(label)}</th><td>{escape(str(value))}</td></tr>"
        )
    parts.append("</table>")
    if not aggregate.complete:
        parts.append(
            '<p class="note">Campaign incomplete — incomplete scenarios are '
            "omitted below; resume the campaign to fill them in.</p>"
        )

    # Weighted acceptance rollup.
    weighted = aggregate.weighted_acceptance()
    if weighted:
        parts.append("<h2>Weighted acceptance (complete scenarios)</h2>")
        parts.append("<table><tr>")
        parts.extend(f"<th>{escape(p)}</th>" for p in selected)
        parts.append("</tr><tr>")
        parts.extend(_ratio_cell(weighted.get(p, math.nan)) for p in selected)
        parts.append("</tr></table>")

    # Bound tightness (simulate-mode validation campaigns).
    if aggregate.mode == MODE_SIMULATE:
        parts.extend(_tightness_section(aggregate))

    # Pairwise dominance / outperformance (Tables 2 and 3).
    stats = aggregate.pairwise()
    if stats is not None:
        parts.append(_pairwise_table(stats, "dominance", "Dominance"))
        parts.append(_pairwise_table(stats, "outperformance", "Outperformance"))

    # Compute profile: the EP-fidelity line only (see markdown.py).
    fidelity = aggregate.ep_fidelity()
    if fidelity is not None:
        parts.append("<h2>Compute profile</h2>")
        parts.append(
            f"<p><b>EP fidelity.</b> {escape(ep_fidelity_line(fidelity))}.</p>"
        )

    # The curve grid.
    parts.append(f"<h2>Acceptance-ratio curves ({len(complete)} scenarios)</h2>")
    parts.append('<div class="grid">')
    for report in complete:
        chart_protocols = resolve_protocols(report.sweep, protocols)
        chart = render_svg_chart(
            report.sweep,
            chart_protocols,
            width=chart_width,
            height=chart_height,
        )
        failures = (
            report.sweep.curves[chart_protocols[0]].total_generation_failures
            if chart_protocols
            else 0
        )
        caption = f"{report.scenario.scenario_id} — {failures} failed draws"
        parts.append(
            f"<figure>{chart}<figcaption>{escape(caption)}</figcaption></figure>"
        )
    parts.append("</div>")

    incomplete = aggregate.incomplete_reports()
    if incomplete:
        parts.append(f"<h2>Incomplete scenarios ({len(incomplete)})</h2><ul>")
        for report in incomplete:
            parts.append(
                f"<li>{escape(report.scenario.scenario_id)}: "
                f"{report.points_done}/{report.points_total} points</li>"
            )
        parts.append("</ul>")

    parts.append("</body></html>")
    return "\n".join(parts)
