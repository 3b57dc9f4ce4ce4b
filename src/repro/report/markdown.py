"""Markdown report (``REPORT.md``): summary tables plus per-scenario series.

The Markdown output is deterministic for a given store — scenario sections
follow plan order, no timestamps or absolute paths appear — so a
fixed-seed campaign pins it byte-for-byte in a golden-file test.

The paper's Tables 2 and 3 are rendered here as plain text
(:func:`render_dominance_table`, :func:`render_outperformance_table`): for
every ordered protocol pair (row, column), in how many scenarios the row
protocol dominates / outperforms the column protocol, as an absolute count
and as a percentage of the scenarios.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..campaign.planner import MODE_SIMULATE
from ..experiments.metrics import PairwiseStatistics, ValidationRollup
from ..obs.profile import ep_fidelity_line
from .aggregate import StoreAggregate
from .series import render_ascii_plot, render_series_table, resolve_protocols

#: Protocol order used by the paper's tables (they omit FED-FP).
TABLE_PROTOCOLS = ("DPCP-p-EP", "DPCP-p-EN", "SPIN", "LPP")


def _markdown_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A GitHub-flavoured Markdown table from pre-formatted cells."""
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _ratio(value: float) -> str:
    """Format an acceptance ratio for a Markdown cell (``n/a`` for NaN)."""
    return "n/a" if math.isnan(value) else f"{value:.3f}"


def _format_cell(count: int, total: int) -> str:
    percentage = 100.0 * count / total if total else 0.0
    return f"{count}({percentage:.1f}%)"


def _render_pairwise(
    stats: PairwiseStatistics,
    matrix_name: str,
    protocols: Optional[Sequence[str]],
    title: str,
) -> str:
    """One pairwise matrix as an aligned plain-text table."""
    protocols = protocols or [p for p in TABLE_PROTOCOLS if p in stats.protocols]
    matrix = getattr(stats, matrix_name)
    total = stats.scenario_count
    header = [""] + list(protocols)
    rows: List[List[str]] = [header]
    for row_protocol in protocols:
        row = [row_protocol]
        for col_protocol in protocols:
            if row_protocol == col_protocol:
                row.append("N/A")
            else:
                row.append(_format_cell(matrix[row_protocol][col_protocol], total))
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = [f"{title} ({total} scenarios)"]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_dominance_table(
    stats: PairwiseStatistics, protocols: Optional[Sequence[str]] = None
) -> str:
    """Render Table 2 ("Statistic for Dominance") as plain text.

    ``protocols`` defaults to :data:`TABLE_PROTOCOLS` present in ``stats``.
    """
    return _render_pairwise(
        stats, "dominance", protocols, "Table 2. Statistic for Dominance"
    )


def render_outperformance_table(
    stats: PairwiseStatistics, protocols: Optional[Sequence[str]] = None
) -> str:
    """Render Table 3 ("Statistic for Outperformance") as plain text.

    ``protocols`` defaults to :data:`TABLE_PROTOCOLS` present in ``stats``.
    """
    return _render_pairwise(
        stats, "outperformance", protocols, "Table 3. Statistic for Outperformance"
    )


def _tightness_row(label: str, protocol: str, rollup: ValidationRollup) -> List[str]:
    """One bound-tightness table row from a validation rollup."""
    ratio = rollup.ratio
    return [
        label,
        protocol,
        str(rollup.simulated),
        str(ratio.count),
        _ratio(ratio.mean),
        "n/a" if ratio.maximum is None else f"{ratio.maximum:.3f}",
        str(rollup.deadline_misses),
        str(
            rollup.mutual_exclusion_violations
            + rollup.processor_overlaps
            + rollup.spin_exclusivity_violations
        ),
        str(ratio.overflows),
        str(rollup.truncated),
    ]


def render_tightness_section(aggregate: StoreAggregate) -> List[str]:
    """The bound-tightness section of a simulate-mode report (Markdown).

    One row per (complete scenario, protocol) plus per-protocol campaign
    totals: how many accepted task sets were simulated, the observed/bound
    ratio distribution (task-level mean and max), and the soundness
    counters — deadline misses, runtime invariant violations, and ratio
    overflows (observed > bound), all of which must be zero for the
    analysis to be sound.
    """
    totals = aggregate.validation_totals()
    parts: List[str] = ["## Bound tightness (observed / analytical WCRT)", ""]
    if not totals:
        parts.append("No scenario has completed yet — no validation evidence.")
        parts.append("")
        return parts
    header = (
        "Scenario",
        "Protocol",
        "Simulated",
        "Task ratios",
        "Mean",
        "Max",
        "Misses",
        "Invariant viol.",
        "Bound viol.",
        "Truncated",
    )
    rows: List[List[str]] = []
    for report in aggregate.complete_reports():
        if not report.validation:
            continue
        for protocol in aggregate.protocols:
            rollup = report.validation.get(protocol)
            if rollup is None:
                continue
            rows.append(
                _tightness_row(
                    f"`{report.scenario.scenario_id}`", protocol, rollup
                )
            )
    for protocol in aggregate.protocols:
        if protocol in totals:
            rows.append(_tightness_row("**all**", protocol, totals[protocol]))
    parts.append(_markdown_table(header, rows))
    parts.append("")
    violations = sum(rollup.violations for rollup in totals.values())
    failures = sum(rollup.rule_failures for rollup in totals.values())
    simulated = sum(rollup.simulated for rollup in totals.values())
    if violations == 0 and failures == 0:
        parts.append(
            f"Soundness: **no violations** over {simulated} simulated "
            "runs — zero deadline misses, zero mutual-exclusion violations, "
            "zero processor overlaps, zero spin-exclusivity violations, "
            "zero observed>bound overflows."
        )
    else:
        parts.append(
            f"Soundness: **{violations} violation(s) and {failures} "
            f"simulator rule failure(s)** over {simulated} simulated runs — "
            "see the table above; this indicates an analysis or simulator "
            "bug and must be investigated."
        )
    parts.append("")
    return parts


def render_profile_section(aggregate: StoreAggregate) -> List[str]:
    """The compute-profile section of a report (Markdown): the EP-fidelity line.

    Empty when no EP enumeration ran with telemetry (or the store has no
    event stream).  Implementation counters, the solver histogram and
    wall-clock timings render only in ``python -m repro.campaign profile``,
    so an exact optimisation that changes a counter leaves REPORT.md alone.
    """
    fidelity = aggregate.ep_fidelity()
    if fidelity is None:
        return []
    return [
        "## Compute profile",
        "",
        f"**EP fidelity.** {ep_fidelity_line(fidelity)}.",
        "",
    ]


def render_markdown_report(
    aggregate: StoreAggregate, protocols: Optional[Sequence[str]] = None
) -> str:
    """Render a full store aggregate as one ``REPORT.md`` document.

    Sections: campaign summary, weighted acceptance, the Sec.-VII
    dominance/outperformance tables (as fenced text), and one series
    table + ASCII plot per complete scenario.
    ``protocols`` restricts and orders the reported curves.
    """
    manifest = aggregate.manifest
    complete = aggregate.complete_reports()
    incomplete = aggregate.incomplete_reports()

    parts: List[str] = ["# Campaign report", ""]
    summary_rows = [
        ("Config hash", f"`{manifest.get('config_hash', '')[:16]}…`"),
        ("Mode", aggregate.mode),
        ("Protocols", ", ".join(aggregate.protocols)),
        ("Scenarios", f"{len(complete)}/{len(aggregate.scenarios)} complete"),
        (
            "Work units",
            f"{aggregate.completed_units}/{aggregate.total_units} stored",
        ),
        ("Evaluated task sets", str(aggregate.evaluated_samples)),
        ("Failed task-set draws", str(aggregate.generation_failures)),
    ]
    if aggregate.quarantined:
        # Conditional on purpose: fault-free reports keep their exact
        # historical bytes (golden-file pinned).
        summary_rows.append(("Quarantined units", str(len(aggregate.quarantined))))
    parts.append(_markdown_table(("", ""), summary_rows))
    parts.append("")
    if incomplete:
        parts.append(
            "**Campaign incomplete** — the scenarios below cover only the "
            "completed sweeps; resume the campaign to fill in the rest."
        )
        parts.append("")

    weighted = aggregate.weighted_acceptance()
    if weighted:
        selected = list(protocols) if protocols is not None else aggregate.protocols
        parts.append("## Weighted acceptance (complete scenarios)")
        parts.append("")
        parts.append(
            _markdown_table(
                selected,
                [[_ratio(weighted.get(p, math.nan)) for p in selected]],
            )
        )
        parts.append("")

    if aggregate.mode == MODE_SIMULATE:
        parts.extend(render_tightness_section(aggregate))

    stats = aggregate.pairwise()
    if stats is not None:
        parts.append("## Pairwise statistics")
        parts.append("")
        parts.append("```text")
        parts.append(render_dominance_table(stats, protocols=stats.protocols))
        parts.append("```")
        parts.append("")
        parts.append("```text")
        parts.append(render_outperformance_table(stats, protocols=stats.protocols))
        parts.append("```")
        parts.append("")

    parts.extend(render_profile_section(aggregate))

    parts.append(f"## Acceptance-ratio series ({len(complete)} scenarios)")
    parts.append("")
    for report in complete:
        scenario_id = report.scenario.scenario_id
        chart_protocols = resolve_protocols(report.sweep, protocols)
        parts.append(f"### {scenario_id}")
        parts.append("")
        parts.append("```text")
        parts.append(
            render_series_table(report.sweep, chart_protocols, title=scenario_id)
        )
        parts.append("```")
        parts.append("")
        parts.append("```text")
        parts.append(render_ascii_plot(report.sweep, chart_protocols))
        parts.append("```")
        parts.append("")

    if incomplete:
        parts.append(f"## Incomplete scenarios ({len(incomplete)})")
        parts.append("")
        for report in incomplete:
            parts.append(
                f"- `{report.scenario.scenario_id}`: "
                f"{report.points_done}/{report.points_total} points"
            )
        parts.append("")

    if aggregate.quarantined:
        parts.append(f"## Quarantined units ({len(aggregate.quarantined)})")
        parts.append("")
        parts.append(
            "These units exhausted their execution attempts and hold no "
            "successful checkpoint; their error records live in "
            "`quarantine.jsonl`.  Resuming the campaign retries them."
        )
        parts.append("")
        parts.append(
            _markdown_table(
                ("Unit", "Error kind", "Attempts", "Message"),
                [
                    [
                        f"`{unit_id}`",
                        str(record.get("error_kind", "?")),
                        str(record.get("attempts", "?")),
                        str(record.get("error_message", "")),
                    ]
                    for unit_id, record in sorted(
                        aggregate.quarantined.items()
                    )
                ],
            )
        )
        parts.append("")

    return "\n".join(parts).rstrip() + "\n"
