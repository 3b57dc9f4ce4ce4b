"""Report content: every section, title, table row and cell, decided once.

:func:`render_report` walks a :class:`~repro.report.aggregate.StoreAggregate`
a single time and decides which sections appear, their titles, and every
table's header, rows and cells.  A format object supplies only the syntax —
:mod:`repro.report.markdown` for ``REPORT.md``, :mod:`repro.report.html`
for ``report.html`` — so the two documents cannot drift apart.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..campaign.planner import MODE_SIMULATE
from ..experiments.metrics import PairwiseStatistics, ValidationRollup
from ..obs.profile import ep_fidelity_line
from .aggregate import StoreAggregate
from .series import resolve_protocols

#: Titles of the Sec.-VII matrices, by :class:`PairwiseStatistics` field.
PAIRWISE_TITLES = {
    "dominance": "Table 2. Statistic for Dominance",
    "outperformance": "Table 3. Statistic for Outperformance",
}


def _ratio(value: Optional[float]) -> str:
    """Format a ratio cell (``n/a`` for NaN or a missing value)."""
    return "n/a" if value is None or math.isnan(value) else f"{value:.3f}"


def pairwise_matrix(
    stats: PairwiseStatistics, matrix_name: str, protocols: Sequence[str]
) -> Tuple[str, List[str], List[List[str]]]:
    """One pairwise matrix (``dominance`` or ``outperformance``) as cells.

    Returns ``(title, header, rows)``: each row starts with its protocol,
    and each cell counts the scenarios in which the row protocol beats the
    column protocol, with its share of all scenarios.
    """
    counts = getattr(stats, matrix_name)
    total = stats.scenario_count
    rows = []
    for row_protocol in protocols:
        row = [row_protocol]
        for col_protocol in protocols:
            if row_protocol == col_protocol:
                row.append("N/A")
            else:
                count = counts[row_protocol][col_protocol]
                percentage = 100.0 * count / total if total else 0.0
                row.append(f"{count}({percentage:.1f}%)")
        rows.append(row)
    title = f"{PAIRWISE_TITLES[matrix_name]} ({total} scenarios)"
    return title, ["", *protocols], rows


def _tightness_row(label: str, protocol: str, rollup: ValidationRollup) -> tuple:
    """One bound-tightness table row from a validation rollup."""
    ratio = rollup.ratio
    return (
        label,
        protocol,
        str(rollup.simulated),
        str(ratio.count),
        _ratio(ratio.mean),
        _ratio(ratio.maximum),
        str(rollup.deadline_misses),
        str(rollup.invariant_violations),
        str(ratio.overflows),
        str(rollup.truncated),
    )


def _soundness(fmt, overall: ValidationRollup) -> str:
    """The verdict under the bound-tightness table."""
    if overall.violations == 0 and overall.rule_failures == 0:
        verdict = "no violations"
        detail = (
            "zero deadline misses, zero mutual-exclusion violations, zero "
            "processor overlaps, zero spin-exclusivity violations, zero "
            "observed>bound overflows."
        )
    else:
        verdict = (
            f"{overall.violations} violation(s) and {overall.rule_failures} "
            "simulator rule failure(s)"
        )
        detail = (
            "see the table above; this indicates an analysis or simulator "
            "bug and must be investigated."
        )
    runs = f" over {overall.simulated} simulated runs — {detail}"
    return fmt.paragraph("Soundness: ", fmt.strong(verdict), runs)


def render_report(
    aggregate: StoreAggregate, fmt, protocols: Optional[Sequence[str]] = None
) -> str:
    """Render the report of ``aggregate`` in the syntax of ``fmt``.

    ``fmt`` formats inline spans (``code``, ``strong``) and blocks
    (``heading``, ``table``, ``matrix``, ``paragraph``, ``bullets``,
    ``charts``, ``tightness_panel``) and joins the blocks with
    ``document``.  A section appears only when it has something to show;
    the charts section always does.  ``protocols`` restricts and orders the
    weighted-acceptance row and the charts (a protocol the campaign never
    ran raises :class:`ValueError`).
    """
    complete = aggregate.complete_reports()
    incomplete = aggregate.incomplete_reports()
    config_hash = aggregate.manifest.get("config_hash", "")[:16]
    summary = [
        ("Config hash", fmt.code(f"{config_hash}…")),
        ("Mode", aggregate.mode),
        ("Protocols", ", ".join(aggregate.protocols)),
        ("Scenarios", f"{len(complete)}/{len(aggregate.scenarios)} complete"),
        ("Work units", f"{aggregate.completed_units}/{aggregate.total_units} stored"),
        ("Evaluated task sets", str(aggregate.evaluated_samples)),
        ("Failed task-set draws", str(aggregate.generation_failures)),
    ]
    if aggregate.quarantined:
        # Conditional on purpose: fault-free reports keep their exact
        # historical bytes (golden-file pinned).
        summary.append(("Quarantined units", str(len(aggregate.quarantined))))
    title = "Campaign report"
    blocks = [fmt.heading(title, level=1), fmt.table(None, summary)]
    if incomplete:
        blocks.append(fmt.paragraph(
            fmt.strong("Campaign incomplete"),
            " — the scenarios below cover only the completed sweeps; resume "
            "the campaign to fill in the rest.",
            note=True,
        ))

    weighted = aggregate.weighted_acceptance()
    if weighted:
        selected = list(protocols) if protocols is not None else aggregate.protocols
        row = tuple(_ratio(weighted.get(p, math.nan)) for p in selected)
        blocks.append(fmt.heading("Weighted acceptance (complete scenarios)"))
        blocks.append(fmt.table(selected, [row], numeric_from=0))

    if aggregate.mode == MODE_SIMULATE:
        blocks.append(fmt.heading("Bound tightness (observed / analytical WCRT)"))
        totals = aggregate.validation_totals()
        if not totals:
            blocks.append(fmt.paragraph(
                "No scenario has completed yet — no validation evidence.", note=True
            ))
        else:
            # One row per (complete scenario, protocol), then per-protocol
            # campaign totals; every soundness counter must read zero.
            rows = [
                _tightness_row(fmt.code(r.scenario.scenario_id), p, r.validation[p])
                for r in complete
                if r.validation
                for p in aggregate.protocols
                if p in r.validation
            ]
            ordered = [p for p in aggregate.protocols if p in totals]
            rows += [_tightness_row(fmt.strong("all"), p, totals[p]) for p in ordered]
            header = (
                "Scenario", "Protocol", "Simulated", "Task ratios", "Mean", "Max",
                "Misses", "Invariant viol.", "Bound viol.", "Truncated",
            )
            blocks.append(fmt.table(header, rows, numeric_from=2))
            blocks.append(fmt.tightness_panel({p: totals[p].ratio for p in ordered}))
            blocks.append(_soundness(fmt, ValidationRollup.merged(totals.values())))

    stats = aggregate.pairwise()
    if stats is not None:
        blocks.append(fmt.heading("Pairwise statistics"))
        for name in PAIRWISE_TITLES:
            blocks.append(fmt.matrix(*pairwise_matrix(stats, name, stats.protocols)))

    fidelity = aggregate.ep_fidelity()
    if fidelity is not None:
        # Counters and timings render only in `campaign profile`, so an
        # exact optimisation that changes a counter leaves the report alone.
        blocks.append(fmt.heading("Compute profile"))
        line = f" {ep_fidelity_line(fidelity)}."
        blocks.append(fmt.paragraph(fmt.strong("EP fidelity."), line))

    charts = []
    for report in complete:
        scenario_id = report.scenario.scenario_id
        selected = resolve_protocols(report.sweep, protocols)
        curve = report.sweep.curves[selected[0]] if selected else None
        failures = 0 if curve is None else curve.total_generation_failures
        caption = f"{scenario_id} — {failures} failed draws"
        charts.append((scenario_id, report.sweep, selected, caption))
    blocks.append(fmt.heading(f"Acceptance-ratio series ({len(complete)} scenarios)"))
    blocks.append(fmt.charts(charts))

    if incomplete:
        blocks.append(fmt.heading(f"Incomplete scenarios ({len(incomplete)})"))
        items = [
            (
                fmt.code(report.scenario.scenario_id),
                f": {report.points_done}/{report.points_total} points",
            )
            for report in incomplete
        ]
        blocks.append(fmt.bullets(items))

    if aggregate.quarantined:
        blocks.append(fmt.heading(f"Quarantined units ({len(aggregate.quarantined)})"))
        blocks.append(fmt.paragraph(
            "These units exhausted their execution attempts and hold no "
            "successful checkpoint; their error records live in ",
            fmt.code("quarantine.jsonl"),
            ".  Resuming the campaign retries them.",
        ))
        rows = [
            (
                fmt.code(unit_id),
                str(record.get("error_kind", "?")),
                str(record.get("attempts", "?")),
                str(record.get("error_message", "")),
            )
            for unit_id, record in sorted(aggregate.quarantined.items())
        ]
        blocks.append(fmt.table(("Unit", "Error kind", "Attempts", "Message"), rows))
    return fmt.document(title, blocks)
