"""Per-sweep series: the one place acceptance rows are built and rendered.

Every renderer of this package turns a
:class:`~repro.experiments.runner.SweepResult` into per-utilization-point
rows through :func:`series_rows`; this module also holds the plain-text
views of one sweep (:func:`render_series_table`, :func:`render_ascii_plot`)
and its CSV (:func:`series_csv`) — the repository deliberately has no
plotting dependency.

Rows carry NaN acceptance ratios for points where every task-set draw
failed (see ``SweepCurve.generation_failures``); the renderers turn those
into ``n/a`` table cells, ASCII-plot gaps, empty CSV cells, and broken SVG
polylines — never a fabricated ratio.
"""

from __future__ import annotations

import csv
import io
import math
from typing import List, Optional, Sequence

from ..campaign.planner import KNOWN_PROTOCOLS
from ..experiments.runner import SweepResult


def resolve_protocols(
    result: SweepResult, protocols: Optional[Sequence[str]] = None
) -> List[str]:
    """Validate and resolve the protocol selection for one sweep.

    With ``protocols=None`` the sweep's curves are returned in the paper's
    plot order, :data:`~repro.campaign.planner.KNOWN_PROTOCOLS` (possibly
    empty for a sweep with no curves).  A
    caller-supplied list must be free of duplicates and fully covered by the
    sweep; otherwise a :class:`ValueError` names the offending protocols
    instead of letting an ``IndexError``/``KeyError`` escape from deep inside
    a renderer.
    """
    if protocols is None:
        return [p for p in KNOWN_PROTOCOLS if p in result.curves]
    resolved = list(protocols)
    duplicates = sorted({p for p in resolved if resolved.count(p) > 1})
    if duplicates:
        raise ValueError(f"duplicate protocol name(s): {', '.join(duplicates)}")
    missing = [p for p in resolved if p not in result.curves]
    if missing:
        available = ", ".join(result.curves) or "none"
        raise ValueError(
            f"sweep of scenario {result.scenario.scenario_id} has no curve "
            f"for protocol(s) {', '.join(missing)} (available: {available})"
        )
    return resolved


def series_rows(
    result: SweepResult, protocols: Optional[Sequence[str]] = None
) -> List[dict]:
    """Per-utilization-point acceptance ratios of one sweep (one dict each).

    Each row maps ``utilization``, ``normalized_utilization``,
    ``generation_failures``, and one key per protocol to that protocol's
    acceptance ratio (NaN where no task set was realised).  All curves of a
    sweep are built from the same task-set draws (the runner/campaign
    assembler guarantees it), so the shared ``generation_failures`` column is
    read from the first selected protocol's curve.  An empty selection — a
    sweep with no curves and no explicit ``protocols`` — yields ``[]``.
    """
    return _assemble_rows(result, resolve_protocols(result, protocols))


def _assemble_rows(result: SweepResult, protocols: List[str]) -> List[dict]:
    """Row assembly over an already-resolved protocol list."""
    if not protocols:
        return []
    rows: List[dict] = []
    reference = result.curves[protocols[0]]
    failures = reference.generation_failures
    ratios = {p: result.curves[p].acceptance_ratios for p in protocols}
    m = result.scenario.platform_size
    for index, utilization in enumerate(reference.utilizations):
        row = {
            "utilization": utilization,
            "normalized_utilization": utilization / m,
            "generation_failures": failures[index] if index < len(failures) else 0,
        }
        for protocol in protocols:
            row[protocol] = ratios[protocol][index]
        rows.append(row)
    return rows


def series_csv(
    result: SweepResult, protocols: Optional[Sequence[str]] = None
) -> str:
    """CSV text of one sweep's acceptance-ratio series.

    NaN ratios become empty cells.  This is the writer behind the report
    bundle's per-scenario ``series/<id>.csv`` files.
    """
    protocols = resolve_protocols(result, protocols)
    rows = _assemble_rows(result, protocols)
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer,
        fieldnames=[
            "utilization",
            "normalized_utilization",
            *protocols,
            "generation_failures",
        ],
        lineterminator="\n",
    )
    writer.writeheader()
    for row in rows:
        row = dict(row)
        for protocol in protocols:
            if math.isnan(row[protocol]):
                row[protocol] = ""
        writer.writerow(row)
    return buffer.getvalue()


def _format_ratio(ratio: float, width: int = 10) -> str:
    if math.isnan(ratio):
        return f"{'n/a':>{width}s}"
    return f"{ratio:>{width}.2f}"


def render_series_table(
    result: SweepResult, protocols: Optional[Sequence[str]] = None, title: str = ""
) -> str:
    """Plain-text table of the acceptance-ratio series of one sweep.

    A trailing ``fails`` column appears when any point lost task-set draws to
    generation failures.
    """
    protocols = resolve_protocols(result, protocols)
    rows = _assemble_rows(result, protocols)
    show_failures = any(row["generation_failures"] for row in rows)
    header = ["U/m"] + list(protocols) + (["fails"] if show_failures else [])
    lines = [title or f"Scenario {result.scenario.scenario_id}"]
    lines.append("  ".join(f"{h:>10s}" for h in header))
    for row in rows:
        cells = [f"{row['normalized_utilization']:>10.2f}"]
        cells += [_format_ratio(row[p]) for p in protocols]
        if show_failures:
            cells.append(f"{row['generation_failures']:>10d}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def render_ascii_plot(
    result: SweepResult,
    protocols: Optional[Sequence[str]] = None,
    height: int = 12,
) -> str:
    """Very small ASCII rendering of the acceptance-ratio curves.

    Each protocol is drawn with its own marker; points round to the nearest
    character cell, which is plenty to eyeball the crossovers reported in the
    paper.  Points with no realised task sets are left blank.
    """
    protocols = resolve_protocols(result, protocols)
    markers = "ox+*#@%&"
    rows = _assemble_rows(result, protocols)
    width = len(rows)
    grid = [[" "] * width for _ in range(height + 1)]
    for column, row in enumerate(rows):
        for index, protocol in enumerate(protocols):
            if math.isnan(row[protocol]):
                continue
            level = int(round(row[protocol] * height))
            grid[height - level][column] = markers[index % len(markers)]
    lines = [f"acceptance ratio vs normalized utilization — {result.scenario.scenario_id}"]
    for level, row_cells in enumerate(grid):
        label = f"{(height - level) / height:4.2f} |"
        lines.append(label + "".join(row_cells))
    lines.append("      " + "-" * width)
    legend = ", ".join(
        f"{markers[i % len(markers)]}={p}" for i, p in enumerate(protocols)
    )
    lines.append("      " + legend)
    return "\n".join(lines)
