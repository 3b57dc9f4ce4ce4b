"""Reproduction of the paper's Fig. 2 (acceptance-ratio curves).

The figure builders turn sweep results into (i) plain-text tables of the
acceptance-ratio series (one column per protocol), (ii) a simple ASCII plot
for terminal inspection, and (iii) CSV files for external plotting — the
repository deliberately has no plotting dependency.

Series assembly and CSV writing live in :mod:`repro.report.series` (the
aggregation path shared with the grid reports); the helpers here are thin
single-sweep front-ends over it, so a scenario's CSV is byte-identical
whether it was written by :func:`write_series_csv` or by
``python -m repro.campaign report``.

Sweep results can come straight from :func:`~repro.experiments.runner.run_sweep`
or be loaded from an on-disk campaign store (:func:`load_sweep_results`), so
figure regeneration never requires re-running the experiments.

Utilization points where every task-set draw failed carry a NaN acceptance
ratio; the renderers show them as ``n/a`` (table), a gap (ASCII plot), or an
empty cell (CSV), and every row reports its ``generation_failures`` count.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from .runner import SweepResult

#: Plot order used in Fig. 2.
FIGURE_PROTOCOLS = ("DPCP-p-EP", "DPCP-p-EN", "SPIN", "LPP", "FED-FP")


def acceptance_series(result: SweepResult, protocols: Optional[Sequence[str]] = None) -> List[dict]:
    """Per-utilization-point acceptance ratios (one dict per point).

    Delegates to :func:`repro.report.series.series_rows`: a sweep without
    matching curves yields ``[]`` under the default selection, and an
    explicit ``protocols`` list is validated (duplicates and protocols the
    sweep has no curve for raise a :class:`ValueError` naming them).
    """
    # Deferred import, NOT hoistable: repro.report builds on this package
    # at module level (see DESIGN.md, "Layering").
    from ..report.series import series_rows

    return series_rows(result, protocols)


def _resolve(result: SweepResult, protocols: Optional[Sequence[str]]) -> List[str]:
    """Resolve/validate the protocol selection (paper's figure order).

    ``report.series`` defaults to :data:`FIGURE_PROTOCOLS` already — this
    wrapper only hides the deferred import for the renderers below.
    """
    from ..report.series import resolve_protocols

    return resolve_protocols(result, protocols)


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
    protocols = _resolve(result, protocols)
    rows = acceptance_series(result, protocols)
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
    protocols = _resolve(result, protocols)
    markers = "ox+*#@%&"
    rows = acceptance_series(result, protocols)
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


def series_to_csv(
    result: SweepResult, protocols: Optional[Sequence[str]] = None
) -> str:
    """CSV text of the acceptance-ratio series (for external plotting)."""
    from ..report.series import series_csv

    return series_csv(result, protocols)


def write_series_csv(result: SweepResult, path: str) -> None:
    """Write the acceptance-ratio series of one sweep to ``path``."""
    with open(path, "w", newline="") as handle:
        handle.write(series_to_csv(result))


def load_sweep_results(
    store_directory: str, allow_partial: bool = True
) -> List[SweepResult]:
    """Load sweep results from an on-disk campaign store.

    Decouples figure/table regeneration from campaign execution: a store
    produced by ``python -m repro.campaign run`` can be re-rendered at any
    time.  The store is folded by the reporting aggregator
    (:func:`repro.report.aggregate.aggregate_store`).  Scenarios whose
    sweep is incomplete are skipped when ``allow_partial`` is true,
    otherwise a ``ValueError`` is raised.
    """
    from ..report.aggregate import aggregate_store

    aggregate = aggregate_store(store_directory)
    if not allow_partial:
        for report in aggregate.incomplete_reports():
            raise ValueError(
                f"scenario {report.scenario.scenario_id} is incomplete "
                f"({report.points_done}/{report.points_total} units); resume "
                "the campaign or pass allow_partial=True"
            )
    return aggregate.complete_results()
