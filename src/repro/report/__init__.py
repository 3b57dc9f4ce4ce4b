"""Reporting subsystem: from an on-disk campaign store to the paper's
figures and tables without re-running a single analysis.

The pipeline is ``store → aggregate → render``:

* :mod:`repro.report.aggregate` reads a store's ``results.jsonl`` and folds
  the work-unit records into per-scenario sweep curves and cross-scenario
  rollups (statelessly: reporting never writes to the store);
* :mod:`repro.report.series` assembles per-sweep acceptance rows — the one
  code path every renderer reads — and renders one sweep as CSV, a
  plain-text table, or an ASCII plot;
* :mod:`repro.report.document` decides the report's content once — which
  sections appear, their titles, every table row and cell — in one walk
  over the aggregate;
* :mod:`repro.report.markdown` and :mod:`repro.report.html` supply only
  the syntax for that content (``REPORT.md``, and ``report.html`` with the
  inline-SVG Fig.-2 curve grid of :mod:`repro.report.svg`), with zero
  plotting dependencies;
* :mod:`repro.report.bundle` writes the whole deliverable set
  (``REPORT.md``, ``report.html``, per-scenario CSVs) into one directory.

The CLI front-end is ``python -m repro.campaign report --store DIR``.
This package builds on :mod:`repro.experiments` (sweep results, metrics);
that package never imports this one.
"""

from .aggregate import ScenarioReport, StoreAggregate, aggregate_store
from .bundle import ReportBundle, write_report_bundle
from .html import render_html_report
from .markdown import (
    TABLE_PROTOCOLS,
    render_dominance_table,
    render_markdown_report,
    render_outperformance_table,
)
from .series import (
    render_ascii_plot,
    render_series_table,
    resolve_protocols,
    series_csv,
    series_rows,
)
from .svg import curve_segments, render_svg_chart

__all__ = [
    "ScenarioReport",
    "StoreAggregate",
    "aggregate_store",
    "ReportBundle",
    "write_report_bundle",
    "render_html_report",
    "TABLE_PROTOCOLS",
    "render_dominance_table",
    "render_markdown_report",
    "render_outperformance_table",
    "render_ascii_plot",
    "render_series_table",
    "resolve_protocols",
    "series_csv",
    "series_rows",
    "curve_segments",
    "render_svg_chart",
]
