"""Reporting subsystem: from an on-disk campaign store to the paper's
figures and tables without re-running a single analysis.

The pipeline is ``store → aggregate → render``:

* :mod:`repro.report.aggregate` reads a store's ``results.jsonl`` and folds
  the work-unit records into per-scenario sweep curves and cross-scenario
  rollups (statelessly: reporting never writes to the store);
* :mod:`repro.report.series` assembles per-sweep acceptance rows — the one
  code path shared with the single-sweep helpers in
  :mod:`repro.experiments.figures`;
* :mod:`repro.report.svg`, :mod:`repro.report.html`, and
  :mod:`repro.report.markdown` render the Fig.-2 curve grid and the
  Sec.-VII summary tables with zero plotting dependencies;
* :mod:`repro.report.bundle` writes the whole deliverable set
  (``REPORT.md``, ``report.html``, per-scenario CSVs) into one directory.

The CLI front-end is ``python -m repro.campaign report --store DIR``.
"""

from .aggregate import ScenarioReport, StoreAggregate, aggregate_store
from .bundle import ReportBundle, write_report_bundle
from .html import render_html_report
from .markdown import render_markdown_report
from .series import (
    DEFAULT_PROTOCOL_ORDER,
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
    "render_markdown_report",
    "DEFAULT_PROTOCOL_ORDER",
    "resolve_protocols",
    "series_csv",
    "series_rows",
    "curve_segments",
    "render_svg_chart",
]
