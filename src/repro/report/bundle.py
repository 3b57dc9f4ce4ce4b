"""Report bundle writer: one directory with every deliverable of a store.

``write_report_bundle`` turns a :class:`~repro.report.aggregate.StoreAggregate`
into::

    <out>/
        REPORT.md            # summary + per-scenario series (Markdown)
        report.html          # self-contained HTML with inline-SVG curve grid
        series/<id>.csv      # one acceptance-ratio CSV per complete scenario

The CSVs go through :func:`repro.report.series.series_csv`; callers that
hold a single :class:`~repro.experiments.runner.SweepResult` (examples,
benchmarks) use the same function, so their CSVs match the bundle's byte
for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .aggregate import StoreAggregate
from .html import render_html_report
from .markdown import render_markdown_report
from .series import resolve_protocols, series_csv

#: File/directory names inside a report bundle.
REPORT_MD_NAME = "REPORT.md"
REPORT_HTML_NAME = "report.html"
SERIES_DIR_NAME = "series"


@dataclass
class ReportBundle:
    """Paths of the files one :func:`write_report_bundle` call produced."""

    directory: str
    report_md: str
    report_html: str
    series_csvs: List[str] = field(default_factory=list)

    @property
    def paths(self) -> List[str]:
        """Every written file (Markdown, HTML, then the CSVs)."""
        return [self.report_md, self.report_html, *self.series_csvs]


def write_report_bundle(
    aggregate: StoreAggregate,
    out_dir: str,
    protocols: Optional[Sequence[str]] = None,
) -> ReportBundle:
    """Write the full report bundle for ``aggregate`` into ``out_dir``.

    ``protocols`` restricts and orders the reported curves (default: every
    protocol of the campaign).  Only complete scenarios receive a CSV; the
    Markdown/HTML reports list the incomplete ones explicitly.

    Every document is rendered *before* any file is touched and then written
    atomically (tmp + rename), so a render error — e.g. a protocol the
    campaign never ran — cannot truncate or tear a previously good bundle.
    """
    series_dir = os.path.join(out_dir, SERIES_DIR_NAME)
    bundle = ReportBundle(
        directory=out_dir,
        report_md=os.path.join(out_dir, REPORT_MD_NAME),
        report_html=os.path.join(out_dir, REPORT_HTML_NAME),
    )
    documents = [
        (bundle.report_md, render_markdown_report(aggregate, protocols=protocols)),
        (bundle.report_html, render_html_report(aggregate, protocols=protocols)),
    ]
    for report in aggregate.complete_reports():
        path = os.path.join(series_dir, f"{report.scenario.scenario_id}.csv")
        selected = resolve_protocols(report.sweep, protocols)
        documents.append((path, series_csv(report.sweep, selected)))
        bundle.series_csvs.append(path)

    os.makedirs(series_dir, exist_ok=True)
    for path, content in documents:
        temporary = path + ".tmp"
        with open(temporary, "w", newline="") as handle:
            handle.write(content)
        os.replace(temporary, path)
    return bundle
