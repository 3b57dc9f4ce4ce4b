"""Self-contained HTML report: the Fig.-2 curve grid plus summary tables.

HTML syntax for :func:`~repro.report.document.render_report`, so the page
carries the same sections, titles and rows as ``REPORT.md``.  It embeds its
stylesheet and every chart (inline SVG from :mod:`repro.report.svg`)
directly, so ``report.html`` is a single file with no scripts and no
external assets — it renders offline, attaches to CI runs as one artifact,
and never pulls a plotting dependency into the repo.
"""

from __future__ import annotations

from html import escape
from typing import List, Optional, Sequence

from .aggregate import StoreAggregate
from .document import render_report
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


class _Markup(str):
    """Text that is already HTML (an escaped span); never escaped again."""


def _html(text: str) -> str:
    return text if isinstance(text, _Markup) else escape(text)


def _spans(spans: Sequence[str]) -> str:
    return "".join(_html(span) for span in spans)


def _row(
    cells: Sequence[str], labels: int = 0, numeric_from: Optional[int] = None
) -> str:
    """One ``<tr>``: ``labels`` leading ``<th>`` cells, numbers right-aligned."""
    out = []
    for index, cell in enumerate(cells):
        if index < labels:
            out.append(f"<th>{_html(cell)}</th>")
        elif numeric_from is not None and index >= numeric_from:
            out.append(f'<td class="num">{_html(cell)}</td>')
        else:
            out.append(f"<td>{_html(cell)}</td>")
    return "<tr>" + "".join(out) + "</tr>"


class _Html:
    """HTML syntax for :func:`~repro.report.document.render_report`."""

    def __init__(self, chart_width: int, chart_height: int) -> None:
        self.chart_size = {"width": chart_width, "height": chart_height}

    def code(self, text: str) -> str:
        return _Markup(escape(text))  # identifiers show as plain text

    def strong(self, text: str) -> str:
        return _Markup(f"<b>{escape(text)}</b>")

    def heading(self, title: str, level: int = 2) -> str:
        return f"<h{level}>{escape(title)}</h{level}>"

    def table(self, header, rows, numeric_from: Optional[int] = None) -> str:
        """A table; a key/value table has no header row and ``<th>`` keys."""
        lines = ["<table>"]
        if header is not None:
            lines.append(_row(header, labels=len(header)))
        labels = 1 if header is None else 0
        lines += [_row(row, labels, numeric_from) for row in rows]
        return "\n".join(lines + ["</table>"])

    def matrix(self, title: str, header, rows) -> str:
        lines = [f"<h3>{escape(title)}</h3>", "<table>", _row(header, len(header))]
        lines += [_row(row, labels=1, numeric_from=1) for row in rows]
        return "\n".join(lines + ["</table>"])

    def paragraph(self, *spans: str, note: bool = False) -> str:
        opening = '<p class="note">' if note else "<p>"
        return f"{opening}{_spans(spans)}</p>"

    def bullets(self, items) -> str:
        lines = [f"<li>{_spans(item)}</li>" for item in items]
        return "\n".join(["<ul>", *lines, "</ul>"])

    def charts(self, charts) -> str:
        """The curve grid: one inline-SVG figure per scenario."""
        lines = ['<div class="grid">']
        for _scenario_id, sweep, protocols, caption in charts:
            chart = render_svg_chart(sweep, protocols, **self.chart_size)
            lines.append(
                f"<figure>{chart}<figcaption>{escape(caption)}</figcaption></figure>"
            )
        return "\n".join(lines + ["</div>"])

    def tightness_panel(self, stats) -> str:
        return f"<figure>{render_tightness_panel(stats)}</figure>"

    def document(self, title: str, blocks: List[str]) -> str:
        return "\n".join([
            "<!DOCTYPE html>",
            '<html lang="en"><head><meta charset="utf-8">',
            f"<title>{escape(title)}</title>",
            f"<style>{_STYLE}</style>",
            "</head><body>",
            *blocks,
            "</body></html>",
        ])


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
    return render_report(aggregate, _Html(chart_width, chart_height), protocols)
