"""Markdown report (``REPORT.md``): summary tables plus per-scenario series.

Markdown syntax for :func:`~repro.report.document.render_report`, which
decides every section and cell.  The output is deterministic for a given
store — scenario sections follow plan order, no timestamps or absolute
paths appear — so a fixed-seed campaign pins it byte-for-byte in a
golden-file test.

The paper's Tables 2 and 3 are rendered here as plain text
(:func:`render_dominance_table`, :func:`render_outperformance_table`): for
every ordered protocol pair (row, column), in how many scenarios the row
protocol dominates / outperforms the column protocol, as an absolute count
and as a percentage of the scenarios.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..experiments.metrics import PairwiseStatistics
from .aggregate import StoreAggregate
from .document import pairwise_matrix, render_report
from .series import render_ascii_plot, render_series_table

#: Protocol order used by the paper's tables (they omit FED-FP).
TABLE_PROTOCOLS = ("DPCP-p-EP", "DPCP-p-EN", "SPIN", "LPP")


def _aligned_text(title: str, header: List[str], rows: List[List[str]]) -> str:
    """A pairwise matrix as its title line plus space-aligned columns."""
    rows = [header, *rows]
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = [title]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _paper_table(
    stats: PairwiseStatistics, matrix_name: str, protocols: Optional[Sequence[str]]
) -> str:
    """A pairwise matrix as plain text; by default over the paper's protocols."""
    protocols = protocols or [p for p in TABLE_PROTOCOLS if p in stats.protocols]
    return _aligned_text(*pairwise_matrix(stats, matrix_name, protocols))


def _fenced(text: str) -> str:
    return f"```text\n{text}\n```"


class _Markdown:
    """Markdown syntax for :func:`~repro.report.document.render_report`."""

    def code(self, text: str) -> str:
        return f"`{text}`"

    def strong(self, text: str) -> str:
        return f"**{text}**"

    def heading(self, title: str, level: int = 2) -> str:
        return "#" * level + " " + title

    def table(self, header, rows, numeric_from: Optional[int] = None) -> str:
        """A GitHub-flavoured table; a key/value table gets an empty header."""
        header = header or ("", "")
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines)

    def matrix(self, title: str, header, rows) -> str:
        return _fenced(_aligned_text(title, header, rows))

    def paragraph(self, *spans: str, note: bool = False) -> str:
        return "".join(spans)

    def bullets(self, items) -> str:
        return "\n".join("- " + "".join(item) for item in items)

    def charts(self, charts) -> str:
        """Per scenario: a subheading, its series table and an ASCII plot."""
        parts = []
        for scenario_id, sweep, protocols, _caption in charts:
            table = render_series_table(sweep, protocols, title=scenario_id)
            plot = render_ascii_plot(sweep, protocols)
            parts.append(f"### {scenario_id}\n\n{_fenced(table)}\n\n{_fenced(plot)}")
        return "\n\n".join(parts)

    def tightness_panel(self, stats) -> str:
        return ""  # a graphic: drawn in HTML only

    def document(self, title: str, blocks: List[str]) -> str:
        return "\n\n".join(block for block in blocks if block) + "\n"


def render_dominance_table(
    stats: PairwiseStatistics, protocols: Optional[Sequence[str]] = None
) -> str:
    """Render Table 2 ("Statistic for Dominance") as plain text.

    ``protocols`` defaults to :data:`TABLE_PROTOCOLS` present in ``stats``.
    """
    return _paper_table(stats, "dominance", protocols)


def render_outperformance_table(
    stats: PairwiseStatistics, protocols: Optional[Sequence[str]] = None
) -> str:
    """Render Table 3 ("Statistic for Outperformance") as plain text.

    ``protocols`` defaults to :data:`TABLE_PROTOCOLS` present in ``stats``.
    """
    return _paper_table(stats, "outperformance", protocols)


def render_markdown_report(
    aggregate: StoreAggregate, protocols: Optional[Sequence[str]] = None
) -> str:
    """Render a full store aggregate as one ``REPORT.md`` document.

    Sections: campaign summary, weighted acceptance, the Sec.-VII
    dominance/outperformance tables (as fenced text), and one series
    table + ASCII plot per complete scenario.
    ``protocols`` restricts and orders the reported curves.
    """
    return render_report(aggregate, _Markdown(), protocols)
