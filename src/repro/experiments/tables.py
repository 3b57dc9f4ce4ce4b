"""Reproduction of the paper's Tables 2 and 3 (dominance / outperformance).

The tables report, for every ordered protocol pair (row, column), in how many
of the experimental scenarios the row protocol dominates / outperforms the
column protocol, as an absolute count and as a percentage of the scenarios.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .figures import load_sweep_results
from .metrics import PairwiseStatistics
from .runner import pairwise_statistics

#: Protocol order used by the paper's tables.
TABLE_PROTOCOLS = ("DPCP-p-EP", "DPCP-p-EN", "SPIN", "LPP")


def _format_cell(count: int, total: int) -> str:
    percentage = 100.0 * count / total if total else 0.0
    return f"{count}({percentage:.1f}%)"


def _render(
    stats: PairwiseStatistics,
    matrix_name: str,
    protocols: Sequence[str],
    title: str,
) -> str:
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
    """Render Table 2 ("Statistic for Dominance") as plain text."""
    protocols = protocols or [p for p in TABLE_PROTOCOLS if p in stats.protocols]
    return _render(stats, "dominance", protocols, "Table 2. Statistic for Dominance")


def render_outperformance_table(
    stats: PairwiseStatistics, protocols: Optional[Sequence[str]] = None
) -> str:
    """Render Table 3 ("Statistic for Outperformance") as plain text."""
    protocols = protocols or [p for p in TABLE_PROTOCOLS if p in stats.protocols]
    return _render(
        stats, "outperformance", protocols, "Table 3. Statistic for Outperformance"
    )


def load_pairwise_statistics(
    store_directory: str,
    protocols: Optional[Sequence[str]] = None,
    allow_partial: bool = True,
) -> PairwiseStatistics:
    """Build dominance/outperformance statistics from a campaign store.

    Only scenarios whose sweep completed contribute (partial curves would
    bias the per-scenario comparisons); pass ``allow_partial=False`` to
    require a fully executed campaign instead.  The store is folded by the
    reporting aggregator, so this shares its code path with
    ``python -m repro.campaign report``.
    """
    results = load_sweep_results(store_directory, allow_partial=allow_partial)
    if not results:
        raise ValueError(
            f"store {store_directory!r} holds no completed scenario sweeps yet"
        )
    return pairwise_statistics(results, protocols=protocols)


def table_rows(
    stats: PairwiseStatistics,
    matrix: str,
    protocols: Optional[Sequence[str]] = None,
) -> List[dict]:
    """Structured rows of a table (useful for CSV export and tests).

    Each row is ``{"protocol": row, column: count, ...}``.
    """
    if matrix not in ("dominance", "outperformance"):
        raise ValueError("matrix must be 'dominance' or 'outperformance'")
    protocols = protocols or [p for p in TABLE_PROTOCOLS if p in stats.protocols]
    data = getattr(stats, matrix)
    rows: List[dict] = []
    for row_protocol in protocols:
        row = {"protocol": row_protocol}
        for col_protocol in protocols:
            if row_protocol == col_protocol:
                row[col_protocol] = None
            else:
                row[col_protocol] = data[row_protocol][col_protocol]
        rows.append(row)
    return rows
