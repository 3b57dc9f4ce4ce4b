"""Classic (sequential-task) DPCP analysis used for light tasks (Sec. VI)."""

from .dpcp import (
    SequentialModelError,
    SequentialSystem,
    SequentialTask,
    analyze_sequential_system,
    partition_sequential_system,
    sequential_dpcp_wcrt,
)

__all__ = [
    "SequentialModelError",
    "SequentialSystem",
    "SequentialTask",
    "analyze_sequential_system",
    "partition_sequential_system",
    "sequential_dpcp_wcrt",
]
