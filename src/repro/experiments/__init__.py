"""Schedulability experiment harness (Sec. VII): scenarios, sweeps, metrics.

Rendering the paper's Fig. 2 and Tables 2–3 from sweep results or a
campaign store is :mod:`repro.report`'s job; this package never imports it.
"""

from .metrics import (
    PairwiseStatistics,
    SweepCurve,
    TightnessStats,
    ValidationRollup,
    dominates,
    outperforms,
    weighted_acceptance,
)
from .runner import (
    SweepConfig,
    SweepResult,
    pairwise_statistics,
    run_campaign,
    run_sweep,
)
from .scenarios import (
    ACCESS_PROBABILITIES,
    AVERAGE_UTILIZATIONS,
    CS_LENGTH_RANGES,
    PLATFORM_SIZES,
    REQUEST_COUNT_RANGES,
    RESOURCE_COUNT_RANGES,
    Scenario,
    figure2_scenarios,
    full_grid,
)

__all__ = [
    "PairwiseStatistics",
    "SweepCurve",
    "TightnessStats",
    "ValidationRollup",
    "dominates",
    "outperforms",
    "weighted_acceptance",
    "SweepConfig",
    "SweepResult",
    "pairwise_statistics",
    "run_campaign",
    "run_sweep",
    "ACCESS_PROBABILITIES",
    "AVERAGE_UTILIZATIONS",
    "CS_LENGTH_RANGES",
    "PLATFORM_SIZES",
    "REQUEST_COUNT_RANGES",
    "RESOURCE_COUNT_RANGES",
    "Scenario",
    "figure2_scenarios",
    "full_grid",
]
