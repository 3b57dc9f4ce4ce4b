"""Experiment runner: utilization sweeps and scenario-grid campaigns.

The runner generates task sets, applies every schedulability test, and
collects :class:`~repro.experiments.metrics.SweepCurve` objects that the
figure and table builders consume.

Since the campaign engine landed, the runner is a thin façade over
:mod:`repro.campaign`: sweeps are decomposed into per-utilization-point work
units by the planner and executed by the executor, so the serial convenience
API and the parallel/resumable campaign CLI share one code path (and one
seed-derivation scheme — results are bit-identical either way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..analysis.dpcp_p import DEFAULT_MAX_PATH_SIGNATURES
from ..analysis.interfaces import SchedulabilityTest
from .metrics import PairwiseStatistics, SweepCurve
from .scenarios import Scenario

#: Callback invoked after every evaluated utilization point:
#: ``(scenario, utilization, {protocol: accepted})``.
ProgressCallback = Callable[[Scenario, float, Dict[str, int]], None]


@dataclass
class SweepConfig:
    """Run-time knobs of a utilization sweep.

    Attributes
    ----------
    samples_per_point:
        Number of task sets generated per utilization point.
    utilization_step_fraction:
        Sweep resolution as a fraction of the platform size (0.05 in the
        paper).
    max_path_signatures:
        Cap forwarded to the EP path enumerator (see DESIGN.md).
    seed:
        Base seed; every (point, sample) pair receives its own child stream.
    """

    samples_per_point: int = 20
    utilization_step_fraction: float = 0.05
    max_path_signatures: int = DEFAULT_MAX_PATH_SIGNATURES
    seed: Optional[int] = 20200706

    def __post_init__(self) -> None:
        if self.samples_per_point < 1:
            raise ValueError("samples_per_point must be at least 1")
        if not 0 < self.utilization_step_fraction <= 1:
            raise ValueError(
                "utilization_step_fraction must be in (0, 1] — it is a "
                "fraction of the platform size, and a value above 1 would "
                "yield an empty sweep"
            )
        if self.max_path_signatures < 1:
            raise ValueError("max_path_signatures must be at least 1")


@dataclass
class SweepResult:
    """Outcome of sweeping one scenario."""

    scenario: Scenario
    curves: Dict[str, SweepCurve] = field(default_factory=dict)

    def curve(self, protocol: str) -> SweepCurve:
        """Curve of one protocol."""
        return self.curves[protocol]

    @property
    def protocols(self) -> List[str]:
        """Protocols covered by this sweep."""
        return list(self.curves)


def _resolve_protocols(
    protocols: Optional[Sequence[SchedulabilityTest]], config: "SweepConfig"
) -> List[SchedulabilityTest]:
    """Explicit protocol list, or the paper's suite honouring the EP cap."""
    if protocols is not None:
        return list(protocols)
    from ..campaign.executor import build_protocols
    from ..campaign.planner import KNOWN_PROTOCOLS

    return build_protocols(KNOWN_PROTOCOLS, config.max_path_signatures)


def _adapt_progress(progress: Optional[ProgressCallback], scenario: Scenario):
    """Wrap a per-point :data:`ProgressCallback` of one scenario's sweep as
    the executor's per-unit callback (``None`` passes through)."""
    if progress is None:
        return None

    def unit_progress(done, total, result):
        if result is not None:
            progress(scenario, result.utilization, dict(result.accepted))

    return unit_progress


def run_sweep(
    scenario: Scenario,
    protocols: Optional[Sequence[SchedulabilityTest]] = None,
    config: Optional[SweepConfig] = None,
    progress: Optional[ProgressCallback] = None,
) -> SweepResult:
    """Sweep the normalized utilization for one scenario.

    For every utilization point, ``config.samples_per_point`` task sets are
    generated and every protocol is applied to every task set; the acceptance
    counts form one :class:`SweepCurve` per protocol.  Points where every
    task-set draw failed are recorded with ``sampled == 0`` and their failure
    count (see :attr:`SweepCurve.generation_failures`).
    """
    # Deferred import: the campaign subsystem builds on the types above.
    from ..campaign.executor import assemble_sweep, execute_units
    from ..campaign.planner import plan_scenario_units

    config = config or SweepConfig()
    tests = _resolve_protocols(protocols, config)
    units = plan_scenario_units(scenario, config)

    unit_progress = _adapt_progress(progress, scenario)
    results = execute_units(units, tests, workers=1, progress=unit_progress)
    return assemble_sweep(scenario, [t.name for t in tests], results)


def run_campaign(
    scenarios: Sequence[Scenario],
    protocols: Optional[Sequence[SchedulabilityTest]] = None,
    config: Optional[SweepConfig] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[SweepResult]:
    """Run a serial sweep for every scenario of a grid.

    For parallel, checkpointed or resumable runs use the campaign engine
    (:func:`repro.campaign.executor.execute_units` with ``workers=N``, or
    ``python -m repro.campaign run --workers N``); results are identical.
    """
    config = config or SweepConfig()
    return [
        run_sweep(scenario, protocols=protocols, config=config, progress=progress)
        for scenario in scenarios
    ]


def pairwise_statistics(
    results: Sequence[SweepResult], protocols: Optional[Sequence[str]] = None
) -> PairwiseStatistics:
    """Aggregate dominance/outperformance statistics over sweep results."""
    if not results:
        raise ValueError("no sweep results to aggregate")
    if protocols is None:
        protocols = results[0].protocols
    stats = PairwiseStatistics(protocols=list(protocols))
    for result in results:
        stats.record_scenario(result.curves)
    return stats
