"""Store aggregation: fold unit records into curves and rollups.

The aggregator is the single path from an on-disk campaign store to every
reporting artefact.  It reads ``results.jsonl`` once, through the store's
:class:`~repro.campaign.store.StoreView` (never re-running any analysis),
groups the work-unit records by scenario, and derives from them
the per-scenario :class:`~repro.experiments.runner.SweepResult` curves plus
the cross-scenario rollups of the paper's Sec. VII: weighted acceptance,
pairwise dominance/outperformance, and generation-failure accounting.

Aggregation is stateless: it writes nothing, so reporting never changes a
store.  See DESIGN.md ("Reporting re-reads the store") for why no on-disk
cache sits in front of it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional

from ..campaign.executor import UnitResult, assemble_sweep
from ..campaign.planner import MODE_ANALYZE, MODE_SIMULATE, CampaignPlan
from ..campaign.store import StoreView
from ..experiments.metrics import (
    PairwiseStatistics,
    ValidationRollup,
    weighted_acceptance,
)
from ..experiments.runner import SweepResult, pairwise_statistics
from ..experiments.scenarios import Scenario


@dataclass
class ScenarioReport:
    """Aggregated view of one scenario inside a store."""

    scenario: Scenario
    sweep: SweepResult
    points_done: int
    points_total: int
    #: Per-protocol validation evidence folded over the scenario's stored
    #: units (simulate-mode stores only; ``None`` in analyze mode).
    validation: Optional[Dict[str, ValidationRollup]] = None

    @property
    def complete(self) -> bool:
        """Whether every planned utilization point of the scenario is stored."""
        return self.points_done >= self.points_total


@dataclass
class StoreAggregate:
    """Everything one report needs, derived from a single store pass."""

    store_directory: str
    manifest: dict
    plan: CampaignPlan
    scenarios: List[ScenarioReport]
    #: Totals folded over every stored unit (complete or not).
    generation_failures: int = 0
    evaluated_samples: int = 0
    #: Unresolved quarantine records by unit id (units that exhausted their
    #: execution attempts and have no successful checkpoint; see
    #: ``docs/robustness.md``).  Empty for fault-free stores.
    quarantined: Dict[str, dict] = field(default_factory=dict)

    @property
    def protocols(self) -> List[str]:
        """Protocol names of the campaign (manifest order)."""
        return list(self.plan.protocol_names)

    @property
    def mode(self) -> str:
        """Campaign mode (``analyze`` or ``simulate``)."""
        return self.manifest.get("mode", MODE_ANALYZE)

    def validation_totals(self) -> Dict[str, ValidationRollup]:
        """Campaign-wide validation rollup per protocol (simulate mode).

        Folded over the *complete* scenarios in plan order — matching every
        other campaign-wide rollup — so the totals correspond exactly to
        the per-scenario rows of the bound-tightness table.  Empty for
        analyze-mode stores or while no scenario has completed.
        """
        totals: Dict[str, ValidationRollup] = {}
        if self.mode != MODE_SIMULATE:
            return totals
        for report in self.complete_reports():
            if not report.validation:
                continue
            for name in self.protocols:
                rollup = report.validation.get(name)
                if rollup is None:
                    continue
                totals.setdefault(name, ValidationRollup()).merge(rollup)
        return totals

    @property
    def completed_units(self) -> int:
        """Number of work units present in the store."""
        return sum(report.points_done for report in self.scenarios)

    @property
    def total_units(self) -> int:
        """Number of work units the campaign plans."""
        return len(self.plan.units)

    @property
    def complete(self) -> bool:
        """Whether every planned unit of the campaign is stored."""
        return self.completed_units >= self.total_units

    def complete_reports(self) -> List[ScenarioReport]:
        """Scenario reports whose sweep covers every planned point."""
        return [report for report in self.scenarios if report.complete]

    def incomplete_reports(self) -> List[ScenarioReport]:
        """Scenario reports still missing utilization points."""
        return [report for report in self.scenarios if not report.complete]

    def complete_results(self) -> List[SweepResult]:
        """Sweep results of the complete scenarios (plan order)."""
        return [report.sweep for report in self.complete_reports()]

    def weighted_acceptance(self) -> Dict[str, float]:
        """Overall acceptance ratio per protocol over the complete scenarios.

        NaN (never a fabricated 0.0) when a protocol realised no samples;
        empty when no scenario completed yet.
        """
        curves = [
            report.sweep.curves[name]
            for report in self.complete_reports()
            for name in self.protocols
        ]
        if not curves:
            return {}
        totals = weighted_acceptance(curves)
        return {name: totals.get(name, math.nan) for name in self.protocols}

    def ep_fidelity(self) -> Optional[Dict[str, float]]:
        """The store's :meth:`~repro.obs.profile.ComputeProfile.ep_fidelity`.

        ``None`` when no EP enumeration ran with telemetry (no DPCP-p-EP
        test, telemetry disabled, or no ``events.jsonl``) — reports then
        omit the "Compute profile" section.  ``events.jsonl`` is scanned on
        the first call only, so the Markdown and HTML reports of one
        aggregate parse the event stream once and ``results.jsonl`` never.
        """
        return self._ep_fidelity

    @cached_property
    def _ep_fidelity(self) -> Optional[Dict[str, float]]:
        # Imported lazily: the profile module must not be pulled in by
        # plain aggregation.
        from ..obs.profile import scan_events

        return scan_events(self.store_directory).ep_fidelity()

    def pairwise(self) -> Optional[PairwiseStatistics]:
        """Dominance/outperformance over the complete scenarios.

        ``None`` when fewer than two protocols were evaluated or no scenario
        completed (the pairwise comparison would be meaningless).
        """
        results = self.complete_results()
        if not results or len(self.protocols) < 2:
            return None
        return pairwise_statistics(results, protocols=self.protocols)


def aggregate_store(store_directory: str) -> StoreAggregate:
    """Aggregate one campaign store from its :class:`StoreView`.

    Records are the view's: the first record wins per unit, and torn or
    malformed lines are skipped.  Records without a
    ``scenario_id``/``point_index`` are ignored.
    """
    view = StoreView.open(store_directory)
    plan = view.plan

    by_scenario: Dict[str, List[UnitResult]] = {}
    for record in view.records.values():
        if record.get("scenario_id") is None or record.get("point_index") is None:
            continue
        result = UnitResult.from_record(record)
        by_scenario.setdefault(result.scenario_id, []).append(result)
    expected = Counter(unit.scenario.scenario_id for unit in plan.units)

    aggregate = StoreAggregate(
        store_directory=view.store.directory,
        manifest=view.manifest,
        plan=plan,
        scenarios=[],
        quarantined=view.unresolved,
    )
    simulate_mode = aggregate.mode == MODE_SIMULATE
    for scenario in plan.scenarios:
        unit_results = by_scenario.get(scenario.scenario_id, [])
        sweep = assemble_sweep(scenario, plan.protocol_names, unit_results)
        validation = None
        if simulate_mode:
            # Fold in point order so float sums are byte-deterministic
            # regardless of completion order.
            validation = {name: ValidationRollup() for name in plan.protocol_names}
            for result in sorted(unit_results, key=lambda r: r.point_index):
                for name, rollup in (result.simulation or {}).items():
                    if name in validation:
                        validation[name].merge(rollup)
        aggregate.scenarios.append(
            ScenarioReport(
                scenario=scenario,
                sweep=sweep,
                points_done=len(unit_results),
                points_total=expected[scenario.scenario_id],
                validation=validation,
            )
        )
        for result in unit_results:
            aggregate.generation_failures += result.generation_failures
            aggregate.evaluated_samples += result.evaluated
    return aggregate
