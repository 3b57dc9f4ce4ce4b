"""Campaign-execution engine: parallel, resumable scenario-grid sweeps.

The campaign subsystem decomposes an experiment campaign into independent
``(scenario, utilization point)`` work units with deterministic per-unit
seeds, executes them serially or across a process pool, and checkpoints
every completed unit into an on-disk store so that interrupted campaigns
resume where they left off.  See DESIGN.md ("Campaign engine") for the
architecture and EXPERIMENTS.md for the command-line workflow.
"""

from .executor import (
    RetryPolicy,
    UnitResult,
    assemble_sweep,
    build_protocols,
    execute_unit,
    execute_units,
    plan_runner,
)
from .merge import MergeConflictError, MergeError, MergeReport, merge_stores
from .planner import (
    CAMPAIGN_MODES,
    MODE_ANALYZE,
    MODE_SIMULATE,
    SIMULATABLE_PROTOCOLS,
    CampaignPlan,
    WorkUnit,
    campaign_manifest,
    config_hash,
    manifest_shard,
    parse_filter,
    plan_campaign,
    plan_from_manifest,
    plan_scenario_units,
    select_scenarios,
    shard_units,
)
from .store import CampaignStore, ConfigMismatchError, StoreError, StoreView

__all__ = [
    "RetryPolicy",
    "UnitResult",
    "assemble_sweep",
    "build_protocols",
    "execute_unit",
    "execute_units",
    "plan_runner",
    "MergeConflictError",
    "MergeError",
    "MergeReport",
    "merge_stores",
    "CAMPAIGN_MODES",
    "MODE_ANALYZE",
    "MODE_SIMULATE",
    "SIMULATABLE_PROTOCOLS",
    "CampaignPlan",
    "WorkUnit",
    "campaign_manifest",
    "config_hash",
    "manifest_shard",
    "parse_filter",
    "plan_campaign",
    "plan_from_manifest",
    "plan_scenario_units",
    "select_scenarios",
    "shard_units",
    "CampaignStore",
    "ConfigMismatchError",
    "StoreError",
    "StoreView",
]
