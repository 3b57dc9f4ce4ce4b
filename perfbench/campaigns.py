"""The campaign workloads: ``fig2-paper`` and ``grid-smalldag``.

Both run exactly as ``python -m repro.campaign run`` does by default: the
planner, a fresh :class:`~repro.campaign.store.CampaignStore`, an
``events.jsonl`` sink, per-unit telemetry and ``workers=1`` through
:func:`repro.campaign.executor.execute_units`.

A run executes whole campaigns, so every run sees the same mix of
utilization points.  The campaign seeds come from a pool of
:data:`POOL_SIZE` entries whose per-unit counts are recorded in
``expected/<workload>.json`` (``record_expected.py`` rewrites them);
benchmark seed ``n`` starts at pool entry ``n % POOL_SIZE`` and takes the
following entries while time remains.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.campaign.executor import (
    RetryPolicy,
    build_protocols,
    execute_units,
    plan_runner,
)
from repro.campaign.planner import (
    FORMAT_VERSION,
    campaign_manifest,
    grid_scenarios,
    plan_campaign,
)
from repro.campaign.store import CampaignStore
from repro.experiments.runner import SweepConfig
from repro.experiments.scenarios import full_grid
from repro.obs.events import CampaignFinished, CampaignStarted
from repro.obs.sink import EventSink

HERE = os.path.dirname(os.path.abspath(__file__))

#: Campaign seeds are ``BASE_SEED + pool index``.
BASE_SEED = 20200706
POOL_SIZE = 16

#: fig2-paper points per platform size (step 0.1): where DPCP-p-EP
#: acceptance falls from about half to near zero on the 16-core panels.
#: 16-core p05 (EP acceptance already ~0) is left out to keep a run short.
#: The 32-core panels are left out too: their p00 units draw the same task
#: sets in both panels (equal counts in every recorded campaign), so each
#: heavy draw counts twice; they took 40 % of a campaign's time and about
#: 75 % of the variance of its cost between seeds.  service-queries still
#: covers the 32-core panels.
FIG2_POINTS = {16: (2, 3, 4), 32: ()}
#: Task sets per point: a campaign takes ~7.5 s on a 2-vCPU VM, small
#: enough that a run's campaign count follows ``--seconds``.
FIG2_SAMPLES = 10

#: grid-smalldag: the benchmarks/conftest.py defaults.
GRID_STRIDE = 9
GRID_VERTICES = (10, 30)
GRID_SAMPLES = 8
STEP = 0.1


def _fig2_plan(seed: int):
    config = SweepConfig(
        samples_per_point=FIG2_SAMPLES, utilization_step_fraction=STEP, seed=seed
    )
    plan = plan_campaign(grid_scenarios("fig2"), config)
    units = [
        unit
        for unit in plan.units
        if unit.point_index in FIG2_POINTS[unit.scenario.platform_size]
    ]
    return plan, units


def _grid_plan(seed: int):
    config = SweepConfig(
        samples_per_point=GRID_SAMPLES, utilization_step_fraction=STEP, seed=seed
    )
    scenarios = full_grid(num_vertices_range=GRID_VERTICES)[::GRID_STRIDE]
    plan = plan_campaign(scenarios, config)
    return plan, plan.units


#: Workload name -> planner of one campaign: ``seed -> (plan, units)``.
WORKLOADS: Dict[str, Callable[[int], tuple]] = {
    "fig2-paper": _fig2_plan,
    "grid-smalldag": _grid_plan,
}

#: Campaigns a run executes even when they overrun ``--seconds``: fig2's
#: task sets vary so much in cost that fewer than 160 draws make the
#: seed-to-seed spread of a run exceed the benchmark's bounds.
MIN_CAMPAIGNS = {"fig2-paper": 3, "grid-smalldag": 1}


def campaign_seed(pool_index: int) -> int:
    """The campaign seed of one pool entry."""
    return BASE_SEED + pool_index % POOL_SIZE


@dataclass
class Campaign:
    """A planned campaign with its store and event sink initialised."""

    seed: int
    plan: object
    units: list
    protocols: list
    store: CampaignStore
    sink: EventSink
    manifest: dict


def set_up(workload: str, seed: int, directory: str) -> Campaign:
    """Plan one campaign and initialise its store (the timed set-up)."""
    plan, units = WORKLOADS[workload](seed)
    protocols = build_protocols(plan.protocol_names, plan.config.max_path_signatures)
    store = CampaignStore(directory)
    manifest = store.initialize(campaign_manifest(plan, workers=1))
    return Campaign(seed, plan, units, protocols, store, EventSink(directory), manifest)


@dataclass
class CampaignRun:
    """Outcome of one executed campaign."""

    seed: int
    seconds: float
    drawn: int
    units: int
    records: Dict[str, dict]


def execute(campaign: Campaign, on_unit: Callable) -> CampaignRun:
    """Run every unit of ``campaign`` the way ``campaign run`` does; timed.

    ``on_unit`` is the executor's progress callback, called after each
    unit's checkpoint.
    """
    sink = campaign.sink
    started = time.perf_counter()
    sink.emit(
        CampaignStarted(
            config_hash=campaign.manifest["config_hash"],
            mode=campaign.plan.mode,
            total_units=len(campaign.units),
            workers=1,
            protocols=tuple(campaign.plan.protocol_names),
        )
    )
    results = execute_units(
        campaign.units,
        campaign.protocols,
        workers=1,
        store=campaign.store,
        progress=on_unit,
        runner=plan_runner(campaign.plan, telemetry=True),
        events=sink,
        retry=RetryPolicy(),
    )
    sink.emit(
        CampaignFinished(
            completed=len(results),
            total=len(campaign.units),
            elapsed_seconds=round(time.perf_counter() - started, 6),
        )
    )
    sink.close()
    seconds = time.perf_counter() - started
    return CampaignRun(
        seed=campaign.seed,
        seconds=seconds,
        drawn=sum(r.evaluated + r.generation_failures for r in results),
        units=len(campaign.units),
        records=campaign.store.load_records(),
    )


def load_expected(workload: str) -> dict:
    """The recorded per-unit counts of every pool campaign."""
    with open(os.path.join(HERE, "expected", f"{workload}.json")) as handle:
        return json.load(handle)


def record_of(result_record: dict) -> dict:
    """The result-determining fields of one store record."""
    return {
        "accepted": dict(result_record["accepted"]),
        "evaluated": int(result_record["evaluated"]),
        "generation_failures": int(result_record["generation_failures"]),
    }


def check(run: CampaignRun, campaign: Campaign, expected: dict) -> dict:
    """Compare a finished campaign's store with the recorded counts.

    Returns ``{"mismatched": [...], "acceptance_delta": {...}, "bumped": bool}``.  Under
    the recorded store ``FORMAT_VERSION`` every count must match.  After a
    version bump only the draw counts must; acceptance differences are
    summed per protocol into ``acceptance_delta`` instead of failing.
    """
    recorded = expected["campaigns"].get(str(run.seed))
    if recorded is None:
        raise KeyError(f"no recorded counts for campaign seed {run.seed}")
    bumped = expected["format_version"] != FORMAT_VERSION
    mismatched: List[str] = []
    delta: Dict[str, int] = {}
    for unit in campaign.units:
        want = recorded.get(unit.unit_id)
        record = run.records.get(unit.unit_id)
        if want is None or record is None:
            mismatched.append(unit.unit_id)
            continue
        got = record_of(record)
        draws_equal = (
            got["evaluated"] == want["evaluated"]
            and got["generation_failures"] == want["generation_failures"]
        )
        if not bumped:
            if not draws_equal or got["accepted"] != want["accepted"]:
                mismatched.append(unit.unit_id)
            continue
        if not draws_equal:
            mismatched.append(unit.unit_id)
        for name in set(got["accepted"]) | set(want["accepted"]):
            change = got["accepted"].get(name, 0) - want["accepted"].get(name, 0)
            delta[name] = delta.get(name, 0) + change
    return {"mismatched": mismatched, "acceptance_delta": delta, "bumped": bumped}
