"""Fault-tolerance tests: containment, retry, quarantine, crash recovery.

Every failure mode here is *injected* through the deterministic
:mod:`repro.campaign.faultinject` harness — the same plans the chaos CI
job uses — so the recovery machinery is exercised on every run, not only
when something really crashes.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import FedFpTest, SpinTest
from repro.campaign import faultinject
from repro.campaign.executor import RetryPolicy, execute_units
from repro.campaign.faultinject import (
    ENV_VAR,
    FAULT_KILL,
    FAULT_RAISE,
    FAULT_SLEEP,
    FaultPlan,
    FaultSpec,
    leave_stale_manifest_tmp,
    load_plan,
    tear_results_tail,
    write_plan,
)
from repro.campaign.planner import campaign_manifest, plan_campaign
from repro.campaign.store import CampaignStore, StoreView
from repro.experiments.runner import SweepConfig
from repro.experiments.scenarios import Scenario
from repro.obs.sink import EventSink, events_path, iter_event_records


@pytest.fixture(scope="module")
def scenarios():
    base = Scenario(
        platform_size=8,
        resource_count_range=(2, 3),
        average_utilization=1.5,
        access_probability=0.5,
        request_count_range=(1, 5),
        cs_length_range=(15.0, 50.0),
        num_vertices_range=(6, 10),
    )
    return [base]


@pytest.fixture(scope="module")
def config():
    return SweepConfig(samples_per_point=2, utilization_step_fraction=0.25, seed=7)


def protocols():
    return [SpinTest(), FedFpTest()]


@pytest.fixture(scope="module")
def plan(scenarios, config):
    return plan_campaign(scenarios, config, [t.name for t in protocols()])


@pytest.fixture(scope="module")
def baseline(plan):
    """Fault-free serial results, keyed by unit id (volatile fields dropped)."""
    results = execute_units(plan.units, protocols(), workers=1)
    return {r.unit_id: _payload(r.to_record()) for r in results}


def _payload(record):
    return {
        key: value
        for key, value in record.items()
        if key not in ("completed_at", "elapsed_seconds")
    }


def _activate(monkeypatch, tmp_path, *faults, seed=0):
    """Write a fault plan, point the environment at it, return the plan."""
    state = str(tmp_path / "fault-state")
    path = write_plan(
        FaultPlan(faults=tuple(faults), seed=seed, state_dir=state),
        str(tmp_path / "fault-plan.json"),
    )
    monkeypatch.setenv(ENV_VAR, path)
    faultinject.clear_plan_cache()
    return load_plan(path)


def _event_types(directory):
    return [
        record.get("type") for record, _ in iter_event_records(events_path(directory))
    ]


# --------------------------------------------------------------------------- #
# Plan semantics
# --------------------------------------------------------------------------- #
def test_fault_selection_is_deterministic_and_seeded():
    spec = FaultSpec(kind=FAULT_RAISE, every=3, times=0)
    plan_a = FaultPlan(faults=(spec,), seed=1)
    plan_b = FaultPlan(faults=(spec,), seed=2)
    ids = [f"s:p{i:02d}" for i in range(60)]
    picked_a = [u for u in ids if plan_a.selects(spec, u)]
    assert picked_a == [u for u in ids if plan_a.selects(spec, u)]
    assert picked_a != [u for u in ids if plan_b.selects(spec, u)]
    pinned = FaultSpec(kind=FAULT_RAISE, times=0, unit_ids=("s:p07",))
    assert plan_a.selects(pinned, "s:p07")
    assert not plan_a.selects(pinned, "s:p08")


def test_times_budget_is_claimed_at_most_once(tmp_path):
    spec = FaultSpec(kind=FAULT_RAISE, times=1, unit_ids=("s:p00",))
    plan = FaultPlan(faults=(spec,), state_dir=str(tmp_path / "state"))
    with pytest.raises(faultinject.FaultInjected):
        plan.fire("s:p00")
    assert plan.fired(FAULT_RAISE, "s:p00") == 1
    plan.fire("s:p00")  # budget spent — silent
    assert plan.fired(FAULT_RAISE, "s:p00") == 1


def test_plan_with_budget_requires_state_dir():
    with pytest.raises(ValueError):
        FaultPlan(faults=(FaultSpec(kind=FAULT_RAISE, times=1),))


def test_plan_round_trips_through_json(tmp_path):
    plan = FaultPlan(
        faults=(
            FaultSpec(kind=FAULT_KILL, times=1, unit_ids=("a:p00",)),
            FaultSpec(kind=FAULT_SLEEP, every=5, times=0, seconds=1.5),
        ),
        seed=42,
        state_dir=str(tmp_path),
    )
    path = write_plan(plan, str(tmp_path / "plan.json"))
    assert load_plan(path) == plan


# --------------------------------------------------------------------------- #
# Containment, retry, quarantine (serial path)
# --------------------------------------------------------------------------- #
def test_transient_raise_is_retried_to_success(
    tmp_path, monkeypatch, plan, baseline
):
    victim = plan.units[1].unit_id
    fault_plan = _activate(
        monkeypatch,
        tmp_path,
        FaultSpec(kind=FAULT_RAISE, times=1, unit_ids=(victim,)),
    )
    store = CampaignStore(str(tmp_path / "store"))
    store.initialize(campaign_manifest(plan))
    sink = EventSink(store.directory)
    results = execute_units(
        plan.units, protocols(), workers=1, store=store, events=sink
    )
    sink.close()
    assert fault_plan.fired(FAULT_RAISE, victim) == 1
    assert {r.unit_id: _payload(r.to_record()) for r in results} == baseline
    assert StoreView.open(store.directory).unresolved == {}
    assert "unit_retried" in _event_types(store.directory)


def test_poison_unit_is_quarantined_and_campaign_completes(
    tmp_path, monkeypatch, plan, baseline
):
    victim = plan.units[0].unit_id
    _activate(
        monkeypatch,
        tmp_path,
        FaultSpec(kind=FAULT_RAISE, times=0, unit_ids=(victim,)),
    )
    store = CampaignStore(str(tmp_path / "store"))
    store.initialize(campaign_manifest(plan))
    sink = EventSink(store.directory)
    results = execute_units(
        plan.units,
        protocols(),
        workers=1,
        store=store,
        events=sink,
        retry=RetryPolicy(max_attempts=2),
    )
    sink.close()

    # Every other unit completed and matches the fault-free run.
    finished = {r.unit_id: _payload(r.to_record()) for r in results}
    assert victim not in finished
    assert finished == {k: v for k, v in baseline.items() if k != victim}

    # The poison unit never reached results.jsonl — only quarantine.jsonl.
    assert victim not in store.load_records()
    quarantined = StoreView.open(store.directory).unresolved
    assert set(quarantined) == {victim}
    assert quarantined[victim]["error_kind"] == "FaultInjected"
    assert quarantined[victim]["attempts"] == 2
    assert "traceback" in quarantined[victim]
    types = _event_types(store.directory)
    assert types.count("unit_retried") == 1
    assert types.count("unit_quarantined") == 1

    # Healing: with the fault gone, a resume retries and completes it.
    monkeypatch.delenv(ENV_VAR)
    faultinject.clear_plan_cache()
    resumed = execute_units(plan.units, protocols(), workers=1, store=store)
    assert {r.unit_id: _payload(r.to_record()) for r in resumed} == baseline
    assert StoreView.open(store.directory).unresolved == {}


def test_unit_deadline_converts_hang_into_timeout_error(
    tmp_path, monkeypatch, plan
):
    victim = plan.units[0].unit_id
    _activate(
        monkeypatch,
        tmp_path,
        FaultSpec(kind=FAULT_SLEEP, times=0, seconds=30.0, unit_ids=(victim,)),
    )
    store = CampaignStore(str(tmp_path / "store"))
    store.initialize(campaign_manifest(plan))
    results = execute_units(
        plan.units,
        protocols(),
        workers=1,
        store=store,
        retry=RetryPolicy(max_attempts=1),
        unit_deadline=0.2,
    )
    assert victim not in {r.unit_id for r in results}
    quarantined = StoreView.open(store.directory).unresolved
    assert quarantined[victim]["error_kind"] == "timeout"


def test_kill_fault_is_a_noop_on_the_in_process_path(
    tmp_path, monkeypatch, plan, baseline
):
    fault_plan = _activate(
        monkeypatch,
        tmp_path,
        FaultSpec(kind=FAULT_KILL, times=1, unit_ids=(plan.units[0].unit_id,)),
    )
    results = execute_units(plan.units, protocols(), workers=1)
    assert {r.unit_id: _payload(r.to_record()) for r in results} == baseline
    assert fault_plan.fired(FAULT_KILL, plan.units[0].unit_id) == 0


# --------------------------------------------------------------------------- #
# Worker-kill recovery (process-pool path) — the acceptance scenario
# --------------------------------------------------------------------------- #
def test_worker_kill_mid_campaign_recovers_bit_identical(
    tmp_path, monkeypatch, plan, baseline
):
    victim = plan.units[2].unit_id
    fault_plan = _activate(
        monkeypatch,
        tmp_path,
        FaultSpec(kind=FAULT_KILL, times=1, unit_ids=(victim,)),
    )
    store = CampaignStore(str(tmp_path / "store"))
    store.initialize(campaign_manifest(plan))
    sink = EventSink(store.directory)
    results = execute_units(
        plan.units,
        protocols(),
        workers=2,
        chunk_size=1,
        store=store,
        events=sink,
        retry=RetryPolicy(backoff_base=0.0),
    )
    sink.close()

    # The kill really happened (exactly once), the pool recovered, and the
    # final results are indistinguishable from the fault-free serial run.
    assert fault_plan.fired(FAULT_KILL, victim) == 1
    assert _event_types(store.directory).count("pool_crashed") >= 1
    assert {r.unit_id: _payload(r.to_record()) for r in results} == baseline
    assert StoreView.open(store.directory).unresolved == {}
    stored = {
        unit_id: _payload(record)
        for unit_id, record in store.load_records().items()
    }
    assert stored == baseline


def test_repeatedly_fatal_unit_is_cornered_and_quarantined(
    tmp_path, monkeypatch, plan, baseline
):
    victim = plan.units[1].unit_id
    _activate(
        monkeypatch,
        tmp_path,
        FaultSpec(kind=FAULT_KILL, times=0, unit_ids=(victim,)),
    )
    store = CampaignStore(str(tmp_path / "store"))
    store.initialize(campaign_manifest(plan))
    results = execute_units(
        plan.units,
        protocols(),
        workers=2,
        chunk_size=2,
        store=store,
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0, max_pool_respawns=2),
    )
    finished = {r.unit_id: _payload(r.to_record()) for r in results}
    assert finished == {k: v for k, v in baseline.items() if k != victim}
    quarantined = StoreView.open(store.directory).unresolved
    assert set(quarantined) == {victim}
    assert quarantined[victim]["error_kind"] == "worker_crash"


# --------------------------------------------------------------------------- #
# Store-corruption artefacts
# --------------------------------------------------------------------------- #
def test_torn_results_tail_is_healed_on_next_append(tmp_path, plan):
    store = CampaignStore(str(tmp_path / "store"))
    store.initialize(campaign_manifest(plan))
    store.append({"unit_id": "u1", "value": 1})
    tear_results_tail(store.directory)
    assert set(store.load_records()) == {"u1"}  # torn tail never surfaces
    store.append({"unit_id": "u2", "value": 2})
    assert set(store.load_records()) == {"u1", "u2"}
    with open(store.results_path, "rb") as handle:
        assert all(line.endswith(b"\n") for line in handle)


def test_stale_manifest_tmp_is_cleaned_on_initialize(tmp_path, plan):
    directory = str(tmp_path / "store")
    manifest = campaign_manifest(plan)
    store = CampaignStore(directory)
    store.initialize(manifest)
    stale = leave_stale_manifest_tmp(directory)
    assert os.path.exists(stale)
    reopened = store.initialize(manifest)
    assert not os.path.exists(stale)
    assert reopened["config_hash"] == manifest["config_hash"]
    # The real manifest survived untouched and still parses.
    assert store.read_manifest()["config_hash"] == manifest["config_hash"]


def test_manifest_writes_are_atomic(tmp_path, plan, monkeypatch):
    directory = str(tmp_path / "store")
    manifest = campaign_manifest(plan)
    CampaignStore(directory).initialize(manifest)
    # No temporary survives a successful write.
    assert os.listdir(directory) == ["manifest.json"]
    with open(os.path.join(directory, "manifest.json")) as handle:
        assert json.load(handle)["config_hash"] == manifest["config_hash"]
