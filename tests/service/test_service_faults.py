"""Fault-path tests of the service daemon, reusing the campaign fault
injector: a killed worker quarantines its unit and fails the job with a
typed error; resubmitting the identical job heals from the durable store
bit-identically; transient faults retry invisibly."""

from __future__ import annotations

import json
import os

from repro.campaign import faultinject
from repro.campaign.executor import RetryPolicy, build_protocols, execute_units
from repro.campaign.faultinject import (
    ENV_VAR,
    FAULT_KILL,
    FAULT_RAISE,
    FaultPlan,
    FaultSpec,
    write_plan,
)
from repro.campaign.planner import campaign_manifest
from repro.campaign.store import CampaignStore, StoreView
from repro.obs.sink import events_path, iter_event_records

#: Store fields that legitimately differ between runs of the same campaign.
VOLATILE_FIELDS = ("completed_at", "elapsed_seconds")


def _payload(record):
    """A store record with its volatile (timing) fields stripped."""
    return {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}


def _store_payloads(directory):
    """Stripped result payloads of a store, keyed by unit id."""
    store = CampaignStore(directory)
    return {
        unit_id: _payload(record)
        for unit_id, record in store.load_records().items()
    }


def _activate(monkeypatch, tmp_path, *faults, seed=0):
    """Write a fault plan, point the environment at it, return its path."""
    state = str(tmp_path / "fault-state")
    path = write_plan(
        FaultPlan(faults=tuple(faults), seed=seed, state_dir=state),
        str(tmp_path / "fault-plan.json"),
    )
    monkeypatch.setenv(ENV_VAR, path)
    faultinject.clear_plan_cache()
    return path


def _deactivate(monkeypatch):
    """Clear the fault plan so subsequent executions run clean."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    faultinject.clear_plan_cache()


def _event_types(directory):
    return [
        record.get("type")
        for record, _ in iter_event_records(events_path(directory))
    ]


def test_worker_kill_quarantines_unit_and_fails_job_with_typed_error(
    daemon, connect, tiny_campaign, tiny_plan, monkeypatch, tmp_path
):
    plan = tiny_plan
    victim = plan.units[1].unit_id
    _activate(
        monkeypatch,
        tmp_path,
        FaultSpec(kind=FAULT_KILL, times=0, unit_ids=(victim,)),
    )

    client = connect()
    accepted, ready = client.campaign(tiny_campaign(workers=2, max_attempts=2))

    # The job reaches a typed failed state, not a hang or a crash.
    assert ready.exit_code == 3
    assert ready.result["quarantined"] == [victim]
    assert ready.result["completed"] == len(plan.units) - 1

    status = client.status(accepted.job_id)
    assert status.state == "failed"
    assert status.exit_code == 3
    assert status.error_kind == "unit_quarantined"
    assert victim in status.error_message

    # The unit is quarantined in the durable store with the crash kind.
    store = CampaignStore(ready.result["store_directory"])
    quarantine = StoreView.open(store.directory).unresolved
    assert set(quarantine) == {victim}
    assert quarantine[victim]["error_kind"] == "worker_crash"

    # The job store's event stream saw the recovery, as for `campaign run`;
    # the service stream keeps only the job lifecycle.
    events = _event_types(ready.result["store_directory"])
    assert "pool_crashed" in events
    assert "unit_quarantined" in events
    service_events = _event_types(daemon.data_dir)
    assert "job_finished" in service_events
    assert "pool_crashed" not in service_events


def test_resubmitted_identical_job_heals_from_the_durable_store(
    daemon, connect, tiny_campaign, tiny_plan, monkeypatch, tmp_path
):
    plan = tiny_plan
    victim = plan.units[2].unit_id
    _activate(
        monkeypatch,
        tmp_path,
        FaultSpec(kind=FAULT_KILL, times=0, unit_ids=(victim,)),
    )

    client = connect()
    submission = tiny_campaign(workers=2, max_attempts=2)
    accepted_faulty, ready_faulty = client.campaign(submission)
    assert ready_faulty.exit_code == 3
    store_dir = ready_faulty.result["store_directory"]
    surviving = _store_payloads(store_dir)
    assert victim not in surviving
    with open(os.path.join(store_dir, "results.jsonl"), "rb") as handle:
        surviving_bytes = handle.read()

    # Heal: clear the fault and resubmit the *identical* job.
    _deactivate(monkeypatch)
    accepted_healed, ready_healed = client.campaign(submission)

    # Same job identity (config hash), now complete.
    assert accepted_healed.job_id == accepted_faulty.job_id
    assert ready_healed.exit_code == 0
    assert ready_healed.result["store_directory"] == store_dir
    assert ready_healed.result["quarantined"] == []
    assert ready_healed.result["completed"] == len(plan.units)

    # The healed store: previously finished units' raw bytes are untouched
    # (resume restored them, never re-executed them)...
    with open(os.path.join(store_dir, "results.jsonl"), "rb") as handle:
        healed_bytes = handle.read()
    assert healed_bytes.startswith(surviving_bytes)

    # ...and the whole store is bit-identical (modulo volatile timing
    # fields) to a fault-free from-scratch execution of the same campaign.
    protocols = build_protocols(
        plan.protocol_names, plan.config.max_path_signatures
    )
    clean_dir = str(tmp_path / "clean-store")
    clean_store = CampaignStore(clean_dir)
    clean_store.initialize(campaign_manifest(plan))
    execute_units(
        plan.units,
        protocols,
        store=clean_store,
        retry=RetryPolicy(backoff_base=0.0),
    )
    assert _store_payloads(store_dir) == _store_payloads(clean_dir)

    # Identical manifests too: the service derived the same campaign.
    with open(os.path.join(store_dir, "manifest.json")) as handle:
        service_manifest = json.load(handle)
    with open(os.path.join(clean_dir, "manifest.json")) as handle:
        clean_manifest = json.load(handle)
    assert service_manifest["config_hash"] == clean_manifest["config_hash"]


def test_transient_raise_fault_is_retried_to_success(
    daemon, connect, tiny_campaign, tiny_plan, monkeypatch, tmp_path
):
    plan = tiny_plan
    victim = plan.units[0].unit_id
    _activate(
        monkeypatch,
        tmp_path,
        FaultSpec(kind=FAULT_RAISE, times=1, unit_ids=(victim,)),
    )

    client = connect()
    _, ready = client.campaign(tiny_campaign(workers=1, max_attempts=3))

    # One transient failure, then success: the job completes cleanly.
    assert ready.exit_code == 0
    assert ready.result["quarantined"] == []
    assert "unit_retried" in _event_types(ready.result["store_directory"])
    assert "unit_retried" not in _event_types(daemon.data_dir)
    store = CampaignStore(ready.result["store_directory"])
    assert not StoreView.open(store.directory).unresolved
