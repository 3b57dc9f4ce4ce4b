"""Typed-event tests: registry, record round-trips, forward compatibility."""

from __future__ import annotations

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    CampaignFinished,
    CampaignStarted,
    JobAdmitted,
    JobFinished,
    PoolCrashed,
    ServiceStarted,
    UnitFinished,
    UnitQuarantined,
    UnitRetried,
    UnitStarted,
    UnitTelemetry,
    event_from_record,
)

#: One representative instance per registered event type.
SAMPLES = [
    CampaignStarted(
        config_hash="abc123",
        mode="analyze",
        total_units=8,
        workers=2,
        protocols=("SPIN", "LPP"),
    ),
    UnitStarted(unit_id="s1:p00"),
    UnitFinished(
        unit_id="s1:p00",
        scenario_id="s1",
        point_index=0,
        utilization=8.0,
        elapsed_seconds=0.25,
        evaluated=2,
        generation_failures=1,
    ),
    UnitTelemetry(unit_id="s1:p00", telemetry={"counters": {"x": 1}}),
    PoolCrashed(respawn=2, backoff_seconds=1.0, inflight_units=3),
    UnitRetried(unit_id="s1:p00", attempt=2, error_kind="ValueError"),
    UnitQuarantined(
        unit_id="s1:p00",
        error_kind="worker_crash",
        attempts=3,
        error_message="worker process died while executing this unit",
    ),
    ServiceStarted(
        host="127.0.0.1", port=7667, workers=2, data_dir="/tmp/svc"
    ),
    JobAdmitted(job_id="q-abc123", kind="query", coalesced=True, queue_depth=3),
    JobFinished(job_id="q-abc123", state="done", exit_code=0, elapsed_seconds=0.5),
    CampaignFinished(completed=8, total=8, elapsed_seconds=1.5),
]


def test_registry_covers_every_sample_and_is_consistent():
    assert {type(sample) for sample in SAMPLES} == set(EVENT_TYPES.values())
    for name, cls in EVENT_TYPES.items():
        assert cls.TYPE == name


@pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.TYPE)
def test_record_round_trip(event):
    record = event.to_record()
    assert record["type"] == event.TYPE
    assert event_from_record(record) == event


def test_tuples_serialise_as_lists_and_come_back_as_tuples():
    record = SAMPLES[0].to_record()
    assert record["protocols"] == ["SPIN", "LPP"]
    rebuilt = event_from_record(record)
    assert rebuilt.protocols == ("SPIN", "LPP")


def test_envelope_and_unknown_fields_are_ignored():
    record = UnitStarted(unit_id="u").to_record()
    record.update({"seq": 7, "ts": 123.4, "added_by_newer_writer": True})
    assert event_from_record(record) == UnitStarted(unit_id="u")


def test_unknown_event_type_is_skipped_not_fatal():
    assert event_from_record({"type": "from_the_future", "x": 1}) is None
    # Retired types in old streams load the same way.
    assert event_from_record({"type": "cache_stats", "hit": True}) is None


def test_missing_required_field_raises_type_error():
    with pytest.raises(TypeError):
        event_from_record({"type": "unit_started"})


def test_unit_telemetry_copies_its_payload():
    payload = {"counters": {"a": 1}}
    event = UnitTelemetry(unit_id="u", telemetry=payload)
    payload["counters"] = {}
    assert event.telemetry == {"counters": {"a": 1}}
