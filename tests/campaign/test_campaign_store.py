"""Tests for the on-disk campaign store: checkpoints, resume, hash guard."""

from __future__ import annotations

import json

import pytest

from repro.campaign.planner import campaign_manifest, plan_campaign
from repro.campaign.store import (
    CampaignStore,
    ConfigMismatchError,
    StoreError,
    StoreView,
)
from repro.experiments.runner import SweepConfig
from repro.experiments.scenarios import Scenario


@pytest.fixture
def scenario():
    return Scenario(
        platform_size=8,
        resource_count_range=(2, 3),
        average_utilization=1.5,
        access_probability=0.5,
        request_count_range=(1, 5),
        cs_length_range=(15.0, 50.0),
        num_vertices_range=(6, 10),
    )


@pytest.fixture
def manifest(scenario):
    plan = plan_campaign(
        [scenario],
        SweepConfig(samples_per_point=2, utilization_step_fraction=0.5, seed=11),
        ["SPIN"],
    )
    return campaign_manifest(plan)


def record(unit_id, accepted=1):
    return {
        "unit_id": unit_id,
        "scenario_id": "s",
        "point_index": 0,
        "utilization": 4.0,
        "accepted": {"SPIN": accepted},
        "evaluated": 2,
        "generation_failures": 0,
        "elapsed_seconds": 0.1,
    }


def test_initialize_append_load_roundtrip(tmp_path, manifest):
    store = CampaignStore(str(tmp_path / "store"))
    assert not store.exists()
    store.initialize(manifest)
    assert store.exists()
    assert store.read_manifest()["config_hash"] == manifest["config_hash"]

    store.append(record("u1"))
    store.append(record("u2", accepted=0))
    records = store.load_records()
    assert set(records) == {"u1", "u2"}
    assert records["u1"]["accepted"] == {"SPIN": 1}
    assert "completed_at" in records["u1"]


def test_store_view_slices_the_shard_and_drops_healed_quarantine(tmp_path, scenario):
    plan = plan_campaign(
        [scenario],
        SweepConfig(samples_per_point=2, utilization_step_fraction=0.25, seed=11),
        ["SPIN"],
    )
    store = CampaignStore(str(tmp_path))
    store.initialize(campaign_manifest(plan, shard=(1, 2)))
    healed, failed = (unit.unit_id for unit in plan.units[1::2][:2])
    store.append(record(healed))
    store.append_quarantine({"unit_id": healed, "error_kind": "FaultInjected"})
    store.append_quarantine({"unit_id": failed, "error_kind": "FaultInjected"})

    view = StoreView.open(store.directory)
    assert view.shard == (1, 2)
    assert [unit.unit_id for unit in view.units] == [
        unit.unit_id for unit in plan.units[1::2]
    ]
    assert view.done == 1
    assert view.scenario_progress == [(scenario.scenario_id, 1, len(view.units))]
    assert set(view.unresolved) == {failed}


def test_duplicate_records_keep_the_first(tmp_path, manifest):
    store = CampaignStore(str(tmp_path))
    store.initialize(manifest)
    store.append(record("u1", accepted=1))
    store.append(record("u1", accepted=2))
    assert store.load_records()["u1"]["accepted"] == {"SPIN": 1}


def test_torn_trailing_line_is_ignored(tmp_path, manifest):
    store = CampaignStore(str(tmp_path))
    store.initialize(manifest)
    store.append(record("u1"))
    with open(store.results_path, "a") as handle:
        handle.write('{"unit_id": "u2", "accepted": {"SP')  # killed mid-write
    assert set(store.load_records()) == {"u1"}


def test_append_after_a_torn_line_heals_it_and_loses_no_record(tmp_path, manifest):
    store = CampaignStore(str(tmp_path))
    store.initialize(manifest)
    store.append(record("u1"))
    with open(store.results_path, "a") as handle:
        handle.write('{"unit_id": "u2", "accepted": {"SP')  # killed mid-write
    # The resume path appends the re-executed unit: it must not merge into
    # the torn line (which would silently discard it).
    store.append(record("u2", accepted=0))
    records = store.load_records()
    assert set(records) == {"u1", "u2"}
    assert records["u2"]["accepted"] == {"SPIN": 0}
    # And the record reader walks straight through the healed junk line.
    assert [r["unit_id"] for r in store.iter_records()] == ["u1", "u2"]


def test_config_mismatch_is_refused(tmp_path, manifest, scenario):
    store = CampaignStore(str(tmp_path))
    store.initialize(manifest)
    other_plan = plan_campaign(
        [scenario],
        SweepConfig(samples_per_point=5, utilization_step_fraction=0.5, seed=11),
        ["SPIN"],
    )
    other_manifest = campaign_manifest(other_plan)
    with pytest.raises(ConfigMismatchError):
        store.initialize(other_manifest)
    # The matching manifest still opens fine.
    store.initialize(manifest)


def test_missing_and_corrupt_manifests(tmp_path, manifest):
    store = CampaignStore(str(tmp_path / "nowhere"))
    with pytest.raises(StoreError):
        store.read_manifest()

    tampered_dir = tmp_path / "tampered"
    store = CampaignStore(str(tampered_dir))
    store.initialize(manifest)
    with open(store.manifest_path) as handle:
        data = json.load(handle)
    data["sweep_config"]["samples_per_point"] = 999  # silent edit, stale hash
    with open(store.manifest_path, "w") as handle:
        json.dump(data, handle)
    with pytest.raises(ConfigMismatchError):
        store.read_manifest()


def test_foreign_or_future_manifests_are_refused(tmp_path, manifest):
    store = CampaignStore(str(tmp_path / "future"))
    store.initialize(manifest)
    with open(store.manifest_path) as handle:
        data = json.load(handle)
    data["format_version"] = 999
    with open(store.manifest_path, "w") as handle:
        json.dump(data, handle)
    with pytest.raises(StoreError, match="format"):
        store.read_manifest()

    foreign_dir = tmp_path / "foreign"
    foreign_dir.mkdir()
    with open(foreign_dir / "manifest.json", "w") as handle:
        json.dump({"name": "some other tool"}, handle)
    with pytest.raises(StoreError):  # not a raw KeyError
        CampaignStore(str(foreign_dir)).read_manifest()


def test_manifest_versions_are_checked_per_mode(tmp_path, scenario):
    """Simulate stores version independently of analyze stores.

    A pre-refactor simulate store (old ``FORMAT_VERSION`` stamp) must be
    refused, while an analyze store carrying that same number — the
    version still in force for its mode — keeps loading.
    """
    from repro.campaign.planner import (
        FORMAT_VERSION,
        MODE_SIMULATE,
        SIMULATE_FORMAT_VERSION,
    )

    sweep = SweepConfig(samples_per_point=2, utilization_step_fraction=0.5, seed=11)
    simulate_manifest = campaign_manifest(
        plan_campaign([scenario], sweep, mode=MODE_SIMULATE)
    )
    assert simulate_manifest["format_version"] == SIMULATE_FORMAT_VERSION

    store = CampaignStore(str(tmp_path / "old-simulate"))
    store.initialize(simulate_manifest)
    with open(store.manifest_path) as handle:
        data = json.load(handle)
    data["format_version"] = FORMAT_VERSION  # pre-refactor simulate stamp
    with open(store.manifest_path, "w") as handle:
        json.dump(data, handle)
    with pytest.raises(StoreError, match="simulate"):
        store.read_manifest()

    analyze_manifest = campaign_manifest(plan_campaign([scenario], sweep, ["SPIN"]))
    assert analyze_manifest["format_version"] == FORMAT_VERSION
    analyze_store = CampaignStore(str(tmp_path / "analyze"))
    analyze_store.initialize(analyze_manifest)
    assert analyze_store.read_manifest()["format_version"] == FORMAT_VERSION
